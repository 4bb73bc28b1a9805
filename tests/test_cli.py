import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floquet_ep.args import _COMMANDS, _DEFAULTS, _RUN_KEYS, build_parser
from floquet_ep.cli import UsageError, main, parse_config, run
from floquet_ep.envelope import (
    FORMATS,
    Column,
    ResultEnvelope,
    RunConfig,
    make_envelope,
    parse_csv,
    render_csv,
    render_json,
    write_result,
)
from floquet_ep.floquet import FloquetParams, floquet_hamiltonian, floquet_hamiltonian_on_contour
from floquet_ep.presets import PRESET_NAMES, figure_preset
from floquet_ep.sweep import Quantity
from floquet_ep.two_qubit import _DENSITY_LABELS

#: Keys of each command's flags (``--config`` aside), in ``--help`` order.
_FLAG_KEYS = {
    c: [k for k in vars(build_parser().parse_args([c])) if k not in ("command", "config")] for c in _DEFAULTS
}
#: command -> {key: its choices}, run keys included
_CHOICES = {
    c: {k: rule for k, (_, _, rule) in {**keys, **_RUN_KEYS}.items() if isinstance(rule, tuple) and isinstance(rule[0], str)}
    for c, (_, keys) in _COMMANDS.items()
}


class TestParseConfig:
    def test_phase_diagram_defaults(self):
        cfg = parse_config(["phase-diagram", "--p", "0.5", "--j-av", "1.0", "--grid", "400x400"])
        assert cfg.command == "phase-diagram"
        assert cfg.parameters["grid"] == [400, 400]
        assert cfg.parameters["gamma_min"] == pytest.approx(1e-2)
        assert cfg.parameters["gamma_max"] == pytest.approx(10.0)
        assert cfg.parameters["gamma_scale"] == "log"
        assert cfg.parameters["omega_min"] == pytest.approx(0.1)
        assert cfg.parameters["omega_max"] == pytest.approx(3.0)
        assert cfg.parameters["quantity"] == "inner-product"

    def test_two_qubit_flags(self):
        cfg = parse_config(
            ["two-qubit", "--j", "0.5", "--gamma", "1.0", "--kx", "1.0",
             "--init", "00", "--t-max", "20", "--steps", "400"]
        )
        assert cfg.parameters["gamma"] == [1.0]
        assert cfg.parameters["kx"] == [1.0]
        assert cfg.parameters["t_max"] == 20.0
        assert cfg.parameters["steps"] == 400

    def test_out_of_range_p_names_the_key(self, capsys):
        code = main(["phase-diagram", "--p", "1.5"])
        assert code == 2
        assert "p" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["phase-diagram", "--nope", "1"]) == 2

    def test_bad_grid_string(self):
        with pytest.raises(UsageError, match="grid"):
            parse_config(["phase-diagram", "--grid", "huge"])

    def test_bad_init_label(self):
        with pytest.raises(UsageError, match="init"):
            parse_config(["two-qubit", "--init", "zebra"])

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[two-qubit]\nj = 0.25\nt_max = 7.5\ngamma = [0.5, 1.5]\n")
        cfg = parse_config(["two-qubit", "--config", str(ini), "--j", "0.75"])
        assert cfg.parameters["j"] == 0.75  # flag wins
        assert cfg.parameters["t_max"] == 7.5  # file value
        assert cfg.parameters["gamma"] == [0.5, 1.5]
        assert cfg.parameters["steps"] == 400  # built-in default

    def test_config_file_unknown_key(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[two-qubit]\nwibble = 3\n")
        with pytest.raises(UsageError, match="wibble"):
            parse_config(["two-qubit", "--config", str(ini)])

    def test_missing_config_file(self):
        with pytest.raises(UsageError):
            parse_config(["two-qubit", "--config", "/does/not/exist.ini"])

    def test_seed_echoed(self):
        cfg = parse_config(["two-qubit", "--seed", "7"])
        assert cfg.seed == 7

    def test_config_file_run_keys(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[phase-diagram]\nseed = 7\nworkers = 2\nformat = json\noutput = pd.json\n")
        cfg = parse_config(["phase-diagram", "--config", str(ini), "--format", "csv"])
        assert (cfg.seed, cfg.format, cfg.output_path) == (7, "csv", "pd.json")
        assert "seed" not in cfg.parameters and "workers" not in cfg.parameters

    @pytest.mark.parametrize(
        "argv,ini,workers,fragment",
        [
            (["preset", "fig1b", "--workers", "0"], None, None, "workers"),
            (["preset", "fig1c", "--workers", "0"], None, None, "workers"),
            (["two-qubit"], '[two-qubit]\ngamma = [1, "a"]\n', None, "gamma"),
            (["two-qubit"], '[two-qubit]\ngamma = {"a": 1}\n', None, "gamma"),
            (["two-qubit"], "[two-qubit]\ngamma = [[1]]\n", None, "gamma"),
            (["two-qubit"], "[two-qubit]\ngamma = true\n", None, "gamma"),
            (["two-qubit"], "[two-qubit]\ngamma = []\n", None, "gamma"),
            (["two-qubit"], "[two-qubit]\nseed = 1.5\n", None, "seed"),
            (["two-qubit"], "[two-qubit]\nworkers = x\n", None, "workers"),
            (["two-qubit"], "gamma = 1.0\n", None, "run.ini"),
            (["two-qubit"], "[two-qubit]\nj = 0.5\nj = 0.7\n", None, "run.ini"),
            (["two-qubit"], "[two-qubit]\nj = 0.5\n[two-qubit]\nsteps = 3\n", None, "run.ini"),
            (["phase-diagram", "--grid", "3x3"], "[phase-diagram]\ngamma_scale = cubic\n", None, "gamma_scale"),
            (["phase-diagram", "--grid", "3x3"], None, "0", "workers"),
            (["phase-diagram", "--grid", "3x3"], None, "-3", "workers"),
            (["two-qubit", "--steps", "abc"], None, None, "steps"),
            (["phase-diagram", "--quantity", "foo"], None, None, "quantity"),
            (["two-qubit", "--gamma", "1", "--gamma", "x"], None, None, "gamma"),
            (["two-qubit", "--nope", "1"], None, None, "--nope"),
            (["preset", "fig9"], None, None, "fig9"),
            (["preset"], None, None, "NAME"),
            ([], None, None, "COMMAND"),
            (["bloch-traj"], "[bloch-traj]\nomega_max = 3\n", None, "omega_max"),
            (["bloch-traj"], "[bloch-traj]\ninit = 1.0,x\n", None, "init"),
            (["phase-diagram"], "[phase-diagram]\ngrid = 3x3x3\n", None, "grid"),
            (["--output", "x.csv", "two-qubit"], None, None, "--output must follow the command"),
            (["two-qubit"], "[two-qubit]\nworkers = 2\n", None, "unknown key 'workers'"),
            (["phase-diagram", "--grid", "3x3", "--omega-min", "0"], None, None, "omega_min"),
            (["phase-diagram", "--grid", "3x3", "--omega-min", "-1", "--omega-max", "1"], None, None, "omega_min"),
        ],
    )
    def test_bad_input_is_usage_error(self, argv, ini, workers, fragment, tmp_path, capsys):
        out = tmp_path / "out.csv"
        extra = ["--output", str(out)]
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            extra += ["--config", str(tmp_path / "run.ini")]
        if workers is not None:
            extra += ["--workers", workers]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert not out.exists()

    def test_empty_output_is_usage_error(self, capsys):
        assert main(["floquet-ham", "--output", ""]) == 2
        assert "output" in capsys.readouterr().err

    def test_config_file_percent_is_literal(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[two-qubit]\noutput = 50%.csv\ninit = 100%%\n")
        with pytest.raises(UsageError, match="100%%"):
            parse_config(["two-qubit", "--config", str(ini)])
        ini.write_text("[two-qubit]\noutput = 50%.csv\n")
        assert parse_config(["two-qubit", "--config", str(ini)]).output_path == "50%.csv"

    def test_floquet_ham_sweep_end_from_config_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[floquet-ham]\nomega_count = 5\nomega_max = 3\n")
        cfg = parse_config(["floquet-ham", "--config", str(ini)])
        assert (cfg.parameters["omega_count"], cfg.parameters["omega_max"]) == (5, 3.0)

    @pytest.mark.parametrize("command", sorted(_DEFAULTS))
    def test_help_names_every_flag_and_choice(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in _FLAG_KEYS[command]:
            assert "--" + key.replace("_", "-") in text
        for key, options in _CHOICES[command].items():
            assert "{%s}" % ",".join(options) in text

    @pytest.mark.parametrize("command", sorted(_DEFAULTS))
    def test_help_prints_each_default(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        entries = re.split(r"\n  (?=--)", capsys.readouterr().out)[1:]
        help_of = {e.split()[0]: " ".join(e.split()) for e in entries}
        for key, default in _DEFAULTS[command].items():
            shown = ",".join(map(str, default)) if isinstance(default, list) else str(default)
            assert help_of["--" + key.replace("_", "-")].endswith(f"(default {shown})")


def _ruled_flags():
    """(argv prefix, key, default, rule) for every ruled flag of every command and of ``preset``."""
    for prefix in [*([c] for c in _COMMANDS), ["preset", "fig1b"]]:
        flags = vars(build_parser().parse_args(prefix))
        table = {**(_COMMANDS[prefix[0]][1] if prefix[0] in _COMMANDS else {}), **_RUN_KEYS}
        yield from ((prefix, k, d, rule) for k, (d, _, rule) in table.items() if rule is not None and k in flags)


_RULED = list(_ruled_flags())


def _edge_values(prefix, key, default, rule):
    """Texts for ``key`` that its rule just allows and just refuses (every choice is allowed)."""
    if isinstance(rule, tuple) and isinstance(rule[0], str):
        return list(rule), [rule[0] + "x"]
    if not isinstance(rule, str):
        lo, hi = rule
        return [repr(math.nextafter(lo, hi)), repr(math.nextafter(hi, lo))], [repr(float(lo)), repr(float(hi))]
    op, bound = rule.split()
    bound = _DEFAULTS[prefix[0]][bound] if bound in _DEFAULTS.get(prefix[0], {}) else float(bound)
    if key == "grid" or default is int or type(default) is int:  # the grid's counts or another integer
        lo = int(bound) + (op == ">")
        if key == "grid":
            return [f"{lo}x{lo}"], [f"{lo}x{lo - 1}", f"{lo - 1}x{lo}"]
        return [str(lo)], [str(lo - 1)]
    lo = math.nextafter(bound, math.inf) if op == ">" else bound
    return [repr(lo)], [repr(math.nextafter(lo, -math.inf))]


@pytest.mark.parametrize("prefix,key,default,rule", _RULED, ids=[f"{a[0]}-{k}" for a, k, _, _ in _RULED])
def test_the_table_rules_the_checks_and_the_help(prefix, key, default, rule, capsys):
    """Each rule of the parameter table is what the checks apply and what ``--help`` states: the edge
    it allows and every choice parse, a value just outside is a usage error naming the key."""
    flag = "--" + key.replace("_", "-")
    allowed, refused = _edge_values(prefix, key, default, rule)
    for text in allowed:
        parse_config([*prefix, f"{flag}={text}"])
    for text in refused:
        with pytest.raises(UsageError, match=f"^invalid value for {key}: "):
            parse_config([*prefix, f"{flag}={text}"])
    if isinstance(default, list):  # each value of a list key obeys the rule
        with pytest.raises(UsageError, match=f"^invalid value for {key}: "):
            parse_config([*prefix, f"{flag}={allowed[0]}", f"{flag}={refused[0]}"])
    with pytest.raises(SystemExit):
        build_parser().parse_args([prefix[0], "--help"])
    entries = re.split(r"\n  (?=--)", capsys.readouterr().out)[1:]
    entry = next(" ".join(e.split()) for e in entries if e.split()[0] == flag)
    if isinstance(rule, str) or not isinstance(rule[0], str):
        assert "must be " + (rule if isinstance(rule, str) else f"in {rule}") in entry
    else:
        assert entry.startswith(f"{flag} {{{','.join(rule)}}}")


def test_usage_error_names_the_key_the_value_and_the_rule(capsys):
    assert main(["bloch-traj", "--periods", "0"]) == 2
    assert capsys.readouterr().err == "error: invalid value for periods: 0 (must be >= 1)\n"
    assert main(["two-qubit", "--j=-1", "--gamma", "1", "--gamma=-2"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid value for j: -1.0 (must be >= 0); gamma: -2.0 (must be >= 0)\n"
    )
    assert main(["phase-diagram", "--gamma-min", "5", "--gamma-max", "1"]) == 2
    assert capsys.readouterr().err == "error: invalid value for gamma_max: 1.0 (must be > gamma_min = 5.0)\n"


def test_literal_choices_match_their_sources():
    # the front end spells these out so that parsing loads no kernel module
    assert _CHOICES["phase-diagram"]["quantity"] == tuple(q.value for q in Quantity)
    assert all(choices["format"] == FORMATS for choices in _CHOICES.values())
    assert _CHOICES["two-qubit"]["init"] == tuple(_DENSITY_LABELS)


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(monkeypatch, name):
    """Load ``perfbench/<name>.py`` under its own name for one test: ``checks``
    imports ``workloads``, and dataclasses look their module up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_mirrors_the_cli_defaults(monkeypatch):
    """perfbench/workloads.py keeps its own copy of the defaults, with the
    grid as a tuple and the unset keys as None; it must not drift."""
    workloads = _perfbench_module(monkeypatch, "workloads")
    mirror = {
        command: {k: "x".join(map(str, v)) if isinstance(v, tuple) else v for k, v in keys.items() if v is not None}
        for command, keys in workloads.DEFAULTS.items()
    }
    assert mirror == _DEFAULTS


def test_perfbench_output_checks_pass(monkeypatch, tmp_path, capsys):
    """Every preset and every seed-7 benchmark invocation exits 0 and passes
    perfbench's independent checks: closed forms recomputed from the
    parameters alone, and the presets' recorded row samples."""
    workloads = _perfbench_module(monkeypatch, "workloads")
    checks = _perfbench_module(monkeypatch, "checks")
    reference = checks.load_reference()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    calls = [workloads.preset_call(name) for name in workloads.PRESETS]
    calls += [inv for w in workloads.WORKLOADS for inv in workloads.generate(w, 7)]
    for inv in {inv.key: inv for inv in calls}.values():
        assert main(inv.argv) == 0, (inv.key, capsys.readouterr().err)
        checks.check_output(inv, tmp_path / inv.output, reference)
        if inv.same_as is not None:
            assert (tmp_path / inv.output).read_bytes() == (tmp_path / f"{inv.same_as}.{inv.fmt}").read_bytes()


_TEXT = st.one_of(
    st.text(max_size=30),
    st.floats().map(repr),
    st.integers(-5, 5000).map(str),
    st.lists(st.floats(), max_size=3).map(json.dumps),
)


# ``workers`` is a key of [phase-diagram] only; in every other section it is a usage error
@pytest.mark.parametrize(
    "command,key", [(c, k) for c, keys in _FLAG_KEYS.items() for k in dict.fromkeys((*keys, *_RUN_KEYS, "workers"))]
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_TEXT)
def test_any_config_file_value_parses_or_is_a_usage_error(command, key, text, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{key} = {text}\n", encoding="utf-8")
    try:
        cfg = parse_config([command, "--config", str(ini)])
    except UsageError:
        return
    assert isinstance(cfg, RunConfig)


def _parse_or_usage_error(argv):
    try:
        return parse_config(argv)
    except UsageError:
        return UsageError


@pytest.mark.parametrize(
    "command,key",
    [(c, k) for c, keys in _FLAG_KEYS.items() for k in keys if not isinstance(_DEFAULTS[c].get(k), list)],
)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_TEXT.filter(lambda t: t == t.strip() and "\n" not in t and "\r" not in t))
def test_flag_and_config_file_values_obey_the_same_rules(command, key, text, tmp_path):
    # a config file strips a value and ends it at a line break; a flag keeps the text as given
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{key} = {text}\n", encoding="utf-8")
    from_flag = _parse_or_usage_error([command, f"--{key.replace('_', '-')}={text}"])
    assert from_flag == _parse_or_usage_error([command, "--config", str(ini)])


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            cfg = figure_preset(name)
            assert cfg.command in ("phase-diagram", "ep-contour", "bloch-traj", "two-qubit")
            assert set(cfg.parameters) == set(_DEFAULTS[cfg.command])
            assert (cfg.output_path, cfg.format, cfg.seed) == (f"{name}.csv", "csv", None)

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            figure_preset("fig9z")

    def test_unknown_preset_via_cli_is_usage_error(self):
        assert main(["preset", "fig9z"]) == 2

    def test_trajectory_preset_parameters(self):
        cfg = figure_preset("fig2b")
        assert cfg.command == "bloch-traj"
        assert cfg.parameters["gamma_ratio"] == pytest.approx(1.25)
        assert cfg.parameters["omega_ratio"] == pytest.approx(2.5 * math.pi)
        assert cfg.parameters["init"] == "xyz"

    def test_concurrence_preset_parameters(self):
        cfg = figure_preset("fig3c")
        assert cfg.parameters["init"] == "00"
        assert cfg.parameters["kx"] == [1.0]
        assert cfg.parameters["gamma"] == [0.75, 1.0, 1.25]

    def test_entropy_preset_parameters(self):
        cfg = figure_preset("fig3e")
        assert cfg.parameters["init"] == "mixed"
        assert cfg.parameters["gamma"] == [1.5]
        assert cfg.parameters["kx"] == [0.0, 1.5, 1.6]
        assert figure_preset("fig3f").parameters["init"] == "correlated"

    def test_preset_output_override(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["preset", "fig2a", "--output", str(out)])
        assert code == 0
        assert out.exists()


class TestEnvelope:
    def _env(self, columns):
        cfg = RunConfig(command="two-qubit", parameters={"j": 0.5}, output_path="out.csv")
        return make_envelope(cfg, columns)

    def test_csv_roundtrip_bitwise(self):
        rng = np.random.default_rng(40)
        values = list(rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200))
        env = self._env([Column("a", "dimensionless", values), Column("b", "unit", list(range(3, 203)))])
        env.columns[1].values = [float(v) for v in env.columns[1].values]
        headers, cols = parse_csv(render_csv(env))
        assert headers == ["a [dimensionless]", "b [unit]"]
        assert cols[0] == values  # exact double round trip
        assert cols[1] == env.columns[1].values

    def test_empty_series_header_only(self):
        text = render_csv(self._env([Column("x", "", []), Column("y", "", [])]))
        data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data_lines == ["x,y"]

    def test_mixed_string_column(self):
        env = self._env([Column("v", "", [1.5, 2.5]), Column("tag", "", ["unitary", "thermal"])])
        headers, cols = parse_csv(render_csv(env))
        assert cols[0] == [1.5, 2.5]
        assert cols[1] == ["unitary", "thermal"]

    def test_json_structure(self):
        env = self._env([Column("x", "rad", [0.25])])
        doc = json.loads(render_json(env))
        assert doc["schema_version"] == 1
        assert doc["config"]["command"] == "two-qubit"
        assert doc["config"]["parameters"] == {"j": 0.5}
        assert doc["columns"][0] == {"name": "x", "unit": "rad", "values": [0.25]}
        assert "build" in doc["provenance"] and "timestamp" in doc["provenance"]

    def test_unequal_columns_rejected(self):
        cfg = RunConfig(command="x", parameters={}, output_path="o.csv")
        with pytest.raises(ValueError):
            ResultEnvelope(config=cfg, columns=[Column("a", "", [1.0]), Column("b", "", [])])

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(command="x", parameters={}, output_path="o", format="xml")

    def test_source_date_epoch_pins_timestamp(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        env = self._env([])
        assert env.provenance["timestamp"] == "1970-01-01T00:00:00+00:00"


class TestRunners:
    def test_two_qubit_run_columns(self, tmp_path):
        out = tmp_path / "pair.csv"
        code = main(
            ["two-qubit", "--j", "0.5", "--gamma", "1.0", "--kx", "1.0",
             "--t-max", "4", "--steps", "16", "--output", str(out)]
        )
        assert code == 0
        headers, cols = parse_csv(out.read_text())
        assert headers[:4] == [
            "jt [dimensionless]",
            "concurrence [dimensionless]",
            "entropy_unitary [bit]",
            "entropy_thermal [bit]",
        ]
        assert len(cols[0]) == 17
        assert cols[0][0] == 0.0 and cols[0][-1] == pytest.approx(2.0)

    def test_two_qubit_multi_rate_suffixes(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(
            ["two-qubit", "--gamma", "0.75", "--gamma", "1.0", "--t-max", "2",
             "--steps", "4", "--output", str(out)]
        ) == 0
        headers, _ = parse_csv(out.read_text())
        assert "concurrence_g0.75_kx1 [dimensionless]" in headers
        assert "concurrence_g1_kx1 [dimensionless]" in headers

    def test_bloch_traj_columns(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["bloch-traj", "--periods", "2", "--substeps", "4", "--output", str(out)]) == 0
        headers, cols = parse_csv(out.read_text())
        assert headers == [
            "time [T]", "theta [rad]", "phi [rad]",
            "x [dimensionless]", "y [dimensionless]", "z [dimensionless]", "segment [tag]",
        ]
        assert cols[6][0] == "unitary"
        assert set(cols[6]) == {"unitary", "thermal"}

    def test_bloch_traj_custom_angles(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["bloch-traj", "--periods", "1", "--substeps", "2",
                     "--init", "1.0,0.5", "--output", str(out)]) == 0
        _, cols = parse_csv(out.read_text())
        assert cols[1][0] == pytest.approx(1.0, abs=1e-12)
        assert cols[2][0] == pytest.approx(0.5, abs=1e-12)

    def test_phase_diagram_row_major_order(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert main(
            ["phase-diagram", "--grid", "3x2", "--gamma-min", "0.1", "--gamma-max", "1.0",
             "--gamma-scale", "linear", "--omega-min", "1.5", "--omega-max", "2.5",
             "--output", str(out)]
        ) == 0
        headers, cols = parse_csv(out.read_text())
        assert headers == [
            "gamma_ratio [dimensionless]",
            "omega_ratio [dimensionless]",
            "inner_product [dimensionless]",
        ]
        assert cols[0] == [0.1, 0.1, 0.55, 0.55, 1.0, 1.0]
        assert cols[1] == [1.5, 2.5, 1.5, 2.5, 1.5, 2.5]

    def test_ep_contour_run(self, tmp_path):
        out = tmp_path / "ec.json"
        assert main(["ep-contour", "--omega-min", "0.9", "--omega-max", "1.1",
                     "--samples", "50", "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["columns"]]
        assert names == ["branch", "interval_k", "omega", "gamma_av", "omega_ratio", "gamma_ratio"]

    def test_floquet_ham_single_point(self, tmp_path):
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--gamma-av", "0.0", "--omega", "2.0", "--output", str(out)]) == 0
        headers, cols = parse_csv(out.read_text())
        # no gain: generator reduces to the averaged drive along x
        assert cols[headers.index("hx_re [1/time]")][0] == pytest.approx(0.5, abs=1e-12)
        assert cols[headers.index("hy_im [1/time]")][0] == pytest.approx(0.0, abs=1e-12)
        assert cols[headers.index("on_contour [flag]")][0] == 0.0

    def test_floquet_ham_sweep_rows_equal_scalar_calls(self, tmp_path):
        out = tmp_path / "fh.csv"
        argv = ["floquet-ham", "--p", "0.3", "--j-av", "1.7", "--gamma-av", "0.8",
                "--omega", "0.2", "--omega-max", "6", "--omega-count", "300", "--output", str(out)]
        assert main(argv) == 0
        headers, cols = parse_csv(out.read_text())
        rows = {h.split(" ")[0]: col for h, col in zip(headers, cols)}
        for k, omega in enumerate(np.linspace(0.2, 6.0, 300)):
            ham = floquet_hamiltonian(FloquetParams.from_omega(0.3, float(omega), 1.7, 0.8))
            assert rows["omega"][k] == omega
            for name in ("h0", "hx", "hy", "hz"):
                value = getattr(ham, name)
                assert (rows[f"{name}_re"][k], rows[f"{name}_im"][k]) == (value.real, value.imag)
            assert rows["on_contour"][k] == float(ham.on_contour)

    def test_floquet_ham_exact_ep_takes_the_closed_form(self, tmp_path):
        # an exact EP where the matrix log passes its condition test yet is wrong
        omega, gamma = 1.0029949874686717, 0.00299503139708575
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--omega", repr(omega), "--gamma-av", repr(gamma), "--output", str(out)]) == 0
        headers, cols = parse_csv(out.read_text())
        row = {h.split(" ")[0]: col[0] for h, col in zip(headers, cols)}
        closed = floquet_hamiltonian_on_contour(FloquetParams.from_omega(0.5, omega, 1.0, gamma))
        assert row["on_contour"] == 1.0
        assert row["hx_re"] == closed.hx.real
        T = 2 * math.pi / omega
        assert row["hx_re"] == pytest.approx(math.tan(0.5 * T) / T, rel=1e-9)

    def test_floquet_ham_contour_fallback(self, tmp_path):
        # points on the contour are flagged
        import floquet_ep.floquet as fl

        for j_av in (math.pi, 1.733):
            base = fl.FloquetParams(p=0.5, T=1.0, j_av=j_av, gamma_av=0.0)
            gamma = fl.ep_contour_gamma(base, branch=1)
            out = tmp_path / "fh.csv"
            assert main(["floquet-ham", "--p", "0.5", "--j-av", f"{j_av}",
                         "--gamma-av", f"{gamma}", "--omega", f"{2*math.pi}",
                         "--output", str(out)]) == 0
            headers, cols = parse_csv(out.read_text())
            assert cols[headers.index("on_contour [flag]")][0] == 1.0

    def test_unwritable_output_is_runtime_error(self, capsys):
        assert main(["two-qubit", "--t-max", "1", "--steps", "2",
                     "--output", "/nonexistent-dir/x.csv"]) == 1

    def test_json_config_echo_reruns(self, tmp_path):
        out = tmp_path / "pair.json"
        assert main(["two-qubit", "--t-max", "2", "--steps", "4", "--format", "json",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        echoed = doc["config"]
        cfg = RunConfig(
            command=echoed["command"],
            parameters=echoed["parameters"],
            output_path=str(tmp_path / "again.json"),
            format="json",
        )
        env = run(cfg)
        again = json.loads(render_json(env))
        assert again["columns"] == doc["columns"]


class TestNumericEdges:
    @pytest.mark.parametrize(
        "argv,ini",
        [
            (["phase-diagram", "--grid", "3x3", "--gamma-max", "inf"], None),
            (["phase-diagram", "--grid", "3x3", "--gamma-min", "nan", "--gamma-scale", "linear"], None),
            (["phase-diagram", "--grid", "3x3", "--j-av", "inf"], None),
            (["floquet-ham", "--omega", "inf"], None),
            (["ep-contour", "--omega-max", "inf"], None),
            (["bloch-traj", "--periods", "1", "--init", "1.0,inf"], None),
            (["two-qubit", "--gamma", "1.0", "--gamma=-inf"], None),
            (["two-qubit", "--kx", "nan"], None),
            (["two-qubit"], "[two-qubit]\nkx = [1.0, NaN]\n"),
            (["phase-diagram", "--grid", "3x3"], "[phase-diagram]\nomega_max = inf\n"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, argv, ini, tmp_path, capsys):
        out = tmp_path / "out.csv"
        extra = ["--output", str(out)]
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            extra += ["--config", str(tmp_path / "run.ini")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not out.exists()

    def test_overflow_is_a_clean_runtime_error(self, tmp_path, capsys):
        # the period 2*pi/omega overflows: the drive area is not finite
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--omega", "1e-310", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_gain_axis_is_named(self, tmp_path, capsys):
        # the gain ratio is finite, its gain area is not: the line names the gain range, not only omega's
        out = tmp_path / "map.csv"
        argv = ["phase-diagram", "--grid", "3x3", "--gamma-scale", "linear", "--gamma-min=-1.7e308"]
        assert main(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gain area" in err and "gamma_av in [-1.7e+308, 10]" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1e-3", "-1.7e308", "-5e-324", "-2.5", "-7", "-.5", "-1E+2"])
    def test_negative_value_after_a_space(self, value):
        base = ["phase-diagram", "--gamma-scale", "linear", "--gamma-min"]
        assert parse_config(base + [value]) == parse_config([*base[:-1], f"--gamma-min={value}"])

    def test_option_after_a_flag_is_still_a_usage_error(self, capsys):
        assert main(["phase-diagram", "--gamma-scale", "linear", "--gamma-min", "-x"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_strong_gain_floquet_ham_is_finite(self, tmp_path):
        # gain area 1000 * pi * 10: the one-period map itself overflows doubles
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--gamma-av", "1000", "--omega", "0.1", "--output", str(out)]) == 0
        headers, cols = parse_csv(out.read_text())
        row = {h.split(" ")[0]: col[0] for h, col in zip(headers, cols)}
        assert all(math.isfinite(v) for v in row.values())
        assert row["hz_im"] == pytest.approx(500.0, rel=1e-12)
        assert row["on_contour"] == 0.0

    def test_strong_gain_discriminant_saturates(self, tmp_path):
        base = ["phase-diagram", "--gamma-max", "1e4", "--grid", "20x20"]
        cols = {}
        for quantity in ("discriminant", "phase"):
            out = tmp_path / f"{quantity}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(base + ["--quantity", quantity, "--output", str(out)]) == 0
            cols[quantity] = np.array(parse_csv(out.read_text())[1][2])
        disc, phase = cols["discriminant"], cols["phase"]
        saturated = disc == math.inf
        assert np.all(np.isfinite(disc) | saturated)
        assert saturated.sum() == 148
        assert np.all(phase[saturated] == 1.0)

    def test_out_of_memory_is_a_clean_runtime_error(self, tmp_path, capsys):
        # the frequency column alone would take about 700 PiB, so the allocation fails at once
        out = tmp_path / "fh.csv"
        argv = ["floquet-ham", "--omega", "2", "--omega-max", "3", "--omega-count", str(10**17)]
        assert main(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


#: every float flag of each command, and sizes that keep each run small
_FLOAT_FLAGS = {
    c: [k for k, v in d.items() if isinstance(v, (float, list))] + (["omega_max"] if c == "floquet-ham" else [])
    for c, d in _DEFAULTS.items()
}
_SMALL = {
    "phase-diagram": ["--grid", "3x3"],
    "ep-contour": ["--samples", "3"],
    "floquet-ham": ["--omega-count", "3"],
    "bloch-traj": ["--periods", "2", "--substeps", "2"],
    "two-qubit": ["--steps", "3"],
}
#: zero, the smallest subnormal, a subnormal, about the root of the largest double, near the largest double
_EXTREMES = st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1e154, 1.7e308, -1.7e308, 0.5, 1.0])


@st.composite
def _extreme_argv(draw):
    command = draw(st.sampled_from(sorted(_SMALL)))
    keys = draw(st.lists(st.sampled_from(_FLOAT_FLAGS[command]), min_size=1, max_size=3, unique=True))
    argv = [command, *_SMALL[command], *(f"--{k.replace('_', '-')}={draw(_EXTREMES)!r}" for k in keys)]
    if command == "phase-diagram":
        argv += ["--quantity", draw(st.sampled_from(_CHOICES["phase-diagram"]["quantity"]))]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_extreme_argv())  # the examples are inputs that once ended in a numpy warning, an inf or a traceback
@example(argv=["bloch-traj", "--periods", "2", "--substeps", "2", "--gamma-ratio", "1.7e308"])
@example(argv=["bloch-traj", "--periods", "2", "--substeps", "1", "--gamma-ratio", "1e308", "--omega-ratio", "5"])
@example(argv=["bloch-traj", "--periods", "2", "--substeps", "2", "--gamma-ratio", "1e-310", "--j-av", "1e-310"])
@example(argv=["ep-contour", "--samples", "3", "--omega-min", "5e-324"])
@example(argv=["ep-contour", "--samples", "3", "--p", "5e-324", "--omega-max", "3.14159"])
@example(argv=["ep-contour", "--samples", "3", "--j-av", "1e+154"])  # an interval index beyond int64
@example(argv=["ep-contour", "--samples", "5", "--p", "0.75", "--j-av", "1.7e308", "--omega-min", "1e200",
               "--omega-max", "1.7e308"])  # a contour gain overflowed with a warning
@example(argv=["phase-diagram", "--grid", "3x3", "--gamma-min", "5e-324", "--j-av", "2"])
@example(argv=["phase-diagram", "--grid", "3x3", "--j-av", "1e300", "--omega-min", "2", "--omega-max", "1e300"])
@example(argv=["phase-diagram", "--grid", "3x3", "--omega-min", "1e-310", "--omega-max", "1"])  # fails at the extremes,
@example(argv=["phase-diagram", "--grid", "3x3", "--gamma-scale", "linear", "--gamma-min=-1.7e308"])  # before the file
@example(argv=["phase-diagram", "--grid", "3x3", "--gamma-scale", "linear", "--gamma-min=-1.7e308", "--gamma-max=1.7e308"])
def test_extreme_values_end_in_a_finite_result_or_one_error_line(argv, tmp_path, capsys):
    """Run ``main`` with warnings as errors: a failure is one ``error:`` line
    and no file, a success writes finite numbers, apart from a saturated
    (+inf) discriminant."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return
    for header, col in zip(*parse_csv(out.read_text())):
        saturates = header.startswith("discriminant ")
        numbers = [v for v in col if isinstance(v, float)]
        assert all(math.isfinite(v) or (saturates and v == math.inf) for v in numbers), header


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(*argv, **env):
    """Run ``python ARGV`` in an environment without BLAS thread variables, plus ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env={**base, **env})


#: ``python -m floquet_ep ARGV`` from a small parent, so that the child's ``ru_maxrss`` (which counts
#: the pages it shares with its parent until it execs) is its own; prints it in KiB.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "floquet_ep", *sys.argv[1:]], stdout=subprocess.DEVNULL)
print(os.wait4(proc.pid, 0)[2].ru_maxrss)
"""


def test_phase_map_process_peaks_near_a_one_row_run(tmp_path):
    """``preset fig1b`` (160,000 rows, 9.4 MB) peaks within 1.5 MB of a one-row ``floquet-ham`` run
    in a fresh process: the map streams from kernel to file; the whole grid took about 7 MB more."""

    def peak_mb(*argv):
        return int(_fresh_python("-c", _PEAK_RSS, *argv, "--output", str(tmp_path / "out.csv")).stdout) / 1024

    assert min(peak_mb("preset", "fig1b") for _ in range(2)) - min(peak_mb("floquet-ham") for _ in range(2)) < 1.5


_PHYSICS = ("linalg", "floquet", "bloch", "sweep", "two_qubit")
#: numpy and the run-path kernel module ``_m`` of each physics module ``m``
_KERNEL_MODULES = ("numpy", *(f"floquet_ep._{m}" for m in _PHYSICS))
#: the physics modules themselves, the library layer: no command-line run loads one
_LIBRARY_MODULES = tuple(f"floquet_ep.{m}" for m in _PHYSICS)

#: ``python -m floquet_ep ARGV`` in-process, then the exit status and the loaded
#: kernel modules go to the file named by the first argument, not to stdout/stderr.
_ENTRY_POINT = """
import json, runpy, sys
report = sys.argv.pop(1)
{preload}
try:
    runpy.run_module("floquet_ep", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
with open(report, "w") as fh:
    json.dump([status, [m for m in {kernels!r} if m in sys.modules]], fh)
"""

_HELP_ARGVS = [["--help"], *([c, "--help"] for c in (*_DEFAULTS, "preset"))]
_USAGE_ERROR_ARGVS = [
    ["phase-diagram", "--grid", "1x1"],
    ["ep-contour", "--samples", "1"],
    ["floquet-ham", "--omega-count", "3"],
    ["bloch-traj", "--init", "4,0"],
    ["two-qubit", "--init", "ghz"],
    ["preset", "fig9"],
]


#: modules that only a run needs: the result writer and what it loads, and the config-file reader
_RUN_ONLY_MODULES = ("floquet_ep.envelope", "dataclasses", "subprocess", "configparser")

#: a short run of each command -> the physics modules whose kernels it loads
_RUN_KERNELS = [
    (["phase-diagram", "--grid", "4x4"], ("linalg", "floquet", "sweep")),
    (["ep-contour", "--samples", "50"], ("linalg", "floquet", "sweep")),
    (["floquet-ham"], ("linalg", "floquet")),
    (["bloch-traj", "--periods", "2", "--substeps", "4"], ("linalg", "floquet", "bloch")),
    (["two-qubit", "--steps", "10"], ("linalg", "two_qubit")),
    (["preset", "fig3c"], ("linalg", "two_qubit")),
]


class TestNumpyFreeFrontEnd:
    """``--help`` and usage errors end before numpy, any kernel module or the writer loads,
    with the same status and bytes as a process that loaded them all first; a run loads
    only its own command's kernel modules, and no library module."""

    @staticmethod
    def _entry_point(tmp_path, argv, preload="", modules=_KERNEL_MODULES + _LIBRARY_MODULES):
        report = tmp_path / "report.txt"
        code = _ENTRY_POINT.format(preload=preload, kernels=modules)
        proc = subprocess.run([sys.executable, "-c", code, str(report), *argv], capture_output=True)
        status, loaded = json.loads(report.read_text())
        return status, proc.stdout, proc.stderr, loaded

    @pytest.mark.parametrize("argv", _HELP_ARGVS + _USAGE_ERROR_ARGVS, ids=" ".join)
    def test_loads_no_kernel_and_prints_the_same_bytes(self, tmp_path, argv):
        status, out, err, loaded = self._entry_point(tmp_path, argv)
        assert loaded == []
        assert status == (0 if "--help" in argv else 2)
        if status:
            assert out == b"" and err.startswith(b"error: ") and err.count(b"\n") == 1
        else:
            assert err == b"" and out.startswith(b"usage: floquet-ep")
        eager = self._entry_point(
            tmp_path, argv, preload="import floquet_ep.cli, floquet_ep.bloch, floquet_ep.sweep, floquet_ep.two_qubit"
        )
        assert eager == (status, out, err, [*_KERNEL_MODULES, *_LIBRARY_MODULES])

    @pytest.mark.parametrize("argv", _HELP_ARGVS + _USAGE_ERROR_ARGVS, ids=" ".join)
    def test_loads_no_writer_or_config_reader(self, tmp_path, argv):
        assert self._entry_point(tmp_path, argv, modules=_RUN_ONLY_MODULES)[3] == []

    @pytest.mark.parametrize("argv, kernels", _RUN_KERNELS, ids=[" ".join(a) for a, _ in _RUN_KERNELS])
    def test_each_command_loads_only_its_kernels(self, tmp_path, argv, kernels):
        status, _, err, loaded = self._entry_point(tmp_path, [*argv, "--output", str(tmp_path / "out.csv")])
        assert (status, err) == (0, b"")
        assert loaded == ["numpy", *(f"floquet_ep._{m}" for m in _PHYSICS if m in kernels)]  # and no library module

    def test_cli_reexports_the_front_end(self):
        import floquet_ep.args
        import floquet_ep.cli

        for name in ("UsageError", "parse_config", "main"):
            assert getattr(floquet_ep.cli, name) is getattr(floquet_ep.args, name)


#: each class that a kernel module ``_m`` defines and its library module ``m`` re-exports -> ``m``
_SHARED_CLASSES = {"FloquetParams": "floquet", "TwoQubitParams": "two_qubit", "AxisSpec": "sweep", "GridSpec": "sweep",
                   "Quantity": "sweep", "PhaseKind": "linalg", "SegmentKind": "bloch", "Qubit": "two_qubit",
                   "NumericsError": "linalg"}
#: every name in each library module's ``__all__`` resolves, and each shared class is defined in its kernel
#: and is that one object in every module of the package that holds it
_REEXPORTS = """
import importlib, sys
for m in {physics!r}:
    lib = importlib.import_module("floquet_ep." + m)
    assert [n for n in lib.__all__ if not hasattr(lib, n)] == [], m
for name, m in {shared!r}.items():
    cls = getattr(sys.modules["floquet_ep._" + m], name)
    assert cls.__module__ == "floquet_ep._" + m and getattr(sys.modules["floquet_ep." + m], name) is cls, name
    homes = [k for k, mod in sys.modules.items() if k.startswith("floquet_ep.") and hasattr(mod, name)]
    assert all(getattr(sys.modules[k], name) is cls for k in homes), (name, homes)
print("ok")
"""
#: every public module of the package
_MODULES = ("args", "bloch", "cli", "envelope", "floquet", "linalg", "presets", "sweep", "two_qubit")


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "floquet_ep", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "phase-diagram" in proc.stdout

    def test_python_dash_m_usage_error_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "floquet_ep", "two-qubit", "--steps", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "steps" in proc.stderr

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        code = "import sys, floquet_ep.cli; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test extra only: every module, both matrix sizes and a preset run without it
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import importlib, numpy as np, floquet_ep\n"
            f"for name in {_MODULES!r}:\n"
            "    importlib.import_module('floquet_ep.' + name)\n"
            "from floquet_ep.linalg import eig\n"
            "for dim in (2, 4):\n"
            "    m = np.arange(dim * dim).reshape(dim, dim) / dim**2 + 1j * np.eye(dim)\n"
            "    assert len(eig(m)) == dim\n"
            "from floquet_ep import args\n"
            "sys.exit(args.main(['preset', 'fig3c', '--output', sys.argv[1]]))\n"
        )
        out = tmp_path / "fig3c.csv"
        proc = _fresh_python("-c", code, str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().count("\n") > 100

    def test_every_name_in_all_resolves(self):
        # a stale entry would break ``from floquet_ep.<module> import *``
        for name in _MODULES:
            module = importlib.import_module(f"floquet_ep.{name}")
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], name

    def test_package_import_leaves_numpy_unloaded(self):
        code = "import os, sys; env = dict(os.environ); import floquet_ep; print('numpy' in sys.modules, env == os.environ)"
        assert _fresh_python("-c", code).stdout.split() == ["False", "True"]

    def test_no_command_loads_numpy_ma(self, tmp_path):
        # importing numpy.ma (np.unique does) costs about as much as a small run
        runs = [
            ["phase-diagram", "--grid", "4x4"],
            ["ep-contour", "--samples", "50"],
            ["floquet-ham"],
            ["bloch-traj", "--periods", "2", "--substeps", "4"],
            ["two-qubit", "--steps", "10"],
        ]
        code = (
            "import sys, floquet_ep.args\n"
            f"for argv in {runs!r}:\n"
            "    assert floquet_ep.args.main([*argv, '--output', f'{sys.argv[1]}/{argv[0]}.csv']) == 0, argv\n"
            "print('numpy.ma' in sys.modules)"
        )
        proc = _fresh_python("-c", code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_every_public_name_resolves_to_its_module(self):
        # in a fresh interpreter, so that every name takes the lazy path
        code = (
            "import floquet_ep, floquet_ep.floquet as f, floquet_ep.two_qubit as t\n"
            "for name in floquet_ep.__all__[1:]:\n"
            "    home = f if hasattr(f, name) else t\n"
            "    assert getattr(floquet_ep, name) is getattr(home, name), name\n"
            "print(len(floquet_ep.__all__))"
        )
        proc = _fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "18"

    def test_library_modules_reexport_their_kernels(self):
        # in a fresh interpreter, so that each name comes through the library module's own imports
        proc = _fresh_python("-c", _REEXPORTS.format(physics=_PHYSICS, shared=_SHARED_CLASSES))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_dir_lists_every_public_name(self):
        import floquet_ep

        assert set(floquet_ep.__all__) <= set(dir(floquet_ep))

    def test_unknown_attribute_raises(self):
        import floquet_ep

        with pytest.raises(AttributeError, match="no_such_name"):
            floquet_ep.no_such_name


class TestBlasThreadDefault:
    """The CLI runs OpenBLAS on one thread unless numpy is loaded or a thread count is set."""

    READ = "import os, floquet_ep.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    def test_cli_import_sets_one_thread(self):
        assert _fresh_python("-c", self.READ).stdout.strip() == "1"

    def test_user_openblas_count_is_kept(self):
        assert _fresh_python("-c", self.READ, OPENBLAS_NUM_THREADS="2").stdout.strip() == "2"

    def test_omp_count_leaves_openblas_unset(self):
        assert _fresh_python("-c", self.READ, OMP_NUM_THREADS="2").stdout.strip() == "None"

    def test_numpy_loaded_first_leaves_environment_untouched(self):
        code = "import os; env = dict(os.environ); import numpy, floquet_ep.cli; print(env == os.environ)"
        assert _fresh_python("-c", code).stdout.strip() == "True"

    def test_python_dash_m_runs_with_the_default(self, tmp_path):
        out = tmp_path / "fh.csv"
        proc = _fresh_python("-m", "floquet_ep", "floquet-ham", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_starts_no_blas_thread(self):
        code = "import os, floquet_ep.cli; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_python("-c", code).stdout.strip() == "1"


#: ``floquet_ep.args.main`` in a process that ends the ordinary way, against which the entry point is compared
_PLAIN_EXIT = "import sys; from floquet_ep.args import main; sys.exit(main(sys.argv[1:]))"

#: ``python -m floquet_ep ARGV`` with an ``atexit`` handler that reports whether the GC was frozen by then
_FREEZE_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("floquet_ep", run_name="__main__", alter_sys=True)
"""


class TestProcessExit:
    """The ``floquet-ep`` process skips the final collection: ``__main__.run`` freezes the GC before it
    exits, and that changes no byte, stream or status; ``main`` called in-process freezes nothing."""

    _ARGVS = [
        (["floquet-ham", "--omega-count", "3", "--omega-max", "3.0"], 0),
        (["floquet-ham", "--format", "json"], 0),
        (["two-qubit", "--steps", "1"], 2),
        (["floquet-ham", "--omega", "1e-310"], 1),
        (["--help"], 0),
        (["preset", "--help"], 0),
    ]

    @pytest.mark.parametrize("argv, status", _ARGVS, ids=[" ".join(a) for a, _ in _ARGVS])
    def test_entry_point_matches_a_plain_exit(self, tmp_path, argv, status):
        out = tmp_path / "out.dat"
        argv = [*argv, "--output", str(out)] if "--help" not in argv else argv
        results = []
        for lead in (["-m", "floquet_ep"], ["-c", _PLAIN_EXIT]):
            out.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, *lead, *argv], capture_output=True,
                                  env={**os.environ, "SOURCE_DATE_EPOCH": "0"})
            results.append((proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] == status
        assert (results[0][3] is not None) == (status == 0 and "--help" not in argv)

    def test_the_process_freezes_and_still_runs_atexit(self, tmp_path):
        proc = _fresh_python("-c", _FREEZE_AT_EXIT, "floquet-ham", "--output", str(tmp_path / "out.csv"))
        assert proc.returncode == 0
        assert proc.stdout.startswith("wrote ") and proc.stderr == "frozen at exit: True\n"

    def test_console_script_runs_what_python_dash_m_runs(self):
        import ast

        import floquet_ep.__main__ as entry

        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        root = Path(__file__).resolve().parents[1]
        target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["floquet-ep"]
        module, name = target.split(":")
        guard = next(node for node in ast.parse(Path(entry.__file__).read_text()).body if isinstance(node, ast.If))
        assert ast.unparse(guard.test) == "__name__ == '__main__'"
        assert [ast.unparse(node) for node in guard.body] == [f"{name}()"]
        assert getattr(importlib.import_module(module), name) is getattr(entry, name)

    def test_in_process_main_freezes_nothing(self, tmp_path, capsys):
        import gc

        before = gc.get_freeze_count()
        assert main(["floquet-ham", "--output", str(tmp_path / "out.csv")]) == 0
        assert main(["--help"]) == 0
        assert gc.get_freeze_count() == before


def test_build_line_names_no_enclosing_repository(tmp_path):
    """A copy installed inside an unrelated git repository writes its version alone, not that repository's commit."""
    import shutil

    import floquet_ep

    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    proj = tmp_path / "proj"
    site = proj / ".venv" / "lib" / "site-packages"
    shutil.copytree(Path(floquet_ep.__file__).parent, site / "floquet_ep", ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(proj), "-c", "user.name=floquet-ep", "-c", "user.email=floquet-ep@localhost"]
    subprocess.run(["git", "init", "-q", str(proj)], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "unrelated"], check=True)
    out = tmp_path / "out.csv"
    proc = _fresh_python("-m", "floquet_ep", "floquet-ham", "--output", str(out), PYTHONPATH=str(site))
    assert proc.returncode == 0, proc.stderr
    assert "# build: floquet-ep-0.1.0\n" in out.read_text()


def test_installed_copy_run_loads_no_subprocess(tmp_path):
    """Only a source checkout asks git for the build line, so a run of an installed copy never imports ``subprocess``."""
    import shutil

    import floquet_ep

    site = tmp_path / "site-packages"
    shutil.copytree(Path(floquet_ep.__file__).parent, site / "floquet_ep", ignore=shutil.ignore_patterns("__pycache__"))
    code = "import sys; from floquet_ep.args import main; main(sys.argv[1:]); print('subprocess' in sys.modules)"
    proc = _fresh_python("-c", code, "floquet-ham", "--output", str(tmp_path / "out.csv"), PYTHONPATH=str(site))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
