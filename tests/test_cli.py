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

from floquet_ep.cli import _CHOICES, _DEFAULTS, _RUN_KEYS, UsageError, build_parser, main, parse_config, run
from floquet_ep.envelope import (
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

#: Keys of each command's flags (``--config`` aside), in ``--help`` order.
_FLAG_KEYS = {
    c: [k for k in vars(build_parser().parse_args([c])) if k not in ("command", "config")] for c in _DEFAULTS
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
        for key, options in _CHOICES.items():
            if key in _FLAG_KEYS[command]:
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


def test_perfbench_mirrors_the_cli_defaults(monkeypatch):
    """perfbench/workloads.py keeps its own copy of the defaults, with the
    grid as a tuple and the unset keys as None; it must not drift."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    mirror = {
        command: {k: "x".join(map(str, v)) if isinstance(v, tuple) else v for k, v in keys.items() if v is not None}
        for command, keys in workloads.DEFAULTS.items()
    }
    assert mirror == _DEFAULTS


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
        argv += ["--quantity", draw(st.sampled_from(_CHOICES["quantity"]))]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_extreme_argv())  # the examples are inputs that once ended in a numpy warning or an inf
@example(argv=["bloch-traj", "--periods", "2", "--substeps", "2", "--gamma-ratio", "1.7e308"])
@example(argv=["bloch-traj", "--periods", "2", "--substeps", "2", "--gamma-ratio", "1e-310", "--j-av", "1e-310"])
@example(argv=["ep-contour", "--samples", "3", "--omega-min", "5e-324"])
@example(argv=["ep-contour", "--samples", "3", "--p", "5e-324", "--omega-max", "3.14159"])
@example(argv=["phase-diagram", "--grid", "3x3", "--gamma-min", "5e-324", "--j-av", "2"])
@example(argv=["phase-diagram", "--grid", "3x3", "--j-av", "1e300", "--omega-min", "2", "--omega-max", "1e300"])
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

    def test_package_import_leaves_numpy_unloaded(self):
        code = "import os, sys; env = dict(os.environ); import floquet_ep; print('numpy' in sys.modules, env == os.environ)"
        assert _fresh_python("-c", code).stdout.split() == ["False", "True"]

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
