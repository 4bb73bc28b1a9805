import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from floquet_ep.cli import UsageError, main, parse_config, run
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
from floquet_ep.presets import PRESET_NAMES, figure_preset


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


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            cfg = figure_preset(name)
            assert cfg.command in ("phase-diagram", "ep-contour", "bloch-traj", "two-qubit")

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

    def test_floquet_ham_contour_fallback(self, tmp_path):
        # drive area pi/2 with the matching contour gain: the matrix-log path
        # refuses and the closed form takes over
        import floquet_ep.floquet as fl

        base = fl.FloquetParams(p=0.5, T=1.0, j_av=math.pi, gamma_av=0.0)
        gamma = fl.ep_contour_gamma(base, branch=1) or fl.ep_contour_gamma(base, branch=-1)
        base2 = fl.FloquetParams(p=0.5, T=1.0, j_av=1.733, gamma_av=0.0)
        gamma2 = fl.ep_contour_gamma(base2, branch=1)
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--p", "0.5", "--j-av", "1.733",
                     "--gamma-av", f"{gamma2}", "--omega", f"{2*math.pi}",
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
        out = tmp_path / "fh.csv"
        assert main(["floquet-ham", "--gamma-av", "1000", "--omega", "0.1", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

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
