"""Command-line surface: argument parsing, validation, dispatch, output.

Subcommands: phase-diagram, ep-contour, floquet-ham, bloch-traj, two-qubit,
preset.  Values may also come from an INI-style config file (one section per
command); explicit flags override file values, which override the built-in
defaults.  Exit statuses: 0 success, 1 runtime or I/O failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from .bloch import equal_superposition_xyz, evolve_state
from .envelope import FORMATS, Column, RunConfig, make_envelope, write_result
from .floquet import (
    FloquetParams,
    discriminant,
    floquet_hamiltonian,
    floquet_hamiltonian_on_contour,
)
from .linalg import NearDefectiveError, NumericsError
from .presets import PRESET_NAMES, figure_preset
from .sweep import AxisSpec, GridSpec, Quantity, compute_heatmap, trace_contours
from .two_qubit import TwoQubitParams, density_from_label, entanglement_timeseries

__all__ = ["UsageError", "parse_config", "run", "main"]


class UsageError(Exception):
    """Invalid flags or parameter values; maps to exit status 2."""


_DEFAULTS: dict[str, dict] = {
    "phase-diagram": {
        "p": 0.5,
        "j_av": 1.0,
        "grid": "400x400",
        "gamma_min": 1e-2,
        "gamma_max": 10.0,
        "gamma_scale": "log",
        "omega_min": 0.1,
        "omega_max": 3.0,
        "omega_scale": "linear",
        "quantity": "inner-product",
    },
    "ep-contour": {"p": 0.5, "j_av": 1.0, "omega_min": 0.18, "omega_max": 2.2, "samples": 2000},
    "floquet-ham": {"p": 0.5, "j_av": 1.0, "gamma_av": 0.4, "omega": 2.0, "omega_count": 1},
    "bloch-traj": {
        "p": 0.5,
        "j_av": 1.0,
        "gamma_ratio": 1.0,
        "omega_ratio": 2.5 * math.pi,
        "periods": 20,
        "substeps": 64,
        "init": "xyz",
    },
    "two-qubit": {"j": 0.5, "gamma": [1.0], "kx": [1.0], "init": "00", "t_max": 20.0, "steps": 400},
}

_DEFAULT_OUTPUT = {name: f"{name}.csv" for name in _DEFAULTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-ep",
        description="Desk-scale simulations of alternating unitary/thermal qubit dynamics: "
        "PT phase diagrams, exceptional-point contours, effective one-period generators, "
        "post-selected Bloch trajectories and two-qubit entanglement curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p_, command):
        p_.add_argument("--config", help="INI config file; section [%s] supplies defaults" % command)
        p_.add_argument("--output", help=f"output file (default {_DEFAULT_OUTPUT[command]})")
        p_.add_argument("--format", choices=FORMATS, help="output format (default csv)")
        p_.add_argument("--seed", type=int, help="echoed into the output envelope; physics is deterministic")

    p_pd = sub.add_parser(
        "phase-diagram",
        help="heat map of a PT-phase quantity over the dimensionless (gain, frequency) plane",
    )
    p_pd.add_argument("--p", type=float, help="unitary fraction of the period (default 0.5)")
    p_pd.add_argument("--j-av", type=float, help="average Rabi rate (default 1.0)")
    p_pd.add_argument("--grid", help="cells as GAMMAxOMEGA, e.g. 400x400 (default)")
    p_pd.add_argument("--gamma-min", type=float, help="gain axis low end, (1-p)*gamma/(p*j_av) units (default 0.01)")
    p_pd.add_argument("--gamma-max", type=float, help="gain axis high end (default 10)")
    p_pd.add_argument("--gamma-scale", choices=("linear", "log"), help="gain axis spacing (default log)")
    p_pd.add_argument("--omega-min", type=float, help="frequency axis low end, omega/(p*j_av) units (default 0.1)")
    p_pd.add_argument("--omega-max", type=float, help="frequency axis high end (default 3)")
    p_pd.add_argument("--omega-scale", choices=("linear", "log"), help="frequency axis spacing (default linear)")
    p_pd.add_argument(
        "--quantity",
        choices=[q.value for q in Quantity],
        help="cell quantity: eigenvector inner product, phase discriminant, or phase code (default inner-product)",
    )
    p_pd.add_argument("--workers", type=int, help="accepted, must be >= 1; one array pass, same output for any count")
    common(p_pd, "phase-diagram")

    p_ec = sub.add_parser("ep-contour", help="exceptional-point contour polylines over a frequency window")
    p_ec.add_argument("--p", type=float, help="unitary fraction of the period (default 0.5)")
    p_ec.add_argument("--j-av", type=float, help="average Rabi rate (default 1.0)")
    p_ec.add_argument("--omega-min", type=float, help="window low end, raw drive frequency (default 0.18)")
    p_ec.add_argument("--omega-max", type=float, help="window high end (default 2.2)")
    p_ec.add_argument("--samples", type=int, help="frequency samples (default 2000)")
    common(p_ec, "ep-contour")

    p_fh = sub.add_parser("floquet-ham", help="effective one-period generator components")
    p_fh.add_argument("--p", type=float, help="unitary fraction of the period (default 0.5)")
    p_fh.add_argument("--j-av", type=float, help="average Rabi rate (default 1.0)")
    p_fh.add_argument("--gamma-av", type=float, help="average gain/loss rate (default 0.4)")
    p_fh.add_argument("--omega", type=float, help="drive frequency, or sweep start with --omega-count > 1 (default 2.0)")
    p_fh.add_argument("--omega-max", type=float, help="sweep end frequency (required when --omega-count > 1)")
    p_fh.add_argument("--omega-count", type=int, help="number of frequencies (default 1)")
    common(p_fh, "floquet-ham")

    p_bt = sub.add_parser("bloch-traj", help="post-selected Bloch trajectory with micromotion sampling")
    p_bt.add_argument("--p", type=float, help="unitary fraction of the period (default 0.5)")
    p_bt.add_argument("--j-av", type=float, help="average Rabi rate (default 1.0)")
    p_bt.add_argument("--gamma-ratio", type=float, help="(1-p)*gamma/(p*j_av) (default 1.0)")
    p_bt.add_argument("--omega-ratio", type=float, help="omega/(p*j_av) (default 2.5*pi)")
    p_bt.add_argument("--periods", type=int, help="number of drive periods (default 20)")
    p_bt.add_argument("--substeps", type=int, help="samples per segment (default 64)")
    p_bt.add_argument(
        "--init",
        help="initial state: 'xyz' (equal superposition of +x, -y, +z eigenstates, default) "
        "or 'THETA,PHI' Bloch angles in radians",
    )
    common(p_bt, "bloch-traj")

    p_tq = sub.add_parser("two-qubit", help="coupled thermal-unitary pair: concurrence and entropies over time")
    p_tq.add_argument("--j", type=float, help="Rabi rate of the unitary qubit (default 0.5)")
    p_tq.add_argument("--gamma", type=float, action="append", help="gain rate; repeatable (default 1.0)")
    p_tq.add_argument("--kx", type=float, action="append", help="coupling strength; repeatable (default 1.0)")
    p_tq.add_argument("--init", help="initial state label: 00, bell, mixed, correlated (default 00)")
    p_tq.add_argument("--t-max", type=float, help="final time, raw units (reported as j*t; default 20)")
    p_tq.add_argument("--steps", type=int, help="time steps (default 400)")
    common(p_tq, "two-qubit")

    p_pr = sub.add_parser("preset", help="run a named figure-panel preset")
    p_pr.add_argument("name", choices=PRESET_NAMES, metavar="NAME", help=", ".join(PRESET_NAMES))
    p_pr.add_argument("--output", help="override the preset output path")
    p_pr.add_argument("--format", choices=FORMATS, help="override the preset format")
    p_pr.add_argument("--workers", type=int, help="phase-diagram presets: must be >= 1; same output for any count")
    return parser


def _coerce_like(default, raw: str):
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, list):
        val = json.loads(raw)
        return val if isinstance(val, list) else [val]
    return raw


def _read_config_file(path: str, command: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found or unreadable")
    if not parser.has_section(command):
        return {}
    out = {}
    defaults = _DEFAULTS[command]
    for key, raw in parser.items(command):
        key = key.replace("-", "_")
        if key in ("output", "format", "seed", "workers"):
            out[key] = int(raw) if key in ("seed", "workers") else raw
            continue
        if key not in defaults:
            raise UsageError(f"unknown key {key!r} in config section [{command}]")
        try:
            out[key] = _coerce_like(defaults[key], raw)
        except (ValueError, json.JSONDecodeError):
            raise UsageError(f"bad value for {key!r} in config section [{command}]: {raw!r}") from None
    return out


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise UsageError(f"invalid value for {key}: {message}")


def _parse_grid(raw) -> list[int]:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        ng, no = int(raw[0]), int(raw[1])
    else:
        try:
            ng, no = (int(part) for part in str(raw).lower().split("x"))
        except ValueError:
            raise UsageError(f"invalid value for grid: {raw!r} (expected e.g. 400x400)") from None
    _require(ng >= 2 and no >= 2, "grid", "both cell counts must be >= 2")
    return [ng, no]


def _validate(command: str, params: dict) -> dict:
    p = dict(params)
    for key, value in p.items():
        for v in value if isinstance(value, list) else [value]:
            _require(not isinstance(v, float) or math.isfinite(v), key, f"{v} (must be a finite number)")
    if command in ("phase-diagram", "ep-contour", "floquet-ham", "bloch-traj"):
        _require(0.0 < p["p"] < 1.0, "p", f"{p['p']} (must lie strictly between 0 and 1)")
        _require(p["j_av"] > 0, "j_av", f"{p['j_av']} (must be positive)")
    if command == "phase-diagram":
        p["grid"] = _parse_grid(p["grid"])
        _require(p["gamma_min"] < p["gamma_max"], "gamma_min", "gain axis needs min < max")
        _require(p["omega_min"] < p["omega_max"], "omega_min", "frequency axis needs min < max")
        for axis in ("gamma", "omega"):
            if p[f"{axis}_scale"] == "log":
                _require(p[f"{axis}_min"] > 0, f"{axis}_min", "log axis needs min > 0")
        _require(p["quantity"] in {q.value for q in Quantity}, "quantity", repr(p["quantity"]))
    elif command == "ep-contour":
        _require(p["omega_min"] > 0, "omega_min", "must be positive")
        _require(p["omega_max"] > p["omega_min"], "omega_max", "must exceed omega_min")
        _require(p["samples"] >= 2, "samples", "must be >= 2")
    elif command == "floquet-ham":
        _require(p["omega"] > 0, "omega", "must be positive")
        _require(p["omega_count"] >= 1, "omega_count", "must be >= 1")
        if p["omega_count"] > 1:
            _require(
                p.get("omega_max") is not None and p["omega_max"] > p["omega"],
                "omega_max",
                "required and must exceed --omega for a sweep",
            )
    elif command == "bloch-traj":
        _require(p["gamma_ratio"] >= 0, "gamma_ratio", "must be non-negative")
        _require(p["omega_ratio"] > 0, "omega_ratio", "must be positive")
        _require(p["periods"] >= 1, "periods", "must be >= 1")
        _require(p["substeps"] >= 1, "substeps", "must be >= 1")
        if p["init"] != "xyz":
            try:
                theta, phi = (float(x) for x in str(p["init"]).split(","))
            except ValueError:
                raise UsageError(
                    f"invalid value for init: {p['init']!r} (expected 'xyz' or 'THETA,PHI')"
                ) from None
            _require(0 <= theta <= math.pi, "init", "theta must lie in [0, pi]")
            _require(math.isfinite(phi), "init", f"phi {phi} (must be a finite number)")
            p["init"] = [theta, phi]
    elif command == "two-qubit":
        for key in ("gamma", "kx"):
            vals = p[key] if isinstance(p[key], list) else [p[key]]
            _require(all(v >= 0 for v in vals), key, "rates must be non-negative")
            p[key] = [float(v) for v in vals]
        _require(p["j"] >= 0, "j", "must be non-negative")
        _require(p["t_max"] > 0, "t_max", "must be positive")
        _require(p["steps"] >= 2, "steps", "must be >= 2")
        try:
            density_from_label(p["init"])
        except ValueError as exc:
            raise UsageError(f"invalid value for init: {exc}") from None
    return p


def parse_config(argv=None) -> RunConfig:
    """Build a fully validated run configuration from argv (and an optional
    config file).  Flags override file values, which override defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "preset":
        config = figure_preset(args.name)
        if args.output:
            config.output_path = args.output
        if args.format:
            config.format = args.format
        if args.workers is not None:
            config.workers = args.workers
        return config

    command = args.command
    merged = dict(_DEFAULTS[command])
    from_file: dict = {}
    if getattr(args, "config", None):
        from_file = _read_config_file(args.config, command)
    merged.update({k: v for k, v in from_file.items() if k in merged})
    cli_values = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "output", "format", "seed", "workers") and v is not None
    }
    merged.update(cli_values)
    merged = _validate(command, merged)

    output = args.output or from_file.get("output") or _DEFAULT_OUTPUT[command]
    fmt = args.format or from_file.get("format") or "csv"
    seed = args.seed if args.seed is not None else from_file.get("seed")
    workers = getattr(args, "workers", None)
    if workers is None:
        workers = from_file.get("workers")
    if workers is not None:
        _require(workers >= 1, "workers", f"{workers} (must be >= 1)")
    try:
        return RunConfig(
            command=command, parameters=merged, output_path=output, format=fmt, seed=seed, workers=workers
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_phase_diagram(cfg: RunConfig) -> list[Column]:
    p = cfg.parameters
    grid = GridSpec(
        gamma_axis=AxisSpec(p["gamma_min"], p["gamma_max"], p["grid"][0], p["gamma_scale"]),
        omega_axis=AxisSpec(p["omega_min"], p["omega_max"], p["grid"][1], p["omega_scale"]),
        p=p["p"],
        j_av=p["j_av"],
    )
    hm = compute_heatmap(grid, Quantity(p["quantity"]), workers=cfg.workers)
    n_gamma, n_omega = hm.values.shape
    qname = p["quantity"].replace("-", "_")
    return [
        Column("gamma_ratio", "dimensionless", np.repeat(hm.gamma_values(), n_omega).tolist()),
        Column("omega_ratio", "dimensionless", np.tile(hm.omega_values(), n_gamma).tolist()),
        Column(qname, "dimensionless", hm.values.ravel().tolist()),
    ]


def _run_ep_contour(cfg: RunConfig) -> list[Column]:
    p = cfg.parameters
    contours = trace_contours(p["p"], p["j_av"], (p["omega_min"], p["omega_max"]), p["samples"])
    pj = p["p"] * p["j_av"]
    cols = {name: [] for name in ("branch", "interval_k", "omega", "gamma_av", "omega_ratio", "gamma_ratio")}
    for branch in contours.branches:
        for gamma, omega in branch.points:
            cols["branch"].append(float(branch.branch))
            cols["interval_k"].append(float(branch.resonance_index))
            cols["omega"].append(omega)
            cols["gamma_av"].append(gamma)
            cols["omega_ratio"].append(omega / pj)
            cols["gamma_ratio"].append((1 - p["p"]) * gamma / pj)
    units = {"branch": "sign", "interval_k": "index", "omega": "rad/time", "gamma_av": "1/time",
             "omega_ratio": "dimensionless", "gamma_ratio": "dimensionless"}
    return [Column(name, units[name], vals) for name, vals in cols.items()]


def _run_floquet_ham(cfg: RunConfig) -> list[Column]:
    p = cfg.parameters
    if p["omega_count"] == 1:
        omegas = [p["omega"]]
    else:
        omegas = list(np.linspace(p["omega"], p["omega_max"], p["omega_count"]))
    names = ("omega", "h0_re", "h0_im", "hx_re", "hx_im", "hy_re", "hy_im", "hz_re", "hz_im", "on_contour")
    cols = {name: [] for name in names}
    for omega in omegas:
        params = FloquetParams.from_omega(p["p"], float(omega), p["j_av"], p["gamma_av"])
        try:
            ham = floquet_hamiltonian(params)
        except NearDefectiveError:
            if abs(discriminant(params)) > 1e-8:
                raise
            ham = floquet_hamiltonian_on_contour(params)
        cols["omega"].append(float(omega))
        for name, value in (("h0", ham.h0), ("hx", ham.hx), ("hy", ham.hy), ("hz", ham.hz)):
            cols[f"{name}_re"].append(value.real)
            cols[f"{name}_im"].append(value.imag)
        cols["on_contour"].append(1.0 if ham.on_contour else 0.0)
    units = {name: "1/time" for name in names}
    units.update({"omega": "rad/time", "on_contour": "flag"})
    return [Column(name, units[name], cols[name]) for name in names]


def _run_bloch_traj(cfg: RunConfig) -> list[Column]:
    p = cfg.parameters
    params = FloquetParams.from_dimensionless(p["gamma_ratio"], p["omega_ratio"], p["p"], p["j_av"])
    if p["init"] == "xyz":
        psi0 = equal_superposition_xyz()
    else:
        theta, phi = p["init"]
        phase = complex(math.cos(phi), math.sin(phi))
        psi0 = np.array([math.cos(theta / 2), phase * math.sin(theta / 2)], dtype=complex)
    traj = evolve_state(psi0, params, n_periods=p["periods"], substeps_per_segment=p["substeps"])
    xs, ys, zs = traj.cartesian.T.tolist()
    return [
        Column("time", "T", traj.times.tolist()),
        Column("theta", "rad", traj.theta.tolist()),
        Column("phi", "rad", traj.phi.tolist()),
        Column("x", "dimensionless", xs),
        Column("y", "dimensionless", ys),
        Column("z", "dimensionless", zs),
        Column("segment", "tag", [tag.value for tag in traj.segment_tags]),
    ]


def _run_two_qubit(cfg: RunConfig) -> list[Column]:
    p = cfg.parameters
    rho0 = density_from_label(p["init"])
    t_grid = np.linspace(0.0, p["t_max"], p["steps"] + 1)
    combos = [(g, k) for g in p["gamma"] for k in p["kx"]]
    columns: list[Column] = []
    for idx, (gamma, kx) in enumerate(combos):
        params = TwoQubitParams(j=p["j"], gamma=gamma, kx=kx)
        records = entanglement_timeseries(rho0, params, t_grid)
        if idx == 0:
            columns.append(Column("jt", "dimensionless", [r.time for r in records]))
        suffix = "" if len(combos) == 1 else f"_g{gamma:g}_kx{kx:g}"
        columns.append(Column(f"concurrence{suffix}", "dimensionless", [r.concurrence for r in records]))
        columns.append(Column(f"entropy_unitary{suffix}", "bit", [r.entropy_unitary for r in records]))
        columns.append(Column(f"entropy_thermal{suffix}", "bit", [r.entropy_thermal for r in records]))
    return columns


_RUNNERS = {
    "phase-diagram": _run_phase_diagram,
    "ep-contour": _run_ep_contour,
    "floquet-ham": _run_floquet_ham,
    "bloch-traj": _run_bloch_traj,
    "two-qubit": _run_two_qubit,
}


def run(config: RunConfig):
    """Execute a validated configuration and return the result envelope."""
    columns = _RUNNERS[config.command](config)
    return make_envelope(config, columns)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help (0) or flag errors (2)
        return int(exc.code or 0)
    try:
        envelope = run(config)
        path = write_result(envelope)
    except (OSError, NumericsError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_rows = len(envelope.columns[0].values) if envelope.columns else 0
    print(f"wrote {path} ({n_rows} rows, {len(envelope.columns)} columns)")
    return 0
