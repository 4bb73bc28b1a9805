"""Command-line front end: flags, config files, validation and :func:`main`.

Subcommands: phase-diagram, ep-contour, floquet-ham, bloch-traj, two-qubit,
preset.  Values may also come from an INI-style config file (one section per
command).  Each run merges the built-in defaults, a preset's overrides, the
config file and the flags, in that order, and validates the result once.
Exit statuses: 0 success, 1 runtime or I/O failure, 2 usage error.  No numpy
here: ``--help`` and usage errors need argparse alone, and end before :func:`main`
loads the writer and the run layer, :mod:`floquet_ep.cli`, whose runners load their kernels.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .presets import PRESET_NAMES, PRESETS

__all__ = ["UsageError", "build_parser", "parse_config", "main"]


class UsageError(Exception):
    """Invalid flags or parameter values; maps to exit status 2."""


_RATES = {"p": (0.5, "unitary fraction of the period"), "j_av": (1.0, "average Rabi rate")}

#: command -> (``--help`` summary, {parameter key: (default, help)}), keys in
#: ``--help`` order.  A list default makes the flag repeatable; ``None`` means
#: the flag has no default.
_COMMANDS: dict[str, tuple[str, dict]] = {
    "phase-diagram": ("heat map of a PT-phase quantity over the dimensionless (gain, frequency) plane", {
        **_RATES,
        "grid": ("400x400", "cells as GAMMAxOMEGA"),
        "gamma_min": (1e-2, "gain axis low end, (1-p)*gamma/(p*j_av) units"),
        "gamma_max": (10.0, "gain axis high end"),
        "gamma_scale": ("log", "gain axis spacing"),
        "omega_min": (0.1, "frequency axis low end, omega/(p*j_av) units"),
        "omega_max": (3.0, "frequency axis high end"),
        "omega_scale": ("linear", "frequency axis spacing"),
        "quantity": ("inner-product", "cell quantity: eigenvector inner product, phase discriminant, or phase code"),
        "workers": (None, "accepted, must be >= 1; one array pass, same output for any count"),
    }),
    "ep-contour": ("exceptional-point contour polylines over a frequency window", {
        **_RATES,
        "omega_min": (0.18, "window low end, raw drive frequency"),
        "omega_max": (2.2, "window high end"),
        "samples": (2000, "frequency samples"),
    }),
    "floquet-ham": ("effective one-period generator components", {
        **_RATES,
        "gamma_av": (0.4, "average gain/loss rate"),
        "omega": (2.0, "drive frequency, or sweep start with --omega-count > 1"),
        "omega_max": (None, "sweep end frequency (required when --omega-count > 1)"),
        "omega_count": (1, "number of frequencies"),
    }),
    "bloch-traj": ("post-selected Bloch trajectory with micromotion sampling", {
        **_RATES,
        "gamma_ratio": (1.0, "(1-p)*gamma/(p*j_av)"),
        "omega_ratio": (2.5 * math.pi, "omega/(p*j_av)"),
        "periods": (20, "number of drive periods"),
        "substeps": (64, "samples per segment"),
        "init": ("xyz", "initial state: 'xyz' (equal superposition of +x, -y, +z eigenstates) "
                 "or 'THETA,PHI' Bloch angles in radians"),
    }),
    "two-qubit": ("coupled thermal-unitary pair: concurrence and entropies over time", {
        "j": (0.5, "Rabi rate of the unitary qubit"),
        "gamma": ([1.0], "gain rate; repeatable"),
        "kx": ([1.0], "coupling strength; repeatable"),
        "init": ("00", "initial state label: 00, bell, mixed, correlated"),
        "t_max": (20.0, "final time, raw units, reported as j*t"),
        "steps": (400, "time steps"),
    }),
}

_DEFAULTS = {c: {k: d for k, (d, _) in keys.items() if d is not None} for c, (_, keys) in _COMMANDS.items()}

#: Keys that every config section takes besides the command parameters;
#: ``seed`` stays unset unless given.
_RUN_KEYS = ("output", "format", "seed")

#: Type exemplars for the keys that have no default value.
_UNSET_LIKE = {"seed": 0, "workers": 0, "omega_max": 0.0}

#: ``sweep.Quantity``, ``envelope.FORMATS`` and ``two_qubit`` labels, spelled out: parsing loads no kernel or writer
_CHOICES = {
    "gamma_scale": ("linear", "log"),
    "omega_scale": ("linear", "log"),
    "quantity": ("inner-product", "discriminant", "phase"),
    "format": ("csv", "json"),
}
_PAIR_INITS = ("00", "bell", "mixed", "correlated")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one usage-error line, not argparse's usage block
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """Flags hold raw text; :func:`_validate` types and checks every value."""
    parser = _Parser(
        prog="floquet-ep",
        description="Desk-scale simulations of alternating unitary/thermal qubit dynamics: "
        "PT phase diagrams, exceptional-point contours, effective one-period generators, "
        "post-selected Bloch trajectories and two-qubit entanglement curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def one_of(key):
        return "{%s}" % ",".join(_CHOICES[key]) if key in _CHOICES else None

    for command, (summary, keys) in _COMMANDS.items():
        p_ = sub.add_parser(command, help=summary)
        p_._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")  # -1e-3 is a value too
        for key, (default, text) in keys.items():
            if default is not None:
                text += " (default %s)" % (",".join(map(str, default)) if isinstance(default, list) else default)
            action = "append" if isinstance(default, list) else None
            p_.add_argument("--" + key.replace("_", "-"), action=action, metavar=one_of(key), help=text)
        p_.add_argument("--config", help="INI config file; section [%s] supplies defaults" % command)
        p_.add_argument("--output", help=f"output file (default {command}.csv)")
        p_.add_argument("--format", metavar=one_of("format"), help="output format (default csv)")
        p_.add_argument("--seed", help="echoed into the output envelope; physics is deterministic")

    p_pr = sub.add_parser("preset", help="run a named figure-panel preset")
    p_pr.add_argument("name", choices=PRESET_NAMES, metavar="NAME", help=", ".join(PRESET_NAMES))
    p_pr.add_argument("--output", help="override the preset output path")
    p_pr.add_argument("--format", metavar=one_of("format"), help="override the preset format")
    p_pr.add_argument("--workers", help="must be >= 1; same output for any count")
    return parser


def _read_config_file(path: str, command: str, keys: set[str]) -> dict:
    """Raw text values of section [command], each named in ``keys``;
    :func:`_validate` types them.  ``%`` is a literal character."""
    import configparser
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8"):
            raise UsageError(f"config file {path!r} not found or unreadable")
        items = parser.items(command) if parser.has_section(command) else []
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path!r}: {' '.join(str(exc).split())}") from None
    out = {}
    for key, raw in items:
        key = key.replace("-", "_")
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in config section [{command}]")
        out[key] = raw
    return out


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise UsageError(f"invalid value for {key}: {message}")


def _typed(key: str, value, like):
    """``value`` checked against the type of its default ``like``; text is
    parsed first.  A list key takes one number or a non-empty list of numbers:
    a JSON list in a file, one text per repeated flag.  Bools are not numbers."""
    if isinstance(like, str):
        _require(isinstance(value, str), key, f"{value!r} (expected text)")
        return value
    is_list = isinstance(like, list)
    kind = float if is_list else type(like)
    expected = "a number or a list of numbers" if is_list else {float: "a number", int: "an integer"}[kind]
    if isinstance(value, str):
        try:
            if is_list:
                import json
                value = json.loads(value, parse_int=float)
            else:
                value = kind(value)
        except (ValueError, RecursionError):
            raise UsageError(f"invalid value for {key}: {value!r} (expected {expected})") from None
    elif is_list and isinstance(value, list):
        value = [_typed(key, v, 0.0) for v in value]
    items = value if is_list and isinstance(value, list) else [value]
    numbers = (int, float) if kind is float else int
    ok = items and all(isinstance(v, numbers) and not isinstance(v, bool) for v in items)
    _require(ok, key, f"{value!r} (expected {expected})")
    items = [kind(v) for v in items]
    for v in items:
        _require(math.isfinite(v), key, f"{v} (must be a finite number)")
    return items if is_list else items[0]


def _base(command: str) -> dict:
    return {**_DEFAULTS[command], "output": f"{command}.csv", "format": "csv"}


def _validate(command: str, values: dict) -> dict:
    """Type- and range-check one merged configuration: every flag, config-file
    and preset value passes through here once."""
    like = {**_UNSET_LIKE, **_base(command)}
    p = {key: _typed(key, value, like[key]) for key, value in values.items()}
    for key, options in _CHOICES.items():
        if key in p:
            _require(p[key] in options, key, f"{p[key]!r} (choose from {', '.join(options)})")
    _require(p["output"] != "", "output", "must not be empty")
    _require(p.get("workers", 1) >= 1, "workers", f"{p.get('workers')} (must be >= 1)")
    if command in ("phase-diagram", "ep-contour", "floquet-ham", "bloch-traj"):
        _require(0.0 < p["p"] < 1.0, "p", f"{p['p']} (must lie strictly between 0 and 1)")
        _require(p["j_av"] > 0, "j_av", f"{p['j_av']} (must be positive)")
    if command == "phase-diagram":
        cells = p["grid"].lower().split("x")
        _require(len(cells) == 2 and all(cells), "grid", f"{p['grid']!r} (expected e.g. 400x400)")
        p["grid"] = [_typed("grid", n, 0) for n in cells]
        _require(min(p["grid"]) >= 2, "grid", "both cell counts must be >= 2")
        _require(p["gamma_min"] < p["gamma_max"], "gamma_min", "gain axis needs min < max")
        _require(p["omega_min"] < p["omega_max"], "omega_min", "frequency axis needs min < max")
        _require(p["omega_min"] > 0, "omega_min", "must be positive")
        if p["gamma_scale"] == "log":
            _require(p["gamma_min"] > 0, "gamma_min", "log axis needs min > 0")
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
            angles = p["init"].split(",")
            _require(len(angles) == 2, "init", f"{p['init']!r} (expected 'xyz' or 'THETA,PHI')")
            p["init"] = [_typed("init", x, 0.0) for x in angles]
            _require(0 <= p["init"][0] <= math.pi, "init", "theta must lie in [0, pi]")
    elif command == "two-qubit":
        for key in ("gamma", "kx"):
            _require(all(v >= 0 for v in p[key]), key, "rates must be non-negative")
        _require(p["j"] >= 0, "j", "must be non-negative")
        _require(p["t_max"] > 0, "t_max", "must be positive")
        _require(p["steps"] >= 2, "steps", "must be >= 2")
        _require(p["init"] in _PAIR_INITS, "init", f"unknown initial state {p['init']!r}; choose from {sorted(_PAIR_INITS)}")
    return p


def parse_config(argv=None):
    """Build a fully validated :class:`~floquet_ep.envelope.RunConfig` from argv.  Layers, each
    overriding the one before: the command defaults, a preset's overrides,
    the ``--config`` file section (keyed like the command's flags), the flags.
    The merged values, run keys included, pass :func:`_validate` once."""
    flag = next(iter(sys.argv[1:] if argv is None else argv), "").split("=")[0]
    if flag.startswith("-") and not any(h.startswith(flag) for h in ("-h", "--help")):
        raise UsageError(f"option {flag} must follow the command: floquet-ep COMMAND {flag} ...")
    args = vars(build_parser().parse_args(argv))
    command, config = args.pop("command"), args.pop("config", None)
    flags = {k: v for k, v in args.items() if v is not None}
    merged = {}
    if command == "preset":
        name = flags.pop("name")
        command, overrides = PRESETS[name]
        merged = {"output": f"{name}.csv", **overrides}
    if config is not None:
        merged.update(_read_config_file(config, command, set(args)))
    p = _validate(command, {**_base(command), **merged, **flags})
    p.pop("workers", None)  # checked, but one array pass gives the same output for any count
    from .envelope import RunConfig
    return RunConfig(
        command=command,
        parameters={k: v for k, v in p.items() if k not in _RUN_KEYS},
        output_path=p["output"],
        format=p["format"],
        seed=p.get("seed"),
    )


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    from .cli import run  # the run layer: numpy loads here, and each runner loads its own kernel
    from .envelope import write_result
    from .linalg import NumericsError

    try:
        envelope = run(config)
        path = write_result(envelope)
    except (OSError, NumericsError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    n_rows = len(envelope.columns[0].values) if envelope.columns else 0
    print(f"wrote {path} ({n_rows} rows, {len(envelope.columns)} columns)")
    return 0
