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


_RATES = {"p": (0.5, "unitary fraction of the period", (0, 1)), "j_av": (1.0, "average Rabi rate", "> 0")}

#: command -> (``--help`` summary, {parameter key: (default, help, rule)}), keys in ``--help``
#: order.  A list default makes the flag repeatable; a type in its place means no default.
#: A rule is a tuple of choices, an open interval ``(lo, hi)``, or a bound: ``"> 0"``, ``">= 2"``
#: or another key's value, ``"> gamma_min"``; each value of a list key obeys it.  ``None``: no rule.
#: The choices spell out ``sweep.Quantity``, ``envelope.FORMATS`` and ``two_qubit``'s labels: parsing loads no kernel or writer.
_COMMANDS: dict[str, tuple[str, dict]] = {
    "phase-diagram": ("heat map of a PT-phase quantity over the dimensionless (gain, frequency) plane", {
        **_RATES,
        "grid": ("400x400", "cell counts as GAMMAxOMEGA", ">= 2"),
        "gamma_min": (1e-2, "gain axis low end, (1-p)*gamma/(p*j_av) units; > 0 on a log axis", None),
        "gamma_max": (10.0, "gain axis high end", "> gamma_min"),
        "gamma_scale": ("log", "gain axis spacing", ("linear", "log")),
        "omega_min": (0.1, "frequency axis low end, omega/(p*j_av) units", "> 0"),
        "omega_max": (3.0, "frequency axis high end", "> omega_min"),
        "omega_scale": ("linear", "frequency axis spacing", ("linear", "log")),
        "quantity": ("inner-product", "cell quantity: eigenvector inner product, phase discriminant, or phase code",
                     ("inner-product", "discriminant", "phase")),
    }),
    "ep-contour": ("exceptional-point contour polylines over a frequency window", {
        **_RATES,
        "omega_min": (0.18, "window low end, raw drive frequency", "> 0"),
        "omega_max": (2.2, "window high end", "> omega_min"),
        "samples": (2000, "frequency samples", ">= 2"),
    }),
    "floquet-ham": ("effective one-period generator components", {
        **_RATES,
        "gamma_av": (0.4, "average gain/loss rate", None),
        "omega": (2.0, "drive frequency, or sweep start with --omega-count > 1", "> 0"),
        "omega_max": (float, "sweep end frequency, > omega (required when --omega-count > 1)", None),
        "omega_count": (1, "number of frequencies", ">= 1"),
    }),
    "bloch-traj": ("post-selected Bloch trajectory with micromotion sampling", {
        **_RATES,
        "gamma_ratio": (1.0, "(1-p)*gamma/(p*j_av)", ">= 0"),
        "omega_ratio": (2.5 * math.pi, "omega/(p*j_av)", "> 0"),
        "periods": (20, "number of drive periods", ">= 1"),
        "substeps": (64, "samples per segment", ">= 1"),
        "init": ("xyz", "initial state: 'xyz' (equal superposition of +x, -y, +z eigenstates) "
                 "or 'THETA,PHI' Bloch angles in radians, THETA in [0, pi]", None),
    }),
    "two-qubit": ("coupled thermal-unitary pair: concurrence and entropies over time", {
        "j": (0.5, "Rabi rate of the unitary qubit", ">= 0"),
        "gamma": ([1.0], "gain rate; repeatable", ">= 0"),
        "kx": ([1.0], "coupling strength; repeatable", ">= 0"),
        "init": ("00", "initial state label", ("00", "bell", "mixed", "correlated")),
        "t_max": (20.0, "final time, raw units, reported as j*t", "> 0"),
        "steps": (400, "time steps", ">= 2"),
    }),
}

#: The keys that every command and ``preset`` take besides the parameters, in the same form; a
#: preset takes no ``seed``, and ``workers`` is a key of ``phase-diagram`` and ``preset`` only.
_RUN_KEYS = {
    "output": (str, "output file (default COMMAND.csv, or NAME.csv for a preset)", None),
    "format": ("csv", "output format", ("csv", "json")),
    "workers": (int, "one array pass: the same output for any count", ">= 1"),
    "seed": (int, "echoed into the output envelope; physics is deterministic", None),
}
_NOT_TAKEN = {"phase-diagram": (), "preset": ("seed",)}  # any other command: ("workers",)

_DEFAULTS = {c: {k: d for k, (d, _, _) in keys.items() if not isinstance(d, type)} for c, (_, keys) in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one usage-error line, not argparse's usage block
        raise UsageError(message)

    def _get_values(self, action, arg_strings):  # argparse would drop the value of ``--output=--``; a file keeps it
        return "--" if action.option_strings and arg_strings == ["--"] else super()._get_values(action, arg_strings)


def _rule_text(rule, p=None) -> str:
    """``rule`` in words; a bound by another key shows that key's value in ``p``."""
    if isinstance(rule, str):
        bound = rule.split()[1]
        return f"{rule} = {p[bound]!r}" if p and bound in p else rule
    return "one of " + ", ".join(rule) if isinstance(rule[0], str) else f"in {rule}"


def _obeys(value, rule, p: dict) -> bool:
    if isinstance(rule, str):
        op, bound = rule.split()
        bound = p[bound] if bound in p else float(bound)
        return value > bound if op == ">" else value >= bound
    return value in rule if isinstance(rule[0], str) else rule[0] < value < rule[1]


def build_parser() -> argparse.ArgumentParser:
    """Flags hold raw text; :func:`_validate` types and checks every value.  Each flag's help
    states its rule (choices as the metavar) and its default, from the table the checks read."""
    parser = _Parser(
        prog="floquet-ep",
        description="Desk-scale simulations of alternating unitary/thermal qubit dynamics: "
        "PT phase diagrams, exceptional-point contours, effective one-period generators, "
        "post-selected Bloch trajectories and two-qubit entanglement curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (summary, keys) in {**_COMMANDS, "preset": ("run a named figure-panel preset", {})}.items():
        p_ = sub.add_parser(command, help=summary)
        p_._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")  # -1e-3 is a value too
        if command == "preset":
            p_.add_argument("name", choices=PRESET_NAMES, metavar="NAME", help=", ".join(PRESET_NAMES))
        run_keys = {k: e for k, e in _RUN_KEYS.items() if k not in _NOT_TAKEN.get(command, ("workers",))}
        for key, (default, text, rule) in {**keys, **run_keys}.items():
            choices = isinstance(rule, tuple) and isinstance(rule[0], str)
            if rule is not None and not choices:
                text += ", must be " + _rule_text(rule)
            if not isinstance(default, type):
                text += " (default %s)" % (",".join(map(str, default)) if isinstance(default, list) else default)
            action = "append" if isinstance(default, list) else None
            metavar = "{%s}" % ",".join(rule) if choices else None
            p_.add_argument("--" + key.replace("_", "-"), action=action, metavar=metavar, help=text)
        if command != "preset":
            p_.add_argument("--config", help="INI config file; section [%s] supplies defaults" % command)
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
    """``value`` as the type ``like`` is, or names: str, int, float, or list (of floats); text
    is parsed first.  A list key takes one number or a non-empty list of numbers: a JSON
    list in a file, one text per repeated flag.  Bools are not numbers."""
    kind = like if isinstance(like, type) else type(like)
    if kind is str:
        _require(isinstance(value, str), key, f"{value!r} (expected text)")
        return value
    is_list = kind is list
    kind = float if is_list else kind
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
        value = [_typed(key, v, float) for v in value]
    items = value if is_list and isinstance(value, list) else [value]
    numbers = (int, float) if kind is float else int
    ok = items and all(isinstance(v, numbers) and not isinstance(v, bool) for v in items)
    _require(ok, key, f"{value!r} (expected {expected})")
    items = [kind(v) for v in items]
    for v in items:
        _require(math.isfinite(v), key, f"{v} (must be a finite number)")
    return items if is_list else items[0]


def _pair(key: str, text: str, sep: str, kind: type, form: str) -> list:
    """Two values of ``kind`` separated by ``sep``: a ``GAMMAxOMEGA`` grid, ``THETA,PHI`` angles."""
    parts = text.lower().split(sep)
    _require(len(parts) == 2 and all(parts), key, f"{text!r} (expected {form})")
    return [_typed(key, x, kind) for x in parts]


def _validate(command: str, values: dict) -> dict:
    """Type and check one merged configuration: every flag, config-file and preset value
    passes through here once.  All text is typed first; then one error line names every value
    that breaks its rule, and a malformed grid.  A ``THETA,PHI`` init is parsed last."""
    table = {**_COMMANDS[command][1], **_RUN_KEYS}
    p = {key: _typed(key, value, table[key][0]) for key, value in values.items()}
    faults = []
    if command == "phase-diagram":  # a malformed grid is named beside the broken rules
        try:
            p["grid"] = _pair("grid", p["grid"], "x", int, "e.g. 400x400")
        except UsageError as exc:
            faults.append(str(exc).removeprefix("invalid value for "))
            del p["grid"]
    faults += [f"{key}: {v!r} (must be {_rule_text(rule, p)})" for key, (_, _, rule) in table.items()
               if rule is not None and key in p for v in (p[key] if isinstance(p[key], list) else [p[key]])
               if not _obeys(v, rule, p)]
    if p["output"] == "":
        faults.append("output: '' (must not be empty)")
    if command == "phase-diagram" and p["gamma_scale"] == "log" and p["gamma_min"] <= 0:
        faults.append(f"gamma_min: {p['gamma_min']!r} (must be > 0 on a log axis)")
    if command == "floquet-ham" and p["omega_count"] > 1 and not p.get("omega_max", -math.inf) > p["omega"]:
        faults.append(f"omega_max: {p.get('omega_max')!r} (required for a sweep, must be > omega = {p['omega']!r})")
    if faults:
        raise UsageError("invalid value for " + "; ".join(faults))
    if command == "bloch-traj" and p["init"] != "xyz":
        p["init"] = _pair("init", p["init"], ",", float, "'xyz' or 'THETA,PHI'")
        _require(0 <= p["init"][0] <= math.pi, "init", f"{p['init'][0]!r} (theta must be in [0, pi])")
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
    name, merged = command, {}
    if command == "preset":
        name = flags.pop("name")
        command, merged = PRESETS[name]
    if config is not None:
        merged = {**merged, **_read_config_file(config, command, set(args))}
    p = _validate(command, {**_DEFAULTS[command], "output": f"{name}.csv", "format": _RUN_KEYS["format"][0], **merged, **flags})
    from .envelope import RunConfig
    return RunConfig(
        command=command,
        parameters={k: v for k, v in p.items() if k not in _RUN_KEYS},  # workers selects nothing: one array pass
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
    from ._linalg import NumericsError

    try:
        envelope = run(config)
        path = write_result(envelope)
    except (OSError, NumericsError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    n_rows = len(envelope.columns[0].values) if envelope.columns else 0
    print(f"wrote {path} ({n_rows} rows, {len(envelope.columns)} columns)")
    return 0
