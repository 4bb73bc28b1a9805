"""Independent reader and checks for the result files of the benchmark runs.

    python3 checks.py WORKLOAD SEED DIR KEY...

checks the outputs in DIR of the named invocations of that workload and
prints one JSON object mapping each key to its error ("" when correct).

Each check recomputes what it can from the invocation's parameters alone:
row and column counts, axes, closed-form values (map trace, eigenvector
inner product, discriminant, EP contour condition, 00-start concurrence) and
physical ranges.  Fixed inputs (the figure presets) are also matched against
row samples recorded in ``reference.json``.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Row samples may move at the ulp level (e.g. numpy vs math transcendentals),
# so they are matched to this relative tolerance (absolute below 1).
REFERENCE_RTOL = 1e-9
REFERENCE_ROWS = 8
UNIT_SLACK = 1e-12  # rounding allowance on [0, 1] ranges and on |Bloch vector| = 1


class CheckError(Exception):
    """An output that is missing, malformed or numerically wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def read_table(path: Path, fmt: str) -> dict[str, list]:
    """Columns of a result file by name, in file order."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        try:
            doc = json.loads(text)
            return {c["name"]: list(c["values"]) for c in doc["columns"]}
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"malformed JSON result: {exc}") from None
    _require(text.endswith("\n"), "CSV does not end with a newline (truncated?)")
    lines = [line for line in text[:-1].split("\n") if not line.startswith("#")]
    _require(len(lines) >= 1, "CSV has no header row")
    names = [h.split(" [")[0] for h in lines[0].split(",")]
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(names) for r in rows), "ragged CSV row")
    columns = {}
    for j, name in enumerate(names):
        cells = [r[j] for r in rows]
        if name == "segment":
            columns[name] = cells
            continue
        try:
            columns[name] = [float(c) for c in cells]
        except ValueError:
            raise CheckError(f"non-numeric value in column {name!r}") from None
    return columns


def _shape(cols: dict, names: list[str], n_rows: int) -> None:
    _require(list(cols) == names, f"columns {list(cols)} != expected {names}")
    for name, values in cols.items():
        _require(len(values) == n_rows, f"column {name!r} has {len(values)} rows, expected {n_rows}")


def _finite(cols: dict, names) -> None:
    for name in names:
        _require(all(math.isfinite(v) for v in cols[name]), f"non-finite value in {name!r}")


def _in_unit_interval(values, name: str) -> None:
    _require(all(-UNIT_SLACK <= v <= 1 + UNIT_SLACK for v in values), f"{name!r} leaves [0, 1]")


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace, operation for operation."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _axis(lo: float, hi: float, n: int, scale: str) -> list[float]:
    if scale == "log":
        a, b = math.log10(lo), math.log10(hi)
        return [lo] + [10 ** (a + i * (b - a) / (n - 1)) for i in range(1, n - 1)] + [hi]
    return linspace(lo, hi, n)


def _areas(p: float, j_av: float, gamma_ratio: float, omega_ratio: float) -> tuple[float, float]:
    """Drive and gain area of a phase-diagram cell, with the float
    operations of ``FloquetParams.from_dimensionless``."""
    pj = p * j_av
    T = 2 * math.pi / (omega_ratio * pj)
    return j_av * (p * T), gamma_ratio * pj / (1 - p) * ((1 - p) * T)


def check_phase_diagram(params: dict, cols: dict) -> None:
    ng, no = params["grid"]
    qname = params["quantity"].replace("-", "_")
    _shape(cols, ["gamma_ratio", "omega_ratio", qname], ng * no)
    gammas = _axis(params["gamma_min"], params["gamma_max"], ng, params["gamma_scale"])
    omegas = _axis(params["omega_min"], params["omega_max"], no, params["omega_scale"])
    for k, (r, w, v) in enumerate(zip(cols["gamma_ratio"], cols["omega_ratio"], cols[qname])):
        i, j = divmod(k, no)
        _require(_close(r, gammas[i], 1e-12) and _close(w, omegas[j], 1e-12), f"row {k}: wrong axis values")
        a, g = _areas(params["p"], params["j_av"], r, w)
        if qname == "inner_product":
            s, th = math.sin(a), math.tanh(g)
            ratio = abs(s / th) if th else math.inf
            ref = min(ratio, 1 / ratio) if ratio else 0.0
            _require(abs(v - ref) <= 1e-9, f"row {k}: inner product {v!r} != {ref!r}")
            _require(0.0 <= v <= 1.0, f"row {k}: inner product {v!r} leaves [0, 1]")
            continue
        try:
            q = math.cos(a) * math.cosh(g)
            d = (q - 1.0) * (q + 1.0)
        except OverflowError:
            d = math.inf
        if qname == "discriminant":
            if math.isfinite(d):
                _require(_close(v, d, 1e-9), f"row {k}: discriminant {v!r} != {d!r}")
            else:  # saturation to +inf is the documented strong-gain result
                _require(v == math.inf, f"row {k}: discriminant {v!r} should saturate to inf")
        else:
            _require(v in (-1.0, 0.0, 1.0), f"row {k}: phase code {v} not in {{-1, 0, 1}}")
            if d == math.inf or abs(d) > 1e-8 * max(1.0, d + 1):
                _require(v == math.copysign(1.0, d), f"row {k}: phase code {v} contradicts discriminant {d:.3e}")


def _contour_rows(p: float, j_av: float, omegas: list[float]) -> int:
    """Rows ep-contour writes: one per (frequency, branch) where
    cos(drive area) * cosh(gain area) = branch has a solution."""
    n = 0
    for omega in omegas:
        c = math.cos(j_av * (p * (2 * math.pi / omega)))
        if c == 0.0:
            continue
        for branch in (1, -1):
            ratio = branch / c
            if ratio >= 1.0 - 1e-12:
                n += 1
    return n


def check_ep_contour(params: dict, cols: dict) -> None:
    p, j_av = params["p"], params["j_av"]
    pj = p * j_av
    omegas = linspace(params["omega_min"], params["omega_max"], params["samples"])
    names = ["branch", "interval_k", "omega", "gamma_av", "omega_ratio", "gamma_ratio"]
    _shape(cols, names, _contour_rows(p, j_av, omegas))
    _finite(cols, names)
    for k, (b, ik, w, g, wr, gr) in enumerate(zip(*(cols[n] for n in names))):
        _require(b in (1.0, -1.0), f"row {k}: branch {b}")
        _require(ik == math.floor(2 * pj / w), f"row {k}: interval index {ik} for omega {w}")
        _require(g >= 0, f"row {k}: negative contour gain")
        T = 2 * math.pi / w
        q = math.cos(j_av * (p * T)) * math.cosh(g * ((1 - p) * T))
        _require(abs(q - b) <= 1e-9 * abs(q), f"row {k}: point off the contour (trace {q!r}, branch {b})")
        _require(_close(wr, w / pj, 1e-12) and _close(gr, (1 - p) * g / pj, 1e-12), f"row {k}: wrong ratios")


def check_floquet_ham(params: dict, cols: dict) -> None:
    p, j_av, gamma = params["p"], params["j_av"], params["gamma_av"]
    count = params["omega_count"]
    omegas = [params["omega"]] if count == 1 else linspace(params["omega"], params["omega_max"], count)
    parts = ("h0", "hx", "hy", "hz")
    names = ["omega"] + [f"{h}_{c}" for h in parts for c in ("re", "im")] + ["on_contour"]
    _shape(cols, names, count)
    _finite(cols, names)
    for k, omega in enumerate(omegas):
        _require(_close(cols["omega"][k], omega, 1e-12), f"row {k}: omega {cols['omega'][k]} != {omega}")
        h0, hx, hy, hz = (complex(cols[f"{h}_re"][k], cols[f"{h}_im"][k]) for h in parts)
        flag = cols["on_contour"][k]
        _require(flag in (0.0, 1.0), f"row {k}: on_contour flag {flag}")
        T = 2 * math.pi / omega
        try:
            half_trace = math.cos(j_av * (p * T)) * math.cosh(gamma * ((1 - p) * T))
        except OverflowError:
            continue  # the one-period map itself is not representable
        h_sq = hx * hx + hy * hy + hz * hz
        if abs(half_trace * half_trace - 1) <= 1e-12:  # on the EP the generator squares to a scalar
            _require(abs(T * T * h_sq) <= 1e-6, f"row {k}: on-contour generator has h.h = {h_sq}")
        # exp(-i T H) must reproduce the map's determinant (1) and trace
        phase = cmath.exp(-1j * T * h0)
        mu = cmath.sqrt(h_sq)
        _require(abs(phase * phase - 1) <= 1e-8, f"row {k}: generator determinant {phase * phase}")
        got = phase * cmath.cos(T * mu)
        _require(abs(got - half_trace) <= 1e-8 * max(1.0, abs(half_trace)),
                 f"row {k}: generator half-trace {got} != {half_trace}")


def check_bloch_traj(params: dict, cols: dict) -> None:
    periods, sub = params["periods"], params["substeps"]
    names = ["time", "theta", "phi", "x", "y", "z", "segment"]
    n = 1 + periods * 2 * sub
    _shape(cols, names, n)
    _finite(cols, names[:-1])
    times = cols["time"]
    _require(times[0] == 0.0 and _close(times[-1], periods, 1e-12), "time axis does not span the periods")
    _require(all(b > a for a, b in zip(times, times[1:])), "times not strictly increasing")
    for k in range(n):
        th, ph = cols["theta"][k], cols["phi"][k]
        x, y, z = cols["x"][k], cols["y"][k], cols["z"][k]
        _require(0.0 <= th <= math.pi and -math.pi <= ph < math.pi, f"row {k}: angles out of range")
        _require(abs(x * x + y * y + z * z - 1) <= UNIT_SLACK, f"row {k}: Bloch vector norm != 1")
        st = math.sin(th)
        _require(abs(x - st * math.cos(ph)) <= 1e-12 and abs(y - st * math.sin(ph)) <= 1e-12
                 and abs(z - math.cos(th)) <= 1e-12, f"row {k}: (x, y, z) disagree with (theta, phi)")
        in_period = (k - 1) % (2 * sub)
        expected = "unitary" if k == 0 or in_period < sub else "thermal"
        _require(cols["segment"][k] == expected, f"row {k}: segment tag {cols['segment'][k]!r}")


def concurrence_00(gamma: float, kx: float, t: float) -> float:
    """Concurrence of the pair started in |00>: 2 kx |f0 P+| / |kx^2 f0^2 + P+^2|
    with f0 = sin(delta t)/delta, P+ = cos(delta t) + gamma f0 and
    delta = sqrt(kx^2 - gamma^2).  For large imaginary delta t both are
    divided by cos(delta t), which leaves the ratio unchanged."""
    if t == 0:
        return 0.0
    d = cmath.sqrt(complex(kx * kx - gamma * gamma))
    z = d * t
    if z == 0:
        f0, pp = complex(t), 1 + gamma * t
    elif abs(z.imag) < 300:
        f0 = cmath.sin(z) / d
        pp = cmath.cos(z) + gamma * f0
    else:
        f0 = cmath.tan(z) / d
        pp = 1 + gamma * f0
    den = abs(kx * kx * f0 * f0 + pp * pp)
    return 2 * kx * abs(f0 * pp) / den if den else 0.0


def check_two_qubit(params: dict, cols: dict) -> None:
    combos = [(g, k) for g in params["gamma"] for k in params["kx"]]
    steps, t_max, j = params["steps"], params["t_max"], params["j"]
    suffixes = [""] if len(combos) == 1 else [f"_g{g:g}_kx{k:g}" for g, k in combos]
    names = ["jt"] + [f"{q}{s}" for s in suffixes for q in ("concurrence", "entropy_unitary", "entropy_thermal")]
    _shape(cols, names, steps + 1)
    _finite(cols, names)
    times = linspace(0.0, t_max, steps + 1)
    _require(all(_close(jt, j * t, 1e-12) for jt, t in zip(cols["jt"], times)), "jt column != j * t")
    for name in names[1:]:
        _in_unit_interval(cols[name], name)
    if params["init"] == "00":
        for (g, k), s in zip(combos, suffixes):
            for i, (t, c) in enumerate(zip(times, cols[f"concurrence{s}"])):
                ref = concurrence_00(g, k, t)
                _require(abs(c - ref) <= 1e-8, f"concurrence{s} row {i}: {c!r} != closed form {ref!r}")


CHECKS = {
    "phase-diagram": check_phase_diagram,
    "ep-contour": check_ep_contour,
    "floquet-ham": check_floquet_ham,
    "bloch-traj": check_bloch_traj,
    "two-qubit": check_two_qubit,
}


def sample_rows(n_rows: int) -> list[int]:
    return sorted({round(i * (n_rows - 1) / (REFERENCE_ROWS - 1)) for i in range(REFERENCE_ROWS)})


def _match_reference(cols: dict, sample: dict) -> None:
    names = list(cols)
    _require(sample["columns"] == names, f"columns {names} differ from the recorded sample")
    for idx, ref_row in sample["rows"].items():
        row = [cols[n][int(idx)] for n in names]
        for name, v, r in zip(names, row, ref_row):
            if isinstance(r, str):
                ok = v == r
            elif name == "phi":  # an angle: compare on the circle
                ok = abs(math.remainder(v - r, 2 * math.pi)) <= REFERENCE_RTOL * math.pi
            else:
                ok = _close(v, r, REFERENCE_RTOL)
            _require(ok, f"row {idx} column {name!r}: {v!r} differs from recorded {r!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_output(inv, path: Path, reference: dict) -> None:
    """Raise CheckError unless ``path`` holds a correct result for ``inv``."""
    _require(path.is_file(), f"missing output {path.name}")
    cols = read_table(path, inv.fmt)
    CHECKS[inv.command](inv.params, cols)
    if inv.is_preset:
        _require(inv.key in reference, f"no recorded row sample for preset {inv.key}")
        _match_reference(cols, reference[inv.key])


def record_sample(inv, path: Path) -> dict:
    """Row sample of a result file, as stored in reference.json."""
    cols = read_table(path, inv.fmt)
    n = len(next(iter(cols.values())))
    return {
        "columns": list(cols),
        "rows": {str(i): [cols[name][i] for name in cols] for i in sample_rows(n)},
    }


def main(argv: list[str]) -> int:
    workload, seed, outdir, *keys = argv
    reference = load_reference()
    invocations = {inv.key: inv for inv in workloads.generate(workload, int(seed))}
    errors = {}
    for key in keys:
        inv = invocations[key]
        try:
            check_output(inv, Path(outdir) / inv.output, reference)
            errors[key] = ""
        except CheckError as exc:
            errors[key] = f"check failed: {exc}"
    print(json.dumps(errors))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
