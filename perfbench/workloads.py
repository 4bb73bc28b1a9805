"""Seeded workload generator: each workload is a fixed list of CLI invocations.

Every invocation is one ``python -m floquet_ep <argv>`` call.  The seed only
draws physical parameters; sizes (grid cells, periods, time points) are fixed
so that the work per pass does not depend on the seed.  Drawn values stay in
the paper's figure windows: gain ratio 0.01-10, frequency ratio 0.1-3, and
the fig3 pair rates (j in {0.5, 1}, kx 1-1.5, gamma around kx).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Mirror of the CLI defaults, so that checks know every parameter of a run.
DEFAULTS = {
    "phase-diagram": {
        "p": 0.5, "j_av": 1.0, "grid": (400, 400), "gamma_min": 1e-2, "gamma_max": 10.0,
        "gamma_scale": "log", "omega_min": 0.1, "omega_max": 3.0, "omega_scale": "linear",
        "quantity": "inner-product",
    },
    "ep-contour": {"p": 0.5, "j_av": 1.0, "omega_min": 0.18, "omega_max": 2.2, "samples": 2000},
    "floquet-ham": {"p": 0.5, "j_av": 1.0, "gamma_av": 0.4, "omega": 2.0, "omega_max": None, "omega_count": 1},
    "bloch-traj": {
        "p": 0.5, "j_av": 1.0, "gamma_ratio": 1.0, "omega_ratio": 2.5 * math.pi,
        "periods": 20, "substeps": 64, "init": "xyz",
    },
    "two-qubit": {"j": 0.5, "gamma": [1.0], "kx": [1.0], "init": "00", "t_max": 20.0, "steps": 400},
}


def _bloch_preset(gamma_ratio, periods):
    return ("bloch-traj", {"gamma_ratio": gamma_ratio, "periods": periods})


def _pair_preset(init, j, gammas, kxs, t_max, steps):
    return ("two-qubit", {"init": init, "j": j, "gamma": gammas, "kx": kxs, "t_max": t_max, "steps": steps})


# The figure presets as (command, non-default parameters).
PRESETS = {
    "fig1b": ("phase-diagram", {}),
    "fig1c": ("ep-contour", {"samples": 4000}),
    "fig2a": _bloch_preset(1.0, 20),
    "fig2b": _bloch_preset(1.25, 200),
    "fig3c": _pair_preset("00", 0.5, [0.75, 1.0, 1.25], [1.0], 25.0, 1000),
    "fig3d": _pair_preset("bell", 0.5, [0.75, 1.0, 1.25], [1.0], 25.0, 1000),
    "fig3e": _pair_preset("mixed", 1.0, [1.5], [0.0, 1.5, 1.6], 40.0, 1200),
    "fig3f": _pair_preset("correlated", 1.0, [1.5], [0.0, 1.5, 1.6], 40.0, 1200),
}


@dataclass
class Invocation:
    """One CLI call: ``argv`` after ``python -m floquet_ep``, the command it
    resolves to and its full parameter set (defaults filled in)."""

    key: str
    argv: list[str]
    command: str
    params: dict
    fmt: str = "csv"
    # ROADMAP item 4's strong-gain inputs fail at the seed commit; their
    # failures are counted but do not make the run incorrect.
    known_failing: bool = False
    # key of another invocation whose output must be byte-identical
    same_as: str | None = None
    output: str = field(init=False)

    def __post_init__(self):
        self.output = f"{self.key}.{self.fmt}"
        self.argv = [*self.argv, "--output", self.output]

    @property
    def is_preset(self) -> bool:
        return self.argv[0] == "preset"


def _arg(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return str(value)


def cli_call(key: str, command: str, flags: dict, fmt: str = "csv", workers: int | None = None,
             known_failing: bool = False, same_as: str | None = None) -> Invocation:
    argv = [command]
    for name, value in flags.items():
        for v in value if isinstance(value, list) else [value]:
            argv += ["--" + name.replace("_", "-"), _arg(v)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    if fmt != "csv":
        argv += ["--format", fmt]
    params = {**DEFAULTS[command], **flags}
    return Invocation(key, argv, command, params, fmt, known_failing, same_as)


def preset_call(name: str) -> Invocation:
    command, overrides = PRESETS[name]
    return Invocation(name, ["preset", name], command, {**DEFAULTS[command], **overrides})


def _sig(x: float, digits: int = 6) -> float:
    """Round to a few significant digits, so argv stays readable."""
    return float(f"{x:.{digits}g}")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(rng.uniform(lo, hi))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def map_trace(gamma_ratio: float, omega_ratio: float) -> float:
    """Half-trace of the one-period map, cos(a) cosh(g), with drive area
    a = 2 pi / omega_ratio and gain area g = 2 pi gamma_ratio / omega_ratio.
    |value| < 1 is PT-symmetric, > 1 PT-broken, = 1 an exceptional point."""
    return math.cos(2 * math.pi / omega_ratio) * math.cosh(2 * math.pi * gamma_ratio / omega_ratio)


def _point_off_contour(rng, side=None, margin=0.05, max_gain_area=math.inf):
    """(gamma_ratio, omega_ratio) at least ``margin`` away from |trace| = 1,
    on the requested side of the PT transition."""
    while True:
        r = _log_uniform(rng, 0.01, 10.0)
        w = _uniform(rng, 0.1, 3.0)
        q = abs(map_trace(r, w))
        if abs(q - 1) < margin or 2 * math.pi * r / w > max_gain_area:
            continue
        if side is None or (side == "broken") == (q > 1):
            return r, w


def _grid_axes(rng, quantity):
    gamma_min = _log_uniform(rng, 0.01, 0.3)
    gamma_max = _log_uniform(rng, 3.0, 10.0)
    # keep cosh(g)^2 finite in doubles for the discriminant: g = 2 pi r / w <= 2 pi 40
    omega_min = _uniform(rng, 0.25 if quantity == "discriminant" else 0.1, 0.6)
    omega_max = _uniform(rng, 2.0, 3.0)
    return {"gamma_min": gamma_min, "gamma_max": gamma_max, "omega_min": omega_min, "omega_max": omega_max}


# The same phase map at one and at two workers; their compute_heatmap times
# give sweep.parallel_speedup.
PARALLEL_PAIR = ("phase_w1", "phase_w2")


def grid(rng: random.Random) -> list[Invocation]:
    axes = _grid_axes(rng, "phase")
    phase = {"grid": (300, 300), "quantity": "phase", **axes}
    disc = {"grid": (200, 200), "quantity": "discriminant", "gamma_scale": "linear",
            **_grid_axes(rng, "discriminant")}
    return [
        preset_call("fig1b"),
        cli_call(PARALLEL_PAIR[0], "phase-diagram", phase, workers=1),
        cli_call(PARALLEL_PAIR[1], "phase-diagram", phase, workers=2, same_as=PARALLEL_PAIR[0]),
        cli_call("disc_json", "phase-diagram", disc, fmt="json"),
    ]


def dynamics(rng: random.Random) -> list[Invocation]:
    side = rng.choice(("symmetric", "broken"))
    r, w = _point_off_contour(rng, side)
    kx = _uniform(rng, 1.0, 1.5)
    pair = {
        "j": rng.choice((0.5, 1.0)),
        "gamma": [_sig(kx * rng.uniform(0.5, 0.9)), kx, _sig(kx * rng.uniform(1.1, 1.3))],
        "kx": [kx],
        "init": "00",
        "t_max": _uniform(rng, 20.0, 40.0),
        "steps": 1000,
    }
    return [
        preset_call("fig2b"),
        cli_call("bloch", "bloch-traj", {"gamma_ratio": r, "omega_ratio": w, "periods": 300, "substeps": 64}),
        *(preset_call(name) for name in ("fig3c", "fig3d", "fig3e", "fig3f")),
        cli_call("pair", "two-qubit", pair),
    ]


def _on_contour_point(rng) -> tuple[float, float]:
    """(omega, gamma_av) exactly on the EP contour between the k=1 resonance
    (omega = 1) and the k=0 node (omega = 2) at p = 0.5, j_av = 1.

    The float operations mirror ``FloquetParams.from_omega`` and the drive
    and gain areas, so the program sees a discriminant at rounding level.
    Below omega = 1.4 the matrix log sometimes accepts such a point instead
    of falling back to the on-contour closed form (measured at 4000
    frequencies); from 1.4 up the fallback always runs."""
    p, j_av = 0.5, 1.0
    omega = _uniform(rng, 1.4, 1.8)
    T = 2 * math.pi / omega
    c = math.cos(j_av * (p * T))
    gamma = math.acosh(-1.0 / c) / ((1 - p) * T)
    return omega, gamma


def _sweep_off_contour(rng) -> dict:
    """A 200-point floquet-ham frequency sweep that stays away from every
    contour (at p = 0.5, j_av = 1 the ratios are omega/0.5 and gamma_av)."""
    while True:
        lo = _uniform(rng, 2.2, 3.5)
        hi = _sig(lo + rng.uniform(1.0, 3.0))
        g = _uniform(rng, 0.05, 0.6)
        step = (hi - lo) / 199
        if all(abs(abs(map_trace(g, (lo + i * step) / 0.5)) - 1) > 0.02 for i in range(200)):
            return {"gamma_av": g, "omega": lo, "omega_max": hi, "omega_count": 200}


def desk(rng: random.Random) -> list[Invocation]:
    # floquet-ham's matrix log loses about e^(2 g) * 1e-16 of accuracy at gain
    # area g (measured); at g <= 6 its output passes the 1e-8 checks.
    r, w = _point_off_contour(rng, max_gain_area=6.0)
    on_omega, on_gamma = _on_contour_point(rng)
    small_quantity = rng.choice(("inner-product", "discriminant", "phase"))
    br, bw = _point_off_contour(rng)
    pair = {
        "j": rng.choice((0.5, 1.0)),
        "gamma": [_uniform(rng, 0.5, 1.5)],
        "kx": [_uniform(rng, 0.5, 1.5)],
        "init": rng.choice(("00", "bell", "mixed", "correlated")),
        "t_max": _uniform(rng, 5.0, 20.0),
        "steps": 200,
    }
    return [
        # gamma_av = gamma_ratio and omega = omega_ratio / 2 at p = 0.5, j_av = 1
        cli_call("ham_point", "floquet-ham", {"omega": _sig(w / 2), "gamma_av": r}),
        cli_call("ham_on_contour", "floquet-ham", {"omega": on_omega, "gamma_av": on_gamma}),
        cli_call("ham_sweep", "floquet-ham", _sweep_off_contour(rng)),
        cli_call("contour", "ep-contour", {"omega_min": _uniform(rng, 0.15, 0.3),
                                           "omega_max": _uniform(rng, 1.8, 2.6), "samples": 2000}),
        preset_call("fig1c"),
        preset_call("fig2a"),
        cli_call("pair_small", "two-qubit", pair),
        cli_call("phase_small", "phase-diagram",
                 {"grid": (40, 40), "quantity": small_quantity, **_grid_axes(rng, small_quantity)}),
        cli_call("bloch_short", "bloch-traj", {
            "gamma_ratio": br, "omega_ratio": bw, "periods": 5,
            "init": f"{_uniform(rng, 0.1, 3.0)!r},{_uniform(rng, -3.0, 3.0)!r}",
        }),
        # ROADMAP item 4, verbatim: strong gain and long times overflow today.
        cli_call("strong_ham", "floquet-ham", {"gamma_av": 1000.0, "omega": 0.1}, known_failing=True),
        cli_call("strong_pair_t200", "two-qubit", {"gamma": [3.0], "kx": [1.0], "t_max": 200.0},
                 known_failing=True),
        cli_call("strong_pair_g1e3", "two-qubit", {"gamma": [1e3], "kx": [1.0], "t_max": 50.0},
                 known_failing=True),
        cli_call("strong_disc", "phase-diagram",
                 {"gamma_max": 1e4, "quantity": "discriminant", "grid": (20, 20)}, known_failing=True),
    ]


WORKLOADS = {"grid": grid, "dynamics": dynamics, "desk": desk}


def generate(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of ``workload`` for ``seed`` (deterministic)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
