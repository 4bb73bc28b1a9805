"""Parameter-grid evaluation for the single-qubit phase diagram.

Grids are specified in the dimensionless phase-diagram coordinates
``(1-p)*gamma_av/(p*j_av)`` (gain axis) and ``omega/(p*j_av)`` (frequency
axis).  Every cell quantity is an elementwise closed form, so a heat map is
one numpy pass over the whole grid through the same helpers as the scalar
functions of :mod:`floquet_ep.floquet`; each cell equals the scalar result
at :meth:`GridSpec.params_at` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .floquet import (
    FloquetParams,
    _discriminant,
    _eigenvector_overlap,
    _phase_code,
    ep_contour_gamma,
)

__all__ = [
    "AxisSpec",
    "GridSpec",
    "Quantity",
    "HeatMap",
    "ContourBranch",
    "ContourSet",
    "ResonanceInfo",
    "compute_heatmap",
    "trace_contours",
    "resonance_frequencies",
]

@dataclass(frozen=True)
class AxisSpec:
    """One grid axis; ``scale`` is "linear" or "log" (log needs lo > 0)."""

    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not self.lo < self.hi:
            raise ValueError("axis needs lo < hi")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown axis scale {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError("log axis needs lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Dimensionless gain x frequency grid at fixed (p, j_av)."""

    gamma_axis: AxisSpec
    omega_axis: AxisSpec
    p: float = 0.5
    j_av: float = 1.0

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.j_av <= 0:
            raise ValueError("j_av must be positive")

    def params_at(self, gamma_ratio: float, omega_ratio: float) -> FloquetParams:
        return FloquetParams.from_dimensionless(gamma_ratio, omega_ratio, self.p, self.j_av)


class Quantity(Enum):
    INNER_PRODUCT = "inner-product"
    DISCRIMINANT = "discriminant"
    PHASE = "phase"


@dataclass
class HeatMap:
    """Row-major values: ``values[i, j]`` belongs to gamma row i, omega
    column j."""

    grid: GridSpec
    quantity: Quantity
    values: np.ndarray = field(repr=False)

    def gamma_values(self) -> np.ndarray:
        return self.grid.gamma_axis.values()

    def omega_values(self) -> np.ndarray:
        return self.grid.omega_axis.values()


def compute_heatmap(grid: GridSpec, quantity: Quantity) -> HeatMap:
    """Evaluate one quantity over the grid in a single array pass.

    The gain axis is broadcast as a column against the frequency axis as a
    row; the drive and gain areas use the float operations of
    :meth:`FloquetParams.from_dimensionless`.
    """
    p, j_av, pj = grid.p, grid.j_av, grid.p * grid.j_av
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        omega = grid.omega_axis.values()[np.newaxis, :] * pj
        gamma_av = grid.gamma_axis.values()[:, np.newaxis] * pj / (1 - p)
        T = 2 * math.pi / omega
        drive_area = j_av * (p * T)
        gain_area = gamma_av * ((1 - p) * T)
    if not np.all(omega > 0):
        raise ValueError(f"omega must be positive, got {omega.min()}")
    if not all(np.all(np.isfinite(x)) for x in (omega, drive_area, gain_area)):
        raise ValueError("frequency, drive area or gain area is not finite on this grid")
    if quantity is Quantity.INNER_PRODUCT:
        values = _eigenvector_overlap(drive_area, gain_area)
    else:
        values = _discriminant(drive_area, gain_area)
        if quantity is Quantity.PHASE:
            values = _phase_code(values)
    return HeatMap(grid=grid, quantity=quantity, values=values)


@dataclass
class ContourBranch:
    """Points of one exceptional-contour arm.

    ``branch`` is the sign (+1/-1) solved for in the contour condition;
    ``resonance_index`` k labels the inter-resonance frequency interval
    the points fall in; points are (gamma_av, omega) in raw units.
    """

    branch: int
    resonance_index: int
    points: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class ContourSet:
    branches: list[ContourBranch] = field(default_factory=list)


def trace_contours(p: float, j_av: float, omega_range: tuple[float, float], n_samples: int) -> ContourSet:
    """Sample the exceptional contours over a frequency window.

    The contour condition is exactly invertible per frequency, so the arms
    are sampled directly rather than path-followed.  Points are grouped by
    (branch sign, inter-resonance interval index).
    """
    lo, hi = omega_range
    if not (lo > 0 and hi > lo):
        raise ValueError("omega_range must satisfy 0 < lo < hi")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    pj = p * j_av
    omegas = np.linspace(lo, hi, n_samples)
    with np.errstate(over="ignore"):
        intervals, drive_area = np.floor(2 * pj / omegas), j_av * (p * (2 * math.pi / omegas))
    if not (np.all(np.isfinite(intervals)) and np.all(np.isfinite(drive_area))):
        raise ValueError(f"drive area is not finite at omega = {lo:g}")
    groups: dict[tuple[int, int], ContourBranch] = {}
    for omega, k_interval in zip(omegas.tolist(), map(int, intervals.tolist())):
        params = FloquetParams.from_omega(p, omega, j_av, 0.0)
        for branch in (1, -1):
            gamma = ep_contour_gamma(params, branch)
            if gamma is None:
                continue
            key = (branch, k_interval)
            if key not in groups:
                groups[key] = ContourBranch(branch=branch, resonance_index=k_interval)
            groups[key].points.append((gamma, omega))
    ordered = sorted(groups.values(), key=lambda b: (b.resonance_index, -b.branch))
    return ContourSet(branches=ordered)


@dataclass(frozen=True)
class ResonanceInfo:
    """Resonance frequency 2 p j_av / k (None for k = 0) and node frequency
    2 p j_av / (k + 1/2)."""

    k: int
    omega_resonance: float | None
    omega_node: float


def resonance_frequencies(p: float, j_av: float, k_max: int) -> list[ResonanceInfo]:
    """Resonances for k = 1..k_max and nodes for k = 0..k_max.

    At a resonance the unitary segment is trivial (+-identity) and the
    contour terminates at zero gain; at a node the PT-symmetric phase
    survives to arbitrarily large gain.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    pj = p * j_av
    out = [ResonanceInfo(k=0, omega_resonance=None, omega_node=2 * pj / 0.5)]
    for k in range(1, k_max + 1):
        out.append(ResonanceInfo(k=k, omega_resonance=2 * pj / k, omega_node=2 * pj / (k + 0.5)))
    return out
