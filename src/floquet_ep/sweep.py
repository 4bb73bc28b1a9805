"""Parameter-grid evaluation for the single-qubit phase diagram.

Grids are specified in the dimensionless phase-diagram coordinates
``(1-p)*gamma_av/(p*j_av)`` (gain axis) and ``omega/(p*j_av)`` (frequency
axis).  Every cell quantity is an elementwise closed form, so a heat map is
one numpy pass over the whole grid through the same helpers as the scalar
functions of :mod:`floquet_ep.floquet`; each cell equals the scalar result
at :meth:`GridSpec.params_at` bit for bit.  The CLI evaluates the same :func:`_cells` on flat
rows, a block at a time while it writes them.  A contour trace is one array inversion over
both branch signs; each gain equals :func:`~floquet_ep.floquet.ep_contour_gamma` there bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .floquet import FloquetParams, _areas, _check_rates, _contour_gamma, _discriminant, _eigenvector_overlap, _phase_code

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
        with np.errstate(over="ignore", invalid="ignore"):  # an axis wider than the doubles holds inf/nan: _areas rejects it
            return (np.geomspace if self.scale == "log" else np.linspace)(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Dimensionless gain x frequency grid at fixed (p, j_av)."""

    gamma_axis: AxisSpec
    omega_axis: AxisSpec
    p: float = 0.5
    j_av: float = 1.0

    def __post_init__(self):
        _check_rates(self.p, self.j_av)

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


def _cells(grid: GridSpec, quantity: Quantity, gamma_ratio, omega_ratio):
    """``quantity`` at each (gain ratio, frequency ratio) of broadcast arrays; :func:`~floquet_ep.floquet._areas`
    gives the areas as :meth:`FloquetParams.from_dimensionless` does and raises unless they are finite."""
    p, pj = grid.p, grid.p * grid.j_av
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        omega, gamma_av = omega_ratio * pj, gamma_ratio * pj / (1 - p)
    _, drive_area, gain_area = _areas(p, omega, grid.j_av, gamma_av)
    if quantity is Quantity.INNER_PRODUCT:
        return _eigenvector_overlap(drive_area, gain_area)
    values = _discriminant(drive_area, gain_area)
    return _phase_code(values) if quantity is Quantity.PHASE else values


def compute_heatmap(grid: GridSpec, quantity: Quantity) -> HeatMap:
    """One quantity over the grid in one array pass: gain axis as a column against frequency axis as a row."""
    values = _cells(grid, quantity, grid.gamma_axis.values()[:, np.newaxis], grid.omega_axis.values()[np.newaxis, :])
    return HeatMap(grid=grid, quantity=quantity, values=values)


@dataclass(eq=False)
class ContourBranch:
    """Points of one exceptional-contour arm.

    ``branch`` is the sign (+1/-1) solved for in the contour condition;
    ``resonance_index`` k labels the inter-resonance frequency interval
    the points fall in; ``points`` is an (n, 2) float64 array of
    ``(gamma_av, omega)`` rows in raw units, in frequency order.
    """

    branch: int
    resonance_index: int
    points: np.ndarray = field(repr=False)


@dataclass
class ContourSet:
    branches: list[ContourBranch] = field(default_factory=list)


def _contour_points(p: float, j_av: float, omega_range: tuple[float, float], n_samples: int):
    """Flat float arrays ``(branch, k, omega, gamma_av)`` of the contour points: both signs' gains in one
    inversion, the non-nan points ordered by interval k, then +1 before -1, then frequency."""
    lo, hi = omega_range
    if not (lo > 0 and hi > lo):
        raise ValueError("omega_range must satisfy 0 < lo < hi")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    FloquetParams.from_omega(p, hi, j_av, 0.0)  # checks p and j_av
    omegas = np.linspace(lo, hi, n_samples)
    T, drive_area, _ = _areas(p, omegas, j_av, 0.0)
    k = np.floor(2 * (p * j_av / omegas))  # = floor(2 p j_av / omega), finite with drive_area
    signs = np.array([[1.0], [-1.0]])  # gamma: row +1, then row -1
    gamma = _contour_gamma(p, j_av, omegas, drive_area, (1 - p) * T, signs)
    found = ~np.isnan(gamma)
    branch, k, omega, gamma = (np.broadcast_to(x, gamma.shape)[found] for x in (signs, k, omegas, gamma))
    order = np.lexsort((omega, -branch, k))
    return branch[order], k[order], omega[order], gamma[order]


def trace_contours(p: float, j_av: float, omega_range: tuple[float, float], n_samples: int) -> ContourSet:
    """Sample the exceptional contours over a frequency window.  The condition is exactly invertible per
    frequency, so the arms are sampled, not path-followed: :func:`_contour_points` split into one branch per
    (sign, interval k), points in frequency order, branches by k with +1 before -1."""
    branch, k, omega, gamma = _contour_points(p, j_av, omega_range, n_samples)
    starts = np.flatnonzero((np.diff(branch, prepend=0.0) != 0) | (np.diff(k, prepend=-1.0) != 0))
    arms = np.split(np.column_stack([gamma, omega]), starts[1:])
    return ContourSet([ContourBranch(int(branch[i]), int(k[i]), arm) for i, arm in zip(starts, arms)])


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
    _check_rates(p, j_av)
    pj = p * j_av
    node = 2 * pj / 0.5  # the other frequencies are at most 2 p j_av, which _check_rates keeps finite
    if np.isinf(node):
        raise ValueError(f"the node frequency 4 p j_av overflows at p {p}, j_av {j_av}")
    out = [ResonanceInfo(k=0, omega_resonance=None, omega_node=node)]
    for k in range(1, k_max + 1):
        out.append(ResonanceInfo(k=k, omega_resonance=2 * pj / k, omega_node=2 * pj / (k + 0.5)))
    return out
