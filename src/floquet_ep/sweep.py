"""Parameter-grid evaluation for the single-qubit phase diagram.

Grids are specified in the dimensionless phase-diagram coordinates
``(1-p)*gamma_av/(p*j_av)`` (gain axis) and ``omega/(p*j_av)`` (frequency
axis).  Every cell quantity is an elementwise closed form, so a heat map is
one numpy pass over the whole grid through the same helpers as the scalar
functions of :mod:`floquet_ep.floquet`; each cell equals the scalar result
at :meth:`GridSpec.params_at` bit for bit.  The CLI evaluates the same :func:`_cells` on flat
rows, a block at a time while it writes them.  A contour trace is one array inversion over
both branch signs; each gain equals :func:`~floquet_ep.floquet.ep_contour_gamma` there bit for bit.
The grid types, :func:`_cells` and :func:`_contour_points` come from the run-path kernel :mod:`floquet_ep._sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._floquet import _check_rates
from ._sweep import AxisSpec, GridSpec, Quantity, _cells, _contour_points

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
