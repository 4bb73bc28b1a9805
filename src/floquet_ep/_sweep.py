"""Run-path kernel of :mod:`floquet_ep.sweep`: the grid specification, the cell quantities of flat
(gain, frequency) rows and the flat contour points.  The command line imports this module alone;
:mod:`floquet_ep.sweep` re-exports every name and adds the held heat map and contour branches."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._floquet import FloquetParams, _areas, _check_rates, _contour_gamma, _discriminant, _eigenvector_overlap, _phase_code


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


def _cells(grid: GridSpec, quantity: Quantity, gamma_ratio, omega_ratio):
    """``quantity`` at each (gain ratio, frequency ratio) of broadcast arrays; :func:`~floquet_ep._floquet._areas`
    gives the areas as :meth:`FloquetParams.from_dimensionless` does and raises unless they are finite."""
    p, pj = grid.p, grid.p * grid.j_av
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        omega, gamma_av = omega_ratio * pj, gamma_ratio * pj / (1 - p)
    _, drive_area, gain_area = _areas(p, omega, grid.j_av, gamma_av)
    if quantity is Quantity.INNER_PRODUCT:
        return _eigenvector_overlap(drive_area, gain_area)
    values = _discriminant(drive_area, gain_area)
    return _phase_code(values) if quantity is Quantity.PHASE else values


def _contour_points(p: float, j_av: float, omega_range: tuple[float, float], n_samples: int):
    """Flat float arrays ``(branch, k, omega, gamma_av)`` of the contour points: both signs' gains in one
    inversion, the non-nan points ordered by interval k, then +1 before -1, then frequency."""
    lo, hi = omega_range
    if not 0 < lo < hi < np.inf:
        raise ValueError("omega_range must satisfy 0 < lo < hi < inf")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    _check_rates(p, j_av)
    omegas = np.linspace(lo, hi, n_samples)
    T, drive_area, _ = _areas(p, omegas, j_av, 0.0)
    k = np.floor(2 * (p * j_av / omegas))  # = floor(2 p j_av / omega), finite with drive_area
    signs = np.array([[1.0], [-1.0]])  # gamma: row +1, then row -1
    gamma = _contour_gamma(p, j_av, omegas, drive_area, (1 - p) * T, signs)
    found = ~np.isnan(gamma)
    branch, k, omega, gamma = (np.broadcast_to(x, gamma.shape)[found] for x in (signs, k, omegas, gamma))
    order = np.lexsort((omega, -branch, k))
    return branch[order], k[order], omega[order], gamma[order]
