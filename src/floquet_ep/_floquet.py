"""Run-path kernel of :mod:`floquet_ep.floquet`: :class:`FloquetParams` and the array forms of the one-period
map's areas, discriminant, eigenvector overlap, effective generator and contour gain.  The command line imports this
module alone; :mod:`floquet_ep.floquet` re-exports every name and adds the scalar library."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: |sin(drive area)| below this is treated as an exact resonance, where the
#: unitary segment is trivial and the eigenvectors are Dirac-orthogonal.
RESONANCE_TOL = 1e-12

#: half-width of the discriminant band labelled an exceptional point
PHASE_TOL = 1e-10


@dataclass(frozen=True)
class FloquetParams:
    """Dimensionless single-qubit drive-protocol parameters.

    Attributes:
        p: fraction of the period spent in the unitary segment (0..1; the
            endpoints are admitted as degenerate pure-thermal / pure-unitary
            protocols).
        T: drive period (hbar = 1 units).
        j_av: average Rabi rate over the unitary segment (>= 0).
        gamma_av: average gain/loss rate over the thermal segment.  Usually
            >= 0; negative values are accepted because the phase diagram is
            symmetric under flipping the sign.
    """

    p: float
    T: float
    j_av: float
    gamma_av: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not (self.j_av >= 0 and math.isfinite(self.drive_area) and math.isfinite(self.gain_area)):  # inf rate: inf or nan area
            raise ValueError(f"j_av must be non-negative, and the rates and areas finite; got j_av {self.j_av}, "
                             f"gamma_av {self.gamma_av}, drive area {self.drive_area}, gain area {self.gain_area}")

    @classmethod
    def from_omega(cls, p: float, omega: float, j_av: float, gamma_av: float) -> "FloquetParams":
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        return cls(p=p, T=2 * math.pi / omega, j_av=j_av, gamma_av=gamma_av)

    @classmethod
    def from_dimensionless(
        cls,
        gamma_ratio: float,
        omega_ratio: float,
        p: float = 0.5,
        j_av: float = 1.0,
    ) -> "FloquetParams":
        """Build from the phase-diagram coordinates
        ``gamma_ratio = (1-p)*gamma_av/(p*j_av)`` and
        ``omega_ratio = omega/(p*j_av)``."""
        _check_rates(p, j_av)
        pj = p * j_av  # one product: omega_ratio * p * j_av rounds differently
        return cls.from_omega(p, omega_ratio * pj, j_av, gamma_ratio * pj / (1 - p))

    @property
    def tau(self) -> float:
        """Duration of the unitary segment."""
        return self.p * self.T

    @property
    def beta(self) -> float:
        """Duration of the thermal segment."""
        return (1 - self.p) * self.T

    @property
    def omega(self) -> float:
        return 2 * math.pi / self.T

    @property
    def drive_area(self) -> float:
        """Integrated Rabi drive over one unitary segment, j_av * tau."""
        return self.j_av * self.tau

    @property
    def gain_area(self) -> float:
        """Integrated gain/loss over one thermal segment, gamma_av * beta."""
        return self.gamma_av * self.beta

    @property
    def gamma_ratio(self) -> float:
        _check_rates(self.p, self.j_av)
        return (1 - self.p) * self.gamma_av / (self.p * self.j_av)

    @property
    def omega_ratio(self) -> float:
        _check_rates(self.p, self.j_av)
        return self.omega / (self.p * self.j_av)

    def with_gamma(self, gamma_av: float) -> "FloquetParams":
        return FloquetParams(self.p, self.T, self.j_av, gamma_av)


def _areas(p, omega, j_av, gamma_av):
    """``(T, drive_area, gain_area)`` at drive frequency omega, scalars or arrays, with the
    float operations of :meth:`FloquetParams.from_omega`; ValueError unless omega > 0 and all are finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        T = 2 * math.pi / omega
        areas = T, j_av * (p * T), gamma_av * ((1 - p) * T)
    if not (np.all(omega > 0) and all(np.all(np.isfinite(x)) for x in (omega, *areas))):
        raise ValueError("omega must be positive, and the drive area and gain area finite; omega in "
                         f"[{np.min(omega):g}, {np.max(omega):g}], gamma_av in [{np.min(gamma_av):g}, {np.max(gamma_av):g}]")
    return areas


def _x_rotation(a):
    """``exp(-i a sigma_x)`` per drive area, shape ``a.shape + (2, 2)``."""
    c, s = np.cos(a), -1j * np.sin(a)
    return np.stack([c, s, s, c], axis=-1).reshape(np.shape(a) + (2, 2))


def _z_gain(g, shift=0.0):
    """``exp(g sigma_z - shift)`` per gain area; ``shift = |g|`` keeps it finite at any gain."""
    out = np.zeros(np.shape(g) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(g - shift), np.exp(-g - shift)
    return out


def _half_trace(drive_area, gain_area):
    """Half-trace ``cos(drive_area) * cosh(gain_area)`` of the one-period
    map; saturates to +-inf at strong gain.  Scalars or arrays."""
    with np.errstate(over="ignore"):
        return np.cos(drive_area) * np.cosh(gain_area)


def _discriminant(drive_area, gain_area):
    """``(q - 1)(q + 1)`` for the half-trace q; +inf at strong gain."""
    with np.errstate(over="ignore"):
        q = _half_trace(drive_area, gain_area)
        return (q - 1.0) * (q + 1.0)


#: on-contour band of the generator, ``|discriminant| <= CONTOUR_TOL``
CONTOUR_TOL = 1e-8
_SERIES_D = 1e-4  # below this |discriminant|, the series of asinh(r)/r


def _generator(drive_area, gain_area, T):
    """Effective generator ``(h0, hx, hy, hz, on_contour)`` of the one-period
    map at any gain; scalars or arrays, ``on_contour`` is ``|d| <= CONTOUR_TOL``
    for the discriminant d.  ValueError where hx, hy or hz overflows.

    Over cosh g, ``G = e^{g sz} e^{-i a sx}`` is ``cos a + u.sigma`` with
    ``u = (-i sin a, sin a tanh g, cos a tanh g)``, ``u.u = rho^2 = d/cosh^2 g``.
    Then ``s G = exp(theta s u.sigma / rho)`` with ``e^theta = cosh g (s cos a
    + rho)`` and ``h = i (theta/rho) s u / T``, where theta/rho is real:
    ``atan2(|rho|, s cos a) / |rho|`` for rho imaginary, and the series of
    asinh(r)/r for small |d| where ``s cos a > 0``.  Zone rule of the matrix
    log, quasienergies in ``(-omega/2, omega/2]``: ``s = -1``, ``h0 = pi/T``
    where ``cos a < 0`` and ``d >= -CONTOUR_TOL``; else ``s = 1``, ``h0 = 0``.
    """
    c, sin_a, ag = np.cos(drive_area), np.sin(drive_area), np.abs(gain_area)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = _discriminant(drive_area, gain_area)
        sign = np.where((c < 0) & (d >= -CONTOUR_TOL), -1.0, 1.0)
        sc = sign * c
        e2 = np.exp(-2 * ag)
        sech = 2 * np.exp(-ag) / (1 + e2)
        rho2 = (c - sech) * (c + sech)
        rho = np.sqrt(np.abs(rho2))
        log_cosh = ag + np.log1p(e2) - math.log(2)
        ratio = np.where(
            (np.abs(d) < _SERIES_D) & (sc > 0),
            np.cosh(ag) * (1 - d / 6 + 3 * d * d / 40),
            np.where(rho2 > 0, (log_cosh + np.log(sc + rho)) / rho, np.arctan2(rho, sc) / rho),
        )
        k, tanh_g = sign * ratio / T, np.tanh(gain_area)
        h = np.where(sign < 0, math.pi / T, 0.0), k * sin_a, 1j * (k * sin_a * tanh_g), 1j * (k * c * tanh_g)
    if not all(np.all(np.isfinite(x)) for x in h[1:]):
        raise ValueError(f"generator is not finite at gain area {np.max(np.abs(gain_area)):g}, T {np.min(T):g}")
    return *h, np.abs(d) <= CONTOUR_TOL


def _phase_code(d):
    """-1 PT-symmetric, 0 exceptional point (``|d| <= PHASE_TOL``), +1 PT-broken."""
    return np.where(d < -PHASE_TOL, -1.0, np.where(d > PHASE_TOL, 1.0, 0.0))


def _eigenvector_overlap(drive_area, gain_area):
    """``min(r, 1/r)`` with ``r = |sin(drive_area) / tanh(gain_area)|``, and
    0 at a resonance (``|sin| < RESONANCE_TOL``) or at zero gain, where the
    map is Hermitian and its eigenvectors orthogonal."""
    s = np.sin(drive_area)
    th = np.tanh(gain_area)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.abs(s / th)
        overlap = np.minimum(r, 1.0 / r)
    return np.where((np.abs(s) < RESONANCE_TOL) | (th == 0.0), 0.0, overlap)


def _contour_gamma(p, j_av, omega, drive_area, beta, branch):
    """Gain rate solving ``cos(drive_area) cosh(beta gamma) = branch`` (signs +-1, broadcast), nan where no contour
    passes; ``branch / cos`` within 1e-12 below 1 is roundoff at a resonance and counts as 1.
    ValueError naming p, j_av and the first frequency omega where the gain overflows."""
    if not np.all(beta > 0):
        raise ValueError("thermal segment has zero duration; no contour exists")
    c = np.cos(drive_area)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.where(c == 0.0, 0.0, branch / c)
        gamma = np.arccosh(np.where((1.0 - 1e-12 <= ratio) & (ratio < 1.0), 1.0, ratio)) / beta
    inf_at = np.broadcast_to(omega, np.shape(gamma))[np.isinf(gamma)]  # the frequencies where the gain overflows
    if inf_at.size:
        raise ValueError(f"the contour gain overflows at p {p}, j_av {j_av}, omega {inf_at[0]:g}")
    return gamma


def _check_rates(p: float, j_av: float) -> None:
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if not (0 < j_av < math.inf and 0 < p * j_av / (1 - p) < math.inf):
        raise ValueError(f"j_av must be positive and finite, and so must p * j_av / (1 - p); got p {p}, j_av {j_av}")
