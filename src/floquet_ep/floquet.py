"""Single-qubit Floquet dynamics alternating unitary and thermal segments.

One drive period of length T splits into a unitary segment (Rabi drive along
sigma_x for a fraction p of the period) followed by a thermal segment
(gain/loss along sigma_z for the rest).  Only the segment averages of the
drive and gain rates enter the one-period map, so the parameter point is
fully described by :class:`FloquetParams`.

The one-period map is generally neither unitary nor Hermitian and supports
exceptional-point (EP) degeneracies; this module classifies the PT phase,
locates the EP contours in closed form, and extracts the effective static
generator both off and on those contours.  :class:`FloquetParams` and the array
forms behind each scalar function come from the run-path kernel :mod:`floquet_ep._floquet`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._floquet import (CONTOUR_TOL, PHASE_TOL, RESONANCE_TOL, _SERIES_D, FloquetParams, _areas, _check_rates,
                       _contour_gamma, _discriminant, _eigenvector_overlap, _generator, _half_trace, _phase_code,
                       _x_rotation, _z_gain)
from .linalg import IDENTITY_2, PauliDecomposition, PhaseKind, pauli_decompose

__all__ = [
    "FloquetParams",
    "PhaseKind",
    "PhaseLabel",
    "FloquetHamiltonian",
    "propagator_unitary",
    "propagator_thermal",
    "propagator_unitary_profile",
    "propagator_thermal_profile",
    "floquet_operator",
    "floquet_eigenvalues",
    "discriminant",
    "classify_phase",
    "eigenvector_overlap",
    "ep_contour_gamma",
    "ep_slope_approx",
    "ep_node_asymptote",
    "ep_gamma_high_frequency",
    "floquet_hamiltonian",
    "floquet_hamiltonian_on_contour",
    "dp_proximity",
]


@dataclass(frozen=True)
class PhaseLabel:
    """PT-phase classification with the discriminant it was based on.

    ``discriminant`` is the squared Pauli-vector length of the one-period
    map: negative in the PT-symmetric phase (eigenvalues of equal magnitude),
    positive in the PT-broken phase, zero on an exceptional contour.  ``kind``
    is the exceptional point within the band ``|discriminant| <= PHASE_TOL``.
    """

    kind: PhaseKind
    discriminant: float


@dataclass(frozen=True)
class FloquetHamiltonian:
    """Effective static generator of the one-period map.

    Each Pauli component is purely real or purely imaginary (the antilinear
    symmetry of the protocol forbids fully complex components), and the sum
    of squared components is real.
    """

    decomposition: PauliDecomposition
    on_contour: bool

    @property
    def h0(self) -> complex:
        return self.decomposition.scalar

    @property
    def hx(self) -> complex:
        return complex(self.decomposition.vector[0])

    @property
    def hy(self) -> complex:
        return complex(self.decomposition.vector[1])

    @property
    def hz(self) -> complex:
        return complex(self.decomposition.vector[2])


def propagator_unitary(params: FloquetParams) -> np.ndarray:
    """Unitary-segment map exp(-i * j_av * tau * sigma_x)."""
    return _x_rotation(params.drive_area)


def propagator_thermal(params: FloquetParams) -> np.ndarray:
    """Thermal-segment map exp(+gamma_av * beta * sigma_z).

    Hermitian and positive-definite with eigenvalues e^{+-gain_area}; its
    determinant is exactly 1 because the generator is traceless.  Where
    e^{|gain_area|} overflows it raises FloatingPointError.
    """
    with np.errstate(over="raise"):
        return _z_gain(params.gain_area)


def _profile_product(segment_map, rate_fn, duration: float, n_steps: int) -> np.ndarray:
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = duration / n_steps
    out = np.array(IDENTITY_2)
    with np.errstate(over="raise"):  # an overflowing gain raises, as in propagator_thermal
        for step in segment_map(np.array([rate_fn((i + 0.5) * dt) for i in range(n_steps)], dtype=float) * dt):
            out = step @ out
    return out


def propagator_unitary_profile(rate_fn, duration: float, n_steps: int) -> np.ndarray:
    """Fine-step product integrator for a time-dependent Rabi rate.

    Composes exp(-i J(t) dt sigma_x) over midpoint samples.  All factors
    commute, so the result depends only on the mean of ``rate_fn`` over the
    segment (exactly so for profiles piecewise-constant on the step grid).
    """
    return _profile_product(_x_rotation, rate_fn, duration, n_steps)


def propagator_thermal_profile(rate_fn, duration: float, n_steps: int) -> np.ndarray:
    """Fine-step product integrator for a time-dependent gain/loss rate."""
    return _profile_product(_z_gain, rate_fn, duration, n_steps)


def floquet_operator(params: FloquetParams) -> tuple[np.ndarray, PauliDecomposition]:
    """One-period map (thermal segment applied after the unitary one) and its
    Pauli decomposition."""
    gf = propagator_thermal(params) @ propagator_unitary(params)
    return gf, pauli_decompose(gf)


def discriminant(params: FloquetParams) -> float:
    """Squared Pauli-vector length of the one-period map, in closed form:
    ``cos^2(drive_area) * cosh^2(gain_area) - 1``; +inf once that overflows."""
    return float(_discriminant(params.drive_area, params.gain_area))


def floquet_eigenvalues(params: FloquetParams) -> tuple[complex, complex]:
    """Closed-form eigenvalues of the one-period map.

    Both lie on the unit circle in the PT-symmetric phase; their product is
    the determinant, which is exactly 1 for this protocol.  They saturate where the
    discriminant does (gain area 1000, say): ``(inf, nan)``, or ``(nan, -inf)`` if cos(drive_area) < 0.
    """
    g0 = float(_half_trace(params.drive_area, params.gain_area))
    mod = cmath.sqrt(complex(discriminant(params)))
    return g0 + mod, g0 - mod


def classify_phase(params: FloquetParams) -> PhaseLabel:
    """PT-phase label from the sign of the discriminant; its EP band ``|d| <= PHASE_TOL`` is the ``phase`` map's."""
    d = discriminant(params)
    kind = (PhaseKind.PT_SYMMETRIC, PhaseKind.EXCEPTIONAL_POINT, PhaseKind.PT_BROKEN)[int(_phase_code(d)) + 1]
    return PhaseLabel(kind=kind, discriminant=d)


def eigenvector_overlap(params: FloquetParams) -> float:
    """Dirac inner product of the normalized one-period eigenvectors.

    Equal to ``min(r, 1/r)`` with
    ``r = |sin(drive_area) / tanh(gain_area)|``; it is 0 for a purely
    unitary period or at a resonance (orthogonal eigenvectors) and reaches
    1 exactly on an exceptional contour.
    """
    return float(_eigenvector_overlap(params.drive_area, params.gain_area))


def ep_contour_gamma(params: FloquetParams, branch: int) -> float | None:
    """Gain rate that puts this (p, T, j_av) on an exceptional contour.

    Inverts ``cos(drive_area) * cosh((1-p)*T*gamma) = branch`` for ``branch`` in
    {+1, -1}, a one-point call into the array form.  ``params.gamma_av`` is ignored.
    Returns None when the contour does not pass through this drive frequency on the
    requested branch (routine during frequency sweeps, hence not an error).
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    gamma = float(_contour_gamma(params.p, params.j_av, params.omega, params.drive_area, params.beta, branch))
    return None if math.isnan(gamma) else gamma


def ep_slope_approx(k: int, p: float, delta_omega: float) -> float:
    """Linear growth of the contour gain rate near the k-th resonance:
    ``k/(2(1-p)) * |delta_omega|``."""
    if k < 1:
        raise ValueError("resonance index k must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return k * abs(delta_omega) / (2 * (1 - p))


def ep_node_asymptote(k: int, p: float, j_av: float, delta_omega_prime: float) -> float:
    """Logarithmic divergence of the contour gain rate near the k-th node
    frequency ``2*p*j_av/(k + 1/2)``.

    Valid for ``0 < delta_omega_prime << p*j_av``; the relative error decays
    only logarithmically as the node is approached.
    """
    if k < 0:
        raise ValueError("node index k must be >= 0")
    _check_rates(p, j_av)
    pj = p * j_av
    x = math.pi * delta_omega_prime / pj
    gamma = -(pj / (math.pi * (k + 0.5) * (1 - p))) * math.log(x) if x > 0 else math.nan
    if not math.isfinite(gamma):
        raise ValueError(f"no finite asymptote at k {k}, p {p}, j_av {j_av}, delta_omega_prime {delta_omega_prime}; "
                         "it needs delta_omega_prime > 0")
    return gamma


def ep_gamma_high_frequency(p: float, j_av: float) -> float:
    """Infinite-frequency limit of the contour gain rate, p*j_av/(1-p).

    In this limit the stroboscopic problem reduces to a static one with
    time-averaged drive p*j_av and gain (1-p)*gamma_av.
    """
    _check_rates(p, j_av)
    return p * j_av / (1 - p)


def floquet_hamiltonian(params: FloquetParams) -> FloquetHamiltonian:
    """Effective static generator H of the one-period map, ``exp(-i T H) = G``.

    The closed form never forms G: it is finite on and near an EP, and at any
    gain where the components, of size about ``|gain_area| / T``, fit a double;
    where they overflow it raises ValueError.  It reproduces the principal
    matrix log (the tests' ``oracles.logm_2x2``) where that is well
    conditioned; h0 is 0, or omega/2 where the half-trace is negative outside
    the PT-symmetric phase.  ``on_contour`` flags ``|discriminant| <= CONTOUR_TOL``.
    """
    h0, hx, hy, hz, on_contour = _generator(params.drive_area, params.gain_area, params.T)
    dec = PauliDecomposition(complex(h0), np.array([hx, hy, hz], dtype=complex))
    return FloquetHamiltonian(decomposition=dec, on_contour=bool(on_contour))


def floquet_hamiltonian_on_contour(params: FloquetParams) -> FloquetHamiltonian:
    """Effective generator on an exceptional contour.

    There the generator squares to a scalar, the exponential series for the
    one-period map terminates at first order, and the components are

        hx = tan(drive_area) / T            (real;   even in gamma_av)
        hz = i * tanh(gain_area) / T        (imaginary; odd in gamma_av)
        hy = T * hx * hz                    (imaginary; odd in gamma_av)

    to first order in the discriminant, so the map reconstructs as
    ``+-(I - i T h.sigma)``.  The sign is carried by h0: 0 for a positive
    half-trace, else pi/T = omega/2, the included end of the zone
    ``(-omega/2, omega/2]``.

    On and off the contours the generator is a quantum Hatano-Nelson dimer
    [Hatano & Nelson, PRL 77, 570 (1996)] with tunnelling amplitudes
    ``hx -+ i hy``: their ratio ``|hx - i hy| / |hx + i hy| = e^{2 gain_area}``
    is set by the gain alone, and the on-site term over the tunnelling,
    ``|hz| / sqrt|(hx - i hy)(hx + i hy)| = |sinh(gain_area) / tan(drive_area)|``,
    vanishes at the nodes ``cos(drive_area) = 0``: pure asymmetric tunnelling.
    It is :func:`floquet_hamiltonian` with the contour band
    ``|discriminant| <= CONTOUR_TOL``; off that band it raises ValueError.
    """
    ham = floquet_hamiltonian(params)
    if not ham.on_contour:
        d = discriminant(params)
        raise ValueError(f"parameters are off the exceptional contour (discriminant {d:.3e}, tol {CONTOUR_TOL:.1e})")
    return ham


def dp_proximity(params: FloquetParams) -> tuple[float, float]:
    """Eigenvalues of (one-period map)^dagger (one-period map), descending:
    ``(e^{2|g|}, e^{-2|g|})`` for the gain area g, or ``(inf, 0.0)`` once that overflows.

    The unitary segment drops out of the product, leaving the squared
    thermal segment.  Both approach 1 as the dynamics become unitary (the
    diabolic-point limit), and their product is 1 because both segment
    generators are traceless.
    """
    g2 = 2 * abs(params.gain_area)
    try:
        return math.exp(g2), math.exp(-g2)
    except OverflowError:
        return math.inf, 0.0
