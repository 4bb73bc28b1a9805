"""Single-qubit Floquet dynamics alternating unitary and thermal segments.

One drive period of length T splits into a unitary segment (Rabi drive along
sigma_x for a fraction p of the period) followed by a thermal segment
(gain/loss along sigma_z for the rest).  Only the segment averages of the
drive and gain rates enter the one-period map, so the parameter point is
fully described by :class:`FloquetParams`.

The one-period map is generally neither unitary nor Hermitian and supports
exceptional-point (EP) degeneracies; this module classifies the PT phase,
locates the EP contours in closed form, and extracts the effective static
generator both off and on those contours.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import IDENTITY_2, PauliDecomposition, pauli_decompose

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

#: |sin(drive area)| below this is treated as an exact resonance, where the
#: unitary segment is trivial and the eigenvectors are Dirac-orthogonal.
RESONANCE_TOL = 1e-12

#: default half-width of the discriminant band labelled an exceptional point
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
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.j_av < 0:
            raise ValueError(f"j_av must be non-negative, got {self.j_av}")

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
        pj = p * j_av
        if pj <= 0 or p >= 1:
            raise ValueError("dimensionless coordinates need 0 < p < 1 and j_av > 0")
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
        pj = self.p * self.j_av
        if pj == 0:
            raise ValueError("gamma_ratio undefined for p*j_av == 0")
        return (1 - self.p) * self.gamma_av / pj

    @property
    def omega_ratio(self) -> float:
        pj = self.p * self.j_av
        if pj == 0:
            raise ValueError("omega_ratio undefined for p*j_av == 0")
        return self.omega / pj

    def with_gamma(self, gamma_av: float) -> "FloquetParams":
        return FloquetParams(self.p, self.T, self.j_av, gamma_av)


class PhaseKind(Enum):
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"
    EXCEPTIONAL_POINT = "exceptional-point"


@dataclass(frozen=True)
class PhaseLabel:
    """PT-phase classification with the discriminant it was based on.

    ``discriminant`` is the squared Pauli-vector length of the one-period
    map: negative in the PT-symmetric phase (eigenvalues of equal magnitude),
    positive in the PT-broken phase, zero on an exceptional contour.
    """

    kind: PhaseKind
    discriminant: float
    tol: float


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


def _x_rotation(a: float) -> np.ndarray:
    return np.array([[math.cos(a), -1j * math.sin(a)], [-1j * math.sin(a), math.cos(a)]], dtype=complex)


def _z_gain(g: float) -> np.ndarray:
    return np.array([[math.exp(g), 0.0], [0.0, math.exp(-g)]], dtype=complex)


def propagator_unitary(params: FloquetParams) -> np.ndarray:
    """Unitary-segment map exp(-i * j_av * tau * sigma_x)."""
    return _x_rotation(params.drive_area)


def propagator_thermal(params: FloquetParams) -> np.ndarray:
    """Thermal-segment map exp(+gamma_av * beta * sigma_z).

    Hermitian and positive-definite with eigenvalues e^{+-gain_area}; its
    determinant is exactly 1 because the generator is traceless.
    """
    return _z_gain(params.gain_area)


def _profile_product(step_matrix, duration: float, n_steps: int) -> np.ndarray:
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = duration / n_steps
    out = np.array(IDENTITY_2)
    for i in range(n_steps):
        out = step_matrix((i + 0.5) * dt, dt) @ out
    return out


def propagator_unitary_profile(rate_fn, duration: float, n_steps: int) -> np.ndarray:
    """Fine-step product integrator for a time-dependent Rabi rate.

    Composes exp(-i J(t) dt sigma_x) over midpoint samples.  All factors
    commute, so the result depends only on the mean of ``rate_fn`` over the
    segment (exactly so for profiles piecewise-constant on the step grid).
    """
    return _profile_product(lambda t, dt: _x_rotation(rate_fn(t) * dt), duration, n_steps)


def propagator_thermal_profile(rate_fn, duration: float, n_steps: int) -> np.ndarray:
    """Fine-step product integrator for a time-dependent gain/loss rate."""
    return _profile_product(lambda t, dt: _z_gain(rate_fn(t) * dt), duration, n_steps)


def floquet_operator(params: FloquetParams) -> tuple[np.ndarray, PauliDecomposition]:
    """One-period map (thermal segment applied after the unitary one) and its
    Pauli decomposition."""
    gf = propagator_thermal(params) @ propagator_unitary(params)
    return gf, pauli_decompose(gf)


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
    for the discriminant d.

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
        k = sign * ratio / T
        tanh_g = np.tanh(gain_area)
        h0 = np.where(sign < 0, math.pi / T, 0.0)
        return h0, k * sin_a, 1j * (k * sin_a * tanh_g), 1j * (k * c * tanh_g), np.abs(d) <= CONTOUR_TOL


def _phase_code(d, tol: float = PHASE_TOL):
    """-1 PT-symmetric, 0 exceptional point (``|d| <= tol``), +1 PT-broken."""
    return np.where(d < -tol, -1.0, np.where(d > tol, 1.0, 0.0))


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


def discriminant(params: FloquetParams) -> float:
    """Squared Pauli-vector length of the one-period map, in closed form:
    ``cos^2(drive_area) * cosh^2(gain_area) - 1``; +inf once that overflows."""
    return float(_discriminant(params.drive_area, params.gain_area))


def floquet_eigenvalues(params: FloquetParams) -> tuple[complex, complex]:
    """Closed-form eigenvalues of the one-period map.

    Both lie on the unit circle in the PT-symmetric phase; their product is
    the determinant, which is exactly 1 for this protocol.
    """
    g0 = float(_half_trace(params.drive_area, params.gain_area))
    mod = cmath.sqrt(complex(discriminant(params)))
    return g0 + mod, g0 - mod


def classify_phase(params: FloquetParams, tol: float = PHASE_TOL) -> PhaseLabel:
    """PT-phase label from the sign of the discriminant."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = discriminant(params)
    kind = (PhaseKind.PT_SYMMETRIC, PhaseKind.EXCEPTIONAL_POINT, PhaseKind.PT_BROKEN)[int(_phase_code(d, tol)) + 1]
    return PhaseLabel(kind=kind, discriminant=d, tol=tol)


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

    Inverts ``cos(drive_area) * cosh((1-p)*T*gamma) = branch`` for
    ``branch`` in {+1, -1}.  ``params.gamma_av`` is ignored.  Returns None
    when the contour does not pass through this drive frequency on the
    requested branch (routine during frequency sweeps, hence not an error).
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if params.beta <= 0:
        raise ValueError("thermal segment has zero duration; no contour exists")
    c = math.cos(params.drive_area)
    if c == 0.0:
        return None
    ratio = branch / c
    if 1.0 - 1e-12 <= ratio < 1.0:
        ratio = 1.0  # roundoff guard right at a resonance, where gamma -> 0
    if ratio < 1.0:
        return None
    return math.acosh(ratio) / params.beta


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
    if delta_omega_prime <= 0:
        raise ValueError("delta_omega_prime must be positive")
    pj = p * j_av
    return -(pj / (math.pi * (k + 0.5) * (1 - p))) * math.log(math.pi * delta_omega_prime / pj)


def ep_gamma_high_frequency(p: float, j_av: float) -> float:
    """Infinite-frequency limit of the contour gain rate, p*j_av/(1-p).

    In this limit the stroboscopic problem reduces to a static one with
    time-averaged drive p*j_av and gain (1-p)*gamma_av.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return p * j_av / (1 - p)


def floquet_hamiltonian(params: FloquetParams) -> FloquetHamiltonian:
    """Effective static generator H of the one-period map, ``exp(-i T H) = G``.

    Finite at every point and any gain, exceptional contours included: the
    closed form never forms G, so it neither overflows nor raises near an
    EP.  It reproduces the principal matrix log
    (:func:`~floquet_ep.linalg.logm_2x2`) wherever that is well conditioned;
    h0 is 0, or omega/2 where the half-trace is negative outside the
    PT-symmetric phase.  ``on_contour`` flags ``|discriminant| <= CONTOUR_TOL``.
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
    ``(-omega/2, omega/2]``.  The ratio hy/hz = tan(drive_area) tunes the
    generator continuously between a gain-loss dimer (hz dominant, at
    resonances) and asymmetric-tunneling (Hatano-Nelson) form (hy, hx
    dominant, at the nodes).  It is :func:`floquet_hamiltonian` with the
    contour band ``|discriminant| <= CONTOUR_TOL``; off that band it raises ValueError.
    """
    ham = floquet_hamiltonian(params)
    if not ham.on_contour:
        d = discriminant(params)
        raise ValueError(f"parameters are off the exceptional contour (discriminant {d:.3e}, tol {CONTOUR_TOL:.1e})")
    return ham


def dp_proximity(params: FloquetParams) -> tuple[float, float]:
    """Eigenvalues of (one-period map)^dagger (one-period map), descending.

    They equal ``exp(+-2 * gain_area)`` exactly: the unitary segment drops
    out of the product, leaving the squared thermal segment.  Both approach
    1 as the dynamics become unitary (the diabolic-point limit), and their
    product is 1 because both segment generators are traceless.

    The small eigenvalue is recovered from the determinant rather than by
    subtraction, which would lose all relative accuracy at large gain.
    """
    gf, _ = floquet_operator(params)
    dec = pauli_decompose(gf.conj().T @ gf)
    m0 = dec.scalar.real
    spread = math.sqrt(max(dec.norm_sq.real, 0.0))
    large = m0 + spread
    det = gf[0, 0] * gf[1, 1] - gf[0, 1] * gf[1, 0]
    return large, float(abs(det) ** 2 / large)
