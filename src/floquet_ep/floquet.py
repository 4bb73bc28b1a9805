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

import numpy as np

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


def _x_rotation(a):
    """``exp(-i a sigma_x)`` per drive area, shape ``a.shape + (2, 2)``."""
    c, s = np.cos(a), -1j * np.sin(a)
    return np.stack([c, s, s, c], axis=-1).reshape(np.shape(a) + (2, 2))


def _z_gain(g, shift=0.0):
    """``exp(g sigma_z - shift)`` per gain area; ``shift = |g|`` keeps it finite at any gain."""
    out = np.zeros(np.shape(g) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(g - shift), np.exp(-g - shift)
    return out


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


def _check_rates(p: float, j_av: float) -> None:
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    if not (0 < j_av < math.inf and 0 < p * j_av / (1 - p) < math.inf):
        raise ValueError(f"j_av must be positive and finite, and so must p * j_av / (1 - p); got p {p}, j_av {j_av}")


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
