"""Coupled thermal-unitary qubit pair: spectrum, propagator, entanglement.

Basis convention: the FIRST tensor factor is the thermal qubit (gain/loss
along sigma_z, with |0> the amplified level / north pole), the SECOND is the
unitary qubit (Rabi drive along sigma_x).  The Hermitian coupling acts as
sigma_x (x) sigma_x with strength kx.  The pair Hamiltonian has a
second-order exceptional point at gamma = kx.

Post-selection keeps the evolved state normalized at every time, in both PT
phases.  All evolution goes through the closed-form non-unitary propagator G,
for a whole time grid in batched array passes, applied to a factor Phi of
``rho0 = Phi Phi^dagger`` (a command-line start's exact one, else one ``eigh``):
``psi = G Phi / |G Phi|`` is the post-selected state ``psi psi^dagger``.  The
reduced entropies are closed forms in psi's 2x2 partial traces, and the
concurrence is Wootters' [PRL 80, 2245 (1998)] in Uhlmann's form [PRA 62,
032307 (2000)], from the singular values of ``tau = psi^T (sy(x)sy) psi``,
which is one number at rank 1: a pure start's run calls no LAPACK routine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Z, NumericsError, PhaseKind, kron

__all__ = [
    "TwoQubitParams",
    "Qubit",
    "EntanglementRecord",
    "hamiltonian_two_qubit",
    "propagator_analytic",
    "validate_density",
    "evolve_density",
    "concurrence",
    "concurrence_closed_form_00",
    "steady_state_concurrence",
    "reduced_density",
    "entropy",
    "entanglement_timeseries",
    "ground_density",
    "bell_density",
    "maximally_mixed_density",
    "correlated_diagonal_density",
    "density_from_label",
]

#: sy(x)sy takes level k to level 3 - k with these signs
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])

#: relative tolerance on |kx - gamma| for exceptional-point classification
EP_REL_TOL = 1e-12


@dataclass(frozen=True)
class TwoQubitParams:
    """Drive, gain and coupling rates of the qubit pair (all finite and >= 0)."""

    j: float
    gamma: float
    kx: float

    def __post_init__(self):
        for name in ("j", "gamma", "kx"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")

    @property
    def delta(self) -> complex:
        """Principal root of kx^2 - gamma^2: real in the PT-symmetric phase,
        imaginary in the broken phase, zero at the exceptional point.  ValueError where kx^2 - gamma^2 overflows."""
        d2 = self.kx * self.kx - self.gamma * self.gamma
        if not math.isfinite(d2):
            raise ValueError(f"kx^2 - gamma^2 overflows doubles at {self}")
        return cmath.sqrt(complex(d2))

    def phase(self) -> PhaseKind:
        scale = max(self.kx, self.gamma, 1.0)
        if abs(self.kx - self.gamma) <= EP_REL_TOL * scale:
            return PhaseKind.EXCEPTIONAL_POINT
        return PhaseKind.PT_SYMMETRIC if self.kx > self.gamma else PhaseKind.PT_BROKEN


class Qubit(Enum):
    UNITARY = "unitary"
    THERMAL = "thermal"


@dataclass(frozen=True)
class EntanglementRecord:
    """One sampled time of a pair run; ``time`` is the dimensionless j*t."""

    time: float
    concurrence: float
    entropy_unitary: float
    entropy_thermal: float


def hamiltonian_two_qubit(params: TwoQubitParams) -> np.ndarray:
    """Pair Hamiltonian j 1(x)sx + i gamma sz(x)1 + kx sx(x)sx.

    Commutes with the antilinear operation (sx(x)sx) . conjugation; its four
    eigenvalues are +-j +- sqrt(kx^2 - gamma^2).
    """
    return (
        params.j * kron(IDENTITY_2, PAULI_X)
        + 1j * params.gamma * kron(PAULI_Z, IDENTITY_2)
        + params.kx * kron(PAULI_X, PAULI_X)
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow yields non-finite values; checked below
def _pair_terms(params: TwoQubitParams, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P+- = cos(delta t) +- gamma f0`` and ``kx f0`` for ``f0 = sin(delta t)/delta`` (its series below
    |delta t| = 1e-4); ``ValueError`` naming the pair rate, or product with t or f0, that overflows doubles.

    In the broken phase (kappa = Im delta > 0) all are divided by e^{kappa t}:
    post-selection removes that overall scale, and without it they overflow.
    """
    kappa = params.delta.imag
    z = params.delta * ts
    small = np.abs(z) < 1e-4
    zs, z2 = np.where(small, 1.0, z), np.where(small, z * z, 0.0)
    series = ts * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
    if kappa > 0:
        f0 = np.where(small, series * np.exp(-kappa * ts), -np.expm1(-2 * kappa * ts) / (2 * kappa))
        cz = (1.0 + np.exp(-2 * kappa * ts)) / 2
    else:
        f0, cz = np.where(small, series, ts * np.sin(zs) / zs), np.cos(z)
    gf, kf = params.gamma * f0, params.kx * f0
    for name, value in (("Re(delta) * t", params.delta.real * ts), ("gamma * f0", gf),
                        ("kx * f0", kf)):  # Re(delta) only: the broken phase's growth is scaled out
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} overflows doubles at {params} and t up to {ts.max():g}")
    return cz + gf, cz - gf, kf


@np.errstate(over="ignore", invalid="ignore")  # overflow yields non-finite entries; callers check
def _propagators(params: TwoQubitParams, ts: np.ndarray) -> np.ndarray:
    """Closed-form propagators at every time in ``ts``, shape (n, 4, 4); in
    the broken phase divided by e^{kappa t}, as :func:`_pair_terms` is.  Raises
    ``ValueError`` naming the pair rate, or product with t or f0, that overflows doubles."""
    if np.any(ts < 0):
        raise ValueError("t must be non-negative")
    pp, pm, kf = _pair_terms(params, ts)
    if not np.all(np.isfinite(params.j * ts)):
        raise ValueError(f"j * t overflows doubles at {params} and t up to {ts.max():g}")
    c, s = np.cos(params.j * ts), np.sin(params.j * ts)
    a, b, e, f, g, h = c * pp, -1j * s * pp, -kf * s, -1j * kf * c, c * pm, -1j * s * pm
    return np.stack([a, b, e, f, b, a, f, e, e, f, g, h, f, e, h, g], axis=-1).reshape(-1, 4, 4)


def propagator_analytic(params: TwoQubitParams, t: float) -> np.ndarray:
    """Closed-form non-unitary propagator of the pair Hamiltonian.

    Written entirely in terms of ``f0 = sin(delta t)/delta`` and
    ``P+- = cos(delta t) +- gamma f0``, which removes every removable
    singularity: zeros of sin(delta t) in the PT-symmetric phase, the
    delta -> 0 exceptional-point limit (where the entries become polynomial
    in t times trig in j*t), and the broken phase where delta is imaginary
    and the trig functions turn hyperbolic.  Continuous across the PT
    transition by construction.  Raises ``ValueError`` naming the pair
    rates, ``j * t``, ``Re(delta) * t`` or ``e^{kappa t}`` (the broken phase's
    growth, kappa = Im delta) where they overflow doubles.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _propagators(params, np.array([float(t)]))[0] * np.exp(params.delta.imag * float(t))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"e^{{kappa t}} times the scaled propagator overflows doubles at {params} and t = {t:g}")
    return out


def validate_density(rho) -> np.ndarray:
    """Check finiteness, Hermiticity and unit trace to 1e-11 and positivity
    to -1e-10; returns the matrix as a complex ndarray."""
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("density matrix has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing difference or trace fails its check
        if not np.abs(a - a.conj().T).max() <= 1e-11:
            raise ValueError("density matrix is not Hermitian")
        if not (abs(np.trace(a).real - 1.0) <= 1e-11 and abs(np.trace(a).imag) <= 1e-11):
            raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(a).min() < -1e-10:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return a


def _pair_density(rho) -> np.ndarray:
    a = validate_density(rho)
    if a.shape[0] != 4:
        raise ValueError(f"expected a 4x4 pair density matrix, got shape {a.shape}")
    return a


def _factor(rho: np.ndarray) -> np.ndarray:
    """``Phi = V sqrt(w)`` over the positive eigenvalues w of a validated 4x4 ``rho``, shape (4, r)."""
    w, v = np.linalg.eigh(rho)
    return v[:, w > 0] * np.sqrt(w[w > 0])


@np.errstate(over="ignore", invalid="ignore")
def _evolve(phi: np.ndarray, params: TwoQubitParams, ts: np.ndarray) -> np.ndarray:
    """``psi = G Phi / sqrt(tr)``, ``tr = |G Phi|^2``, shape (n, 4, r), at each time in ``ts``; G exactly scaled by 2^k first."""
    g = _propagators(params, ts)
    v = g.view(np.float64)  # real and imaginary parts side by side
    g *= np.ldexp(1.0, -np.frexp(np.maximum(v.max(axis=(1, 2)), -v.min(axis=(1, 2))))[1])[:, None, None]
    psi = np.einsum("nij,jk->nik", g, phi)  # not matmul: a 4x4 stack needs no BLAS
    tr = (psi.real**2 + psi.imag**2).sum(axis=(1, 2))
    bad = ~((tr > 0) & np.isfinite(tr))
    if bad.any():
        raise NumericsError(f"propagated trace {tr[bad.argmax()]} is not a positive finite number")
    return psi / np.sqrt(tr)[:, None, None]


def evolve_density(rho0, params: TwoQubitParams, t: float) -> np.ndarray:
    """Propagate and renormalize: G rho G^dagger / tr(G rho G^dagger).

    The renormalization encodes post-selection and applies in both PT
    phases.  The denominator cannot vanish for a valid state and an
    invertible propagator; a numeric guard protects against pathological
    input anyway.
    """
    psi = _evolve(_factor(_pair_density(rho0)), params, np.array([float(t)]))[0]
    return psi @ psi.conj().T


def _concurrence(psi: np.ndarray) -> np.ndarray:
    """Concurrence of ``psi psi^dagger`` for factors of shape (..., 4, r); at rank 1, |tau| itself."""
    if psi.shape[-1] == 1:  # tau = -2 (psi0 psi3 - psi1 psi2), its own singular value up to a phase
        return np.abs(2 * (psi[..., 0, 0] * psi[..., 3, 0] - psi[..., 1, 0] * psi[..., 2, 0]))
    s = np.linalg.svd(np.einsum("...ik,...il->...kl", psi, psi[..., ::-1, :] * _YY_SIGNS), compute_uv=False)
    diff = s[..., 0] - s[..., 1:].sum(axis=-1)
    return np.where(diff > 0, diff, 0.0)


def concurrence(rho) -> float:
    """Two-qubit concurrence of a density matrix, ``max(0, s1 - s2 - ...)``.

    The s are Wootters' characteristic values: the singular values of Uhlmann's
    ``tau = Phi^T (sy(x)sy) Phi`` for ``rho = Phi Phi^dagger`` (no matrix square
    root); eigenvalues of rho below -1e-10 are rejected as invalid input.
    """
    return float(_concurrence(_factor(_pair_density(rho))))


def concurrence_closed_form_00(params: TwoQubitParams, t: float) -> float:
    """Concurrence at time t for the pair started in the basis state |00>.

    Evaluated in the singularity-free variables ``f0 = sin(delta t)/delta``
    and ``P+ = cos(delta t) + gamma f0`` as
    ``2 kx |f0 P+| / (kx^2 f0^2 + P+^2)``, which reduces to the familiar
    phase-specific expressions: trigonometric (periodically reaching 1 with
    period pi/(2 delta)) in the PT-symmetric phase, the rational polynomial
    form ``2 g t (1 + g t) / ((g t)^2 + (1 + g t)^2)`` at the exceptional
    point, and the hyperbolic form settling at kx/gamma in the broken
    phase.  Returns the limit value 0 at t = 0.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be non-negative and finite, got {t}")
    if t == 0:
        return 0.0
    pp, _, kf = (complex(x[0]) for x in _pair_terms(params, np.array([float(t)])))
    m = max(abs(pp), abs(kf))  # the form is homogeneous in (kx f0, P+): scaled by m > 0, no square overflows
    u, v = kf / m, pp / m
    return 2 * abs(u * v) / abs(u * u + v * v)


def steady_state_concurrence(params: TwoQubitParams) -> float | None:
    """Long-time concurrence limit for the |00> start: kx/gamma in the
    broken phase, 1 at the exceptional point, None (no steady value, the
    dynamics stay periodic) in the PT-symmetric phase."""
    phase = params.phase()
    if phase is PhaseKind.PT_SYMMETRIC:
        return None
    if phase is PhaseKind.EXCEPTIONAL_POINT:
        return 1.0
    return params.kx / params.gamma


#: einsum partial traces onto one qubit of (..., 2, 2, 2, 2) states, and of psi psi^dagger from psi, conj(psi)
_PARTIAL_TRACE = {Qubit.UNITARY: "...ijil->...jl", Qubit.THERMAL: "...ijkj->...ik"}
_FACTOR_TRACE = {Qubit.UNITARY: "...ijk,...ilk->...jl", Qubit.THERMAL: "...ijk,...ljk->...il"}


def reduced_density(rho, which: Qubit) -> np.ndarray:
    """Partial trace onto one qubit (first factor thermal, second unitary)."""
    a = _pair_density(rho)
    if not isinstance(which, Qubit):
        raise ValueError(f"unknown qubit selector {which!r}")
    return np.einsum(_PARTIAL_TRACE[which], a.reshape(2, 2, 2, 2))


def _entropy(w: np.ndarray) -> np.ndarray:
    """``-sum p log2 p`` over the last axis of eigenvalues ``w`` clipped into [0, 1], with 0 log 0 = 0."""
    w = np.clip(w, 0.0, 1.0)
    terms = np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return -terms.sum(axis=-1) + 0.0  # avoid -0.0


def _qubit_spectra(rhos: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues ``(lo, hi)`` of (..., 2, 2) states ``[[a, b], [b*, d]]``: ``hi = (a + d)/2 +
    sqrt(((a - d)/2)^2 + |b|^2)`` and ``lo = (a d - |b|^2) / hi``, free of ``a + d - hi``'s cancellation."""
    a, d, b = rhos[..., 0, 0].real, rhos[..., 1, 1].real, rhos[..., 0, 1]
    bb = b.real**2 + b.imag**2
    hi = (a + d) / 2 + np.sqrt(((a - d) / 2) ** 2 + bb)
    return np.stack([(a * d - bb) / hi, hi], axis=-1)


def entropy(rho) -> float:
    """Von Neumann entropy in bits, -sum p log2 p, with 0 log 0 = 0."""
    return float(_entropy(np.linalg.eigvalsh(validate_density(rho))))


#: times per array pass; bounds the (n, 4, 4) intermediates of long grids
_TIME_CHUNK = 1024


def _timeseries(phi: np.ndarray, params: TwoQubitParams, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(j t, C, S_u, S_t)`` arrays over the times ``ts`` for the start ``Phi Phi^dagger`` of a (4, r) factor
    ``phi``; no 4x4 state is formed, and only the SVD of tau at rank > 1 calls LAPACK."""
    chunks = []
    for lo in range(0, len(ts), _TIME_CHUNK):
        psi = _evolve(phi, params, ts[lo : lo + _TIME_CHUNK])
        parts = psi.reshape(-1, 2, 2, psi.shape[-1])
        chunks.append([_concurrence(psi),
                       *(_entropy(_qubit_spectra(np.einsum(_FACTOR_TRACE[q], parts, parts.conj()))) for q in Qubit)])
    return (params.j * ts, *map(np.concatenate, zip(*chunks)))


def entanglement_timeseries(rho0, params: TwoQubitParams, t_grid) -> list[EntanglementRecord]:
    """Concurrence and single-qubit entropies over a monotone time grid.

    Each time is evolved independently from the initial state (no error
    accumulation between samples); recorded times are the dimensionless
    ``j * t``.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)):
        raise ValueError("t_grid must be finite and strictly increasing")
    cols = _timeseries(_factor(_pair_density(rho0)), params, ts)
    return [EntanglementRecord(*row) for row in zip(*(c.tolist() for c in cols))]


def ground_density() -> np.ndarray:
    """|00><00| -- both qubits in the amplified/north-pole level."""
    psi = _START_FACTORS["00"]()[:, 0]
    return np.outer(psi, psi.conj())


def bell_density() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) as a density matrix."""
    psi = _START_FACTORS["bell"]()[:, 0]
    return np.outer(psi, psi.conj())


def maximally_mixed_density() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4


def correlated_diagonal_density() -> np.ndarray:
    """Classically correlated diagonal pair state used by the entropy
    presets: 0.25 I + 0.19 1(x)sz + 0.23 sz(x)1 + 0.19 sz(x)sz
    (diagonal weights 0.86, 0.10, 0.02, 0.02)."""
    return (
        0.25 * np.eye(4, dtype=complex)
        + 0.19 * kron(IDENTITY_2, PAULI_Z)
        + 0.23 * kron(PAULI_Z, IDENTITY_2)
        + 0.19 * kron(PAULI_Z, PAULI_Z)
    )


_DENSITY_LABELS = {
    "00": ground_density,
    "bell": bell_density,
    "mixed": maximally_mixed_density,
    "correlated": correlated_diagonal_density,
}


#: each start's exact factor Phi, rho0 = Phi Phi^dagger, without an eigensolver: a pure start's
#: state vector, the root of a diagonal start's diagonal
_START_FACTORS = {"00": lambda: np.eye(4, 1, dtype=complex),
                  "bell": lambda: np.array([[1], [0], [0], [1]], dtype=complex) / math.sqrt(2),
                  "mixed": lambda: np.eye(4, dtype=complex) / 2,
                  "correlated": lambda: np.diag(np.sqrt(np.diag(correlated_diagonal_density())))}


def density_from_label(label: str) -> np.ndarray:
    """Initial pair states selectable from the command line."""
    try:
        return _DENSITY_LABELS[label]()
    except KeyError:
        raise ValueError(
            f"unknown initial state {label!r}; choose from {sorted(_DENSITY_LABELS)}"
        ) from None
