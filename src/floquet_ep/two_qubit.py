"""Coupled thermal-unitary qubit pair: spectrum, propagator, entanglement.

Basis convention: the FIRST tensor factor is the thermal qubit (gain/loss
along sigma_z, with |0> the amplified level / north pole), the SECOND is the
unitary qubit (Rabi drive along sigma_x).  The Hermitian coupling acts as
sigma_x (x) sigma_x with strength kx.  The pair Hamiltonian has a
second-order exceptional point at gamma = kx.

Post-selection keeps the evolved density matrix normalized at every time, in
both PT phases; all evolution here goes through the closed-form non-unitary
propagator, evaluated for a whole time grid in batched array passes (the
scalar public functions are one-time calls into the same helpers).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .floquet import PhaseKind
from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, NumericsError, kron

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

_YY = kron(PAULI_Y, PAULI_Y)

#: relative tolerance on |kx - gamma| for exceptional-point classification
EP_REL_TOL = 1e-12


@dataclass(frozen=True)
class TwoQubitParams:
    """Drive, gain and coupling rates of the qubit pair (all >= 0)."""

    j: float
    gamma: float
    kx: float

    def __post_init__(self):
        for name in ("j", "gamma", "kx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def delta(self) -> complex:
        """Principal root of kx^2 - gamma^2: real in the PT-symmetric phase,
        imaginary in the broken phase, zero at the exceptional point."""
        return cmath.sqrt(complex(self.kx * self.kx - self.gamma * self.gamma))

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


def _f0_cos(params: TwoQubitParams, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f0 = sin(delta t)/delta`` (its series below |delta t| = 1e-4) and ``cos(delta t)``.

    In the broken phase (kappa = Im delta > 0) both are divided by e^{kappa t}:
    post-selection removes that overall scale, and without it they overflow.
    """
    kappa = params.delta.imag
    z = params.delta * ts
    small = np.abs(z) < 1e-4
    zs, z2 = np.where(small, 1.0, z), np.where(small, z * z, 0.0)
    series = ts * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
    if kappa > 0:
        f0 = np.where(small, series * np.exp(-kappa * ts), -np.expm1(-2 * kappa * ts) / (2 * kappa))
        return f0, (1.0 + np.exp(-2 * kappa * ts)) / 2
    return np.where(small, series, ts * np.sin(zs) / zs), np.cos(z)


@np.errstate(over="ignore", invalid="ignore")  # overflow yields non-finite entries; callers check
def _propagators(params: TwoQubitParams, ts: np.ndarray) -> np.ndarray:
    """Closed-form propagators at every time in ``ts``, shape (n, 4, 4); in
    the broken phase divided by e^{kappa t}, as :func:`_f0_cos` is."""
    if np.any(ts < 0):
        raise ValueError("t must be non-negative")
    f0, cz = _f0_cos(params, ts)
    pp, pm = cz + params.gamma * f0, cz - params.gamma * f0
    c, s, kf = np.cos(params.j * ts), np.sin(params.j * ts), params.kx * f0
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
    transition by construction.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _propagators(params, np.array([float(t)]))[0] * np.exp(params.delta.imag * float(t))


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity and unit trace to 1e-11 and positivity to -1e-10;
    returns the matrix as a complex ndarray."""
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {a.shape}")
    if np.abs(a - a.conj().T).max() > 1e-11:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > 1e-11 or abs(np.trace(a).imag) > 1e-11:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(a).min() < -1e-10:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return a


@np.errstate(over="ignore", invalid="ignore")
def _evolve(rho: np.ndarray, params: TwoQubitParams, ts: np.ndarray) -> np.ndarray:
    """``G rho G^dagger / tr(G rho G^dagger)`` at every time in ``ts`` for a
    validated 4x4 ``rho``, shape (n, 4, 4)."""
    g = _propagators(params, ts)
    out = g @ rho @ g.conj().swapaxes(-1, -2)
    tr = np.trace(out, axis1=1, axis2=2).real
    bad = ~((tr > 0) & np.isfinite(tr))
    if bad.any():
        raise NumericsError(f"propagated trace {tr[bad.argmax()]} is not a positive finite number")
    out = out / tr[:, None, None]
    return (out + out.conj().swapaxes(-1, -2)) / 2


def evolve_density(rho0, params: TwoQubitParams, t: float) -> np.ndarray:
    """Propagate and renormalize: G rho G^dagger / tr(G rho G^dagger).

    The renormalization encodes post-selection and applies in both PT
    phases.  The denominator cannot vanish for a valid state and an
    invertible propagator; a numeric guard protects against pathological
    input anyway.
    """
    rho = validate_density(rho0)
    if rho.shape[0] != 4:
        raise ValueError("pair evolution needs a 4x4 density matrix")
    return _evolve(rho, params, np.array([float(t)]))[0]


def _concurrence(rhos: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rhos)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    c = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    diff = c[..., 0] - c[..., 1] - c[..., 2] - c[..., 3]
    return np.where(diff > 0, diff, 0.0)


def concurrence(rho) -> float:
    """Two-qubit concurrence of a density matrix.

    The four characteristic values are the singular values of
    ``sqrt(rho) (sy(x)sy) conj(sqrt(rho))`` (equivalently the square roots
    of the spectrum of ``rho (sy(x)sy) conj(rho) (sy(x)sy)``, but without
    squaring the conditioning); eigenvalues of rho below -1e-10 are rejected
    as invalid input, small negatives are clamped to zero.
    """
    a = validate_density(rho)
    if a.shape[0] != 4:
        raise ValueError("concurrence is defined for 4x4 density matrices")
    return float(_concurrence(a))


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
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0.0
    f0, cz = (complex(x[0]) for x in _f0_cos(params, np.array([float(t)])))
    pp = cz + params.gamma * f0
    num = 2 * params.kx * abs(f0 * pp)
    den = abs(params.kx**2 * f0 * f0 + pp * pp)
    if den == 0.0:
        return 0.0
    return float(num / den)


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


#: einsum partial traces onto one qubit of (..., 2, 2, 2, 2)-shaped states
_PARTIAL_TRACE = {Qubit.UNITARY: "...ijil->...jl", Qubit.THERMAL: "...ijkj->...ik"}


def reduced_density(rho, which: Qubit) -> np.ndarray:
    """Partial trace onto one qubit (first factor thermal, second unitary)."""
    a = validate_density(rho)
    if a.shape[0] != 4:
        raise ValueError("reduced_density expects a 4x4 density matrix")
    if not isinstance(which, Qubit):
        raise ValueError(f"unknown qubit selector {which!r}")
    return np.einsum(_PARTIAL_TRACE[which], a.reshape(2, 2, 2, 2))


def _entropy(rhos: np.ndarray) -> np.ndarray:
    w = np.clip(np.linalg.eigvalsh(rhos), 0.0, 1.0)
    terms = np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return -terms.sum(axis=-1) + 0.0  # avoid -0.0


def entropy(rho) -> float:
    """Von Neumann entropy in bits, -sum p log2 p, with 0 log 0 = 0."""
    return float(_entropy(validate_density(rho)))


#: times per array pass; bounds the (n, 4, 4) intermediates of long grids
_TIME_CHUNK = 1024


def entanglement_timeseries(rho0, params: TwoQubitParams, t_grid) -> list[EntanglementRecord]:
    """Concurrence and single-qubit entropies over a monotone time grid.

    Each time is evolved independently from the initial state (no error
    accumulation between samples); recorded times are the dimensionless
    ``j * t``.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rho0 = validate_density(rho0)
    if rho0.shape[0] != 4:
        raise ValueError("pair evolution needs a 4x4 density matrix")
    records = []
    for lo in range(0, len(ts), _TIME_CHUNK):
        chunk = ts[lo : lo + _TIME_CHUNK]
        rhos = _evolve(rho0, params, chunk)
        parts = rhos.reshape(-1, 2, 2, 2, 2)
        s_u, s_t = (_entropy(np.einsum(_PARTIAL_TRACE[q], parts)) for q in (Qubit.UNITARY, Qubit.THERMAL))
        cols = (params.j * chunk, _concurrence(rhos), s_u, s_t)
        records += [EntanglementRecord(*row) for row in zip(*(c.tolist() for c in cols))]
    return records


def ground_density() -> np.ndarray:
    """|00><00| -- both qubits in the amplified/north-pole level."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def bell_density() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


def maximally_mixed_density() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4


def correlated_diagonal_density() -> np.ndarray:
    """Classically correlated diagonal pair state used by the entropy
    presets: 0.25 I + 0.19 1(x)sz + 0.23 sz(x)1 + 0.19 sz(x)sz
    (diagonal weights 0.86, 0.10, 0.02, 0.02)."""
    rho = (
        0.25 * np.eye(4, dtype=complex)
        + 0.19 * kron(IDENTITY_2, PAULI_Z)
        + 0.23 * kron(PAULI_Z, IDENTITY_2)
        + 0.19 * kron(PAULI_Z, PAULI_Z)
    )
    return validate_density(rho)


_DENSITY_LABELS = {
    "00": ground_density,
    "bell": bell_density,
    "mixed": maximally_mixed_density,
    "correlated": correlated_diagonal_density,
}


def density_from_label(label: str) -> np.ndarray:
    """Initial pair states selectable from the command line."""
    try:
        return _DENSITY_LABELS[label]()
    except KeyError:
        raise ValueError(
            f"unknown initial state {label!r}; choose from {sorted(_DENSITY_LABELS)}"
        ) from None
