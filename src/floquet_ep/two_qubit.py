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
The propagators, the factor observables and the command-line starts come from
the run-path kernel :mod:`floquet_ep._two_qubit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import IDENTITY_2, PAULI_X, PAULI_Z, PhaseKind, kron
from ._two_qubit import (_FACTOR_TRACE, _START_FACTORS, _TIME_CHUNK, _YY_SIGNS, EP_REL_TOL, Qubit, TwoQubitParams,
                         _concurrence, _entropy, _evolve, _pair_terms, _propagators, _qubit_spectra, _timeseries,
                         correlated_diagonal_density)

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


def evolve_density(rho0, params: TwoQubitParams, t: float) -> np.ndarray:
    """Propagate and renormalize: G rho G^dagger / tr(G rho G^dagger).

    The renormalization encodes post-selection and applies in both PT
    phases.  The denominator cannot vanish for a valid state and an
    invertible propagator; a numeric guard protects against pathological
    input anyway.
    """
    psi = _evolve(_factor(_pair_density(rho0)), params, np.array([float(t)]))[0]
    return psi @ psi.conj().T


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


#: einsum partial traces onto one qubit of (..., 2, 2, 2, 2) states
_PARTIAL_TRACE = {Qubit.UNITARY: "...ijil->...jl", Qubit.THERMAL: "...ijkj->...ik"}


def reduced_density(rho, which: Qubit) -> np.ndarray:
    """Partial trace onto one qubit (first factor thermal, second unitary)."""
    a = _pair_density(rho)
    if not isinstance(which, Qubit):
        raise ValueError(f"unknown qubit selector {which!r}")
    return np.einsum(_PARTIAL_TRACE[which], a.reshape(2, 2, 2, 2))


def entropy(rho) -> float:
    """Von Neumann entropy in bits, -sum p log2 p, with 0 log 0 = 0."""
    return float(_entropy(np.linalg.eigvalsh(validate_density(rho))))


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
