"""Run-path kernel of :mod:`floquet_ep.two_qubit`: the pair's scaled closed-form propagators and the
concurrence and entropies of each command-line start's evolved factor, a chunk of times per array pass.  The command
line imports this module alone; :mod:`floquet_ep.two_qubit` re-exports every name and adds the density matrices."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import IDENTITY_2, PAULI_Z, NumericsError, PhaseKind, kron

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


def _concurrence(psi: np.ndarray) -> np.ndarray:
    """Concurrence of ``psi psi^dagger`` for factors of shape (..., 4, r); at rank 1, |tau| itself."""
    if psi.shape[-1] == 1:  # tau = -2 (psi0 psi3 - psi1 psi2), its own singular value up to a phase
        return np.abs(2 * (psi[..., 0, 0] * psi[..., 3, 0] - psi[..., 1, 0] * psi[..., 2, 0]))
    s = np.linalg.svd(np.einsum("...ik,...il->...kl", psi, psi[..., ::-1, :] * _YY_SIGNS), compute_uv=False)
    diff = s[..., 0] - s[..., 1:].sum(axis=-1)
    return np.where(diff > 0, diff, 0.0)


#: einsum partial traces onto one qubit of psi psi^dagger from psi, conj(psi)
_FACTOR_TRACE = {Qubit.UNITARY: "...ijk,...ilk->...jl", Qubit.THERMAL: "...ijk,...ljk->...il"}


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


#: each start's exact factor Phi, rho0 = Phi Phi^dagger, without an eigensolver: a pure start's
#: state vector, the root of a diagonal start's diagonal
_START_FACTORS = {"00": lambda: np.eye(4, 1, dtype=complex),
                  "bell": lambda: np.array([[1], [0], [0], [1]], dtype=complex) / math.sqrt(2),
                  "mixed": lambda: np.eye(4, dtype=complex) / 2,
                  "correlated": lambda: np.diag(np.sqrt(np.diag(correlated_diagonal_density())))}
