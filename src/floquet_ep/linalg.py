"""Exact small-dimension complex linear algebra.

Everything in this package works on 2x2 and 4x4 complex matrices.  Pauli
decompositions and Kronecker products are closed forms, and the eigensolver
is numpy's dense one, the same path for both sizes.  The package takes no
matrix exponential or logarithm: its propagators and generators are closed
forms.

All functions are pure and operate on immutable inputs; callers may share
results freely between threads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "PauliDecomposition",
    "NumericsError",
    "pauli_decompose",
    "eig",
    "kron",
]


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
IDENTITY_2 = _const([[1, 0], [0, 1]])

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


class PhaseKind(Enum):  # exported by floquet; defined here so that two_qubit need not load floquet
    PT_SYMMETRIC = "pt-symmetric"
    PT_BROKEN = "pt-broken"
    EXCEPTIONAL_POINT = "exceptional-point"


def _as_matrix(m, dims=(2, 4)) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in dims:
        raise ValueError(f"expected a square matrix with dimension in {dims}, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")


@dataclass(frozen=True)
class PauliDecomposition:
    """A 2x2 complex matrix written as ``scalar*I + vector . sigma``.

    ``scalar`` is the identity coefficient and ``vector`` holds the complex
    coefficients of (sigma_x, sigma_y, sigma_z).
    """

    scalar: complex
    vector: np.ndarray

    @property
    def norm_sq(self) -> complex:
        """Sum of squared vector components (no conjugation) -- a single
        complex number whose sign (when real) distinguishes PT phases."""
        v = self.vector
        return complex(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])

    @property
    def vector_norm(self) -> complex:
        """Principal square root of :attr:`norm_sq`."""
        return cmath.sqrt(self.norm_sq)

    def reconstruct(self) -> np.ndarray:
        m = self.scalar * np.array(IDENTITY_2)
        for coeff, pauli in zip(self.vector, _PAULIS):
            m = m + coeff * pauli
        return m


def pauli_decompose(m) -> PauliDecomposition:
    """Project a 2x2 complex matrix onto the (identity, Pauli) basis.

    The scalar part is ``tr(m)/2`` and the k-th vector component is
    ``tr(sigma_k m)/2``; the round trip through ``reconstruct`` is exact to
    rounding.
    """
    a = _as_matrix(m, dims=(2,))
    scalar = (a[0, 0] + a[1, 1]) / 2
    vector = np.array(
        [
            (a[0, 1] + a[1, 0]) / 2,
            (a[0, 1] - a[1, 0]) * 0.5j,
            (a[0, 0] - a[1, 1]) / 2,
        ],
        dtype=complex,
    )
    return PauliDecomposition(complex(scalar), vector)


def eig(m) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs ``(lambda, right eigenvector)`` with unit-norm vectors.

    The dense QR algorithm (``numpy.linalg.eig``) for both sizes.  Every
    returned pair satisfies ``|m v - lambda v| <= 1e-10 * |m|_F``.
    """
    a = _as_matrix(m)
    _require_finite(a)
    w, V = np.linalg.eig(a)
    pairs = [(complex(w[i]), V[:, i] / np.linalg.norm(V[:, i])) for i in range(a.shape[0])]
    norm = np.linalg.norm(a) or 1.0
    for lam, v in pairs:
        resid = np.linalg.norm(a @ v - lam * v)
        if resid > 1e-10 * norm:
            raise NumericsError(f"eigenpair residual {resid:.3e} exceeds 1e-10 * |m| = {1e-10 * norm:.3e}")
    return pairs


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices (a 4x4 result).

    Built from the index formula ``out[2i+k, 2j+l] = a[i,j] * b[k,l]`` so
    each entry is exactly one scalar product.
    """
    ma = _as_matrix(a, dims=(2,))
    mb = _as_matrix(b, dims=(2,))
    out = np.empty((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = ma[i, j] * mb[k, l]
    return out
