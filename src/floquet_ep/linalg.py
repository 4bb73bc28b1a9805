"""Exact small-dimension complex linear algebra.

Everything in this package works on 2x2 and 4x4 complex matrices.  Pauli
decompositions and Kronecker products are closed forms, and the eigensolver
is numpy's dense one, the same path for both sizes.  The package takes no
matrix exponential or logarithm: its propagators and generators are closed
forms.

All functions are pure and operate on immutable inputs; callers may share
results freely between threads.  The constants, :func:`kron` and the shared
types come from the run-path kernel :mod:`floquet_ep._linalg`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, NumericsError, PhaseKind, _as_matrix, _const, kron

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


_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


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
