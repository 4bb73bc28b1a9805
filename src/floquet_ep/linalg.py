"""Exact small-dimension complex linear algebra.

Everything in this package works on 2x2 and 4x4 complex matrices, so we can
afford closed forms wherever they exist: Pauli decompositions, the 2x2 matrix
exponential and logarithm, and trace/determinant eigensolutions.  The 4x4
paths delegate to numpy dense routines, apart from the 4x4 exponential,
which imports ``scipy.linalg`` on first use so that importing the package
does not pay for scipy.

All functions are pure and operate on immutable inputs; callers may share
results freely between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "PauliDecomposition",
    "NearDefectiveError",
    "NumericsError",
    "pauli_decompose",
    "expm",
    "logm_2x2",
    "eig",
    "kron",
    "is_unitary",
    "is_hermitian",
    "is_anti_hermitian",
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

#: eigenvector condition number above which a 2x2 matrix is treated as
#: defective for the purpose of taking its logarithm
DEFECTIVE_CONDITION_LIMIT = 1e8


class NearDefectiveError(ValueError):
    """Raised by :func:`logm_2x2` when a matrix is too close to an exceptional
    (defective) point for a meaningful eigendecomposition-based logarithm.

    ``floquet_hamiltonian`` does not use the log and is finite there.
    """


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


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


def _sinhc(z: complex) -> complex:
    """sinh(z)/z with a series fallback near zero to avoid cancellation."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sinh(z) / z


def expm(m) -> np.ndarray:
    """Matrix exponential for 2x2 and 4x4 complex matrices.

    The 2x2 case uses the exact Pauli closed form
    ``exp(a*I + b.sigma) = e^a (cosh|b| I + sinh|b|/|b| b.sigma)``, which
    stays accurate through ``|b| -> 0``.  The 4x4 case uses scaling-and-
    squaring (scipy).
    """
    a = _as_matrix(m)
    _require_finite(a)
    if a.shape[0] == 4:
        import scipy.linalg

        return scipy.linalg.expm(a)
    dec = pauli_decompose(a)
    r = dec.vector_norm
    coeff = cmath.exp(dec.scalar)
    out = coeff * cmath.cosh(r) * np.array(IDENTITY_2)
    shc = coeff * _sinhc(r)
    for c, pauli in zip(dec.vector, _PAULIS):
        out = out + shc * c * pauli
    return out


def _fold_to_zone(x: float, omega: float) -> float:
    """Fold a real number into the half-open interval (-omega/2, omega/2]."""
    y = x - omega * math.floor(x / omega + 0.5)
    if y <= -omega / 2:
        y += omega
    return y


def logm_2x2(m, period: float) -> PauliDecomposition:
    """Effective static generator of a one-period map: ``i log(m) / period``.

    Returns the Pauli decomposition of the matrix H satisfying
    ``exp(-i * period * H) == m`` with the principal branch, the real parts
    of both eigenvalues folded into the first zone
    ``(-omega/2, omega/2]`` with ``omega = 2*pi/period``.

    Raises:
        NearDefectiveError: if the eigenvector condition number exceeds
            ``DEFECTIVE_CONDITION_LIMIT`` (the matrix log is then numerically
            meaningless; ``floquet_hamiltonian`` is not).
        ValueError: for singular input or non-positive period.
    """
    a = _as_matrix(m, dims=(2,))
    _require_finite(a)
    if period <= 0:
        raise ValueError("period must be positive")
    pairs = eig(a)
    V = np.column_stack([v for _, v in pairs])
    if np.linalg.cond(V) > DEFECTIVE_CONDITION_LIMIT:
        raise NearDefectiveError(
            "matrix is near-defective (eigenvectors nearly coalesce); "
            "use the on-contour closed forms instead of the matrix log"
        )
    # eigenvalues taken from the decomposition itself so the +-mu branch
    # stays consistent with the vector direction
    dec = pauli_decompose(a)
    mu = dec.vector_norm
    lam_p = dec.scalar + mu
    lam_m = dec.scalar - mu
    if lam_p == 0 or lam_m == 0:
        raise ValueError("matrix is singular; no logarithm exists")

    omega = 2 * math.pi / period
    eps = []
    for lam in (lam_p, lam_m):
        e = 1j * cmath.log(lam) / period
        eps.append(complex(_fold_to_zone(e.real, omega), e.imag))
    scalar = (eps[0] + eps[1]) / 2
    half_diff = (eps[0] - eps[1]) / 2

    if abs(mu) == 0.0:
        vector = np.zeros(3, dtype=complex)
    else:
        vector = (half_diff / mu) * dec.vector
    return PauliDecomposition(complex(scalar), vector)


def _eig_2x2(a: np.ndarray):
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = cmath.sqrt(complex(tr * tr - 4 * det))
    lams = ((tr + disc) / 2, (tr - disc) / 2)
    scale = np.abs(a).max() or 1.0
    pairs = []
    for i, lam in enumerate(lams):
        c1 = np.array([a[0, 1], lam - a[0, 0]], dtype=complex)
        c2 = np.array([lam - a[1, 1], a[1, 0]], dtype=complex)
        v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
        if np.linalg.norm(v) < 1e-14 * scale:
            # (near-)scalar matrix: any orthonormal pair will do
            v = np.array([1.0, 0.0], dtype=complex) if i == 0 else np.array([0.0, 1.0], dtype=complex)
        pairs.append((complex(lam), v / np.linalg.norm(v)))
    return pairs


def eig(m) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs ``(lambda, right eigenvector)`` with unit-norm vectors.

    2x2 inputs are solved in closed form from trace and determinant (first
    the ``+`` root, then the ``-`` root of the discriminant); 4x4 inputs use
    the dense QR algorithm.  Every returned pair satisfies
    ``|m v - lambda v| <= 1e-10 * |m|_F``.
    """
    a = _as_matrix(m)
    _require_finite(a)
    if a.shape[0] == 2:
        pairs = _eig_2x2(a)
    else:
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


def is_unitary(m, tol: float = 1e-12) -> bool:
    a = _as_matrix(m)
    return bool(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max() <= tol)


def is_hermitian(m, tol: float = 1e-12) -> bool:
    a = _as_matrix(m)
    return bool(np.abs(a - a.conj().T).max() <= tol)


def is_anti_hermitian(m, tol: float = 1e-12) -> bool:
    a = _as_matrix(m)
    return bool(np.abs(a + a.conj().T).max() <= tol)
