"""Reference computations that only the tests use.

``logm_2x2`` takes the principal matrix logarithm of a one-period map by
eigendecomposition; the package's closed-form generator is checked against
it where it is well conditioned.  The tests' matrix exponential is
``scipy.linalg.expm``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from floquet_ep.linalg import PauliDecomposition, eig, pauli_decompose

#: eigenvector condition number above which a 2x2 matrix is treated as
#: defective for the purpose of taking its logarithm
DEFECTIVE_CONDITION_LIMIT = 1e8


class NearDefectiveError(ValueError):
    """Raised by :func:`logm_2x2` when a matrix is too close to an exceptional
    (defective) point for a meaningful eigendecomposition-based logarithm.

    ``floquet_hamiltonian`` does not use the log and is finite there.
    """


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

    Near an EP its error is about ``1e-16 cosh^2(g) / |discriminant|`` at gain
    area g, but the fixed ``DEFECTIVE_CONDITION_LIMIT`` ignores g: at g = 6 it
    can pass, 3e-6 off.

    Raises:
        NearDefectiveError: if the eigenvector condition number exceeds
            ``DEFECTIVE_CONDITION_LIMIT`` (the matrix log is then numerically
            meaningless; ``floquet_hamiltonian`` is not).
        ValueError: for a matrix that is not 2x2, non-finite or singular, or
            a non-positive period.
    """
    dec = pauli_decompose(m)  # rejects any shape but 2x2
    if period <= 0:
        raise ValueError("period must be positive")
    pairs = eig(m)  # rejects non-finite entries
    V = np.column_stack([v for _, v in pairs])
    if np.linalg.cond(V) > DEFECTIVE_CONDITION_LIMIT:
        raise NearDefectiveError(
            "matrix is near-defective (eigenvectors nearly coalesce); "
            "use the on-contour closed forms instead of the matrix log"
        )
    # eigenvalues taken from the decomposition itself so the +-mu branch
    # stays consistent with the vector direction
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
