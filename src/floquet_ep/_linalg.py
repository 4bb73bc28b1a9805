"""Run-path kernel of :mod:`floquet_ep.linalg`: the Pauli constants, ``kron``, ``NumericsError`` and ``PhaseKind``.
The command line imports this module alone; :mod:`floquet_ep.linalg` re-exports every name."""

from __future__ import annotations

from enum import Enum

import numpy as np


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
IDENTITY_2 = _const([[1, 0], [0, 1]])


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
