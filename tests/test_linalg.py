import math

import numpy as np
import pytest
from scipy.linalg import expm

from floquet_ep.floquet import FloquetParams, ep_contour_gamma, floquet_operator
from floquet_ep.linalg import IDENTITY_2, PAULI_X, PAULI_Z, eig, kron, pauli_decompose
from floquet_ep.two_qubit import TwoQubitParams, hamiltonian_two_qubit
from oracles import NearDefectiveError, logm_2x2


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestPauliDecompose:
    def test_identity(self):
        dec = pauli_decompose(IDENTITY_2)
        assert dec.scalar == 1
        assert np.all(dec.vector == 0)

    def test_sigma_x(self):
        dec = pauli_decompose(PAULI_X)
        assert dec.scalar == 0
        assert np.allclose(dec.vector, [1, 0, 0], atol=1e-15)

    def test_thermal_exponential(self):
        # oracle: evaluate the diagonal exponentials directly
        m = np.diag([math.exp(0.5), math.exp(-0.5)]).astype(complex)
        dec = pauli_decompose(m)
        assert abs(dec.scalar - math.cosh(0.5)) < 1e-15
        assert np.allclose(dec.vector, [0, 0, math.sinh(0.5)], atol=1e-15)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = random_complex(rng, (2, 2))
            dec = pauli_decompose(m)
            assert np.abs(dec.reconstruct() - m).max() < 1e-13

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(4))


class TestLogm:
    def test_identity(self):
        dec = logm_2x2(IDENTITY_2, period=1.0)
        assert abs(dec.scalar) < 1e-15
        assert np.abs(dec.vector).max() < 1e-15

    def test_inverts_exponential_inside_zone(self):
        m = expm(-1j * 0.3 * PAULI_X)
        dec = logm_2x2(m, period=1.0)
        assert np.allclose(dec.vector, [0.3, 0, 0], atol=1e-13)

    def test_reconstructs_one_period_map(self):
        params = FloquetParams.from_dimensionless(1.0, 2.5 * math.pi)
        gf, _ = floquet_operator(params)
        dec = logm_2x2(gf, period=params.T)
        h = dec.reconstruct()
        assert np.abs(expm(-1j * params.T * h) - gf).max() < 1e-10

    def test_quasienergy_folded_into_first_zone(self):
        period = 1.0
        omega = 2 * math.pi / period
        m = expm(-1j * period * 4.0 * PAULI_X)  # quasienergies +-4, outside the zone
        dec = logm_2x2(m, period)
        lam = dec.vector_norm
        assert abs(lam.imag) < 1e-12
        assert -omega / 2 < lam.real <= omega / 2
        assert np.abs(expm(-1j * period * dec.reconstruct()) - m).max() < 1e-10

    def test_near_defective_raises(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=1.7330, gamma_av=0.0)
        gamma = ep_contour_gamma(params, branch=1)
        gf, _ = floquet_operator(params.with_gamma(gamma))
        with pytest.raises(NearDefectiveError):
            logm_2x2(gf, period=params.T)

    def test_roundtrip_random_nondefective(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 200:
            m = random_complex(rng, (2, 2))
            try:
                dec = logm_2x2(m, period=0.7)
            except (NearDefectiveError, ValueError):
                continue
            assert np.abs(expm(-1j * 0.7 * dec.reconstruct()) - m).max() < 1e-10 * max(1.0, np.abs(m).max())
            checked += 1

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            logm_2x2(np.array([[1, 0], [0, 0]], dtype=complex), period=1.0)


class TestEig:
    def test_sigma_z(self):
        pairs = eig(PAULI_Z)
        assert abs(pairs[0][0] - 1) < 1e-14 and abs(pairs[1][0] + 1) < 1e-14
        assert np.allclose(np.abs(pairs[0][1]), [1, 0])
        assert np.allclose(np.abs(pairs[1][1]), [0, 1])

    def test_pair_hamiltonian_spectrum(self):
        h = hamiltonian_two_qubit(TwoQubitParams(j=0.5, gamma=0.6, kx=1.0))
        lams = sorted((lam.real for lam, _ in eig(h)))
        assert np.allclose(lams, [-1.3, -0.3, 0.3, 1.3], atol=1e-10)
        assert max(abs(lam.imag) for lam, _ in eig(h)) < 1e-10

    def test_pair_hamiltonian_exceptional_degeneracy(self):
        # doubly degenerate +-j with a single eigenvector each (defective)
        h = hamiltonian_two_qubit(TwoQubitParams(j=0.5, gamma=1.0, kx=1.0))
        lams = sorted(lam.real for lam, _ in eig(h))
        assert np.allclose(lams, [-0.5, -0.5, 0.5, 0.5], atol=1e-7)
        for eps in (0.5, -0.5):
            assert np.linalg.matrix_rank(h - eps * np.eye(4), tol=1e-7) == 3

    def test_residuals_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4):
            for _ in range(100):
                m = random_complex(rng, (dim, dim))
                norm = np.linalg.norm(m)
                for lam, vec in eig(m):
                    assert abs(np.linalg.norm(vec) - 1) < 1e-12
                    assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * norm

    def test_scalar_matrix(self):
        pairs = eig(2.5 * np.eye(2))
        assert all(abs(lam - 2.5) < 1e-14 for lam, _ in pairs)
        assert abs(np.vdot(pairs[0][1], pairs[1][1])) < 1e-14


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_z_with_identity(self):
        assert np.array_equal(np.diag(kron(PAULI_Z, IDENTITY_2)), [1, 1, -1, -1])

    def test_x_with_x(self):
        assert np.array_equal(kron(PAULI_X, PAULI_X), np.fliplr(np.eye(4)))

    def test_index_convention(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert out[2 * i + k, 2 * j + l] == a[i, j] * b[k, l]
