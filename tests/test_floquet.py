import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from floquet_ep.floquet import (
    FloquetParams,
    PhaseKind,
    _generator,
    _x_rotation,
    _z_gain,
    classify_phase,
    discriminant,
    dp_proximity,
    eigenvector_overlap,
    ep_contour_gamma,
    ep_gamma_high_frequency,
    ep_node_asymptote,
    ep_slope_approx,
    floquet_eigenvalues,
    floquet_hamiltonian,
    floquet_hamiltonian_on_contour,
    floquet_operator,
    propagator_thermal,
    propagator_thermal_profile,
    propagator_unitary,
    propagator_unitary_profile,
)
from floquet_ep.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, eig
from oracles import logm_2x2

SYMMETRIC = FloquetParams.from_dimensionless(1.0, 2.5 * math.pi)
BROKEN = FloquetParams.from_dimensionless(1.25, 2.5 * math.pi)


def contour_params(p=0.5, T=1.0, j_av=1.7330, branch=1) -> FloquetParams:
    base = FloquetParams(p=p, T=T, j_av=j_av, gamma_av=0.0)
    gamma = ep_contour_gamma(base, branch=branch)
    assert gamma is not None
    return base.with_gamma(gamma)


#: any double: the extremes and non-finite values first, then hypothesis' own draws
_ANY_FLOAT = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 50.0, 1e154, 1e308, 1.7e308, math.inf, -math.inf, math.nan]),
                       st.floats())


class TestParams:
    def test_segment_durations_sum_to_period(self):
        params = FloquetParams(p=0.3, T=2.5, j_av=1.0, gamma_av=0.2)
        assert params.tau + params.beta == pytest.approx(2.5, abs=1e-15)

    def test_dimensionless_roundtrip(self):
        params = FloquetParams.from_dimensionless(1.25, 2.5 * math.pi, p=0.4, j_av=1.3)
        assert params.gamma_ratio == pytest.approx(1.25, rel=1e-12)
        assert params.omega_ratio == pytest.approx(2.5 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("p,j_av", [(1.0, 1.0), (0.0, 1.0), (0.5, 0.0)])
    @pytest.mark.parametrize("ratio", ["gamma_ratio", "omega_ratio"])
    def test_ratios_need_both_segments(self, ratio, p, j_av):
        # the phase-diagram coordinates follow the rate rule of from_dimensionless; p = 1 once gave
        # gamma_ratio 0.0 and omega_ratio 3.14
        params = FloquetParams(p=p, T=2.0, j_av=j_av, gamma_av=0.3)
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1|j_av must be positive and finite"):
            getattr(params, ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            FloquetParams(p=1.5, T=1.0, j_av=1.0, gamma_av=0.0)
        with pytest.raises(ValueError):
            FloquetParams(p=0.5, T=0.0, j_av=1.0, gamma_av=0.0)
        with pytest.raises(ValueError):
            FloquetParams(p=0.5, T=1.0, j_av=-1.0, gamma_av=0.0)

    @pytest.mark.parametrize("T", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_period(self, T):
        with pytest.raises(ValueError, match="finite"):
            FloquetParams(p=0.5, T=T, j_av=1.0, gamma_av=0.0)

    def test_rejects_frequency_whose_period_overflows(self):
        assert 2 * math.pi / 1e-309 == math.inf
        with pytest.raises(ValueError, match="finite"):
            FloquetParams.from_omega(0.5, 1e-309, 1.0, 0.0)

    @pytest.mark.parametrize("j_av,gamma_av", [(1.0, math.nan), (math.nan, 1.0)])
    def test_rejects_nan_rates(self, j_av, gamma_av):
        with pytest.raises(ValueError, match="nan"):
            FloquetParams(p=0.5, T=2.0, j_av=j_av, gamma_av=gamma_av)

    @pytest.mark.parametrize(
        "p,T,j_av,gamma_av",
        [(0.5, 2.0, 1.0, math.inf), (0.5, 2.0, 1.0, -math.inf), (0.5, 2.0, math.inf, 1.0), (0.0, 2.0, math.inf, 1.0),
         (1.0, 2.0, 1.0, math.inf), (1.0, 1e308, 50.0, 1e-300), (0.5, 1e308, 1.0, 1e308)],
    )
    def test_rejects_infinite_rates_and_overflowing_areas(self, p, T, j_av, gamma_av):
        with pytest.raises(ValueError, match="rates and areas finite"):
            FloquetParams(p=p, T=T, j_av=j_av, gamma_av=gamma_av)

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), T=_ANY_FLOAT, j_av=_ANY_FLOAT, gamma_av=_ANY_FLOAT)
    @example(p=1.0, T=1e308, j_av=50.0, gamma_av=1e-300)  # drive area 5e309: accepted once, then cos warned
    def test_accepted_params_give_finite_or_saturated_results(self, p, T, j_av, gamma_av):
        # Tier-1 turns RuntimeWarnings into errors, so any warning fails here too
        try:
            params = FloquetParams(p=p, T=T, j_av=j_av, gamma_av=gamma_av)
        except ValueError:
            return
        d, lam = discriminant(params), floquet_eigenvalues(params)
        assert d == math.inf or (math.isfinite(d) and all(cmath.isfinite(x) for x in lam))
        assert classify_phase(params).discriminant == d
        assert 0.0 <= eigenvector_overlap(params) <= 1.0
        try:
            floquet_operator(params)
        except FloatingPointError:  # e^{|gain area|} overflows
            assert abs(params.gain_area) > 700
        try:
            floquet_hamiltonian(params)
        except ValueError as exc:
            assert "generator is not finite" in str(exc)

    def test_degenerate_fractions_admitted(self):
        FloquetParams(p=0.0, T=1.0, j_av=1.0, gamma_av=0.5)
        FloquetParams(p=1.0, T=1.0, j_av=1.0, gamma_av=0.5)


class TestSegmentPropagators:
    def test_unitary_trivial_area(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=0.0, gamma_av=0.3)
        assert np.abs(propagator_unitary(params) - IDENTITY_2).max() < 1e-15

    def test_unitary_full_resonance_is_minus_identity(self):
        # drive area pi: the unitary segment reduces to a sign
        params = FloquetParams(p=0.5, T=2.0, j_av=math.pi, gamma_av=0.0)
        assert np.abs(propagator_unitary(params) + IDENTITY_2).max() < 1e-12

    def test_unitary_quarter_rotation(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=math.pi, gamma_av=0.0)
        assert np.abs(propagator_unitary(params) - (-1j * PAULI_X)).max() < 1e-12

    def test_unitary_is_unitary(self):
        params = FloquetParams(p=0.37, T=1.7, j_av=1.9, gamma_av=0.0)
        u = propagator_unitary(params)
        assert np.abs(u.conj().T @ u - IDENTITY_2).max() <= 1e-12

    def test_thermal_raises_where_its_gain_overflows(self):
        with pytest.raises(FloatingPointError):
            propagator_thermal(FloquetParams(p=0.5, T=1.0, j_av=1.0, gamma_av=2000.0))  # e^{1000}

    def test_thermal_trivial(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=1.0, gamma_av=0.0)
        assert np.abs(propagator_thermal(params) - IDENTITY_2).max() < 1e-15

    def test_thermal_diagonal_exponential(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=1.0, gamma_av=1.0)  # gain area 0.5
        expected = np.diag([math.exp(0.5), math.exp(-0.5)])
        assert np.abs(propagator_thermal(params) - expected).max() < 1e-15

    def test_thermal_unit_determinant(self):
        params = FloquetParams(p=0.2, T=3.0, j_av=0.7, gamma_av=0.9)
        assert abs(np.linalg.det(propagator_thermal(params)) - 1) < 1e-12

    @pytest.mark.parametrize("segment_map", [_x_rotation, _z_gain, lambda g: _z_gain(g, np.abs(g))])
    def test_array_call_equals_the_elementwise_calls(self, segment_map):
        areas = np.concatenate([np.random.default_rng(41).uniform(-30, 30, 200), [0.0, -0.0, math.pi, 700.0, -700.0]])
        batch = segment_map(areas.reshape(5, 41))
        assert batch.shape == (5, 41, 2, 2)
        single = np.array([segment_map(a) for a in areas.tolist()])
        assert batch.tobytes() == single.tobytes()

    def test_thermal_overflow_raises(self):
        with pytest.raises(ArithmeticError):
            propagator_thermal(FloquetParams(p=0.5, T=2.0, j_av=1.0, gamma_av=800.0))
        with pytest.raises(ArithmeticError):
            propagator_thermal_profile(lambda t: 800.0, 2.0, 4)

    def test_propagators_within_an_ulp_of_the_math_module_forms(self):
        def x_rotation(a):
            return np.array([[math.cos(a), -1j * math.sin(a)], [-1j * math.sin(a), math.cos(a)]], dtype=complex)

        def z_gain(g):
            return np.array([[math.exp(g), 0.0], [0.0, math.exp(-g)]], dtype=complex)

        rng = np.random.default_rng(43)
        for _ in range(500):
            params = FloquetParams(
                p=rng.uniform(0.05, 0.95),
                T=rng.uniform(0.1, 10.0),
                j_av=rng.uniform(0.0, 5.0),
                gamma_av=rng.uniform(-20.0, 20.0),
            )
            pairs = ((propagator_unitary(params), x_rotation(params.drive_area)),
                     (propagator_thermal(params), z_gain(params.gain_area)))
            for got, want in pairs:
                for part in (np.real, np.imag):
                    assert np.all(np.abs(part(got) - part(want)) <= np.spacing(np.abs(part(want))))


class TestFloquetOperator:
    def test_unitary_limit_eigenvalues(self):
        params = FloquetParams(p=0.5, T=1.3, j_av=0.9, gamma_av=0.0)
        lam_p, lam_m = floquet_eigenvalues(params)
        a = params.drive_area
        got = sorted((lam_p, lam_m), key=lambda z: z.imag)
        expected = sorted((cmath.exp(-1j * a), cmath.exp(1j * a)), key=lambda z: z.imag)
        assert abs(got[0] - expected[0]) < 1e-12 and abs(got[1] - expected[1]) < 1e-12

    def test_pure_unitary_fraction(self):
        params = FloquetParams(p=1.0, T=1.3, j_av=0.9, gamma_av=2.0)
        gf, _ = floquet_operator(params)
        assert np.abs(gf - propagator_unitary(params)).max() < 1e-15

    def test_vector_norm_closed_form(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=math.pi / 2, gamma_av=0.6)
        _, dec = floquet_operator(params)
        expected = 1j * cmath.sqrt(
            1 - math.cosh(params.gain_area) ** 2 * math.cos(params.drive_area) ** 2
        )
        assert abs(dec.vector_norm - expected) < 1e-12

    def test_eigenvalues_match_dense_eig(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            params = FloquetParams(
                p=rng.uniform(0.05, 0.95),
                T=rng.uniform(0.1, 4.0),
                j_av=rng.uniform(0.05, 2.0),
                gamma_av=rng.uniform(0.0, 1.5),
            )
            gf, _ = floquet_operator(params)
            lam = floquet_eigenvalues(params)
            mu = [pair[0] for pair in eig(gf)]
            err = min(
                max(abs(lam[0] - mu[0]), abs(lam[1] - mu[1])),
                max(abs(lam[0] - mu[1]), abs(lam[1] - mu[0])),
            )
            assert err < 1e-10

    def test_eigenvalue_product_is_unit_determinant(self):
        lam_p, lam_m = floquet_eigenvalues(BROKEN)
        assert abs(lam_p * lam_m - 1) < 1e-12

    def test_coalescence_on_contour(self):
        params = contour_params()
        lam_p, lam_m = floquet_eigenvalues(params)
        assert abs(lam_p - lam_m) < 1e-8
        assert abs(abs(lam_p) - 1) < 1e-8

    def test_deep_broken_ratio_grows_like_squared_thermal_weight(self):
        # |lam_+/lam_-| approaches exp(2 * gain area) up to an O(1) drive factor
        params = FloquetParams(p=0.3, T=2.0, j_av=0.8, gamma_av=6.0 / ((1 - 0.3) * 2.0))
        lam_p, lam_m = floquet_eigenvalues(params)
        log_ratio = math.log(abs(lam_p / lam_m))
        assert log_ratio == pytest.approx(2 * params.gain_area, rel=0.05)


class TestPhase:
    def test_unitary_point_is_symmetric(self):
        params = FloquetParams(p=0.5, T=1.1, j_av=0.83, gamma_av=0.0)
        assert classify_phase(params).kind is PhaseKind.PT_SYMMETRIC

    def test_reference_points(self):
        assert classify_phase(SYMMETRIC).kind is PhaseKind.PT_SYMMETRIC
        assert classify_phase(BROKEN).kind is PhaseKind.PT_BROKEN

    def test_contour_point_is_exceptional(self):
        label = classify_phase(contour_params())
        assert label.kind is PhaseKind.EXCEPTIONAL_POINT
        assert abs(label.discriminant) < 1e-10

    def test_symmetric_phase_has_equal_magnitudes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.1, 2.0),
                gamma_av=rng.uniform(0.0, 1.0),
            )
            lam_p, lam_m = floquet_eigenvalues(params)
            kind = classify_phase(params).kind
            if kind is PhaseKind.PT_SYMMETRIC:
                assert abs(abs(lam_p) - abs(lam_m)) < 1e-9
            elif kind is PhaseKind.PT_BROKEN:
                assert abs(abs(lam_p) - abs(lam_m)) > 1e-9

    def test_nan_discriminant_raises(self):
        # p = 1 leaves no thermal segment, so an infinite gain rate gives gain area inf * 0 = nan and
        # a nan discriminant; the parameters reject such a point, so classify_phase never sees one
        with pytest.raises(ValueError, match="rates and areas finite"):
            classify_phase(FloquetParams(p=1.0, T=2.0, j_av=1.0, gamma_av=math.inf))


class TestEigenvectorOverlap:
    def test_unitary_limit_orthogonal(self):
        params = FloquetParams(p=0.5, T=1.1, j_av=0.83, gamma_av=0.0)
        assert eigenvector_overlap(params) == 0.0

    def test_resonance_orthogonal_despite_gain(self):
        params = FloquetParams(p=0.5, T=2.0, j_av=math.pi, gamma_av=0.7)
        assert eigenvector_overlap(params) == 0.0

    def test_contour_coalescence(self):
        assert eigenvector_overlap(contour_params()) == pytest.approx(1.0, abs=1e-8)

    def test_strictly_below_one_off_contour(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.1, 2.0),
                gamma_av=rng.uniform(0.0, 1.5),
            )
            if abs(discriminant(params)) > 1e-6:
                assert eigenvector_overlap(params) < 1.0

    def test_matches_direct_eigenvector_inner_product(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.1, 2.0),
                gamma_av=rng.uniform(0.01, 1.5),
            )
            formula = eigenvector_overlap(params)
            if formula > 1 - 1e-4:
                continue  # eigensolver conditioning degrades right at coalescence
            gf, _ = floquet_operator(params)
            (l1, v1), (l2, v2) = eig(gf)
            assert formula == pytest.approx(abs(np.vdot(v1, v2)), abs=1e-8)

    def test_spec_point_against_direct_product(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=math.pi / 2, gamma_av=0.6)
        gf, _ = floquet_operator(params)
        (l1, v1), (l2, v2) = eig(gf)
        assert eigenvector_overlap(params) == pytest.approx(abs(np.vdot(v1, v2)), abs=1e-8)


class TestContourInversion:
    def test_even_resonance_terminates_at_zero_gain(self):
        # drive area exactly 2*pi: cosine is 1 and the contour touches gamma = 0
        params = FloquetParams(p=0.5, T=1.0, j_av=4 * math.pi, gamma_av=0.0)
        gamma = ep_contour_gamma(params, branch=1)
        assert gamma == pytest.approx(0.0, abs=1e-7)

    def test_no_solution_returns_none(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=4.0, gamma_av=0.0)  # cos(2) < 0
        assert ep_contour_gamma(params, branch=1) is None
        assert ep_contour_gamma(params, branch=-1) is not None

    def test_returned_point_sits_on_contour(self):
        rng = np.random.default_rng(13)
        found = 0
        while found < 100:
            params = FloquetParams(
                p=rng.uniform(0.2, 0.8),
                T=rng.uniform(0.3, 3.0),
                j_av=rng.uniform(0.2, 2.0),
                gamma_av=0.0,
            )
            for branch in (1, -1):
                gamma = ep_contour_gamma(params, branch)
                if gamma is None:
                    continue
                assert abs(discriminant(params.with_gamma(gamma))) < 1e-10
                found += 1

    def test_high_frequency_limit(self):
        p, j_av = 0.5, 1.0
        params = FloquetParams.from_omega(p, 1e3 * p * j_av, j_av, 0.0)
        gamma = ep_contour_gamma(params, branch=1)
        assert gamma == pytest.approx(ep_gamma_high_frequency(p, j_av), rel=1e-3)

    def test_invalid_branch(self):
        with pytest.raises(ValueError):
            ep_contour_gamma(SYMMETRIC, branch=2)


class TestSlopeApprox:
    def test_zero_detuning(self):
        assert ep_slope_approx(1, 0.5, 0.0) == 0.0

    def test_direct_formula(self):
        assert ep_slope_approx(1, 0.5, 0.01) == pytest.approx(0.01, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_finite_difference_of_exact_contour(self, k):
        p, j_av = 0.5, 1.0
        omega_k = 2 * p * j_av / k
        dw = 1e-4 * p * j_av
        params = FloquetParams.from_omega(p, omega_k + dw, j_av, 0.0)
        gamma = ep_contour_gamma(params, branch=(-1) ** k)
        fd_slope = gamma / dw
        assert fd_slope == pytest.approx(k / (2 * (1 - p)), rel=0.01)


class TestNodeAsymptote:
    def test_zero_at_unit_log_argument(self):
        p, j_av = 0.5, 1.0
        assert ep_node_asymptote(0, p, j_av, p * j_av / math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_divergence(self):
        vals = [ep_node_asymptote(0, 0.5, 1.0, dw) for dw in (1e-2, 1e-4, 1e-8)]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_nonpositive_detuning(self):
        with pytest.raises(ValueError):
            ep_node_asymptote(0, 0.5, 1.0, 0.0)

    def test_tracks_exact_contour_at_large_gain_k1(self):
        # the log-divergence rate matches; agreement tightens only
        # logarithmically, so probe the second node deep in the divergence
        p, j_av = 0.5, 1.0
        k = 1
        node = 2 * p * j_av / (k + 0.5)
        for dw in (1e-8, 1e-10):
            params = FloquetParams.from_omega(p, node - dw, j_av, 0.0)
            exact = ep_contour_gamma(params, branch=1) or ep_contour_gamma(params, branch=-1)
            assert (1 - p) * exact / (p * j_av) > 3
            assert ep_node_asymptote(k, p, j_av, dw) == pytest.approx(exact, rel=0.05)


class TestEffectiveGenerator:
    def test_unitary_limit_is_drive_along_x(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=0.9, gamma_av=0.0)
        ham = floquet_hamiltonian(params)
        assert abs(ham.hx - params.p * params.j_av) < 1e-12
        assert abs(ham.hy) < 1e-12 and abs(ham.hz) < 1e-12

    def test_pure_unitary_fraction_edge(self):
        params = FloquetParams(p=1.0, T=1.0, j_av=0.9, gamma_av=1.3)
        ham = floquet_hamiltonian(params)
        assert abs(ham.hx - params.j_av) < 1e-12
        assert abs(ham.hy) < 1e-12 and abs(ham.hz) < 1e-12

    def test_reconstruction(self):
        ham = floquet_hamiltonian(SYMMETRIC)
        gf, _ = floquet_operator(SYMMETRIC)
        assert np.abs(expm(-1j * SYMMETRIC.T * ham.decomposition.reconstruct()) - gf).max() < 1e-10

    def test_scalar_part_is_half_integer_phase(self):
        rng = np.random.default_rng(14)
        done = 0
        while done < 100:
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.1, 2.0),
                gamma_av=rng.uniform(0.0, 1.2),
            )
            ham = floquet_hamiltonian(params)
            phase = cmath.exp(-1j * ham.h0 * params.T)
            assert min(abs(phase - 1), abs(phase + 1)) < 1e-9
            done += 1

    def test_implicit_component_relations(self):
        # the components obey tan/tanh ratio constraints tied to the segment areas
        rng = np.random.default_rng(15)
        done = 0
        while done < 100:
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 2.5),
                j_av=rng.uniform(0.1, 1.8),
                gamma_av=rng.uniform(0.05, 1.2),
            )
            if abs(math.sin(params.drive_area)) < 1e-3:
                continue
            ham = floquet_hamiltonian(params)
            norm = ham.decomposition.vector_norm
            if abs(norm) < 1e-3:
                continue
            tan_norm = cmath.tan(norm * params.T)
            if abs(tan_norm) < 1e-6:
                continue
            a = params.drive_area
            g = params.gain_area
            assert ham.hx / norm == pytest.approx(math.tan(a) / tan_norm, abs=1e-8)
            assert ham.hz / norm == pytest.approx(1j * math.tanh(g) / tan_norm, abs=1e-8)
            assert ham.hy / norm == pytest.approx(1j * math.tan(a) * math.tanh(g) / tan_norm, abs=1e-8)
            done += 1

    def test_asymmetric_to_gainloss_ratio(self):
        # |hy/hz| = |tan(drive area)|: asymmetric-tunneling term dominates at the nodes
        params = FloquetParams.from_dimensionless(0.8, 2 / 0.45)  # drive area 0.45*pi
        ham = floquet_hamiltonian(params)
        assert abs(ham.hy / ham.hz) == pytest.approx(abs(math.tan(params.drive_area)), rel=1e-9)

    def test_antilinear_component_structure(self):
        rng = np.random.default_rng(16)
        done = 0
        while done < 1000:
            params = FloquetParams(
                p=rng.uniform(0.05, 0.95),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.05, 2.0),
                gamma_av=rng.uniform(0.0, 1.5),
            )
            ham = floquet_hamiltonian(params)
            for comp in (ham.hx, ham.hy, ham.hz):
                mag = abs(comp)
                if mag > 1e-12:
                    assert min(abs(comp.real), abs(comp.imag)) < 1e-9 * mag
            assert abs(ham.decomposition.norm_sq.imag) < 1e-9 * max(1.0, abs(ham.decomposition.norm_sq))
            done += 1

    def test_raises_where_the_generator_overflows(self):
        # at gain area 1.7e308 the components no longer fit a double; an infinite gain rate is
        # rejected by the parameters (TestParams::test_rejects_infinite_rates_and_overflowing_areas)
        with pytest.raises(ValueError, match="generator is not finite"):
            floquet_hamiltonian(FloquetParams(p=0.5, T=2.0, j_av=1.0, gamma_av=1.7e308))

    def test_nan_gain_rate_raises_before_the_generator(self):
        with pytest.raises(ValueError, match="gamma_av"):
            FloquetParams(p=0.5, T=2.0, j_av=1.0, gamma_av=math.nan)

    def test_finite_at_and_near_contour(self):
        # the matrix log raises here; the closed form is finite and rebuilds the map
        params = contour_params()
        for scale, on_contour in ((1.0, True), (1 - 1e-6, False), (1 + 1e-6, False)):
            point = params.with_gamma(params.gamma_av * scale)
            ham = floquet_hamiltonian(point)
            assert ham.on_contour is on_contour
            assert (abs(discriminant(point)) <= 1e-8) is on_contour
            vec = np.array([ham.h0, ham.hx, ham.hy, ham.hz])
            assert np.all(np.isfinite(vec))
            gf, _ = floquet_operator(point)
            assert np.abs(expm(-1j * point.T * ham.decomposition.reconstruct()) - gf).max() < 1e-8


def _areas_params(a: float, g: float, T: float) -> FloquetParams:
    """A point with drive area ~a and gain area ~g (p = 0.5)."""
    return FloquetParams(p=0.5, T=T, j_av=a / (0.5 * T), gamma_av=g / (0.5 * T))


def _components(ham) -> np.ndarray:
    return np.array([ham.h0, ham.hx, ham.hy, ham.hz])


class TestGeneratorProperties:
    """Invariants of the closed-form generator over the whole parameter plane."""

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(-1e4, 1e4), T=st.floats(0.1, 10.0))
    def test_finite_zone_and_antilinear_structure(self, a, g, T):
        params = _areas_params(a, g, T)
        ham = floquet_hamiltonian(params)
        assert np.all(np.isfinite(_components(ham)))
        assert ham.h0 in (0.0, params.omega / 2)
        for comp in (ham.hx, ham.hy, ham.hz):
            assert comp.real == 0.0 or comp.imag == 0.0

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(0.0, 1e4), T=st.floats(0.1, 10.0))
    def test_gain_parity_is_bitwise(self, a, g, T):
        params = _areas_params(a, g, T)
        ham, flipped = floquet_hamiltonian(params), floquet_hamiltonian(params.with_gamma(-params.gamma_av))
        assert (flipped.h0, flipped.hx) == (ham.h0, ham.hx)
        assert (flipped.hy, flipped.hz) == (-ham.hy, -ham.hz)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(-6.0, 6.0), T=st.floats(0.1, 10.0))
    def test_matches_the_matrix_log(self, a, g, T):
        # the log loses ~1e-16 cosh^2(g) / |d| near a contour, so compare where
        # the scale-free distance d / cosh^2(g) is at least 1e-6
        params = _areas_params(a, g, T)
        assume(abs(discriminant(params)) >= 1e-6 * math.cosh(params.gain_area) ** 2)
        ref = logm_2x2(floquet_operator(params)[0], params.T)
        want = np.array([ref.scalar, *ref.vector])
        got = _components(floquet_hamiltonian(params))
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    # Hatano-Nelson form: tunnelling amplitudes hx -+ i hy, on-site term hz
    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(-5.0, 5.0), T=st.floats(0.1, 10.0))
    def test_tunnelling_asymmetry_is_fixed_by_the_gain(self, a, g, T):
        assume(abs(math.sin(a)) >= 1e-3)
        _, hx, hy, _, _ = _generator(a, g, T)
        assert math.log(abs(hx - 1j * hy) / abs(hx + 1j * hy)) == pytest.approx(2 * g, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(-5.0, 5.0), T=st.floats(0.1, 10.0))
    def test_onsite_to_tunnelling_ratio(self, a, g, T):
        assume(abs(math.sin(a)) >= 1e-3)
        _, hx, hy, hz, _ = _generator(a, g, T)
        got = abs(hz) / math.sqrt(abs((hx - 1j * hy) * (hx + 1j * hy)))
        assert got == pytest.approx(abs(math.sinh(g) / math.tan(a)), rel=1e-10, abs=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.0, 30.0), g=st.floats(-700.0, 700.0), T=st.floats(0.1, 10.0))
    def test_rebuilds_the_scale_free_map(self, a, g, T):
        # exp(-i T H) / cosh g against G / cosh g = cos a + u.sigma, without forming G
        params = _areas_params(a, g, T)
        a, g, T = params.drive_area, params.gain_area, params.T
        d = discriminant(params)
        assume(abs(d) >= 1e-6 and not (math.cos(a) < 0 and d < 0))
        ham = floquet_hamiltonian(params)
        w = -1j * T * np.array([ham.hx, ham.hy, ham.hz])
        theta = np.sqrt(np.sum(w * w))
        log_cosh = abs(g) + math.log1p(math.exp(-2 * abs(g))) - math.log(2)
        up, down = np.exp(theta - log_cosh), np.exp(-theta - log_cosh)
        phase = np.exp(-1j * T * ham.h0)
        got = phase * ((up + down) / 2 * IDENTITY_2 + (up - down) / (2 * theta) * (
            w[0] * PAULI_X + w[1] * PAULI_Y + w[2] * PAULI_Z))
        u = [-1j * math.sin(a), math.sin(a) * math.tanh(g), math.cos(a) * math.tanh(g)]
        want = math.cos(a) * IDENTITY_2 + u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z
        assert np.abs(got - want).max() <= 1e-8


class TestOnContourGenerator:
    def test_trivial_at_gainless_endpoint(self):
        # at an exact resonance with zero gain the map is +-identity
        params = FloquetParams(p=0.5, T=1.0, j_av=2 * math.pi, gamma_av=0.0)
        ham = floquet_hamiltonian_on_contour(params)
        assert abs(ham.hx) < 1e-12 and abs(ham.hy) < 1e-12 and abs(ham.hz) < 1e-12

    def test_reconstruction_first_order(self):
        for branch, j_av in ((1, 1.7330), (-1, 4.0)):
            params = contour_params(j_av=j_av, branch=branch)
            ham = floquet_hamiltonian_on_contour(params)
            assert ham.on_contour
            gf, dec = floquet_operator(params)
            sign = 1.0 if dec.scalar.real > 0 else -1.0
            hvec = ham.hx * PAULI_X + ham.hy * PAULI_Y + ham.hz * PAULI_Z
            rec = sign * (np.array(IDENTITY_2) - 1j * params.T * hvec)
            assert np.abs(rec - gf).max() < 1e-8

    def test_component_parity_in_gain(self):
        params = contour_params()
        flipped = params.with_gamma(-params.gamma_av)
        ham = floquet_hamiltonian_on_contour(params)
        ham_f = floquet_hamiltonian_on_contour(flipped)
        assert ham_f.hx == ham.hx          # even: set by the drive alone
        assert ham_f.hy == -ham.hy         # odd
        assert ham_f.hz == -ham.hz         # odd

    def test_h0_in_the_log_zone_on_negative_half_trace(self):
        # branch -1 EP at p=0.5, j_av=1, omega=1.2: h0 is +omega/2, the log's value just above
        base = FloquetParams.from_omega(0.5, 1.2, 1.0, 0.0)
        gamma = ep_contour_gamma(base, branch=-1)
        assert gamma == pytest.approx(0.20981949, abs=1e-8)
        h0 = floquet_hamiltonian_on_contour(base.with_gamma(gamma)).decomposition.scalar
        above = floquet_hamiltonian(base.with_gamma(gamma + 1e-3)).decomposition.scalar
        assert abs(h0 - above) < 1e-9
        assert -base.omega / 2 < h0.real <= base.omega / 2
        assert h0.real == pytest.approx(base.omega / 2, abs=1e-12)

    def test_h0_zero_on_positive_half_trace(self):
        for j_av in (math.pi, 1.733):
            base = FloquetParams(p=0.5, T=1.0, j_av=j_av, gamma_av=0.0)
            params = base.with_gamma(ep_contour_gamma(base, branch=1))
            assert floquet_hamiltonian_on_contour(params).decomposition.scalar == 0.0

    def test_off_contour_call_rejected(self):
        with pytest.raises(ValueError):
            floquet_hamiltonian_on_contour(SYMMETRIC)

    def test_norm_growth_quadratic_on_contour(self):
        params = contour_params(T=2 * math.pi / 1.9, j_av=1.0, branch=-1)
        gf, _ = floquet_operator(params)
        rng = np.random.default_rng(17)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        ns, norms = [], []
        cur = psi
        for n in range(1, 101):
            cur = gf @ cur
            if n >= 10:
                ns.append(n)
                norms.append(np.linalg.norm(cur) ** 2)
        slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)


class TestDpProximity:
    def test_unitary_limit(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=1.1, gamma_av=0.0)
        lp, lm = dp_proximity(params)
        assert lp == pytest.approx(1.0, abs=1e-12)
        assert lm == pytest.approx(1.0, abs=1e-12)

    def test_direct_formula(self):
        params = FloquetParams(p=0.5, T=1.0, j_av=1.1, gamma_av=1.0)  # gain area 0.5
        lp, lm = dp_proximity(params)
        assert lp == pytest.approx(math.e, rel=1e-12)
        assert lm == pytest.approx(1 / math.e, rel=1e-12)

    def test_matches_the_eigenvalues_of_the_map(self):
        for params in (SYMMETRIC, BROKEN, contour_params()):
            gf, _ = floquet_operator(params)
            want = np.linalg.eigvalsh(gf.conj().T @ gf)[::-1]
            assert dp_proximity(params) == pytest.approx(tuple(want), rel=1e-12)

    @pytest.mark.parametrize("gain_area", [300.0, 400.0, 800.0])
    def test_strong_gain_without_warning(self, gain_area):
        # e^{2|g|} overflows from g = 355; RuntimeWarnings are errors in this suite
        want = (math.exp(2 * gain_area), math.exp(-2 * gain_area)) if gain_area < 355 else (math.inf, 0.0)
        for sign in (1, -1):
            assert dp_proximity(FloquetParams(p=0.5, T=2.0, j_av=1.0, gamma_av=sign * gain_area)) == want

    def test_product_is_one(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            params = FloquetParams(
                p=rng.uniform(0.05, 0.95),
                T=rng.uniform(0.1, 4.0),
                j_av=rng.uniform(0.05, 2.0),
                gamma_av=rng.uniform(0.0, 1.5),
            )
            lp, lm = dp_proximity(params)
            assert lp * lm == pytest.approx(1.0, abs=1e-12)


class TestAverageOnlyDependence:
    def test_two_level_drive_profile(self):
        params = FloquetParams(p=0.5, T=1.6, j_av=1.0, gamma_av=0.8)
        tau = params.tau

        def j_profile(t):
            return 1.5 * params.j_av if t < tau / 2 else 0.5 * params.j_av

        got = propagator_unitary_profile(j_profile, tau, n_steps=1024)
        assert np.abs(got - propagator_unitary(params)).max() < 1e-9

    def test_two_level_gain_profile(self):
        params = FloquetParams(p=0.5, T=1.6, j_av=1.0, gamma_av=0.8)
        beta = params.beta

        def g_profile(t):
            return 0.2 * params.gamma_av if t < beta / 2 else 1.8 * params.gamma_av

        got = propagator_thermal_profile(g_profile, beta, n_steps=1024)
        assert np.abs(got - propagator_thermal(params)).max() < 1e-9
