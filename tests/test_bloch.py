import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_ep.bloch import (
    BlochState,
    SegmentKind,
    _period_samples,
    equal_superposition_xyz,
    evolve_state,
    steady_state_bloch,
    stroboscopic_slice,
)
from floquet_ep.floquet import FloquetParams, ep_contour_gamma, floquet_operator
from floquet_ep.linalg import eig

SYMMETRIC = FloquetParams.from_dimensionless(1.0, 2.5 * math.pi)
BROKEN = FloquetParams.from_dimensionless(1.25, 2.5 * math.pi)
AT_EP = SYMMETRIC.with_gamma(ep_contour_gamma(SYMMETRIC, branch=1))


def reference_vectors(psi0, params, n_periods, sub):
    """Step-by-step reference: apply the one-substep map and renormalize
    after every substep; Bloch vectors straight from the statevector."""
    a, g = params.j_av * params.tau / sub, params.gamma_av * params.beta / sub
    u_step = np.array([[math.cos(a), -1j * math.sin(a)], [-1j * math.sin(a), math.cos(a)]])
    t_step = np.diag([math.exp(g), math.exp(-g)]).astype(complex)
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]
    for _ in range(n_periods):
        for step in [u_step] * sub + [t_step] * sub:
            psi = step @ psi
            psi = psi / np.linalg.norm(psi)
            states.append(psi)
    return np.array(
        [[2 * (v[0].conjugate() * v[1]).real, 2 * (v[0].conjugate() * v[1]).imag,
          abs(v[0]) ** 2 - abs(v[1]) ** 2] for v in states]
    )


def strobo_vectors(params, psi0, n_periods, substeps=64):
    traj = evolve_state(psi0, params, n_periods, substeps)
    return np.array([s.cartesian for s in stroboscopic_slice(traj)])


class TestBlochState:
    def test_poles(self):
        north = BlochState.from_statevector([1, 0])
        assert north.theta == pytest.approx(0.0)
        south = BlochState.from_statevector([0, 1])
        assert south.theta == pytest.approx(math.pi)

    def test_cartesian_roundtrip(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            state = BlochState.from_statevector(psi)
            again = BlochState.from_cartesian(state.cartesian)
            assert np.allclose(state.cartesian, again.cartesian, atol=1e-12)

    def test_theta_accurate_near_the_pole(self):
        state = BlochState.from_statevector([1.0, 1e-9])
        assert state.theta == pytest.approx(2e-9, rel=1e-12)

    def test_phi_range(self):
        state = BlochState.from_cartesian([-1.0, 0.0, 0.0])  # atan2 returns +pi here
        assert -math.pi <= state.phi < math.pi


class TestEvolveState:
    def test_north_pole_fixed_without_drive(self):
        params = FloquetParams(p=0.5, T=1.6, j_av=0.0, gamma_av=1.0)
        traj = evolve_state(np.array([1.0, 0.0j]), params, n_periods=3)
        for state in traj.states:
            assert state.theta < 1e-12

    def test_norm_preserved_every_sample(self):
        traj = evolve_state(equal_superposition_xyz(), SYMMETRIC, n_periods=5)
        for state in traj.states:
            assert abs(np.linalg.norm(state.cartesian) - 1) < 1e-12

    def test_times_strictly_increasing_and_tagged(self):
        traj = evolve_state(equal_superposition_xyz(), SYMMETRIC, n_periods=3, substeps_per_segment=8)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states) == len(traj.segment_tags)
        assert traj.times[-1] == pytest.approx(3.0, abs=1e-12)
        # within the first period: unitary tags first, thermal tags second
        assert traj.segment_tags[1:9] == [SegmentKind.UNITARY] * 8
        assert traj.segment_tags[9:17] == [SegmentKind.THERMAL] * 8

    def test_symmetric_phase_recurrent_not_convergent(self):
        vectors = strobo_vectors(SYMMETRIC, equal_superposition_xyz(), 20)
        steps = np.linalg.norm(np.diff(vectors, axis=0), axis=1)
        assert steps.min() > 1e-3  # keeps moving, no stroboscopic attractor

    def test_broken_phase_converges_to_yz_plane(self):
        vectors = strobo_vectors(BROKEN, equal_superposition_xyz(), 120)
        steps = np.linalg.norm(np.diff(vectors, axis=0), axis=1)
        assert steps[-1] < 1e-6
        assert abs(vectors[-1][0]) < 1e-6

    def test_thermal_segment_decreases_polar_angle(self):
        traj = evolve_state(equal_superposition_xyz(), BROKEN, n_periods=2, substeps_per_segment=16)
        for i in range(1, len(traj.states)):
            if traj.segment_tags[i] is SegmentKind.THERMAL:
                prev, cur = traj.states[i - 1].theta, traj.states[i].theta
                if 0 < prev < math.pi:
                    assert cur < prev

    def test_unitary_segment_preserves_x_component(self):
        traj = evolve_state(equal_superposition_xyz(), SYMMETRIC, n_periods=2, substeps_per_segment=16)
        for i in range(1, len(traj.states)):
            if traj.segment_tags[i] is SegmentKind.UNITARY and traj.segment_tags[i - 1] is SegmentKind.UNITARY:
                assert abs(traj.states[i].cartesian[0] - traj.states[i - 1].cartesian[0]) < 1e-12

    def test_substep_refinement_only_resamples(self):
        coarse = evolve_state(equal_superposition_xyz(), SYMMETRIC, 3, substeps_per_segment=8)
        fine = evolve_state(equal_superposition_xyz(), SYMMETRIC, 3, substeps_per_segment=16)
        for i_coarse in range(len(coarse.states)):
            i_fine = 2 * i_coarse
            assert np.abs(coarse.states[i_coarse].cartesian - fine.states[i_fine].cartesian).max() < 1e-10

    def test_micromotion_repeats_in_broken_steady_state(self):
        traj = evolve_state(equal_superposition_xyz(), BROKEN, n_periods=60, substeps_per_segment=16)
        per = traj.samples_per_period
        last = np.array([s.cartesian for s in traj.states[1 + 58 * per : 1 + 59 * per]])
        prev = np.array([s.cartesian for s in traj.states[1 + 57 * per : 1 + 58 * per]])
        assert np.linalg.norm(last - prev, axis=1).max() < 1e-6

    @pytest.mark.parametrize(
        "params",
        [SYMMETRIC, BROKEN, AT_EP, FloquetParams(p=0.5, T=1.6, j_av=1.0, gamma_av=-0.9)],
        ids=["symmetric", "broken", "exceptional-point", "negative-gain"],
    )
    def test_matches_renormalize_every_substep_loop(self, params):
        traj = evolve_state(equal_superposition_xyz(), params, n_periods=30, substeps_per_segment=16)
        want = reference_vectors(equal_superposition_xyz(), params, 30, 16)
        assert np.abs(traj.cartesian - want).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        gamma_ratio=st.floats(0.01, 1e3),
        omega_ratio=st.floats(0.1, 3.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_states_finite_for_any_gain(self, gamma_ratio, omega_ratio, sign):
        params = FloquetParams.from_dimensionless(gamma_ratio, omega_ratio)
        params = params.with_gamma(sign * params.gamma_av)
        traj = evolve_state(equal_superposition_xyz(), params, n_periods=6, substeps_per_segment=8)
        assert np.all(np.isfinite(traj.theta)) and np.all(np.isfinite(traj.phi))
        assert np.all((traj.theta >= 0) & (traj.theta <= math.pi))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evolve_state(np.array([1.0, 1.0]), SYMMETRIC, 1)  # not normalized
        with pytest.raises(ValueError):
            evolve_state(equal_superposition_xyz(), SYMMETRIC, 0)
        with pytest.raises(ValueError):
            evolve_state(equal_superposition_xyz(), SYMMETRIC, 1, substeps_per_segment=0)


def stacked_period_maps(params, sub):
    """Reference: the period's sample maps from the rotation and the
    scale-free gain written out as stacked arrays."""
    k = np.arange(1, sub + 1)
    a, g = params.drive_area * k / sub, params.gain_area * k / sub
    maps, u_full = [], np.eye(2)
    if params.tau > 0:
        c, s = np.cos(a), -1j * np.sin(a)
        maps.append(np.stack([c, s, s, c], axis=-1).reshape(sub, 2, 2))
        u_full = maps[0][-1]
    if params.beta > 0:
        scale = np.stack([np.exp(g - np.abs(g)), np.exp(-g - np.abs(g))], axis=-1)
        maps.append(scale[:, :, None] * u_full)
    return np.concatenate(maps).astype(complex)


class TestPeriodSamples:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_maps_equal_the_stacked_formulas_bit_for_bit(self, p):
        # signed zeros included: they set phi where a component vanishes
        for drive_area in (0.0, 1.0, math.pi, 2.5, 1e3):
            for gain_area in (0.0, 0.1, -0.7, 5.0, -40.0, 400.0, -400.0, 1e300):
                j_av = drive_area / (p * 2.0) if p > 0 else 0.0
                gamma_av = gain_area / ((1 - p) * 2.0) if p < 1 else 0.0
                params = FloquetParams(p=p, T=2.0, j_av=j_av, gamma_av=gamma_av)
                for sub in (1, 3, 64):
                    got = _period_samples(params, sub)[0]
                    assert got.tobytes() == stacked_period_maps(params, sub).tobytes(), (drive_area, gain_area, sub)


class TestStroboscopicSlice:
    def test_single_period_single_state(self):
        traj = evolve_state(equal_superposition_xyz(), SYMMETRIC, n_periods=1)
        assert len(stroboscopic_slice(traj)) == 1

    def test_pure_precession_stays_on_circle_about_x(self):
        params = FloquetParams(p=0.5, T=1.6, j_av=1.1, gamma_av=0.0)
        vectors = strobo_vectors(params, equal_superposition_xyz(), 25)
        assert np.abs(vectors[:, 0] - vectors[0, 0]).max() < 1e-12

    def test_broken_phase_sequence_converges(self):
        vectors = strobo_vectors(BROKEN, equal_superposition_xyz(), 80)
        steps = np.linalg.norm(np.diff(vectors, axis=0), axis=1)
        assert np.all(steps[40:] < steps[0])


class TestSteadyState:
    def test_matches_long_time_evolution(self):
        target = steady_state_bloch(BROKEN)
        assert target is not None
        vectors = strobo_vectors(BROKEN, equal_superposition_xyz(), 150)
        assert np.abs(vectors[-1] - target.cartesian).max() < 1e-6

    def test_symmetric_phase_has_no_attractor(self):
        assert steady_state_bloch(SYMMETRIC) is None

    def test_strong_gain_limit_is_north_pole(self):
        params = FloquetParams(p=0.5, T=1.6, j_av=1.0, gamma_av=50.0)
        state = steady_state_bloch(params)
        assert state is not None
        assert state.theta < 1e-6

    @pytest.mark.parametrize("gamma_av", [1.5, -1.5, 4.0, 8.0])
    def test_matches_dominant_eigenvector_of_the_unscaled_map(self, gamma_av):
        params = FloquetParams(p=0.4, T=1.6, j_av=1.3, gamma_av=gamma_av)
        state = steady_state_bloch(params)
        assert state is not None
        _, vec = max(eig(floquet_operator(params)[0]), key=lambda pair: abs(pair[0]))
        want = BlochState.from_statevector(vec)
        assert np.abs(state.cartesian - want.cartesian).max() < 1e-12

    def test_finite_where_the_map_overflows(self):
        # gain area 1000 * 0.5 * 2 pi / 0.1 = 31416
        for sign in (1.0, -1.0):
            state = steady_state_bloch(FloquetParams.from_omega(0.5, 0.1, 1.0, sign * 1000.0))
            assert state is not None
            assert np.all(np.isfinite(state.cartesian))
            assert state.cartesian[2] == pytest.approx(sign, abs=1e-12)
