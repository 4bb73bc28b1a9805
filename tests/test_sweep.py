import math

import numpy as np
import pytest

from floquet_ep.floquet import (
    FloquetParams,
    PhaseKind,
    classify_phase,
    discriminant,
    eigenvector_overlap,
    ep_contour_gamma,
    ep_gamma_high_frequency,
    ep_node_asymptote,
)
from floquet_ep.presets import figure_preset
from floquet_ep.sweep import (
    AxisSpec,
    GridSpec,
    Quantity,
    compute_heatmap,
    resonance_frequencies,
    trace_contours,
)


def small_grid(gamma_lo=0.05, gamma_hi=3.0, n_gamma=40, omega_lo=2.2, omega_hi=3.0, n_omega=5, scale="log"):
    # frequency window between the first resonance and the zeroth node: one
    # contour arm crosses it well inside the gain axis
    return GridSpec(
        gamma_axis=AxisSpec(gamma_lo, gamma_hi, n_gamma, scale),
        omega_axis=AxisSpec(omega_lo, omega_hi, n_omega, "linear"),
    )


class TestSpecs:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisSpec(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            AxisSpec(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            AxisSpec(0.0, 1.0, 10, "log")
        with pytest.raises(ValueError):
            AxisSpec(0.1, 1.0, 10, "cubic")

    def test_axis_values(self):
        lin = AxisSpec(0.0, 1.0, 5).values()
        assert np.allclose(lin, [0, 0.25, 0.5, 0.75, 1.0])
        log = AxisSpec(0.01, 1.0, 3, "log").values()
        assert np.allclose(log, [0.01, 0.1, 1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(AxisSpec(0.1, 1, 4), AxisSpec(0.1, 1, 4), p=1.0)


class TestHeatmap:
    def test_zero_gain_row_has_orthogonal_eigenvectors(self):
        grid = GridSpec(
            gamma_axis=AxisSpec(0.0, 1.0, 2, "linear"),
            omega_axis=AxisSpec(1.9, 2.1, 2, "linear"),
        )
        hm = compute_heatmap(grid, Quantity.INNER_PRODUCT)
        assert np.all(hm.values[0, :] == 0.0)

    def test_inner_product_range(self):
        hm = compute_heatmap(small_grid(), Quantity.INNER_PRODUCT)
        assert hm.values.min() >= 0.0 and hm.values.max() <= 1.0

    def test_argmax_tracks_closed_form_contour(self):
        grid = small_grid(n_gamma=120)
        hm = compute_heatmap(grid, Quantity.INNER_PRODUCT)
        gammas = hm.gamma_values()
        pj = grid.p * grid.j_av
        for col, omega_ratio in enumerate(hm.omega_values()):
            params = FloquetParams.from_omega(grid.p, omega_ratio * pj, grid.j_av, 0.0)
            targets = [
                (1 - grid.p) * g / pj
                for branch in (1, -1)
                if (g := ep_contour_gamma(params, branch)) is not None
            ]
            targets = [t for t in targets if gammas[0] <= t <= gammas[-1]]
            assert targets, "test window must straddle a contour"
            for target in targets:
                idx_target = int(np.abs(gammas - target).argmin())
                window = slice(max(0, idx_target - 10), min(len(gammas), idx_target + 11))
                idx_max = window.start + int(hm.values[window, col].argmax())
                assert abs(idx_max - idx_target) <= 1

    def test_phase_boundaries_align_with_contours(self):
        grid = small_grid(n_gamma=120)
        phase = compute_heatmap(grid, Quantity.PHASE)
        gammas = phase.gamma_values()
        pj = grid.p * grid.j_av
        for col, omega_ratio in enumerate(phase.omega_values()):
            params = FloquetParams.from_omega(grid.p, omega_ratio * pj, grid.j_av, 0.0)
            g = ep_contour_gamma(params, 1) or ep_contour_gamma(params, -1)
            target = (1 - grid.p) * g / pj
            column = phase.values[:, col]
            flips = np.nonzero(np.diff(np.sign(column)))[0]
            assert len(flips) >= 1
            flip_gammas = gammas[flips]
            assert np.abs(np.log(flip_gammas / target)).min() < np.log(gammas[1] / gammas[0]) * 1.5

    def test_discriminant_quantity_signs(self):
        hm = compute_heatmap(small_grid(n_gamma=80), Quantity.DISCRIMINANT)
        assert hm.values.min() < 0 < hm.values.max()


PHASE_CODES = {PhaseKind.PT_SYMMETRIC: -1.0, PhaseKind.EXCEPTIONAL_POINT: 0.0, PhaseKind.PT_BROKEN: 1.0}

SCALAR_REFERENCE = {
    Quantity.INNER_PRODUCT: eigenvector_overlap,
    Quantity.DISCRIMINANT: discriminant,
    Quantity.PHASE: lambda params: PHASE_CODES[classify_phase(params).kind],
}


def fig1b_grid() -> GridSpec:
    p = figure_preset("fig1b").parameters
    return GridSpec(
        gamma_axis=AxisSpec(p["gamma_min"], p["gamma_max"], p["grid"][0], p["gamma_scale"]),
        omega_axis=AxisSpec(p["omega_min"], p["omega_max"], p["grid"][1], p["omega_scale"]),
        p=p["p"],
        j_av=p["j_av"],
    )


# zero-gain row, and an exact-resonance column at omega_ratio = 2 (drive area
# pi, where sin is ~1e-16 rather than 0)
RESONANCE_GRID = GridSpec(
    gamma_axis=AxisSpec(0.0, 2.0, 9, "linear"),
    omega_axis=AxisSpec(1.0, 3.0, 5, "linear"),
)


class TestHeatmapKernel:
    """Every heat-map cell equals the scalar public function at
    ``grid.params_at(gamma, omega)`` bit for bit."""

    @staticmethod
    def assert_matches_scalar(grid, quantity, rows, cols):
        hm = compute_heatmap(grid, quantity)
        gammas, omegas = hm.gamma_values(), hm.omega_values()
        reference = SCALAR_REFERENCE[quantity]
        for i in rows:
            for j in cols:
                want = reference(grid.params_at(float(gammas[i]), float(omegas[j])))
                assert hm.values[i, j] == want, (quantity, i, j, hm.values[i, j], want)

    @pytest.mark.parametrize("quantity", list(Quantity))
    def test_fig1b_subsample_bitwise(self, quantity):
        self.assert_matches_scalar(fig1b_grid(), quantity, range(0, 400, 7), range(3, 400, 11))

    @pytest.mark.parametrize("quantity", list(Quantity))
    def test_zero_gain_and_resonance_bitwise(self, quantity):
        self.assert_matches_scalar(RESONANCE_GRID, quantity, range(9), range(5))

    def test_resonance_column_is_orthogonal(self):
        hm = compute_heatmap(RESONANCE_GRID, Quantity.INNER_PRODUCT)
        assert hm.omega_values()[2] == 2.0
        assert abs(math.sin(RESONANCE_GRID.params_at(1.0, 2.0).drive_area)) > 0.0
        assert np.all(hm.values[:, 2] == 0.0)

    @pytest.mark.parametrize("omega_lo,message", [(0.0, "omega must be positive"), (1e-310, "drive area")])
    def test_rejects_degenerate_frequency(self, omega_lo, message):
        grid = GridSpec(AxisSpec(0.1, 1.0, 3), AxisSpec(omega_lo, 1.0, 3))
        with pytest.raises(ValueError, match=message):
            compute_heatmap(grid, Quantity.PHASE)


class TestGainSignSymmetry:
    def test_discriminant_even_in_gain(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            params = FloquetParams(
                p=rng.uniform(0.1, 0.9),
                T=rng.uniform(0.2, 3.0),
                j_av=rng.uniform(0.1, 2.0),
                gamma_av=rng.uniform(0.0, 2.0),
            )
            assert discriminant(params) == discriminant(params.with_gamma(-params.gamma_av))


class TestContours:
    def test_every_point_reevaluates_on_contour(self):
        contours = trace_contours(0.5, 1.0, (0.3, 2.2), 400)
        assert contours.branches
        for branch in contours.branches:
            for gamma, omega in branch.points:
                params = FloquetParams.from_omega(0.5, omega, 1.0, gamma)
                assert abs(discriminant(params)) < 1e-8

    def test_arms_emerge_from_first_resonance_with_expected_slopes(self):
        p, j_av = 0.5, 1.0
        omega_1 = 2 * p * j_av
        contours = trace_contours(p, j_av, (omega_1 - 0.01, omega_1 + 0.01), 201)
        pts = [pt for b in contours.branches if b.branch == -1 for pt in b.points]
        left = [pt for pt in pts if pt[1] < omega_1 - 1e-12]
        right = [pt for pt in pts if pt[1] > omega_1 + 1e-12]
        assert left and right
        for gamma, omega in left + right:
            expected = 1 / (2 * (1 - p)) * abs(omega - omega_1)
            assert gamma == pytest.approx(expected, rel=5e-3, abs=1e-9)

    def test_node_neighborhood_reaches_large_gain(self):
        p, j_av = 0.5, 1.0
        node = 2 * p * j_av / 0.5  # lowest node frequency
        dw = 1e-7
        contours = trace_contours(p, j_av, (node - dw, node + dw), 2)
        gains = [g for b in contours.branches for g, _ in b.points]
        assert len(gains) == 2
        asym = ep_node_asymptote(0, p, j_av, dw)
        for gain in gains:
            assert gain > 3 * p * j_av / (1 - p)
            # the log-divergence asymptote tracks the exact value up to a
            # known O(1) constant inside the logarithm
            assert 1.0 < gain / asym < 2.0

    def test_high_frequency_plateau(self):
        p, j_av = 0.5, 1.0
        omega = 1e3 * p * j_av
        contours = trace_contours(p, j_av, (omega, omega * 1.001), 2)
        for gamma, _ in contours.branches[0].points:
            assert gamma == pytest.approx(ep_gamma_high_frequency(p, j_av), rel=1e-3)

    def test_branch_grouping_by_interval(self):
        contours = trace_contours(0.5, 1.0, (0.55, 0.95), 100)  # between resonances 2 and 1
        for branch in contours.branches:
            assert branch.resonance_index == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trace_contours(0.5, 1.0, (0.0, 1.0), 10)
        with pytest.raises(ValueError):
            trace_contours(0.5, 1.0, (1.0, 2.0), 1)


class TestResonances:
    def test_first_resonance(self):
        info = resonance_frequencies(0.5, 1.0, 1)
        assert info[1].omega_resonance == pytest.approx(1.0)

    def test_scaling_with_index(self):
        info = resonance_frequencies(0.5, 1.0, 4)
        assert info[2].omega_resonance == pytest.approx(info[1].omega_resonance / 2)
        assert info[4].omega_resonance == pytest.approx(info[1].omega_resonance / 4)

    def test_zeroth_node(self):
        info = resonance_frequencies(0.5, 1.0, 2)
        assert info[0].k == 0
        assert info[0].omega_resonance is None
        assert info[0].omega_node == pytest.approx(4 * 0.5 * 1.0)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            resonance_frequencies(0.5, 1.0, 0)
