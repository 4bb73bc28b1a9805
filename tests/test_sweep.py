import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from floquet_ep.two_qubit import (
    Qubit,
    TwoQubitParams,
    concurrence,
    concurrence_closed_form_00,
    density_from_label,
    entanglement_timeseries,
    entropy,
    evolve_density,
    hamiltonian_two_qubit,
    propagator_analytic,
    reduced_density,
    steady_state_concurrence,
    validate_density,
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
        for window in [(0.5, math.inf), (math.nan, 1.0), (0.5, math.nan)]:  # raised, not a RuntimeWarning
            with pytest.raises(ValueError, match="omega_range must satisfy 0 < lo < hi < inf"):
                trace_contours(0.5, 1.0, window, 3)


def _contours_per_frequency(p, j_av, omega_range, n_samples):
    """Reference tracer: one FloquetParams and one scalar inversion with
    math.acosh per frequency and branch, grouped as trace_contours groups."""
    groups = {}
    omegas = np.linspace(*omega_range, n_samples)
    for omega, k in zip(omegas.tolist(), np.floor(2 * (p * j_av) / omegas).tolist()):
        params = FloquetParams.from_omega(p, omega, j_av, 0.0)
        c = math.cos(params.drive_area)
        for branch in (1, -1):
            ratio = branch / c if c != 0.0 else -math.inf
            if 1.0 - 1e-12 <= ratio < 1.0:
                ratio = 1.0
            if ratio >= 1.0:
                groups.setdefault((branch, int(k)), []).append((math.acosh(ratio) / params.beta, omega))
    return dict(sorted(groups.items(), key=lambda item: (item[0][1], -item[0][0])))


_FIG1C = figure_preset("fig1c").parameters
_NODE = 2 * 0.5 * 1.0 / 1.5  # node k = 1 at p = 0.5, j_av = 1
CONTOUR_WINDOWS = [
    (_FIG1C["p"], _FIG1C["j_av"], (_FIG1C["omega_min"], _FIG1C["omega_max"]), _FIG1C["samples"]),
    (0.5, 1.0, (2 * 0.5 * 1.0 / 3, 0.9), 301),  # starts on the exact resonance k = 3
    (0.5, 1.0, (_NODE - 1e-7, _NODE + 1e-7), 3),
    (0.05, 1.0, (0.01, 0.2), 2000),
    (0.95, 1.0, (0.2, 4.0), 2000),
]


class TestContoursMatchPerFrequencyTracing:
    @pytest.mark.parametrize("p,j_av,omega_range,n_samples", CONTOUR_WINDOWS)
    def test_same_branches_frequencies_and_gains(self, p, j_av, omega_range, n_samples):
        want = _contours_per_frequency(p, j_av, omega_range, n_samples)
        got = trace_contours(p, j_av, omega_range, n_samples).branches
        assert [(b.branch, b.resonance_index) for b in got] == list(want)
        for branch, points in zip(got, want.values()):
            assert [omega for _, omega in branch.points] == [omega for _, omega in points]
            for (gamma, omega), (ref, _) in zip(branch.points, points):
                assert gamma == ep_contour_gamma(FloquetParams.from_omega(p, omega, j_av, 0.0), branch.branch)
                assert abs(gamma - ref) <= 1e-15 * ref

    def test_windows_reach_the_edge_cases(self):
        resonance = trace_contours(*CONTOUR_WINDOWS[1])
        assert 0.0 in [gamma for b in resonance.branches for gamma, _ in b.points]
        node = trace_contours(*CONTOUR_WINDOWS[2])
        assert min(gamma for b in node.branches for gamma, _ in b.points) > 3.0

    @pytest.mark.parametrize("p", [1.0, -0.1, 1.5])
    def test_rejects_a_fraction_without_a_thermal_segment_or_outside_0_1(self, p):
        with pytest.raises(ValueError):
            trace_contours(p, 1.0, (0.5, 2.0), 10)


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

    @pytest.mark.parametrize(
        "p,j_av",
        [(0.5, -1.0), (0.5, 0.0), (0.5, math.inf), (0.5, math.nan), (0.0, 1.0), (1.0, 1.0), (math.nan, 1.0),
         (0.9999999999999999, 1e308), (5e-324, 0.5)],  # p j_av / (1 - p) overflows; p j_av underflows to 0
    )
    @pytest.mark.parametrize(
        "helper",
        [
            lambda p, j_av: resonance_frequencies(p, j_av, 2),
            lambda p, j_av: ep_node_asymptote(0, p, j_av, 0.1),
            ep_gamma_high_frequency,
            lambda p, j_av: GridSpec(AxisSpec(0.1, 1.0, 3), AxisSpec(0.1, 1.0, 3), p, j_av),
            lambda p, j_av: FloquetParams.from_dimensionless(1.0, 1.0, p, j_av),
            lambda p, j_av: trace_contours(p, j_av, (0.5, 1.0), 3),
        ],
        ids=["resonance_frequencies", "ep_node_asymptote", "ep_gamma_high_frequency", "GridSpec", "from_dimensionless",
             "trace_contours"],
    )
    def test_rejects_rates_outside_their_range(self, helper, p, j_av):
        # 0 < p < 1 and a finite j_av > 0, or no resonance, node, limit, contour or phase-diagram coordinate exists
        with pytest.raises(ValueError, match="p must lie strictly between 0 and 1|j_av must be positive and finite"):
            helper(p, j_av)

    @pytest.mark.parametrize("j_av,delta_omega_prime", [(1.0, 1e308), (1e300, 5e-324), (1.0, math.nan)])
    def test_node_asymptote_that_is_not_finite_raises(self, j_av, delta_omega_prime):
        # the log's argument overflows, underflows to 0 or is nan
        with pytest.raises(ValueError, match=re.escape(f"no finite asymptote at k 0, p 0.5, j_av {j_av}, delta_omega_prime")):
            ep_node_asymptote(0, 0.5, j_av, delta_omega_prime)


#: any double, with the extremes drawn often
_ANY = st.one_of(st.floats(), st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1e154, 1e308, 1.7e308, -1.7e308, 0.5, 1.0]))


def _pair_numbers(name, v):
    """The numbers one public function of ``two_qubit`` gives for the drawn doubles ``v``."""
    if name in ("validate_density", "entropy", "concurrence", "reduced_density"):
        rho = np.diag(np.array(v[:4], dtype=complex))
        fn = {"validate_density": validate_density, "entropy": entropy, "concurrence": concurrence,
              "reduced_density": lambda r: reduced_density(r, Qubit.THERMAL)}[name]
        return np.ravel(fn(rho))
    params = TwoQubitParams(j=v[0], gamma=v[1], kx=v[2])
    if name == "params":
        return [params.delta, *np.ravel(hamiltonian_two_qubit(params)), steady_state_concurrence(params) or 0.0]
    if name == "propagator_analytic":
        return np.ravel(propagator_analytic(params, v[3]))
    if name == "concurrence_closed_form_00":
        return [concurrence_closed_form_00(params, v[3])]
    rho0 = density_from_label(("00", "bell", "mixed", "correlated")[int(abs(v[4]) % 4) if math.isfinite(v[4]) else 0])
    if name == "evolve_density":
        return np.ravel(evolve_density(rho0, params, v[3]))
    records = entanglement_timeseries(rho0, params, [0.0, v[3]])
    return [x for r in records for x in (r.time, r.concurrence, r.entropy_unitary, r.entropy_thermal)]


def _call_public(name, v):
    """The numbers one public function of ``two_qubit`` or ``sweep`` gives for the drawn doubles ``v``:
    (those that must be finite, those that may saturate to +inf)."""
    p = min(abs(v[4]), 1.0) if not math.isnan(v[4]) else 0.5
    if name == "resonance_frequencies":
        return [x for r in resonance_frequencies(p, v[5], 2) for x in (r.omega_resonance or 0.0, r.omega_node)], []
    if name == "trace_contours":
        return [x for b in trace_contours(p, v[5], (v[0], v[1]), 3).branches for x in b.points.ravel()], []
    if not name.startswith("heatmap:"):
        return _pair_numbers(name, v), []
    grid = GridSpec(AxisSpec(v[0], v[1], 3, "log" if v[2] > 0 else "linear"), AxisSpec(v[2], v[3], 3), p, v[5])
    quantity = Quantity(name.split(":")[1])
    values = compute_heatmap(grid, quantity).values.ravel()
    return ([], values) if quantity is Quantity.DISCRIMINANT else (values, [])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["validate_density", "entropy", "concurrence", "reduced_density", "params",
                             "propagator_analytic", "concurrence_closed_form_00", "evolve_density",
                             "entanglement_timeseries", "resonance_frequencies", "trace_contours",
                             "heatmap:inner-product", "heatmap:discriminant", "heatmap:phase"]),
       v=st.lists(_ANY, min_size=6, max_size=6))
@example(name="resonance_frequencies", v=[0.0, 0.0, 0.0, 0.0, 0.5, 1.7e308])  # the k = 0 node overflowed to inf
@example(name="trace_contours", v=[1e200, 1.7e308, 0.0, 0.0, 0.75, 1.7e308])  # a contour gain overflowed to inf
@example(name="trace_contours", v=[1e200, 1.7e308, 0.0, 0.0, 0.75, 5e307])  # the same with finite p j_av / (1 - p)
@example(name="validate_density", v=[0.0, 0.0, 1e308, 1e308, 0.0, 0.0])  # its trace overflowed with a warning
@example(name="params", v=[0.0, 1e200, 1e200, 0.0, 0.0, 0.0])  # delta was nan: inf - inf
def test_pair_and_sweep_functions_end_finite_or_raise(name, v):
    """Each public function of ``two_qubit`` and ``sweep`` gives finite numbers (a discriminant
    may saturate to +inf) or raises ValueError or ArithmeticError, without a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            finite, saturating = _call_public(name, v)
        except (ValueError, ArithmeticError):
            return
    assert all(math.isfinite(abs(x)) for x in finite), name
    assert all(math.isfinite(x) or x == math.inf for x in saturating), name


def test_contour_gain_overflow_names_the_inputs():
    # (1 - p) T is subnormal at omega = 1.7e308: the gain arccosh(...) / ((1 - p) T) overflows
    with pytest.raises(ValueError, match=re.escape("contour gain overflows at p 0.75, j_av 1.7e+308, omega 1.7e+308")):
        ep_contour_gamma(FloquetParams.from_omega(0.75, 1.7e308, 1.7e308, 0.0), -1)
    # trace_contours takes only rates whose high-frequency limit p j_av / (1 - p) is finite: not 1.7e308 at p 0.75
    with pytest.raises(ValueError, match=re.escape("so must p * j_av / (1 - p); got p 0.75, j_av 1.7e+308")):
        trace_contours(0.75, 1.7e308, (1e200, 1.7e308), 5)
    # the limit is 1.5e308 at j_av 5e307, and the gain near the k = 0 node still overflows
    with pytest.raises(ValueError, match="contour gain overflows at p 0.75, j_av 5e[+]307, omega"):
        trace_contours(0.75, 5e307, (1e200, 1.7e308), 5)
