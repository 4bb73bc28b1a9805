import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from floquet_ep.cli import main
from floquet_ep.envelope import parse_csv
from floquet_ep.floquet import PhaseKind
from floquet_ep.linalg import IDENTITY_2, PAULI_X, PAULI_Z, eig, kron
from floquet_ep.two_qubit import (
    _PARTIAL_TRACE,
    _YY,
    EntanglementRecord,
    Qubit,
    TwoQubitParams,
    _entropy,
    _propagators,
    _timeseries,
    bell_density,
    concurrence,
    concurrence_closed_form_00,
    correlated_diagonal_density,
    density_from_label,
    entanglement_timeseries,
    entropy,
    evolve_density,
    ground_density,
    hamiltonian_two_qubit,
    maximally_mixed_density,
    propagator_analytic,
    reduced_density,
    steady_state_concurrence,
    validate_density,
)

SYMMETRIC = TwoQubitParams(j=0.5, gamma=0.75, kx=1.0)
AT_EP = TwoQubitParams(j=0.5, gamma=1.0, kx=1.0)
BROKEN = TwoQubitParams(j=0.5, gamma=1.25, kx=1.0)

# fig3c-f rates: gamma below, at and above kx, and the uncoupled pair
FIG3_RATES = [
    (SYMMETRIC, 25.0), (AT_EP, 25.0), (BROKEN, 25.0),
    (TwoQubitParams(j=1.0, gamma=1.5, kx=0.0), 40.0),
    (TwoQubitParams(j=1.0, gamma=1.5, kx=1.5), 40.0),
    (TwoQubitParams(j=1.0, gamma=1.5, kx=1.6), 40.0),
]


def reference_records(rho0, params, t_grid):
    """One time at a time through the public single-state functions."""
    rows = []
    for t in t_grid:
        rho = evolve_density(rho0, params, float(t))
        rows.append((params.j * float(t), concurrence(rho),
                     entropy(reduced_density(rho, Qubit.UNITARY)),
                     entropy(reduced_density(rho, Qubit.THERMAL))))
    return np.array(rows)


def spectral_timeseries(rho0, params, ts):
    """Oracle for the factored pair path: the symmetrized ``G rho G^dagger / tr``
    at every time, and its concurrence from the matrix square root (batched
    ``eigh``, negative eigenvalues clamped) and the SVD of
    ``sqrt(rho) (sy(x)sy) conj(sqrt(rho))``."""
    g = _propagators(params, ts)
    out = g @ rho0 @ g.conj().swapaxes(-1, -2)
    out = out / np.trace(out, axis1=1, axis2=2).real[:, None, None]
    rhos = (out + out.conj().swapaxes(-1, -2)) / 2
    w, v = np.linalg.eigh(rhos)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    c = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    diff = c[..., 0] - c[..., 1] - c[..., 2] - c[..., 3]
    parts = rhos.reshape(-1, 2, 2, 2, 2)
    s_u, s_t = (_entropy(np.einsum(_PARTIAL_TRACE[q], parts)) for q in (Qubit.UNITARY, Qubit.THERMAL))
    return params.j * ts, np.where(diff > 0, diff, 0.0), s_u, s_t


def random_pure_density(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj()), psi


class TestParams:
    def test_delta_phases(self):
        assert TwoQubitParams(0.5, 0.6, 1.0).delta == pytest.approx(0.8)
        assert TwoQubitParams(0.5, 1.25, 1.0).delta == pytest.approx(0.75j)
        assert AT_EP.delta == 0

    def test_phase_classification(self):
        assert SYMMETRIC.phase() is PhaseKind.PT_SYMMETRIC
        assert BROKEN.phase() is PhaseKind.PT_BROKEN
        assert AT_EP.phase() is PhaseKind.EXCEPTIONAL_POINT

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            TwoQubitParams(-0.1, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["j", "gamma", "kx"])
    def test_rejects_non_finite_rates(self, name, value):
        rates = {"j": 0.5, "gamma": 1.0, "kx": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            TwoQubitParams(**rates)


class TestHamiltonian:
    def test_zero_rates_zero_matrix(self):
        h = hamiltonian_two_qubit(TwoQubitParams(0, 0, 0))
        assert np.abs(h).max() == 0

    def test_real_spectrum_in_symmetric_phase(self):
        h = hamiltonian_two_qubit(TwoQubitParams(0.5, 0.6, 1.0))
        lams = sorted(lam.real for lam, _ in eig(h))
        assert np.allclose(lams, [-1.3, -0.3, 0.3, 1.3], atol=1e-10)

    def test_conjugate_pairs_in_broken_phase(self):
        h = hamiltonian_two_qubit(BROKEN)
        lams = np.array([lam for lam, _ in eig(h)])
        # eigenvalues come as +-j +- i|delta|
        expected = np.array([0.5 + 0.75j, 0.5 - 0.75j, -0.5 + 0.75j, -0.5 - 0.75j])
        for e in expected:
            assert np.abs(lams - e).min() < 1e-10

    def test_antilinear_symmetry(self):
        p_op = kron(PAULI_X, PAULI_X)
        for params in (SYMMETRIC, AT_EP, BROKEN):
            h = hamiltonian_two_qubit(params)
            assert np.abs(p_op @ h.conj() @ p_op - h).max() < 1e-13


class TestPropagator:
    def test_identity_at_zero_time(self):
        for params in (SYMMETRIC, AT_EP, BROKEN):
            assert np.abs(propagator_analytic(params, 0.0) - np.eye(4)).max() < 1e-14

    def test_matches_matrix_exponential_reference_point(self):
        params = TwoQubitParams(j=0.5, gamma=0.8, kx=1.0)
        got = propagator_analytic(params, 0.7)
        want = expm(-1j * hamiltonian_two_qubit(params) * 0.7)
        assert np.abs(got - want).max() < 1e-10

    def test_matches_matrix_exponential_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            params = TwoQubitParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
            t = rng.uniform(0, 3)
            got = propagator_analytic(params, t)
            want = expm(-1j * hamiltonian_two_qubit(params) * t)
            assert np.abs(got - want).max() < 1e-10

    def test_continuous_across_transition(self):
        t = 1.3
        left = propagator_analytic(TwoQubitParams(0.5, 1.0 - 1e-9, 1.0), t)
        at = propagator_analytic(AT_EP, t)
        right = propagator_analytic(TwoQubitParams(0.5, 1.0 + 1e-9, 1.0), t)
        assert np.abs(left - at).max() < 1e-8
        assert np.abs(right - at).max() < 1e-8

    def test_zero_of_oscillation_is_regular(self):
        params = TwoQubitParams(j=0.5, gamma=0.6, kx=1.0)  # delta = 0.8
        t = math.pi / 0.8
        got = propagator_analytic(params, t)
        want = expm(-1j * hamiltonian_two_qubit(params) * t)
        assert np.all(np.isfinite(got.view(float)))
        assert np.abs(got - want).max() < 1e-10

    def test_ep_entries_polynomial_in_time(self):
        # at the exceptional point the only oscillation left is the drive
        g = propagator_analytic(AT_EP, 2.0)
        gamma, t = AT_EP.gamma, 2.0
        c, s = math.cos(AT_EP.j * t), math.sin(AT_EP.j * t)
        assert g[0, 0] == pytest.approx(c * (1 + gamma * t), abs=1e-12)
        assert g[2, 2] == pytest.approx(c * (1 - gamma * t), abs=1e-12)
        assert g[0, 3] == pytest.approx(-1j * AT_EP.kx * t * c, abs=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            propagator_analytic(SYMMETRIC, -0.1)

    @pytest.mark.parametrize(
        "params,t,cause",
        [
            (TwoQubitParams(1.7e308, 1.0, 1.0), 2.0, "j \\* t"),
            (TwoQubitParams(1.0, 0.0, 1e200), 1.0, "kx\\^2 - gamma\\^2"),
            (TwoQubitParams(1.0, 1e200, 0.0), 1.0, "kx\\^2 - gamma\\^2"),
            (TwoQubitParams(1.0, 0.0, 1.5), 1.7e308, "Re\\(delta\\) \\* t"),
            (TwoQubitParams(0.5, 1e150, 1e150), 1e200, "gamma \\* f0"),  # f0 = t at the exceptional point
            (TwoQubitParams(0.3, 3.0, 1.0), 252.0, "e\\^\\{kappa t\\}"),  # kappa t = 712.7
        ],
    )
    def test_overflowing_phase_raises_naming_its_cause(self, params, t, cause):
        with pytest.raises(ValueError, match=cause):
            propagator_analytic(params, t)

    def test_broken_phase_growth_is_finite_below_overflow(self):
        # kappa = sqrt(8): e^{kappa t} fits a double at t = 250 (kappa t = 707.1), not at 252
        assert np.all(np.isfinite(propagator_analytic(TwoQubitParams(0.3, 3.0, 1.0), 250.0)))


class TestEvolveDensity:
    def test_unitary_case_preserves_spectrum(self):
        params = TwoQubitParams(j=0.8, gamma=0.0, kx=0.0)
        rho0 = correlated_diagonal_density()
        w0 = np.sort(np.linalg.eigvalsh(rho0))
        for t in (0.5, 2.0, 7.0):
            w = np.sort(np.linalg.eigvalsh(evolve_density(rho0, params, t)))
            assert np.abs(w - w0).max() < 1e-12

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(22)
        for params in (SYMMETRIC, AT_EP, BROKEN):
            for _ in range(20):
                rho0, _ = random_pure_density(rng)
                rho = evolve_density(rho0, params, rng.uniform(0, 5))
                validate_density(rho)

    def test_thermal_qubit_purifies_uncoupled(self):
        params = TwoQubitParams(j=1.0, gamma=1.5, kx=0.0)
        rho = evolve_density(maximally_mixed_density(), params, 20.0)
        s_t = entropy(reduced_density(rho, Qubit.THERMAL))
        assert s_t < 1e-10
        s_u = entropy(reduced_density(rho, Qubit.UNITARY))
        assert s_u == pytest.approx(1.0, abs=1e-10)

    def test_ep_ground_start_becomes_maximally_entangled(self):
        rho = evolve_density(ground_density(), AT_EP, 50.0 / AT_EP.gamma)
        assert concurrence(rho) > 0.999


class TestConcurrence:
    def test_product_state(self):
        assert concurrence(ground_density()) == 0.0

    def test_bell_state(self):
        assert concurrence(bell_density()) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rho, psi = random_pure_density(rng)
            expected = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_invalid_density(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(ValueError):
            concurrence(bad)

    @pytest.mark.parametrize("check", [validate_density, concurrence])
    def test_rejects_non_finite_density(self, check):
        pair = np.eye(4, dtype=complex) / 4
        pair[0, 1] = pair[1, 0] = np.nan
        for bad in (pair, np.full((4, 4), np.nan)):
            with pytest.raises(ValueError, match="non-finite"):
                check(bad)


class TestClosedFormConcurrence:
    def test_zero_at_start(self):
        assert concurrence_closed_form_00(SYMMETRIC, 0.0) == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
    def test_rejects_a_negative_or_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t must be non-negative and finite"):
            concurrence_closed_form_00(SYMMETRIC, t)

    def test_periodic_maxima_in_symmetric_phase(self):
        delta = SYMMETRIC.delta.real
        period = math.pi / (2 * delta)
        ts = np.linspace(1e-4, 6 * period, 12000)
        cs = np.array([concurrence_closed_form_00(SYMMETRIC, t) for t in ts])
        # maxima reach 1 with the expected spacing
        peak_times = []
        for i in range(1, len(cs) - 1):
            if cs[i] > cs[i - 1] and cs[i] > cs[i + 1] and cs[i] > 0.99:
                peak_times.append(ts[i])
        assert len(peak_times) >= 5
        spacings = np.diff(peak_times)
        assert np.allclose(spacings, period, rtol=5e-3)

    def test_ep_value(self):
        t = 10.0 / AT_EP.gamma
        assert concurrence_closed_form_00(AT_EP, t) == pytest.approx(220 / 221, abs=1e-12)

    def test_ep_matches_rational_form(self):
        for gt in (0.3, 1.0, 5.0, 50.0):
            t = gt / AT_EP.gamma
            expected = 2 * gt * (1 + gt) / (gt**2 + (1 + gt) ** 2)
            assert concurrence_closed_form_00(AT_EP, t) == pytest.approx(expected, abs=1e-12)

    def test_broken_phase_settles_at_rate_ratio(self):
        mod_delta = abs(BROKEN.delta)
        t = 25.0 / mod_delta
        assert concurrence_closed_form_00(BROKEN, t) == pytest.approx(
            BROKEN.kx / BROKEN.gamma, abs=1e-6
        )

    def test_matches_spectral_concurrence_all_phases(self):
        rho0 = ground_density()
        for params in (SYMMETRIC, AT_EP, BROKEN):
            for t in np.linspace(0.05, 12.0, 60):
                spectral = concurrence(evolve_density(rho0, params, float(t)))
                closed = concurrence_closed_form_00(params, float(t))
                assert spectral == pytest.approx(closed, abs=1e-8)

    def test_exceptional_point_at_a_huge_time_is_the_run_path_limit(self):
        # kx f0 and P+ reach 7e202, so their squares overflow unless the form is scaled first
        params = TwoQubitParams(j=0.5, gamma=700.0, kx=700.0)
        run_path = entanglement_timeseries(ground_density(), params, [0.0, 1e200])[-1].concurrence
        assert concurrence_closed_form_00(params, 1e200) == pytest.approx(run_path, abs=1e-12)
        assert run_path == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "params,t,cause",
        [(TwoQubitParams(0.5, 0.0, 1e200), 1.0, "kx\\^2 - gamma\\^2"), (TwoQubitParams(0.5, 1e200, 0.0), 1.0, "kx\\^2 - gamma\\^2"),
         (TwoQubitParams(0.5, 0.0, 1.5), 1.7e308, "Re\\(delta\\) \\* t"), (TwoQubitParams(0.5, 1e150, 1e150), 1e200, "gamma \\* f0")],
    )
    def test_overflow_raises_naming_its_cause(self, params, t, cause):
        with pytest.raises(ValueError, match=cause):
            concurrence_closed_form_00(params, t)

    def test_steady_state_helper(self):
        assert steady_state_concurrence(SYMMETRIC) is None
        assert steady_state_concurrence(AT_EP) == 1.0
        assert steady_state_concurrence(BROKEN) == pytest.approx(0.8)


class TestReducedDensity:
    def test_product_state_factors(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        rho = kron(rho_a, rho_b)
        assert np.abs(reduced_density(rho, Qubit.THERMAL) - rho_a).max() < 1e-12
        assert np.abs(reduced_density(rho, Qubit.UNITARY) - rho_b).max() < 1e-12

    def test_bell_state_reductions_maximally_mixed(self):
        for which in Qubit:
            red = reduced_density(bell_density(), which)
            assert np.abs(red - IDENTITY_2 / 2).max() < 1e-12

    def test_uncoupled_unitary_reduction_stays_mixed(self):
        params = TwoQubitParams(j=1.0, gamma=1.5, kx=0.0)
        for t in (0.7, 3.0, 12.0):
            rho = evolve_density(maximally_mixed_density(), params, t)
            red = reduced_density(rho, Qubit.UNITARY)
            assert np.abs(red - IDENTITY_2 / 2).max() < 1e-12


class TestEntropy:
    def test_pure_state_zero(self):
        assert entropy(np.array([[1, 0], [0, 0]], dtype=complex)) == 0.0

    def test_maximally_mixed_one(self):
        assert entropy(IDENTITY_2 / 2) == pytest.approx(1.0, abs=1e-15)

    def test_biased_mixture(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert entropy(rho) == pytest.approx(0.468996, abs=1e-6)


class TestTimeseries:
    def test_symmetric_phase_periodic_revivals(self):
        params = TwoQubitParams(j=0.5, gamma=0.75, kx=1.0)
        t_grid = np.linspace(0.0, 20.0, 400)
        records = entanglement_timeseries(ground_density(), params, t_grid)
        cs = [r.concurrence for r in records]
        assert max(cs) > 0.99
        assert all(isinstance(r, EntanglementRecord) for r in records)
        assert records[3].time == pytest.approx(params.j * t_grid[3])

    def test_bell_start_at_ep_saturates(self):
        records = entanglement_timeseries(
            bell_density(), AT_EP, np.linspace(0.0, 60.0, 120)
        )
        assert records[-1].concurrence > 0.99

    def test_correlated_start_unitary_entropy_rises_to_one_at_ep(self):
        params = TwoQubitParams(j=1.0, gamma=1.5, kx=1.5)
        records = entanglement_timeseries(
            correlated_diagonal_density(), params, np.linspace(1.0, 60.0, 60)
        )
        assert records[-1].entropy_unitary > 0.99
        assert records[-1].entropy_unitary > records[0].entropy_unitary

    @pytest.mark.parametrize("label", ["00", "bell", "mixed", "correlated"])
    @pytest.mark.parametrize("params,t_max", FIG3_RATES)
    def test_matches_one_time_at_a_time(self, label, params, t_max):
        t_grid = np.linspace(0.0, t_max, 61)
        rho0 = density_from_label(label)
        got = np.array([[r.time, r.concurrence, r.entropy_unitary, r.entropy_thermal]
                        for r in entanglement_timeseries(rho0, params, t_grid)])
        assert np.abs(got - reference_records(rho0, params, t_grid)).max() <= 1e-12

    def test_grid_longer_than_one_array_pass(self):
        t_grid = np.linspace(0.0, 25.0, 2500)
        records = entanglement_timeseries(bell_density(), BROKEN, t_grid)
        assert len(records) == len(t_grid)
        got = np.array([[r.time, r.concurrence, r.entropy_unitary, r.entropy_thermal]
                        for r in records[1020:1030]])
        want = reference_records(bell_density(), BROKEN, t_grid[1020:1030])
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("gamma,t_max", [("3", "200"), ("1e3", "50")])
    def test_strong_gain_long_time_is_finite(self, gamma, t_max, tmp_path):
        out = tmp_path / "pair.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["two-qubit", "--gamma", gamma, "--kx", "1", "--t-max", t_max, "--output", str(out)])
        assert status == 0
        headers, cols = parse_csv(out.read_text())
        got = cols[headers.index("concurrence [dimensionless]")]
        params = TwoQubitParams(j=0.5, gamma=float(gamma), kx=1.0)
        want = [concurrence_closed_form_00(params, t) for t in np.linspace(0.0, float(t_max), 401)]
        assert np.abs(np.subtract(got, want)).max() <= 1e-8
        assert got[-1] == pytest.approx(params.kx / params.gamma, abs=1e-8)

    def test_broken_phase_past_the_overflow_of_kappa_t_is_finite(self):
        # kappa t overflows doubles; the scaled propagator does not
        records = entanglement_timeseries(ground_density(), TwoQubitParams(0.5, 2.0, 1.0), [0.0, 1.5e308])
        assert records[-1].concurrence == pytest.approx(0.5, abs=1e-12)

    def test_exceptional_point_at_the_largest_time_saturates(self, tmp_path):
        """At the EP f0 = t, so G's entries reach t ~ 1.7e308 and G Phi overflows unless G is scaled
        first; the scaled rows equal the long-time limit C = S_u = S_t = 1 of a 1e150 run."""
        rows = {}
        for t_max in ("1.7e308", "1e150"):
            out = tmp_path / f"pair_{t_max}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["two-qubit", "--steps", "3", "--gamma", "1", "--kx", "1", "--t-max", t_max,
                             "--output", str(out)]) == 0
            rows[t_max] = np.array(parse_csv(out.read_text())[1][1:]).T[1:]  # C, S_u, S_t at t > 0
        assert np.abs(rows["1.7e308"] - 1.0).max() <= 1e-12
        assert np.abs(rows["1.7e308"] - rows["1e150"]).max() <= 1e-12

    @pytest.mark.parametrize(
        "rates",
        [["--j=1.7e+308"], ["--kx", "1e200", "--gamma", "0", "--t-max", "1e200"],
         ["--gamma", "1e200", "--kx", "0", "--t-max", "1e200"], ["--gamma", "1e150", "--kx", "1e150", "--t-max", "1e200"]],
    )
    def test_overflowing_rates_or_times_exit_1_with_one_error_line(self, rates, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["two-qubit", "--steps", "3", *rates, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err and "trace" not in err
        assert not out.exists()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            entanglement_timeseries(ground_density(), SYMMETRIC, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("t_grid", [[0.0, math.inf], [0.0, math.nan], [math.nan, 1.0]])
    def test_rejects_non_finite_grid(self, t_grid):
        with pytest.raises(ValueError, match="t_grid must be finite and strictly increasing"):
            entanglement_timeseries(ground_density(), SYMMETRIC, t_grid)


_RATE = st.floats(0.0, 1e3)


class TestPairProperties:
    """Invariants at any gain and time: the scale-free propagator keeps every
    post-selected quantity finite."""

    @settings(max_examples=40, deadline=None)
    @given(j=st.floats(0.0, 10.0), gamma=_RATE, kx=_RATE, t_max=st.floats(1e-3, 1e4),
           label=st.sampled_from(["00", "bell", "mixed", "correlated"]))
    def test_timeseries_finite_and_bounded(self, j, gamma, kx, t_max, label):
        params = TwoQubitParams(j=j, gamma=gamma, kx=kx)
        records = entanglement_timeseries(density_from_label(label), params, np.linspace(0.0, t_max, 17))
        values = np.array([[r.concurrence, r.entropy_unitary, r.entropy_thermal] for r in records])
        assert np.all(np.isfinite(values))
        assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), j=st.floats(0.0, 2.0),
           kx=st.floats(0.1, 2.0), ratio=st.one_of(st.floats(0.0, 0.99), st.just(1.0), st.floats(1.01, 3.0)),
           t_max=st.floats(1e-3, 40.0))
    @example(rank=1, seed=0, j=0.5, kx=1.0, ratio=1.0, t_max=40.0)
    @example(rank=4, seed=0, j=0.5, kx=1.0, ratio=1.0, t_max=40.0)
    def test_factored_path_equals_spectral_oracle(self, rank, seed, j, kx, ratio, t_max):
        # any valid start of rank 1-4, below, at (ratio 1) and above the EP
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        params = TwoQubitParams(j=j, gamma=kx * ratio, kx=kx)
        ts = np.linspace(0.0, t_max, 33)
        for got, want in zip(_timeseries(validate_density(rho0), params, ts), spectral_timeseries(rho0, params, ts)):
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(label=st.sampled_from(["00", "bell"]), j=st.floats(0.0, 2.0), kx=st.floats(0.1, 2.0),
           ratio=st.one_of(st.floats(0.0, 0.99), st.just(1.0), st.floats(1.01, 3.0)), t_max=st.floats(1e-3, 200.0))
    @example(label="00", j=0.5, kx=1.0, ratio=1.0, t_max=200.0)
    @example(label="bell", j=0.5, kx=1.0, ratio=1.0, t_max=200.0)
    def test_pure_start_entropies_are_wootters_entanglement(self, label, j, kx, ratio, t_max):
        # a pure pair state's reduced states have eigenvalues (1 +- sqrt(1 - C^2))/2 [Wootters 1998],
        # so both entropies are E(C): maximal where C is, at the EP; below, at (ratio 1) and above it
        params = TwoQubitParams(j=j, gamma=kx * ratio, kx=kx)
        _, c, s_u, s_t = _timeseries(density_from_label(label), params, np.linspace(0.0, t_max, 65))
        c = np.minimum(c, 1.0)  # the run path's C may exceed 1 by rounding
        hi = (1 + np.sqrt((1 - c) * (1 + c))) / 2
        lo = c * c / (4 * hi)  # 1 - hi without its cancellation
        with np.errstate(divide="ignore", invalid="ignore"):
            e_of_c = -hi * np.log2(hi) - np.where(lo > 0, lo * np.log2(lo), 0.0)
        assert np.abs(s_u - e_of_c).max() <= 1e-12
        assert np.abs(s_t - e_of_c).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(j=st.floats(0.0, 10.0), gamma=_RATE, kx=_RATE, t=st.floats(0.0, 1e4))
    @example(j=0.5, gamma=1.0, kx=1.0, t=50.0)
    def test_scaled_propagator_determinant(self, j, gamma, kx, t):
        # the pair Hamiltonian is traceless, so det G = 1 and G e^{-kappa t} has
        # det e^{-4 kappa t}: 1 in the PT-symmetric phase and at the EP
        params = TwoQubitParams(j=j, gamma=gamma, kx=kx)
        g = _propagators(params, np.array([t]))[0]
        want = math.exp(-4 * params.delta.imag * t)
        assert abs(np.linalg.det(g) - want) <= 1e-14 * max(1.0, np.linalg.norm(g, 2)) ** 4

    @settings(max_examples=60, deadline=None)
    @given(gamma=_RATE, kx=_RATE, t=st.floats(0.0, 1e4))
    def test_closed_form_finite(self, gamma, kx, t):
        c = concurrence_closed_form_00(TwoQubitParams(j=0.5, gamma=gamma, kx=kx), t)
        assert math.isfinite(c) and 0.0 <= c <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(1e-2, 1e3), kx=st.floats(1e-2, 1e3))
    def test_broken_phase_converges_to_steady_state(self, gamma, kx):
        params = TwoQubitParams(j=0.5, gamma=gamma, kx=kx)
        assume(params.phase() is PhaseKind.PT_BROKEN and abs(params.delta) * 1e4 >= 20)
        t = 20 / abs(params.delta)
        steady = steady_state_concurrence(params)
        assert concurrence_closed_form_00(params, t) == pytest.approx(steady, abs=1e-9)
        records = entanglement_timeseries(ground_density(), params, [t / 2, t])
        assert records[-1].concurrence == pytest.approx(steady, abs=1e-7)


def test_entanglement_is_maximal_at_the_ep():
    """The paper's headline: from |00> at j = 0.5, kx = 1, the late-time
    concurrence and both reduced entropies are largest at gamma = kx, and
    maximal there."""
    t_grid = np.linspace(0.0, 200.0, 4001)
    late = {}
    for ratio in (0.5, 0.95, 1.0, 1.05, 2.0, 5.0):
        records = entanglement_timeseries(ground_density(), TwoQubitParams(j=0.5, gamma=ratio, kx=1.0), t_grid)
        tail = records[-len(records) // 10 :]
        late[ratio] = np.mean([[r.concurrence, r.entropy_unitary, r.entropy_thermal] for r in tail], axis=0)
    for k in range(3):
        assert max(late, key=lambda ratio: late[ratio][k]) == 1.0
        assert late[1.0][k] == pytest.approx(1.0, abs=1e-3)


class TestInitialStates:
    def test_labels(self):
        for label in ("00", "bell", "mixed", "correlated"):
            validate_density(density_from_label(label))
        with pytest.raises(ValueError):
            density_from_label("nope")

    def test_correlated_diagonal_weights(self):
        rho = correlated_diagonal_density()
        assert np.allclose(np.diag(rho).real, [0.86, 0.10, 0.02, 0.02], atol=1e-15)
        assert np.abs(rho - np.diag(np.diag(rho))).max() == 0
