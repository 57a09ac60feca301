"""Closed-form solver: characteristic roots, saddle-path construction,
first-order conditions, and the brute-force oracle cross-check."""

import math
import warnings

import numpy as np
import pytest

from mmrclimate.control import (
    CharRoots,
    ScenarioConfig,
    char_roots,
    closed_loop_integrals,
    numeric_oracle,
    solve_optimal,
    weighted_costs,
)
from mmrclimate.economy import (
    ClimateModel,
    EconParams,
    discounted_total_cost,
    net_cumulative_emissions,
)
from mmrclimate.errors import InvalidDiscount, ValidationError
from mmrclimate.exppoly import ExpPoly

FIG_MODEL = ClimateModel("HAD", 0.002286)
FIG_ECON = EconParams(alpha=0.000125, beta=0.018)


class TestCharRoots:
    def test_zero_response_degenerates(self):
        roots = char_roots(0.04, 0.0, 0.000125, 0.018)
        assert roots.lam_plus == pytest.approx(0.04)
        assert roots.lam_minus == pytest.approx(0.0, abs=1e-15)

    def test_worked_values_satisfy_characteristic_equation(self):
        roots = char_roots(0.05, 0.002286, 0.000125, 0.018)
        k = 0.018 * 0.002286**2 / 0.000125
        assert roots.stiffness == pytest.approx(k, rel=1e-14)
        assert k == pytest.approx(7.525e-4, rel=1e-3)
        for lam in (roots.lam_plus, roots.lam_minus):
            assert lam * lam - 0.05 * lam - k == pytest.approx(0.0, abs=1e-15)
        assert roots.lam_plus > 0.05 > 0.0 > roots.lam_minus

    def test_vieta_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            delta = float(rng.uniform(0.005, 0.08))
            m = float(rng.uniform(0.0005, 0.004))
            alpha = float(rng.uniform(5e-5, 3e-4))
            beta = float(rng.uniform(0.005, 0.03))
            r = char_roots(delta, m, alpha, beta)
            assert r.lam_plus + r.lam_minus == pytest.approx(delta, abs=1e-12)
            assert r.lam_plus * r.lam_minus == pytest.approx(-r.stiffness, abs=1e-12)

    def test_invalid_discount(self):
        with pytest.raises(InvalidDiscount):
            char_roots(0.0, 0.002, 0.000125, 0.018)
        with pytest.raises(InvalidDiscount):
            char_roots(-0.01, 0.002, 0.000125, 0.018)


class TestSolveOptimal:
    def test_zero_response_never_abates(self, scenario):
        sol = solve_optimal(0.05, ClimateModel("null", 0.0), scenario)
        assert sol.abatement.is_zero
        # the k = 0 loop weighs no damage and abates nothing: +0.0 exactly
        assert sol.j_star == 0.0 and math.copysign(1.0, sol.j_star) == 1.0

    def test_underflowing_stiffness_never_abates(self, scenario):
        # k = beta m^2 / alpha underflows to 0 for a nonzero response: the
        # k = 0 loop is passive, with no abatement, not a rounding residue
        sol = solve_optimal(0.02, ClimateModel("tiny", 1e-170), scenario)
        assert sol.roots.stiffness == 0.0
        assert sol.abatement.is_zero
        assert sol.net_emissions == net_cumulative_emissions(
            ExpPoly.zero(), scenario.baseline, scenario.e0)

    def test_abatement_lags_then_overtakes_baseline(self, scenario):
        # At the worked-example parameters abatement is partial through
        # the bulk of the 21st century and overtakes the baseline in the
        # 22nd, so the emissions stock rises and then falls.  (In the
        # first few years the drawdown of the legacy stock can exceed the
        # fitted curve, whose left edge sits below the scenario data.)
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        gap = scenario.baseline - sol.abatement
        t = np.arange(25.0, 81.0)
        assert np.all(gap(t) > 0)
        t2 = np.arange(80.0, 200.0)
        assert np.any(gap(t2) < 0)
        emissions = sol.net_emissions(np.arange(0.0, 400.0))
        t_peak = float(np.argmax(emissions))
        assert 80.0 < t_peak < 180.0   # peak inside the 22nd century

    def test_state_equation_is_exact_identity(self, config, scenario):
        for delta in config.deltas:
            sol = solve_optimal(delta, FIG_MODEL, scenario)
            residual = (sol.net_emissions.derivative() - scenario.baseline) \
                + sol.abatement
            assert residual.is_zero

    def test_initial_stock_pinned(self, config, scenario):
        for delta in (0.01, 0.04, 0.07):
            sol = solve_optimal(delta, FIG_MODEL, scenario)
            assert sol.net_emissions(0.0) == pytest.approx(scenario.e0, rel=1e-9)

    def test_foc_residual(self, scenario):
        for delta, model in [(0.05, FIG_MODEL), (0.01, FIG_MODEL),
                             (0.03, ClimateModel("GFDL", 0.00157))]:
            sol = solve_optimal(delta, model, scenario)
            k = sol.roots.stiffness
            residual = sol.abatement.derivative() - delta * sol.abatement \
                + k * sol.net_emissions
            t = np.linspace(0.0, 1000.0, 4001)
            scale = max(1.0, float(np.abs(sol.abatement(t)).max()))
            assert float(np.abs(residual(t)).max()) <= 1e-8 * scale

    def test_integrability_bound_on_rates(self, config, scenario):
        for delta in config.deltas:
            sol = solve_optimal(delta, FIG_MODEL, scenario)
            assert max(sol.abatement.rates(), default=-math.inf) < 0.5 * delta

    def test_emissions_decay_to_zero(self, scenario):
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        t = np.arange(0.0, 2001.0)
        peak = float(sol.net_emissions(t).max())
        assert abs(sol.net_emissions(2000.0)) < 0.01 * peak

    def test_temperature_is_scaled_emissions(self, scenario):
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        for t in (0.0, 50.0, 300.0):
            assert sol.temperature(t) == pytest.approx(
                FIG_MODEL.ccr * sol.net_emissions(t), rel=1e-12)

    def test_stationarity_under_perturbations(self, scenario):
        # central differences are exact for a quadratic functional, so
        # the Gateaux derivative at the optimum is pure roundoff
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        rng = np.random.default_rng(53)
        eps = 1e-3
        for _ in range(5):
            h = ExpPoly((
                (float(rng.uniform(-1.0, 1.0)), int(rng.integers(0, 2)),
                 float(rng.uniform(-0.04, -0.005))),
                (float(rng.uniform(-1.0, 1.0)), 0,
                 float(rng.uniform(-0.04, -0.005))),
            ))
            j_hi = discounted_total_cost(sol.abatement + eps * h, FIG_ECON,
                                         FIG_MODEL, 0.05, scenario.baseline,
                                         scenario.e0)
            j_lo = discounted_total_cost(sol.abatement + (-eps) * h, FIG_ECON,
                                         FIG_MODEL, 0.05, scenario.baseline,
                                         scenario.e0)
            assert abs(j_hi - j_lo) / (2.0 * eps) <= 1e-6

    def test_exact_resonance_solves_at_the_requested_rate(self, scenario):
        # pick the response that puts the stable root exactly on the
        # baseline decay rate: k = theta^2 + delta*theta
        theta = -scenario.baseline.rates()[0]
        delta = 0.04
        k = theta * theta + delta * theta
        m = math.sqrt(k * scenario.econ.alpha / scenario.econ.beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_optimal(delta, ClimateModel("resonant", m), scenario)
        assert sol.roots == char_roots(delta, m, scenario.econ.alpha, scenario.econ.beta)
        assert sol.roots.lam_minus == pytest.approx(-theta, rel=1e-15)
        neighbors = sorted(solve_optimal(d, ClimateModel("resonant", m), scenario).j_star
                           for d in (0.035, 0.045))
        assert neighbors[0] < sol.j_star < neighbors[1]

    @pytest.mark.parametrize("delta, name", [(0.02, "IPSL"), (0.05, "GFDL"), (0.07, "HAD")])
    def test_reported_stable_root_is_the_path_stable_mode(self, config, scenario,
                                                          delta, name):
        # away from resonance E is the particular response plus the stable
        # mode (e0 - E_p(0)) e^{lam_minus t}: the reported root is the rate
        # of a term of the path itself, and no baseline rate
        sol = solve_optimal(delta, config.model(name), scenario)
        lam = sol.roots.lam_minus
        assert lam not in scenario.baseline.rates()
        (mode,) = [(c, n) for c, n, rate in sol.net_emissions.terms if rate == lam]
        particular = sum(c for c, n, rate in sol.net_emissions.terms if n == 0 and rate != lam)
        assert mode[1] == 0
        assert mode[0] == pytest.approx(scenario.e0 - particular, rel=1e-12)
        assert mode[0] != 0.0

    def test_near_resonant_costing_matches_quadrature(self, scenario):
        # gap ~ 1e-5: float path coefficients cancel, yet the cost engine
        # must still agree with adaptive quadrature of the float-built path
        from scipy.integrate import quad

        theta = -scenario.baseline.rates()[0]
        delta = 0.04
        k = (theta + 1e-5) ** 2 + delta * (theta + 1e-5)
        m = math.sqrt(k * scenario.econ.alpha / scenario.econ.beta)
        sol = solve_optimal(delta, ClimateModel("near", m), scenario)
        assert abs(sol.roots.lam_minus + theta) < 2e-5
        i_a, i_e = closed_loop_integrals([delta], [sol.roots.stiffness], [0.06], scenario)
        j = weighted_costs(i_a[0, 0], i_e[0, 0], 0.00244, scenario.econ.alpha,
                           scenario.econ.beta, scenario.e0)
        a, e = sol.abatement, sol.net_emissions
        alpha, beta = scenario.econ.alpha, scenario.econ.beta

        def integrand(t):
            return 0.5 * (alpha * a(t) ** 2 + beta * (0.00244 * e(t)) ** 2) \
                * math.exp(-0.06 * t)

        expected = sum(quad(integrand, lo, hi, limit=600)[0]
                       for lo, hi in [(0.0, 60.0), (60.0, 500.0), (500.0, 3000.0)])
        assert j == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("gap", [3e-3, 1e-3, 1e-4, 1e-5,
                                     5e-8, 1e-8, 1e-12, 0.0, -5e-8])
    def test_near_resonant_path_matches_high_precision(self, scenario, gap,
                                                       decimal_emissions):
        # the float path against an independent high-precision reference,
        # at rates across the configured range; gaps within RESONANCE_TOL,
        # exact collision included, take the series in the root gap
        theta = -scenario.baseline.rates()[0]
        times = np.arange(0.0, 1001.0, 5.0)
        for delta in (0.01, 0.02, 0.04, 0.07):
            k = (theta + gap) ** 2 + delta * (theta + gap)
            m = math.sqrt(k * scenario.econ.alpha / scenario.econ.beta)
            sol = solve_optimal(delta, ClimateModel("near", m), scenario)
            assert abs(sol.roots.lam_minus + theta) == pytest.approx(abs(gap), rel=1e-6,
                                                                     abs=1e-17)
            exact = decimal_emissions(scenario, delta, sol.roots.stiffness, times)
            error = np.abs(sol.net_emissions(times) - exact).max()
            assert error <= 1e-9 * np.abs(exact).max(), f"delta = {delta}"


class TestNoAbatement:
    def test_path_is_zero_and_stock_accumulates(self, scenario):
        sol = solve_optimal(0.05, ClimateModel("null", 0.0), scenario)
        assert sol.abatement.is_zero
        assert sol.net_emissions == net_cumulative_emissions(
            ExpPoly.zero(), scenario.baseline, scenario.e0)
        t = np.arange(0.0, 3001.0)
        emissions = sol.net_emissions(t)
        assert np.all(np.diff(emissions) >= -1e-12)
        assert emissions[0] == pytest.approx(scenario.e0)

    def test_closed_form_accumulation(self):
        emissions = net_cumulative_emissions(ExpPoly.zero(),
                                             ExpPoly.term(10.0, 0, -0.01), 0.0)
        for t in (1.0, 50.0, 400.0):
            assert emissions(t) == pytest.approx(
                1000.0 * (1.0 - math.exp(-0.01 * t)), rel=1e-12)

    def test_cost_computable_at_any_rate(self, scenario):
        costs = [
            discounted_total_cost(ExpPoly.zero(), scenario.econ, FIG_MODEL,
                                  d, scenario.baseline, scenario.e0)
            for d in (0.01, 0.05)
        ]
        assert costs[0] > costs[1] > 0


class TestNumericOracle:
    def test_matches_closed_form_cost(self, scenario):
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        oracle = numeric_oracle(0.05, FIG_MODEL, scenario)
        assert oracle.j_estimate == pytest.approx(sol.j_star, rel=5e-3)

    def test_matches_closed_form_path(self, scenario):
        sol = solve_optimal(0.05, FIG_MODEL, scenario)
        oracle = numeric_oracle(0.05, FIG_MODEL, scenario)
        mask = oracle.times <= 500.0
        exact = sol.abatement(oracle.times[mask])
        deviation = np.abs(oracle.abatement[mask] - exact).max()
        assert deviation < 0.01 * np.abs(exact).max()

    def test_zero_response_returns_zero_path(self, scenario):
        oracle = numeric_oracle(0.05, ClimateModel("null", 0.0), scenario)
        assert np.abs(oracle.abatement).max() < 1e-6

    def test_default_horizon_covers_slow_modes(self):
        # the slowest mode decays at -0.003, so the discounted integrand
        # of E^2 falls off only like e^{-0.011 t}: 1500 years cut it short
        baseline = ExpPoly(((1.0, 0, -0.003), (-1.0, 1, -0.003),
                            (0.0078, 2, -0.003)))
        scen = ScenarioConfig(baseline=baseline, e0=500.0,
                              econ=EconParams(alpha=1.25e-4, beta=0.018))
        model = ClimateModel("slow", 0.0005)
        sol = solve_optimal(0.005, model, scen)
        oracle = numeric_oracle(0.005, model, scen)
        assert oracle.times[-1] > 3000.0
        assert oracle.j_estimate == pytest.approx(sol.j_star, rel=1e-5)


class TestScenarioValidation:
    def test_negative_stock_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(baseline=ExpPoly.term(10.0, 0, -0.01), e0=-1.0,
                           econ=EconParams(1e-4, 0.018))

    @pytest.mark.parametrize("terms", [((10.0, 0, 0.01),), ((10.0, 0, 0.0),),
                                       ((10.0, 0, -0.01), (1.0, 0, 0.0))],
                             ids=["growing", "constant", "decaying-plus-constant"])
    def test_growing_baseline_rejected(self, terms):
        # every rate must be < 0: a rate of exactly 0 is refused too
        with pytest.raises(ValidationError):
            ScenarioConfig(baseline=ExpPoly(terms), e0=0.0,
                           econ=EconParams(1e-4, 0.018))

    def test_zero_baseline_accepted(self):
        scenario = ScenarioConfig(baseline=ExpPoly.zero(), e0=0.0,
                                  econ=EconParams(1e-4, 0.018))
        assert scenario.baseline.is_zero
