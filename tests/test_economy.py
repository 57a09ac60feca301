"""Cost, damage, and the discounted total cost."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mmrclimate.config import load_config
from mmrclimate.control import solve_optimal
from mmrclimate.economy import (
    ClimateModel,
    EconParams,
    discounted_total_cost,
    net_cumulative_emissions,
)
from mmrclimate.errors import DivergentIntegral, InvalidDiscount
from mmrclimate.exppoly import ExpPoly


class TestQuadraticForms:
    """alpha/2 A^2 and beta/2 T^2, read off discounted_total_cost on
    constant paths at delta = 1, where the discounted integral of a
    constant is the constant itself."""

    def cost(self, alpha, abatement):
        # no climate response, so only the abatement term is left
        return discounted_total_cost(ExpPoly.constant(abatement),
                                     EconParams(alpha, 0.018),
                                     ClimateModel("none", 0.0), 1.0,
                                     ExpPoly.zero(), 0.0)

    def damage(self, beta, temp_increase, ccr=0.002):
        # with no abatement and no baseline the stock, and so T, stays put
        return discounted_total_cost(ExpPoly.zero(), EconParams(0.000125, beta),
                                     ClimateModel("X", ccr), 1.0,
                                     ExpPoly.zero(), temp_increase / ccr)

    def test_cost_at_zero(self):
        assert self.cost(0.000125, 0.0) == 0.0

    def test_cost_arithmetic(self):
        assert self.cost(0.000125, 20.0) == pytest.approx(0.025)

    def test_cost_homogeneity(self):
        assert self.cost(0.000125, 40.0) == \
            pytest.approx(4.0 * self.cost(0.000125, 20.0))

    def test_damage_at_zero(self):
        assert self.damage(0.018, 0.0) == 0.0

    def test_damage_arithmetic(self):
        assert self.damage(0.018, 2.0) == pytest.approx(0.036)

    def test_damage_high_warming(self):
        assert self.damage(0.014, 14.7) == pytest.approx(0.5 * 0.014 * 14.7**2)


def simple_path(coeff=5.0, rate=-0.03):
    return ExpPoly.term(coeff, 0, rate)


class TestDiscountedTotalCost:
    baseline = ExpPoly.term(10.0, 0, -0.01)
    model = ClimateModel("X", 0.002)

    def j(self, abatement, alpha=0.000125, beta=0.018, delta=0.05, ccr=0.002, e0=400.0):
        return discounted_total_cost(abatement, EconParams(alpha, beta),
                                     ClimateModel("X", ccr), delta,
                                     self.baseline, e0)

    def test_rejects_nonpositive_discount(self):
        with pytest.raises(InvalidDiscount, match="transversality"):
            self.j(simple_path(), delta=0.0)

    def test_divergent_path(self):
        grower = ExpPoly.term(1.0, 0, 0.03)   # squared rate 0.06 > delta
        with pytest.raises(DivergentIntegral):
            self.j(grower, delta=0.05)

    def test_monotone_in_beta_and_ccr(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = simple_path(float(rng.uniform(0.0, 8.0)),
                            float(rng.uniform(-0.05, -0.01)))
            betas = sorted(rng.uniform(0.005, 0.04, size=3))
            js = [self.j(a, beta=b) for b in betas]
            assert js[0] <= js[1] <= js[2]
            ccrs = sorted(rng.uniform(0.001, 0.004, size=3))
            js = [self.j(a, ccr=c) for c in ccrs]
            assert js[0] <= js[1] <= js[2]

    def test_joint_scaling(self):
        a = simple_path()
        base = self.j(a)
        for c in (0.5, 2.0, 13.0):
            assert self.j(a, alpha=0.000125 * c, beta=0.018 * c) == \
                pytest.approx(c * base, rel=1e-14)

    def test_against_quadrature(self):
        a = simple_path(4.0, -0.04)
        e = net_cumulative_emissions(a, self.baseline, 400.0)
        delta, alpha, beta, ccr = 0.04, 0.000125, 0.018, 0.002

        def integrand(t):
            return 0.5 * (alpha * a(t) ** 2 + beta * (ccr * e(t)) ** 2) \
                * math.exp(-delta * t)

        expected = sum(
            quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-10)[0]
            for lo, hi in [(0.0, 100.0), (100.0, 3000.0)]
        )
        assert self.j(a, delta=delta) == pytest.approx(expected, rel=1e-6)

    def test_path_near_a_collision_exceeds_the_power_cap(self):
        # lam_minus 5e-8 above the bundled baseline's rate: the path takes
        # the series in the root gap, and its square exceeds the cap
        scenario = load_config().to_scenario()
        (mu,) = scenario.baseline.rates()
        delta, lam_minus = 0.04, mu + 5e-8
        k = lam_minus * lam_minus - delta * lam_minus
        econ = scenario.econ
        model = ClimateModel("near", math.sqrt(k * econ.alpha / econ.beta))
        sol = solve_optimal(delta, model, scenario)
        with pytest.raises(ValueError, match=r"^power 5 exceeds cap 4; products "
                                             r"of paths near a collision"):
            discounted_total_cost(sol.abatement, econ, model, delta,
                                  scenario.baseline, scenario.e0)


class TestNetCumulativeEmissions:
    def test_starts_at_initial_stock(self):
        e = net_cumulative_emissions(ExpPoly.zero(), ExpPoly.term(10.0, 0, -0.01), 123.0)
        assert e(0.0) == pytest.approx(123.0)

    def test_no_abatement_closed_form(self):
        e = net_cumulative_emissions(ExpPoly.zero(), ExpPoly.term(10.0, 0, -0.01), 0.0)
        for t in (0.0, 10.0, 100.0, 700.0):
            assert e(t) == pytest.approx(1000.0 * (1.0 - math.exp(-0.01 * t)),
                                         rel=1e-12, abs=1e-9)

    def test_abatement_reduces_stock(self):
        baseline = ExpPoly.term(10.0, 0, -0.01)
        some = net_cumulative_emissions(ExpPoly.term(2.0, 0, -0.01), baseline, 50.0)
        none = net_cumulative_emissions(ExpPoly.zero(), baseline, 50.0)
        assert some(200.0) < none(200.0)
