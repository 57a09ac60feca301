"""Exponential-polynomial algebra: pointwise identities, closed-form
discounted integrals against numerical quadrature, calculus round trips,
and the stacked evaluator held to ``ExpPoly.__call__`` bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from mmrclimate.exppoly import ExpPoly, MAX_POWER, _stacked
from mmrclimate.errors import DivergentIntegral, InvalidDiscount


def ep(*terms):
    return ExpPoly(tuple(terms))


def random_exppoly(rng, max_terms=4, max_power=2):
    n_terms = rng.integers(1, max_terms + 1)
    terms = []
    for _ in range(n_terms):
        coeff = float(rng.uniform(-5.0, 5.0))
        power = int(rng.integers(0, max_power + 1))
        rate = float(rng.uniform(-0.2, -0.005))
        terms.append((coeff, power, rate))
    return ExpPoly(tuple(terms))


def quad_discounted(f, delta, horizon=3000.0):
    """Independent oracle: adaptive quadrature of f(t) e^{-delta t}."""
    total = 0.0
    for a, b in [(0.0, 50.0), (50.0, 400.0), (400.0, horizon)]:
        val, _ = quad(lambda t: f(t) * math.exp(-delta * t), a, b,
                      limit=400, epsabs=1e-13, epsrel=1e-12)
        total += val
    return total


class TestAdd:
    def test_identity(self):
        f = ExpPoly.zero()
        g = ep((1.0, 0, -0.01))
        assert (f + g).terms == g.terms

    def test_cancellation_gives_empty_term_list(self):
        f = ep((2.0, 0, -0.01))
        g = ep((-2.0, 0, -0.01))
        assert (f + g).is_zero

    def test_like_terms_merge(self):
        f = ep((1.0, 1, -0.02))
        assert (f + f).terms == ep((2.0, 1, -0.02)).terms

    def test_eval_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_exppoly(rng)
            g = random_exppoly(rng)
            for t in (0.0, 1.0, 13.7, 250.0):
                assert (f + g)(t) == pytest.approx(f(t) + g(t), rel=1e-12, abs=1e-12)


class TestMul:
    def test_exponent_addition(self):
        f = ep((1.0, 0, -0.03))
        g = ep((1.0, 0, -0.04))
        assert (f * g).terms == ep((1.0, 0, -0.07)).terms

    def test_squaring(self):
        f = ep((1.0, 1, -0.05))
        assert (f * f).terms == ep((1.0, 2, -0.1)).terms

    def test_polynomial_product(self):
        one_plus_t = ep((1.0, 0, 0.0), (1.0, 1, 0.0))
        one_minus_t = ep((1.0, 0, 0.0), (-1.0, 1, 0.0))
        expected = ep((1.0, 0, 0.0), (-1.0, 2, 0.0))
        assert (one_plus_t * one_minus_t).terms == expected.terms

    def test_commutative_and_distributive(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = random_exppoly(rng)
            g = random_exppoly(rng)
            h = random_exppoly(rng)
            assert (f * g).terms == (g * f).terms
            lhs = f * (g + h)
            rhs = f * g + f * h
            for t in (0.0, 3.0, 40.0, 700.0):
                assert lhs(t) == pytest.approx(rhs(t), rel=1e-10, abs=1e-12)

    def test_scalar_multiplication(self):
        f = ep((2.0, 1, -0.1))
        assert (3.0 * f).terms == ep((6.0, 1, -0.1)).terms
        assert (f * 0.5).terms == ep((1.0, 1, -0.1)).terms


class TestEval:
    def test_unit_exponential_at_zero(self):
        assert ep((1.0, 0, -0.01))(0.0) == 1.0

    def test_pure_linear(self):
        assert ep((1.0, 1, 0.0))(7.0) == 7.0

    def test_direct_arithmetic(self):
        f = ep((2.0, 2, -0.1))
        assert f(10.0) == pytest.approx(200.0 * math.exp(-1.0), rel=1e-14)

    def test_vectorized(self):
        f = ep((1.0, 1, -0.02))
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(f(t), [f(0.0), f(1.0), f(2.0)], rtol=1e-14)


# deterministic draws, so the suite is reproducible and writes no example
# database into the checkout
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)
# |rate| * 3000 stays below exp's overflow, so every value is finite
terms = st.tuples(st.floats(-1e3, 1e3), st.integers(0, MAX_POWER),
                  st.one_of(st.just(0.0), st.floats(-0.2, 0.2)))
exppolys = st.lists(terms, max_size=6).map(lambda ts: ExpPoly(tuple(ts)))
times = st.one_of(st.sampled_from([0.0, 3000.0]), st.floats(0.0, 3000.0))


@st.composite
def batches(draw):
    """Paths of unequal term counts, the zero ExpPoly among them, and a
    row of points for each."""
    polys = draw(st.lists(exppolys, min_size=1, max_size=6))
    width = draw(st.integers(1, 8))
    rows = st.lists(times, min_size=width, max_size=width)
    return polys, np.array(draw(st.lists(rows, min_size=len(polys), max_size=len(polys))))


@PROPERTY
@given(batch=batches())
@example(batch=([ExpPoly.zero(), ep((2.0, MAX_POWER, -0.01), (1.0, 0, 0.0))],
                np.array([[0.0, 1.5, 3000.0], [0.0, 1.5, 3000.0]])))
@example(batch=([ExpPoly.zero()], np.array([[0.0, 7.0]])))
def test_stacked_rows_are_call_to_the_bit(batch):
    # the peak search refines its brackets through _stacked and reports E
    # through __call__: one arithmetic, so one set of bits
    polys, t = batch
    values = _stacked(polys)(t)
    assert values.shape == t.shape
    for row, poly, points in zip(values, polys, t):
        assert row.tobytes() == poly(points).tobytes()


class TestDiscountedIntegral:
    def test_constant(self):
        assert ExpPoly.term(1.0).discounted_integral(0.05) == pytest.approx(20.0)

    def test_linear_times_exponential(self):
        f = ep((1.0, 1, -0.02))
        # n! / (delta - mu)^(n+1) = 1 / 0.05^2
        assert f.discounted_integral(0.03) == pytest.approx(400.0, rel=1e-14)

    def test_divergent(self):
        f = ep((1.0, 0, 0.06))
        with pytest.raises(DivergentIntegral):
            f.discounted_integral(0.05)

    def test_divergent_at_equal_rate(self):
        f = ep((1.0, 0, 0.05))
        with pytest.raises(DivergentIntegral):
            f.discounted_integral(0.05)

    def test_zero_function_integrates_to_zero(self):
        assert ExpPoly.zero().discounted_integral(0.05) == 0.0

    @pytest.mark.parametrize("f", [ExpPoly.zero(), ExpPoly.term(1.0),
                                   ep((2.0, 1, -0.02), (1.0, 0, -0.5))])
    def test_nan_rate_refused(self, f):
        # a nan rate passes no divergence test; it is refused by name, even
        # with no term to integrate
        with pytest.raises(InvalidDiscount, match="nan"):
            f.discounted_integral(math.nan)

    def test_zero_and_infinite_rates_keep_their_results(self):
        f = ep((2.0, 1, -0.02), (1.0, 0, -0.5))
        # delta = 0 is the plain cumulative total; delta = inf weighs nothing
        assert f.discounted_integral(0.0) == 2.0 / 0.02**2 + 1.0 / 0.5
        assert f.discounted_integral(math.inf) == 0.0
        assert ExpPoly.zero().discounted_integral(0.0) == 0.0

    def test_against_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            f = random_exppoly(rng)
            delta = float(rng.uniform(0.01, 0.1))
            exact = f.discounted_integral(delta)
            approx = quad_discounted(f, delta)
            assert exact == pytest.approx(approx, rel=1e-8, abs=1e-10)


class TestCalculus:
    def test_derivative_product_rule_term(self):
        f = ep((1.0, 1, -0.1))
        d = f.derivative()
        for t in (0.0, 2.0, 30.0):
            expected = math.exp(-0.1 * t) * (1.0 - 0.1 * t)
            assert d(t) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_cumulative_starts_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_exppoly(rng)
            assert f.cumulative()(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_cumulative_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_exppoly(rng)
            cum = f.cumulative()
            for upper in (1.0, 25.0, 300.0):
                val, _ = quad(f, 0.0, upper, limit=300, epsabs=1e-12, epsrel=1e-11)
                assert cum(upper) == pytest.approx(val, rel=1e-9, abs=1e-9)

    def test_derivative_inverts_cumulative(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = random_exppoly(rng)
            g = f.cumulative().derivative()
            for t in (0.0, 4.0, 90.0):
                assert g(t) == pytest.approx(f(t), rel=1e-10, abs=1e-12)

    def test_pure_polynomial_cumulative(self):
        f = ep((1.0, 1, 0.0))
        assert f.cumulative()(4.0) == pytest.approx(8.0)


class TestCanonicalForm:
    def test_no_duplicate_keys_and_no_zeros(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_exppoly(rng) * random_exppoly(rng)
            keys = [(n, mu) for _, n, mu in f.terms]
            assert len(keys) == len(set(keys))
            assert all(c != 0.0 for c, _, _ in f.terms)

    def test_power_cap(self):
        with pytest.raises(ValueError):
            ExpPoly(((1.0, MAX_POWER + 1, 0.0),))

    @pytest.mark.parametrize("term", [(1.0, -1, 0.0), (math.nan, 0, 0.0),
                                      (math.inf, 0, 0.0), (1.0, 0, math.nan),
                                      (1.0, 0, -math.inf)],
                             ids=["negative-power", "nan-coefficient", "inf-coefficient",
                                  "nan-rate", "inf-rate"])
    def test_bad_term_rejected(self, term):
        with pytest.raises(ValueError):
            ExpPoly((term,))

    def test_power_cap_via_mul(self):
        f = ep((1.0, 2, -0.1))
        g = f * f  # power 4: allowed
        assert g.terms == ((1.0, 4, -0.2),)
        with pytest.raises(ValueError):
            _ = g * f

    def test_rates_compared_exactly(self):
        f = ep((1.0, 0, -0.1), (1.0, 0, -0.1 + 1e-13))
        assert len(f.terms) == 2
        assert -0.1 in f.rates()
        assert -0.2 not in f.rates()

    def test_repr_lists_terms_in_canonical_order(self):
        assert repr(ExpPoly.zero()) == "ExpPoly(0)"
        assert repr(ExpPoly(((0.5, 1, -0.02), (3.0, 0, -0.02)))) == \
            "ExpPoly(3*t^0*e^(-0.02t) + 0.5*t^1*e^(-0.02t))"


class TestLimit:
    def test_decaying_plus_constant(self):
        f = ep((5.0, 0, 0.0), (3.0, 1, -0.02))
        assert f.limit_at_infinity() == pytest.approx(5.0)

    def test_growing_rejected(self):
        with pytest.raises(ValueError):
            ep((1.0, 0, 0.01)).limit_at_infinity()
        with pytest.raises(ValueError):
            ep((1.0, 1, 0.0)).limit_at_infinity()
