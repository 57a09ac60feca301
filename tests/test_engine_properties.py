"""Property-based checks of the closed-loop cost engine over the whole
parameter space: discount rates, responses, weights, initial stocks and
baselines with one or two decay rates, powers up to 2, or no baseline at
all.  Each cost is held against a method that shares no code with the
engine: the ExpPoly closed form on the solved path, exact rational
arithmetic, a Schur-based Lyapunov solve, or the brute-force oracle.
The solved paths themselves are held against a 120-digit reference, and
the batched paths a sweep searches against each pair's own path.  Every
entry point that takes a discount rate refuses the same bad ones, and the
vectorised MMR pick keeps the column-by-column tie-break."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from mmrclimate.config import load_config  # noqa: E402
from mmrclimate.control import (  # noqa: E402
    ScenarioConfig,
    _paths,
    _roots,
    _stiffness,
    char_roots,
    closed_loop_integrals,
    numeric_oracle,
    solve_optimal,
    weighted_costs,
)
from mmrclimate.economy import (  # noqa: E402
    ClimateModel,
    EconParams,
    discounted_total_cost,
    net_cumulative_emissions,
)
from mmrclimate.errors import InvalidDiscount, ValidationError  # noqa: E402
from mmrclimate.exppoly import ExpPoly  # noqa: E402
from mmrclimate.regret import (  # noqa: E402
    Policy,
    _picks,
    build_policy_set,
    build_states,
    mmr_select,
    regret_matrix,
    tmax,
)

# deterministic draws, so the suite is reproducible and writes no example
# database into the checkout
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

deltas = st.floats(0.005, 0.1)
responses = st.floats(0.0005, 0.004)
econs = st.builds(EconParams, alpha=st.floats(5e-5, 3e-4), beta=st.floats(0.005, 0.03))
stocks = st.floats(0.0, 1500.0)


@st.composite
def rate_group(draw):
    """c0 + c1 t + c2 t^2, all at one decay rate, highest power 0 to 2."""
    mu = -draw(st.floats(0.003, 0.08))
    top = draw(st.integers(0, 2))
    coeffs = [draw(st.floats(0.5, 10.0)), draw(st.floats(-1.0, 1.0)),
              draw(st.floats(-0.02, 0.02))]
    return tuple((coeffs[n], n, mu) for n in range(top + 1))


@st.composite
def baselines(draw, min_rates=0):
    groups = draw(st.lists(rate_group(), min_size=min_rates, max_size=2))
    rates = [g[0][2] for g in groups]
    assume(len(rates) < 2 or abs(rates[0] - rates[1]) > 1e-3)
    return ExpPoly(tuple(t for g in groups for t in g))


def root_gap(baseline, roots):
    return min((min(abs(mu - roots.lam_plus), abs(mu - roots.lam_minus))
                for mu in baseline.rates()), default=math.inf)


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks, delta=deltas, m=responses,
       delta_eval=deltas, m_eval=responses)
def test_engine_matches_exppoly_closed_form(baseline, econ, e0, delta, m,
                                            delta_eval, m_eval):
    # away from resonance the float ExpPoly path is accurate, so its
    # closed-form discounted integral is an independent reference
    assume(root_gap(baseline, char_roots(delta, m, econ.alpha, econ.beta)) > 1e-2)
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    model = ClimateModel("m", m)
    sol = solve_optimal(delta, model, scenario)
    assert max(sol.abatement.rates(), default=-math.inf) < 0.5 * delta
    i_a, i_e = closed_loop_integrals([delta], [sol.roots.stiffness], [delta_eval], scenario)
    for d, ccr, got in [
        (delta, m, sol.j_star),
        (delta_eval, m_eval,
         weighted_costs(i_a[0, 0], i_e[0, 0], m_eval, econ.alpha, econ.beta, e0)),
    ]:
        expected = discounted_total_cost(sol.abatement, econ, ClimateModel("x", ccr),
                                         d, baseline, e0)
        assert got == pytest.approx(expected, rel=1e-9, abs=0.0)


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks, delta=deltas, m=responses)
def test_path_matches_high_precision(decimal_emissions, baseline, econ, e0,
                                     delta, m):
    # away from resonance the float path carries no cancellation, so it
    # agrees with the 120-digit reference to a few rounding units
    assume(root_gap(baseline, char_roots(delta, m, econ.alpha, econ.beta)) > 1e-2)
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    sol = solve_optimal(delta, ClimateModel("m", m), scenario)
    times = np.arange(0.0, 1001.0, 5.0)
    exact = decimal_emissions(scenario, delta, sol.roots.stiffness, times)
    error = np.abs(sol.net_emissions(times) - exact).max()
    assert error <= 1e-12 * np.abs(exact).max()


def _exact_no_abatement_cost(baseline, e0, delta, beta, ccr):
    """beta ccr^2 / 2 times the discounted integral of E^2, E = e0 +
    cumulative baseline, in exact rational arithmetic."""
    terms = {(0, Fraction(0)): Fraction(e0)}
    for c, n, mu in baseline.terms:
        mu = Fraction(mu)
        q = [Fraction(0)] * (n + 1)
        q[n] = Fraction(c) / mu
        for j in range(n - 1, -1, -1):
            q[j] = -(j + 1) * q[j + 1] / mu
        for j, qj in enumerate(q):
            terms[(j, mu)] = terms.get((j, mu), 0) + qj
        terms[(0, Fraction(0))] -= q[0]
    d = Fraction(delta)
    total = sum(ca * cb * math.factorial(na + nb) / (d - ra - rb) ** (na + nb + 1)
                for (na, ra), ca in terms.items() for (nb, rb), cb in terms.items())
    return float(Fraction(beta) * Fraction(ccr) ** 2 / 2 * total)


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks, delta_eval=deltas,
       m_eval=responses)
def test_no_abatement_cost_is_exact(baseline, econ, e0, delta_eval, m_eval):
    assume(e0 > 0 or not baseline.is_zero)
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    i_a, i_e = closed_loop_integrals([1.0], [0.0], [delta_eval], scenario)
    got = weighted_costs(i_a[0, 0], i_e[0, 0], m_eval, econ.alpha, econ.beta, e0)
    expected = _exact_no_abatement_cost(baseline, e0, delta_eval, econ.beta, m_eval)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@PROPERTY
@given(baseline=baselines(), e0=stocks, delta=st.floats(1e-3, 10.0),
       delta_eval=deltas)
def test_zero_stiffness_is_no_abatement_at_any_rate(baseline, e0, delta, delta_eval):
    # k = 0 gives lam_minus = 0 and s = 0 whatever the loop's own rate, so
    # the loop never abates and its I_E is the delta = 1.0 loop's, bit for bit
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=EconParams(1e-4, 0.01))
    i_a, i_e = closed_loop_integrals([delta, 1.0], [0.0, 0.0], [delta_eval], scenario)
    assert i_a[0, 0] == 0.0
    assert i_e[0, 0].tobytes() == i_e[1, 0].tobytes()


def _schur_lyapunov_cost(baseline, e0, econ, loop, delta_eval, m_eval):
    """Cost of one closed loop from scipy's Schur-based Lyapunov solver,
    with the loop built here over the basis w = t^j e^{mu t}: B = c.w,
    dw/dt = G w, A = -lam_minus E + s.w with (G - lam_plus I)^T s =
    lam_minus c, and x = (E, w)."""
    basis = [(n, mu) for mu in baseline.rates() for n in range(
        max(n for _, n, rate in baseline.terms if rate == mu) + 1)]
    coeff = {(n, mu): c for c, n, mu in baseline.terms}
    size = len(basis) + 1
    g = np.zeros((size - 1, size - 1))
    for i, (n, mu) in enumerate(basis):
        g[i, i] = mu
        if n:
            g[i, basis.index((n - 1, mu))] = n
    c = np.array([coeff.get(b, 0.0) for b in basis])
    if loop is None:
        lam_minus, s = 0.0, np.zeros(size - 1)
    else:
        delta, k = loop
        root = math.sqrt(delta * delta + 4.0 * k)
        lam_minus = 0.5 * (delta - root)
        s = np.linalg.solve(g.T - 0.5 * (delta + root) * np.eye(size - 1), lam_minus * c)
    f = np.zeros((size, size))
    f[0, 0] = lam_minus
    f[0, 1:] = c - s
    f[1:, 1:] = g
    x0 = np.array([e0] + [float(n == 0) for n, _ in basis])
    y = solve_continuous_lyapunov(f - 0.5 * delta_eval * np.eye(size), -np.outer(x0, x0))
    q = np.concatenate(([-lam_minus], s))
    return 0.5 * econ.alpha * (q @ y @ q) + 0.5 * econ.beta * m_eval ** 2 * y[0, 0]


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks, delta=deltas, m=responses,
       gap=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]), pick=st.integers(0, 1),
       delta_eval=deltas, m_eval=responses)
def test_engine_matches_schur_lyapunov(baseline, econ, e0, delta, m, gap, pick,
                                       delta_eval, m_eval):
    # with a baseline, lam_minus sits at the drawn gap above one of its
    # rates, exact resonance included; lam^2 - delta lam - k = 0 gives k
    assume(e0 > 0 or not baseline.is_zero)
    rates = baseline.rates()
    if rates:
        lam = rates[pick % len(rates)] + gap
        k = lam * lam - delta * lam
    else:
        k = econ.beta * m * m / econ.alpha
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    # the loop, then no abatement (k = 0); the reference builds its own
    i_a, i_e = closed_loop_integrals([delta, 1.0], [k, 0.0], [delta_eval], scenario)
    got = weighted_costs(i_a[:, 0], i_e[:, 0], m_eval, econ.alpha, econ.beta, e0)
    for loop, cost in zip([(delta, k), None], got):
        expected = _schur_lyapunov_cost(baseline, e0, econ, loop, delta_eval, m_eval)
        assert cost == pytest.approx(expected, rel=1e-12, abs=0.0)


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks,
       rates=st.lists(deltas, min_size=1, max_size=3, unique=True),
       ccrs=st.lists(responses, min_size=1, max_size=2, unique=True))
def test_regret_diagonal_zero_and_nonnegative(baseline, econ, e0, rates, ccrs):
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    ensemble = [ClimateModel(f"m{i}", c) for i, c in enumerate(ccrs)]
    policies = build_policy_set(rates, ensemble, scenario)
    matrix = regret_matrix(policies, build_states(rates, ensemble), scenario)
    pairs = matrix.diagonal_indices()
    assert len(pairs) == len(rates) * len(ensemble)
    for i, j in pairs:
        assert matrix.values[i, j] == 0.0
    assert matrix.values.min() >= -1e-9


CONFIG = load_config()


def _choice(deltas, ensemble, scenario):
    """(MMR label, its max regret, {label: column max}), floats as hex."""
    matrix = regret_matrix(build_policy_set(deltas, ensemble, scenario),
                           build_states(deltas, ensemble), scenario)
    policy, value = mmr_select(matrix)
    return policy.label(), value.hex(), {
        p.label(): v.hex() for p, v in zip(matrix.policies, matrix.max_regret.tolist())}


@PROPERTY
@given(econ=econs, models=st.permutations(CONFIG.ensemble),
       rates=st.permutations(CONFIG.deltas))
def test_permuting_the_ensemble_keeps_the_choice(econ, models, rates):
    # each cost depends on its own (loop, rate) alone and the tie-break on
    # (delta, ccr), so the order of the ensemble cannot move a bit
    scenario = replace(CONFIG.to_scenario(), econ=econ)
    assert _choice(rates, models, scenario) == _choice(CONFIG.deltas,
                                                       CONFIG.ensemble, scenario)


@PROPERTY
@given(baseline=baselines(min_rates=1), econ=econs, e0=stocks, delta=deltas,
       pick=st.integers(0, 1))
def test_exact_resonance(baseline, econ, e0, delta, pick):
    # the response that puts lam_minus exactly on a baseline rate mu:
    # lam^2 - delta lam - k = 0 at lam = mu gives k = mu^2 - delta mu
    rates = baseline.rates()
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)

    def j_star(lam_minus):
        k = lam_minus * lam_minus - delta * lam_minus
        model = ClimateModel("r", math.sqrt(k * econ.alpha / econ.beta))
        sol = solve_optimal(delta, model, scenario)
        # every abatement rate is a baseline rate or lam_minus, so the path
        # stays integrable at the collision too
        assert max(sol.abatement.rates(), default=-math.inf) < 0.5 * delta
        return sol.j_star, model

    mu = rates[pick % len(rates)]
    j_exact, model = j_star(mu)
    j_lo, j_hi = sorted(j_star(mu + gap)[0] for gap in (-1e-7, 1e-7))
    assert j_lo <= j_exact <= j_hi
    # the oracle's default horizon covers the slowest decaying mode
    oracle = numeric_oracle(delta, model, scenario).j_estimate
    assert oracle == pytest.approx(j_exact, rel=5e-3)


@PROPERTY
@given(econ=econs, c=st.floats(1e-2, 1e2))
def test_joint_weight_scaling_scales_regret(econ, c):
    # every policy depends on beta / alpha alone and every cost is linear
    # in (alpha, beta) jointly, so scaling both scales the matrix by c
    scenario = replace(CONFIG.to_scenario(), econ=econ)
    scaled = replace(scenario, econ=EconParams(c * econ.alpha, c * econ.beta))
    base, moved = (regret_matrix(build_policy_set(CONFIG.deltas, CONFIG.ensemble, s),
                                 build_states(CONFIG.deltas, CONFIG.ensemble), s)
                   for s in (scenario, scaled))
    expected = c * base.values
    assert np.abs(moved.values - expected).max() <= 1e-12 * np.abs(expected).max()
    assert mmr_select(moved)[0].label() == mmr_select(base)[0].label()


# two rates, one of them with a power-2 term
TWO_RATES = ExpPoly(((4.6, 0, -0.0125), (0.9, 1, -0.0125), (-0.01, 2, -0.0125),
                     (2.0, 0, -0.05)))
# a loop: its kind, discount rate, response and which baseline rate a
# resonant loop sits on; a passive loop has response 0, so k = 0
loop_specs = st.lists(st.tuples(st.sampled_from(["drawn"] * 3 + ["resonant", "passive"]),
                                deltas, responses, st.integers(0, 1)),
                      min_size=1, max_size=6)


def _bits(poly):
    return [(c.hex(), n, mu.hex()) for c, n, mu in poly.terms]


@PROPERTY
@given(baseline=baselines(), econ=econs, e0=stocks, specs=loop_specs)
@example(baseline=TWO_RATES, econ=EconParams(1.25e-4, 0.018), e0=500.0,
         specs=[("resonant", 0.005, 0.002, 0), ("drawn", 0.02, 0.0024, 0),
                ("passive", 0.03, 0.002, 0), ("resonant", 0.04, 0.002, 1)])
def test_batched_paths_equal_each_solved_path(decimal_emissions, baseline, econ,
                                              e0, specs):
    # the path E a sweep searches is the pair's own optimal path to the
    # bit, exact collisions included, with no warning on any route; a
    # resonant loop's E holds the high-precision reference
    rates = baseline.rates()
    loops = []
    for kind, delta, m, pick in specs:
        if kind == "resonant" and rates:
            mu = rates[pick % len(rates)]
            m = math.sqrt((mu * mu - delta * mu) * econ.alpha / econ.beta)
        loops.append((delta, 0.0 if kind == "passive" else m))
    scenario = ScenarioConfig(baseline=baseline, e0=e0, econ=econ)
    delta = np.array([d for d, _ in loops])
    k = _stiffness(econ.alpha, econ.beta, np.array([m for _, m in loops]))
    times = np.arange(0.0, 1001.0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emissions = _paths(delta, k, scenario)
        for (kind, *_), (d, m), k_i, batched in zip(specs, loops, k.tolist(), emissions):
            path = solve_optimal(d, ClimateModel("m", m), scenario)
            assert _bits(batched) == _bits(path.net_emissions)
            if m == 0.0:
                assert batched == net_cumulative_emissions(ExpPoly.zero(), baseline, e0)
            elif kind == "resonant" and rates:
                exact = decimal_emissions(scenario, d, k_i, times)
                error = np.abs(batched(times) - exact).max()
                assert error <= 1e-9 * np.abs(exact).max()


def test_resonant_loop_is_nudged_alone():
    # lam_minus exactly on the power-2 rate -0.0125 at delta = 0.005: that
    # loop's E takes the series in the root gap, and the loops beside it,
    # passive and drawn, keep their E to the bit
    scenario = ScenarioConfig(baseline=TWO_RATES, e0=500.0, econ=EconParams(1.25e-4, 0.018))
    mu, delta = -0.0125, np.array([0.03, 0.005, 0.02])
    k = np.array([0.0, mu * mu - 0.005 * mu, 0.0007])
    emissions = _paths(delta, k, scenario)
    others = _paths(delta[[0, 2]], k[[0, 2]], scenario)
    assert [_bits(e) for e in others] == [_bits(emissions[0]), _bits(emissions[2])]
    # here lam_minus == mu, so the series is its n = 0 term alone, of
    # power 3 on the power-2 block
    _, lam_minus = _roots(delta, k)
    assert lam_minus[1] == mu
    assert max(n for _, n, rate in emissions[1].terms if rate == mu) == 3


def test_passive_loop_is_never_resonant():
    # theta = 1e-300 puts the bundled baseline's one rate within
    # RESONANCE_TOL of lam_minus = 0, the passive loop's stable root at any
    # rate; the loop is still the passive path, with no warning
    config = load_config()
    scenario = replace(config, baseline=replace(config.baseline, theta=1e-300)).to_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (emissions,) = _paths([1.0], [0.0], scenario)
    assert emissions == net_cumulative_emissions(ExpPoly.zero(), scenario.baseline,
                                                 scenario.e0)
    assert _roots(1.0, 0.0)[1] == 0.0


BAD_DELTAS = (st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
              | st.floats(max_value=0.0, exclude_max=True, allow_nan=False))


def _rate_routes(delta, model, scenario):
    """Every entry point that takes a discount rate, called at ``delta``:
    the raw roots, the solver, the peak search, a policy column of the
    regret matrix and the cost closed form."""
    econ = scenario.econ
    states = build_states([0.02, 0.05], [model])
    yield lambda: char_roots(delta, model.ccr, econ.alpha, econ.beta)
    yield lambda: solve_optimal(delta, model, scenario)
    yield lambda: tmax(Policy(delta, model), model, scenario)
    yield lambda: regret_matrix([Policy(delta, model), Policy.no_abatement()],
                                states, scenario)
    yield lambda: discounted_total_cost(ExpPoly.zero(), econ, model, delta,
                                        scenario.baseline, scenario.e0)


@PROPERTY
@given(delta=BAD_DELTAS, index=st.integers(0, 5))
def test_every_route_refuses_a_bad_rate_alike(delta, index):
    # one rule at every entry point: InvalidDiscount, naming the rate
    config = load_config()
    for route in _rate_routes(delta, config.ensemble[index], config.to_scenario()):
        with pytest.raises(InvalidDiscount) as err:
            route()
        assert repr(delta) in str(err.value)


@PROPERTY
@given(delta=st.floats(1e-4, 1.0), index=st.integers(0, 5))
def test_every_route_takes_a_good_rate(delta, index):
    config = load_config()
    for route in _rate_routes(delta, config.ensemble[index], config.to_scenario()):
        route()


def test_raw_roots_hold_the_weights_rule():
    # char_roots checks raw weights by EconParams' rule: beta = 0 is refused
    with pytest.raises(ValidationError, match="alpha and beta must be positive"):
        char_roots(0.04, 0.002, 1.25e-4, 0.0)


@st.composite
def tied_columns(draw):
    """Policies over a few (delta, ccr) pairs, each repeated under other
    names, rates at and past no abatement's 1.0, and no abatement at any
    column; and rows of max regrets from three values, so ties abound."""
    pairs = draw(st.lists(st.tuples(st.sampled_from([0.01, 0.02, 1.0, 2.5]),
                                    st.sampled_from([0.0015, 0.002, 0.0025])),
                          min_size=1, max_size=4))
    which = draw(st.lists(st.integers(-1, len(pairs) - 1), min_size=1, max_size=8))
    policies = [Policy.no_abatement() if i < 0 else
                Policy(pairs[i][0], ClimateModel(f"M{j}", pairs[i][1]))
                for j, i in enumerate(which)]
    rows = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(which),
                                  max_size=len(which)), min_size=1, max_size=5))
    return policies, np.array(rows)


@PROPERTY
@given(columns=tied_columns())
def test_picks_keep_the_column_by_column_tie_break(columns):
    # least max regret, then lower delta, then lower ccr, no abatement
    # last, then the first column: one Python min per row
    policies, max_regret = columns

    def key(row, j):
        p = policies[j]
        pair = (math.inf, math.inf) if p.is_no_abatement else (p.delta, p.model.ccr)
        return row[j], pair, j

    want = [min(range(len(policies)), key=lambda j: key(row, j)) for row in max_regret]
    assert _picks(policies, max_regret).tolist() == want
    assert _picks(policies, max_regret[:, None]).tolist() == [[j] for j in want]
