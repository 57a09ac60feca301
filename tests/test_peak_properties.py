"""Property-based checks of the batched peak search against the scalar
search it replaced: a yearly scan of dE/dt, then bisection of each
bracket one midpoint at a time.  Paths E are optimal paths of the
bundled baseline over drawn discount rates, every ensemble model and
weights scaled 0.3-3x, plus the passive path and one that only drains
the stock.  Library ``tmax`` is held to the path ``solve_optimal`` gives
the pair, the one ``solve`` writes, and each peak time to the root of
the slope that the Lambert W function gives, a method the search shares
nothing with."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import lambertw

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmrclimate.config import load_config  # noqa: E402
from mmrclimate.control import _paths, _roots, _stiffness, solve_optimal  # noqa: E402
from mmrclimate.economy import ClimateModel, EconParams, net_cumulative_emissions  # noqa: E402
from mmrclimate.errors import NoPeak  # noqa: E402
from mmrclimate.exppoly import ExpPoly  # noqa: E402
from mmrclimate.regret import Policy, _halvings, _peaks, tmax  # noqa: E402

# deterministic draws, so the suite is reproducible and writes no example
# database into the checkout
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

CONFIG = load_config()
SCENARIO = CONFIG.to_scenario()
# 1e-4 takes 14 halvings, in rounds of 5, 5 and 4, and 2**-5 one full
# round, so full rounds are also checked before a partial one
ROOT_TOLS = st.sampled_from([1e-9, 1e-6, 1e-4, 2**-5, 0.3, 1.0, 5.0])


@st.composite
def paths(draw):
    """A path E: mostly optimal paths, sometimes the passive one (no
    peak) or E = e0 - t (the stock only drains)."""
    kind = draw(st.sampled_from(["optimal"] * 8 + ["passive", "drain"]))
    if kind == "passive":
        return net_cumulative_emissions(ExpPoly.zero(), SCENARIO.baseline, SCENARIO.e0)
    if kind == "drain":
        return ExpPoly(((SCENARIO.e0, 0, 0.0), (-1.0, 1, 0.0)))
    delta = draw(st.floats(0.003, 0.12))
    m = draw(st.sampled_from(CONFIG.ensemble)).ccr
    alpha = CONFIG.econ.alpha * draw(st.floats(0.3, 3.0))
    k = _stiffness(alpha, CONFIG.econ.beta * draw(st.floats(0.3, 3.0)), m)
    return _paths([delta], [k], SCENARIO)[0]


def reference_peak(emissions, root_tol):
    """Peak time or None by the scalar search: a bracket opens where the
    yearly slope dE/dt goes from > 0 to <= 0, and bisection halves it to
    a width <= root_tol, evaluating one midpoint at a time."""
    slope = emissions.derivative()
    grid = np.arange(0.0, 3001.0)
    values = slope(grid)
    sign = np.sign(values)
    crossings = []
    for i in np.flatnonzero((sign[:-1] > 0) & (sign[1:] <= 0)):
        lo, hi = grid[i], grid[i + 1]
        while hi - lo > root_tol:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    if crossings:
        return max(crossings, key=emissions)
    return None if np.any(values > 0) else 0.0


@PROPERTY
@given(path=paths(), root_tol=ROOT_TOLS)
def test_matches_scalar_bisection_to_the_bit(path, root_tol):
    want_time = reference_peak(path, root_tol)
    (peak,) = _peaks([path], root_tol)
    assert peak.time == want_time
    assert peak.emissions is path
    for model in CONFIG.ensemble:
        if want_time is None:
            with pytest.raises(NoPeak):
                peak.tmax(model, "drawn")
        else:
            assert peak.tmax(model, "drawn") == (
                want_time, float(model.ccr * path(want_time)))


def test_bisection_kept_where_noise_flips_the_sign():
    # near resonance (root gap 2.3e-5) the slope's terms cancel from
    # ~1e7, and within 1e-8 years of the peak its sign flips several
    # times; the first fall of the slope in a round is not bisection's
    econ = EconParams(alpha=CONFIG.econ.alpha * 2.8908595343797683,
                      beta=CONFIG.econ.beta * 2.4310862099073614)
    delta = 0.011008526799724472
    k = _stiffness(econ.alpha, econ.beta, CONFIG.model("GFDL").ccr)
    (path,) = _paths([delta], [k], SCENARIO)
    want_time = reference_peak(path, 1e-9)
    assert _peaks([path], 1e-9)[0].time == want_time


@PROPERTY
@given(batch=st.lists(paths(), min_size=1, max_size=5), root_tol=ROOT_TOLS)
def test_batch_equals_one_path_calls(batch, root_tol):
    assert _peaks(batch, root_tol) == [_peaks([path], root_tol)[0] for path in batch]


@PROPERTY
@given(path=paths(), root_tol=ROOT_TOLS)
def test_slope_changes_sign_across_the_final_bracket(path, root_tol):
    # dE/dt = 0 at the reported peak: the slope is > 0 at the low end of
    # the bracket whose midpoint is reported and <= 0 at its high end
    (peak,) = _peaks([path], root_tol)
    if not peak.time:
        return
    width = 1.0
    while width > root_tol:
        width /= 2
    slope = path.derivative()
    assert slope(peak.time - width / 2) > 0 >= slope(peak.time + width / 2)


def _resonant_ccr(delta, econ):
    """The response whose stable root sits exactly on the bundled
    baseline's one rate, mu: lam_minus = mu when k = mu^2 - delta mu."""
    (mu,) = SCENARIO.baseline.rates()
    return math.sqrt((mu * mu - delta * mu) * econ.alpha / econ.beta)


@PROPERTY
@given(delta=st.floats(0.005, 0.1), ccr=st.floats(0.0005, 0.004),
       scale=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
       e0=st.floats(0.0, 1500.0), root_tol=ROOT_TOLS)
@example(delta=0.005, ccr=_resonant_ccr(0.005, CONFIG.econ), scale=(1.0, 1.0),
         e0=SCENARIO.e0, root_tol=1e-6)
@example(delta=0.047, ccr=CONFIG.model("HAD").ccr, scale=(1.0, 1.0),
         e0=SCENARIO.e0, root_tol=1e-6)
def test_tmax_reads_the_path_solve_writes(delta, ccr, scale, e0, root_tol):
    # Tmax is the model's ccr times the pair's own optimal path E at the
    # peak time, to the bit, exact resonance included
    econ = EconParams(alpha=CONFIG.econ.alpha * scale[0],
                      beta=CONFIG.econ.beta * scale[1])
    scenario = replace(SCENARIO, econ=econ, e0=e0)
    policy = Policy(delta=delta, model=ClimateModel("drawn", ccr))
    path = solve_optimal(delta, policy.model, scenario).net_emissions
    for model in CONFIG.ensemble:
        years, degc = tmax(policy, model, scenario, root_tol)
        assert degc == float(model.ccr * path(years))


# the paper's nine (alpha, beta) cells and the model of each cell's
# Table 2 pair, all at delta = 0.02
TABLE2_MODELS = {(7.5e-05, 0.014): "IPSL", (7.5e-05, 0.018): "HAD", (7.5e-05, 0.022): "HAD",
                 (0.000125, 0.014): "MIROC", (0.000125, 0.018): "IPSL",
                 (0.000125, 0.022): "IPSL", (0.0002, 0.014): "MIROC",
                 (0.0002, 0.018): "MIROC", (0.0002, 0.022): "MIROC"}


def _table2_examples(test):
    for (alpha, beta), name in TABLE2_MODELS.items():
        test = example(delta=0.02, model=CONFIG.model(name), econ=EconParams(alpha, beta),
                       e0=SCENARIO.e0, root_tol=CONFIG.tolerances.root_tol)(test)
    return test


def lambert_roots(slope, lam_minus):
    """The real roots of a slope E' = e^{mu t}(a + b t) + c e^{lam_minus t}
    by the Lambert W function (Corless et al. 1996), each polished by
    Newton on a + b t + c e^{h t}, h = lam_minus - mu: with
    z = (h c / b) e^{-h a / b}, t = -a/b - W_k(z)/h for k in {0, -1}."""
    (mu,) = SCENARIO.baseline.rates()
    coeff = {(n, rate): c for c, n, rate in slope.terms}
    assert set(coeff) <= {(0, mu), (1, mu), (0, lam_minus)}
    a, b, c = coeff.get((0, mu), 0.0), coeff[(1, mu)], coeff.get((0, lam_minus), 0.0)
    h = lam_minus - mu
    z = h * c / b * math.exp(-h * a / b)
    roots = []
    for branch, real in ((0, z >= -1 / math.e), (-1, -1 / math.e <= z < 0)):
        if not real:
            continue
        t = -a / b - lambertw(z, branch).real / h
        for _ in range(8):
            t -= (a + b * t + c * math.exp(h * t)) / (b + c * h * math.exp(h * t))
        roots.append(t)
    return roots


@PROPERTY
@given(delta=st.floats(0.005, 0.1), model=st.sampled_from(CONFIG.ensemble),
       econ=st.builds(lambda fa, fb: EconParams(CONFIG.econ.alpha * fa, CONFIG.econ.beta * fb),
                      st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
       e0=st.floats(0.0, 1500.0), root_tol=ROOT_TOLS)
@_table2_examples
def test_peak_is_the_lambert_w_root(delta, model, econ, e0, root_tol):
    # an independent witness: the peak search reports a time exactly when
    # the slope has a descending root in (0, 3000), and that time is within
    # half the final bracket of it, plus the slope's rounding window
    scenario = replace(SCENARIO, econ=econ, e0=e0)
    k = _stiffness(econ.alpha, econ.beta, model.ccr)
    (path,) = _paths([delta], [k], scenario)
    slope = path.derivative()
    curvature = slope.derivative()
    descending = [t for t in lambert_roots(slope, float(_roots(delta, k)[1]))
                  if 0.0 < t < 3000.0 and curvature(t) < 0]
    (peak,) = _peaks([path], root_tol)
    assert (peak.time not in (0.0, None)) == bool(descending)
    if descending:
        (t_w,) = descending
        size = sum(abs(ExpPoly((term,))(t_w)) for term in slope.terms)
        window = 8 * np.finfo(float).eps * size / abs(curvature(t_w))
        assert abs(peak.time - t_w) <= 2.0 ** -(_halvings(root_tol) + 1) + window
