"""Property-based checks of the batched peak search against the scalar
search it replaced: a yearly scan, then bisection of each bracket one
midpoint at a time.  Paths are optimal paths of the bundled baseline
over drawn discount rates, every ensemble model and weights scaled
0.3-3x, plus the passive path and a path that only drains the stock."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mmrclimate.config import load_config  # noqa: E402
from mmrclimate.control import optimal_path  # noqa: E402
from mmrclimate.economy import EconParams, net_cumulative_emissions  # noqa: E402
from mmrclimate.errors import NoPeak  # noqa: E402
from mmrclimate.exppoly import ExpPoly  # noqa: E402
from mmrclimate.regret import Policy, peak_search, tmax  # noqa: E402

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
    """An abatement path: mostly optimal paths, sometimes the passive
    one (no peak) or one abating 1 GtC/yr more than the baseline (the
    stock only drains)."""
    kind = draw(st.sampled_from(["optimal"] * 8 + ["passive", "drain"]))
    if kind == "passive":
        return ExpPoly.zero()
    if kind == "drain":
        return SCENARIO.baseline + ExpPoly.constant(1.0)
    econ = EconParams(alpha=CONFIG.econ.alpha * draw(st.floats(0.3, 3.0)),
                      beta=CONFIG.econ.beta * draw(st.floats(0.3, 3.0)))
    return optimal_path(draw(st.floats(0.003, 0.12)),
                        draw(st.sampled_from(CONFIG.ensemble)),
                        replace(SCENARIO, econ=econ)).abatement


def reference_peak(path, root_tol):
    """(peak time or None, E) by the scalar search: a bracket opens where
    the yearly slope goes from > 0 to <= 0, and bisection halves it to a
    width <= root_tol, evaluating one midpoint at a time."""
    slope = SCENARIO.baseline - path
    emissions = net_cumulative_emissions(path, SCENARIO.baseline, SCENARIO.e0)
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
        return max(crossings, key=emissions), emissions
    return (None if np.any(values > 0) else 0.0), emissions


@PROPERTY
@given(path=paths(), root_tol=ROOT_TOLS)
def test_matches_scalar_bisection_to_the_bit(path, root_tol):
    want_time, want_emissions = reference_peak(path, root_tol)
    (peak,) = peak_search([path], SCENARIO, root_tol)
    assert peak.time == want_time
    assert peak.emissions == want_emissions
    policy = Policy(delta=0.05, model=CONFIG.ensemble[0], path=path)
    for model in CONFIG.ensemble:
        if want_time is None:
            with pytest.raises(NoPeak):
                tmax(policy, model, SCENARIO, root_tol)
        else:
            assert tmax(policy, model, SCENARIO, root_tol) == (
                want_time, float(model.ccr * want_emissions(want_time)))


def test_bisection_kept_where_noise_flips_the_sign():
    # near resonance (root gap 2.3e-5) the slope's terms cancel from
    # ~1e7, and within 1e-8 years of the peak its sign flips several
    # times; the first fall of the slope in a round is not bisection's
    econ = EconParams(alpha=CONFIG.econ.alpha * 2.8908595343797683,
                      beta=CONFIG.econ.beta * 2.4310862099073614)
    path = optimal_path(0.011008526799724472, CONFIG.model("GFDL"),
                        replace(SCENARIO, econ=econ)).abatement
    want_time, _ = reference_peak(path, 1e-9)
    assert peak_search([path], SCENARIO, 1e-9)[0].time == want_time


@PROPERTY
@given(batch=st.lists(paths(), min_size=1, max_size=5), root_tol=ROOT_TOLS)
def test_batch_equals_one_path_calls(batch, root_tol):
    assert peak_search(batch, SCENARIO, root_tol) == [
        peak_search([path], SCENARIO, root_tol)[0] for path in batch]


@PROPERTY
@given(path=paths(), root_tol=ROOT_TOLS)
def test_slope_changes_sign_across_the_final_bracket(path, root_tol):
    # dE/dt = 0 at the reported peak: the slope is > 0 at the low end of
    # the bracket whose midpoint is reported and <= 0 at its high end
    (peak,) = peak_search([path], SCENARIO, root_tol)
    if not peak.time:
        return
    width = 1.0
    while width > root_tol:
        width /= 2
    slope = SCENARIO.baseline - path
    assert slope(peak.time - width / 2) > 0 >= slope(peak.time + width / 2)
