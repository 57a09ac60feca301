"""Regret accounting over the {discount rate, climate model} ensemble.

A *state of the world* is one {delta, model} pair; the candidate
policies are the optimal policy for every pair plus the passive
no-abatement benchmark.  Both are :class:`Policy` values, a policy
being the pair it is optimal for and nothing more, so a state equals its
own optimal policy: that is the zero regret diagonal.  Costs and peaks
need nothing else: :func:`_pair` gives the (delta, m) of every policy,
no abatement included, and every peak is :func:`_peaks` over the path
E that ``control._paths`` builds for the pair's loop under the
scenario, the path ``solve`` writes.  The regret of a policy in a state
is the cost of following that policy when the state turns out to be
true, minus the cost of the state's own optimal policy.  The
minimax-regret choice is the policy whose worst-case regret is least.

Matrix orientation follows the published layout: rows are actual states,
columns are policies, both enumerated model-major with the discount rate
cycling fastest and no abatement as the last column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .control import (
    OptimalSolution,
    ScenarioConfig,
    _path,
    _paths,
    _stiffness,
    closed_loop_integrals,
    weighted_costs,
)
from .economy import ClimateModel, EconParams, _check_discount
from .errors import MmrClimateError, NoPeak, ValidationError
from .exppoly import _stacked

NONNEG_TOL = 1e-9
_PEAK_HORIZON = 3000.0   # years scanned for the emissions peak
ROOT_TOL = 1e-6          # default bracket width of the peak search, years
_REFINE_BITS = 5         # halvings per refinement round of the peak search


@dataclass(frozen=True)
class Policy:
    """A {delta, model} pair: a state of the world, or the policy optimal
    for it; the no-abatement benchmark has both None.  The pair is the
    whole policy: costs and peaks are those of the optimal feedback for
    the pair under the weights of the scenario they are asked under."""

    delta: float | None
    model: ClimateModel | None

    @property
    def is_no_abatement(self) -> bool:
        return self.delta is None

    def label(self) -> str:
        if self.is_no_abatement:
            return "no-abatement"
        return f"d={self.delta:g}/{self.model.name}"

    @staticmethod
    def from_solution(sol: OptimalSolution) -> "Policy":
        return Policy(delta=sol.delta, model=sol.model)

    @staticmethod
    def no_abatement() -> "Policy":
        return Policy(delta=None, model=None)


class Peak(NamedTuple):
    """Where a path's net cumulative emissions E(t) peak, as numbers:
    ``time`` in years, 0.0 when the stock only drains, or None when E
    never stops rising; ``emissions`` is E at ``time`` in GtC or, without
    a peak, E's limit as t -> inf (None when E has none)."""

    time: float | None
    emissions: float | None

    def tmax(self, model: ClimateModel, label: str):
        """(years to peak, peak degC) if ``model`` is the true model.  No
        peak raises NoPeak, naming the policy ``label`` and carrying the
        asymptotic temperature when it is finite."""
        if self.time is None:
            raise NoPeak(
                f"net cumulative emissions are nondecreasing under {label}; "
                "the supremum is at the horizon",
                asymptote_degc=None if self.emissions is None else model.ccr * self.emissions,
            )
        return float(self.time), float(model.ccr * self.emissions)


def _check_ensemble(deltas, ensemble):
    if not deltas or not ensemble:
        raise ValidationError("need at least one discount rate and one model")
    for delta in deltas:
        _check_discount(delta, "deltas")
    if len(set(deltas)) != len(deltas):
        raise ValidationError("deltas must be distinct")
    ccrs = [m.ccr for m in ensemble]
    if len(set(ccrs)) != len(ccrs):
        raise ValidationError("duplicate climate response in ensemble")


def build_states(deltas, ensemble) -> list:
    """All {delta, model} pairs as :class:`Policy` values, model-major,
    delta cycling fastest.  Each is a state of the world and also the
    provenance of that state's optimal policy."""
    _check_ensemble(deltas, ensemble)
    return [Policy(delta=d, model=m) for m in ensemble for d in deltas]


def build_policy_set(deltas, ensemble, scenario: ScenarioConfig) -> list:
    """The states of :func:`build_states`, in the same order, plus no
    abatement last.

    The policies carry provenance only and nothing is solved, so the set
    does not depend on ``scenario``; the same set serves every (alpha,
    beta) cell.
    """
    return build_states(deltas, ensemble) + [Policy.no_abatement()]


@dataclass(frozen=True)
class RegretMatrix:
    """One weighting of :func:`_regrets`.  Rows: actual states.  Columns:
    policies.  Values are regrets in percent of the present value of
    output.  :func:`regret_matrix` makes ``values`` and ``j_opt``
    read-only, since :attr:`max_regret` and :attr:`mmr_index` are
    computed once per matrix and kept."""

    states: tuple
    policies: tuple
    values: np.ndarray     # shape (n_states, n_policies)
    j_opt: np.ndarray      # optimal cost per state, same row order

    def __post_init__(self):
        if self.values.shape != (len(self.states), len(self.policies)):
            raise ValidationError("matrix shape does not match labels")

    @cached_property
    def max_regret(self) -> np.ndarray:
        """Worst-case regret of each policy (column maxima), read-only."""
        out = self.values.max(axis=0)
        out.flags.writeable = False
        return out

    @cached_property
    def mmr_index(self) -> int:
        """Column of the least worst-case regret, ties broken by :func:`_picks`."""
        return int(_picks(self.policies, self.max_regret))

    def diagonal_indices(self):
        """(row, col) pairs where the policy provenance equals the state."""
        return [(i, j) for i, state in enumerate(self.states)
                for j, policy in enumerate(self.policies) if policy == state]


def regret_matrix(policies, states, scenario: ScenarioConfig) -> RegretMatrix:
    """Evaluate every policy in every state: the one-weighting case of
    :func:`_regrets`, under the scenario's own weights."""
    values, j_opt = (a[0] for a in _regrets(policies, states, scenario, [scenario.econ]))
    values.flags.writeable = j_opt.flags.writeable = False
    return RegretMatrix(tuple(states), tuple(policies), values, j_opt)


def _regrets(policies, states, scenario: ScenarioConfig, weights):
    """The regrets of every policy in every state under each weighting of
    ``weights``, a list of :class:`EconParams`, with the baseline and e0
    of ``scenario``: a (weighting, state, policy) array, and each state's
    optimal cost, a (weighting, state) array.

    Each distinct (delta, m) of :func:`_pair` is a closed loop under each
    weighting, of stiffness k = beta m^2 / alpha; a state shares its pair
    with the policy optimal for it, and no abatement is the k = 0 loop.
    One :func:`closed_loop_integrals` call integrates every (weighting,
    pair) loop at every distinct state discount rate, and one
    :func:`weighted_costs` call weighs every (weighting, state, policy)
    cell and each state's own loop, so wherever that loop is also a
    column the regret is exactly zero.  Each entry depends on its own
    (loop, rate) pair alone, so a weighting's regrets are the same to the
    last bit whichever weightings share the call.  Empty states or
    policies, no abatement as a state, and a negative regret raise
    ValidationError."""
    if not policies:
        raise ValidationError("policies must be nonempty")
    if not states or any(state.is_no_abatement for state in states):
        raise ValidationError("states must be nonempty {delta, model} pairs, not no abatement")
    index = {}   # the loop of each distinct (delta, m), policies first
    loop = [index.setdefault(pair, len(index)) for pair in map(_pair, [*policies, *states])]
    delta, m = np.array(list(index), dtype=float).T
    # alpha and beta over (weighting, 1, 1); _roots refuses an infinite k
    alpha, beta = np.array([[w.alpha, w.beta] for w in weights]).T[..., None, None]
    k = _stiffness(alpha[:, 0], beta[:, 0], m)
    rates, rows = np.unique(delta[loop[len(policies):]], return_inverse=True)
    # per state, the loop of each policy and then its own, whose m is its ccr
    at = np.column_stack((np.broadcast_to(loop[:len(policies)], (len(states), len(policies))),
                          loop[len(policies):]))
    i_a, i_e = (i.reshape(*k.shape, len(rates))[:, at, rows[:, None]]
                for i in closed_loop_integrals(np.broadcast_to(delta, k.shape).ravel(),
                                               k.ravel(), rates, scenario))
    costs = weighted_costs(i_a, i_e, m[at[:, -1:]], alpha, beta, scenario.e0)
    values = costs[..., :-1] - costs[..., -1:]
    if values.min() < -NONNEG_TOL:
        raise ValidationError(
            f"negative regret {values.min():.3e}; optimal costs are not actually optimal")
    # a copied j_opt holds no view of ``costs``, which is freed on return
    return values, costs[..., -1].copy()


def _picks(policies, max_regret):
    """Column of the least worst-case regret along the last axis of
    ``max_regret``, over any leading axes.  Ties go to the lower discount
    rate, then the lower climate response, with no abatement last, then to
    the first column: a stable sort of the columns by (delta, ccr)."""
    delta, ccr = np.array([(math.inf, math.inf) if p.is_no_abatement
                           else (p.delta, p.model.ccr) for p in policies]).T
    order = np.lexsort((ccr, delta))
    return order[np.argmin(max_regret[..., order], axis=-1)]


def mmr_select(matrix: RegretMatrix):
    """Policy minimizing the worst-case regret, and that regret; ties
    are broken as in :attr:`RegretMatrix.mmr_index`."""
    idx = matrix.mmr_index
    return matrix.policies[idx], float(matrix.max_regret[idx])


def _peaks(emissions, root_tol: float) -> list:
    """The peak of each path E of net cumulative emissions, an ExpPoly:
    one :class:`Peak` per path, holding E at the peak, or E's limit (None
    when E has none) for a path that never peaks.

    A peak is a root of the slope dE/dt where it goes from > 0 to <= 0:
    the turning point of E, Table 3's "years to peak", not the maximum
    of E over t >= 0, which can be E(0) where the stock first drains.
    Every slope is scanned on a yearly grid over 3000 years, and
    a bracket opens where one year's value is > 0 and the next is <= 0
    (a nan opens none).  Every bracket of every slope is then refined
    together, in dyadic rounds, to a width <= ``root_tol``, which must be
    positive and finite.  A round splits each bracket into 2**5 equal
    steps, evaluates every interior point of every bracket in one array
    expression, then bisects each bracket over those values.  The rounds
    make bisection's number of halvings, so the final bracket is
    bisection's, even where rounding noise makes the slope change sign
    several times inside it.  The peak is the final bracket's midpoint;
    with several, the first with the highest E, evaluated once each,
    wins.  A slope never positive on the grid peaks at time zero (the
    stock only drains); one positive somewhere but never crossing to <= 0
    has no peak.
    """
    halvings = _halvings(root_tol)
    slopes = [path.derivative() for path in emissions]
    grid = np.arange(0.0, _PEAK_HORIZON + 1.0)
    values = np.empty((len(slopes), len(grid)))
    for row, slope in zip(values, slopes):
        row[:] = slope(grid)
    above = values > 0
    rising = above.any(axis=1)
    owner, year = np.nonzero(above[:, :-1] & (values[:, 1:] <= 0))
    slope_values = _stacked([slopes[i] for i in owner.tolist()])   # one row per bracket
    lo, width = grid[year], 1.0
    while halvings and len(lo):
        bits = min(_REFINE_BITS, halvings)
        halvings -= bits
        width /= 2**bits
        inner = slope_values(lo[:, None] + width * np.arange(1, 2**bits)) > 0
        # bisect each bracket over these values: the midpoint of sub-steps
        # [step, step + 2**(level + 1)] is interior point step + 2**level - 1
        steps = []
        for positive in inner.tolist():
            step = 0
            for level in range(bits - 1, -1, -1):
                if positive[step + 2**level - 1]:
                    step += 2**level
            steps.append(step)
        lo = lo + width * np.array(steps)

    crossings = [[] for _ in slopes]
    midpoints = 0.5 * (lo + (lo + width))   # bisection's 0.5 * (lo + hi)
    for i, t in zip(owner.tolist(), midpoints.tolist()):
        crossings[i].append(t)
    peaks = []
    for path, times, positive in zip(emissions, crossings, rising):
        if times or not positive:
            peaks.append(max((Peak(t, path(t)) for t in times or [0.0]),
                             key=lambda candidate: candidate.emissions))
        else:
            try:
                peaks.append(Peak(None, path.limit_at_infinity()))
            except ValueError:   # E grows without bound
                peaks.append(Peak(None, None))
    return peaks


def _halvings(root_tol: float) -> int:
    """Halvings that bring a one-year bracket to width <= root_tol: the
    smallest s >= 0 with 2**-s <= root_tol."""
    if not (math.isfinite(root_tol) and root_tol > 0):
        # no number of halvings reaches a width <= 0
        raise ValidationError(f"root_tol must be positive and finite, got {root_tol}")
    return max(0, 1 - math.frexp(root_tol)[1])


def _pair(policy: Policy):
    """(delta, m) of the policy's pair, its rate held to the one rule of
    ``economy._check_discount``; no abatement is the zero-response pair at
    delta = 1.0, whose loop has k = beta m^2 / alpha = 0 under any weights."""
    if policy.is_no_abatement:
        return 1.0, 0.0
    _check_discount(policy.delta)
    return policy.delta, policy.model.ccr


def tmax(policy: Policy, model: ClimateModel, scenario: ScenarioConfig,
         root_tol: float = ROOT_TOL):
    """Peak temperature under a policy if ``model`` is the true model.

    Returns (years to peak, peak degC): the :func:`_peaks` of the path E
    of the policy's loop under ``scenario``, the net emissions that
    ``control.solve_optimal`` gives the pair (a yearly scan of dE/dt, then
    the bracket refined in dyadic rounds to a width <= ``root_tol``,
    which must be positive and finite), times the model's ccr.
    Temperature is ccr * E including the initial stock, matching the
    published convention.  It is taken at E's turning point, not at the
    maximum of T over t >= 0: where E first drains, the turning point
    can sit below today's ccr * e0 (0.01/MIROC under MIROC at the
    bundled config: 0.884 degC after 136.7 years, against 1.235 degC
    at t = 0).  Nondecreasing emissions (the no-abatement case) raise
    NoPeak carrying the asymptotic temperature when it is finite; a path
    that only drains the stock peaks at time zero, at ccr * e0.  The pair
    is checked and solved under ``scenario``; a failure keeps its type
    and attributes and names the pair.

    Repeated calls on an equal pair, scenario and ``root_tol`` share one
    search, since the model only scales E, the one number a :class:`Peak`
    holds; the last 16 searches are kept.
    """
    _halvings(root_tol)   # before any solve
    try:
        peak = _peak(*_pair(policy), scenario, root_tol)
    except MmrClimateError as exc:
        # name the pair, keeping the failure's type, attributes and exit code
        exc.args = (f"policy pair (delta={policy.delta}, model={policy.model.name}): "
                    f"{exc}",) + exc.args[1:]
        raise
    return peak.tmax(model, policy.label())


@lru_cache(maxsize=16)
def _peak(delta: float, m: float, scenario: ScenarioConfig, root_tol: float) -> Peak:
    """The peak of one pair's loop under the scenario, kept for
    :func:`tmax`'s calls under each model.  Scenarios are frozen and
    compare by value, equal keys give the same peak to the bit, and a Peak
    is immutable, so a kept one serves every equal key.  E is the kept
    ``control._path`` of the loop, so a pair solved by ``solve_optimal``
    is not solved again."""
    k = _stiffness(scenario.econ.alpha, scenario.econ.beta, m)
    return _peaks([_path(delta, k, scenario)], root_tol)[0]


@dataclass(frozen=True)
class SweepCell:
    """One (alpha, beta) cell: the MMR policy, its worst-case regret, and
    :func:`tmax` of that policy under the highest-response model."""

    alpha: float
    beta: float
    policy_delta: float
    policy_model: str
    mmr_value: float
    years_to_peak: float
    tmax_degc: float            # under the highest-response model
    tmax_model: str


@dataclass(frozen=True)
class SweepReport:
    betas: tuple
    cells: tuple                # row-major over (alpha, beta)


def sweep(alphas, betas, deltas, ensemble, scenario: ScenarioConfig,
          root_tol: float = ROOT_TOL) -> SweepReport:
    """MMR selection and peak warming across an (alpha, beta) grid.

    Each cell is one weighting (alpha, beta) of the scenario's loops.
    One :func:`_regrets` call over the grid's weightings gives each
    cell's regrets, the same as a lone :func:`regret_matrix` under the
    cell's weights, and one :func:`_picks` call every cell's MMR policy,
    whose worst-case regret is the cell's least.  One ``control._paths`` call
    then builds the path E of the loop of every cell's MMR policy, and
    one :func:`_peaks` over them gives each cell's peak under the
    highest-response model, the worst case a planner can prepare for:
    the route, and so the numbers, of :func:`tmax` per cell.
    """
    if not alphas or not betas:
        raise ValidationError("alpha and beta grids must be nonempty")
    worst_model = max(ensemble, key=lambda m: m.ccr)
    policies = build_policy_set(deltas, ensemble, scenario)
    states = policies[:-1]   # every policy but no abatement
    grid = [(alpha, beta) for alpha in alphas for beta in betas]
    weights = [EconParams(alpha=alpha, beta=beta) for alpha, beta in grid]
    max_regret = _regrets(policies, states, scenario, weights)[0].max(axis=1)
    chosen = [policies[j] for j in _picks(policies, max_regret).tolist()]
    delta, m = np.array([_pair(policy) for policy in chosen]).T
    emissions = _paths(delta, _stiffness(*np.array(grid, dtype=float).T, m), scenario)
    peaks = _peaks(emissions, root_tol)
    cells = []
    for (alpha, beta), policy, value, peak in zip(grid, chosen, max_regret.min(axis=1), peaks):
        years, peak_degc = peak.tmax(worst_model, policy.label())
        cells.append(SweepCell(
            alpha=alpha, beta=beta,
            policy_delta=policy.delta, policy_model=policy.model.name,
            mmr_value=float(value), years_to_peak=years, tmax_degc=peak_degc,
            tmax_model=worst_model.name,
        ))
    return SweepReport(betas=tuple(betas), cells=tuple(cells))
