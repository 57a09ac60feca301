"""Regret accounting over the {discount rate, climate model} ensemble.

A *state of the world* is one {delta, model} pair; the candidate
policies are the optimal policy for every pair plus the passive
no-abatement benchmark.  Both are :class:`Policy` values, a policy
being known by the pair it is optimal for, so a state equals its own
optimal policy: that is the zero regret diagonal.  Costs need nothing
else, and a path is solved only where a peak is searched.  The regret
of a policy in a state is the cost of following that policy when the
state turns out to be true, minus the cost of the state's own optimal
policy.  The minimax-regret choice is the policy whose worst-case
regret across all states is smallest.

Matrix orientation follows the published layout: rows are actual states,
columns are policies, both enumerated model-major with the discount rate
cycling fastest and no abatement as the last column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import (
    OptimalPath,
    ScenarioConfig,
    char_roots,
    closed_loop_integrals,
    optimal_path,
    weighted_costs,
)
from .economy import ClimateModel, EconParams, net_cumulative_emissions
from .errors import MmrClimateError, NoPeak, ValidationError
from .exppoly import ExpPoly

NONNEG_TOL = 1e-9
_PEAK_HORIZON = 3000.0   # years scanned for the emissions peak
ROOT_TOL = 1e-6          # default bisection tolerance of the peak search, years


@dataclass(frozen=True)
class Policy:
    """A {delta, model} pair: a state of the world, or the policy optimal
    for it; the no-abatement benchmark has both None.  Costs are computed
    from the provenance, as the optimal feedback for that pair under the
    scenario's weights.  ``path`` optionally carries the abatement path
    already solved for a scenario; without it, :func:`tmax` solves the
    pair under the scenario it is given."""

    delta: float | None
    model: ClimateModel | None
    path: ExpPoly | None = field(default=None, compare=False)

    @property
    def is_no_abatement(self) -> bool:
        return self.delta is None

    def label(self) -> str:
        if self.is_no_abatement:
            return "no-abatement"
        return f"d={self.delta:g}/{self.model.name}"

    @staticmethod
    def from_solution(sol: OptimalPath) -> "Policy":
        return Policy(delta=sol.delta, model=sol.model, path=sol.abatement)

    @staticmethod
    def no_abatement() -> "Policy":
        return Policy(delta=None, model=None, path=ExpPoly.zero())


def _check_ensemble(deltas, ensemble):
    if not deltas or not ensemble:
        raise ValidationError("need at least one discount rate and one model")
    if not all(math.isfinite(d) and d > 0 for d in deltas):
        raise ValidationError("all discount rates must be positive and finite")
    if len(set(deltas)) != len(deltas):
        raise ValidationError("duplicate discount rate in ensemble")
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
    """Rows: actual states.  Columns: policies.  Values are regrets in
    percent of the present value of output."""

    states: tuple
    policies: tuple
    values: np.ndarray     # shape (n_states, n_policies)
    j_opt: np.ndarray      # optimal cost per state, same row order

    def __post_init__(self):
        if self.values.shape != (len(self.states), len(self.policies)):
            raise ValidationError("matrix shape does not match labels")
        if self.values.min() < -NONNEG_TOL:
            raise ValidationError(
                f"negative regret {self.values.min():.3e}; optimal costs are "
                "not actually optimal"
            )

    @property
    def max_regret(self) -> np.ndarray:
        """Worst-case regret of each policy (column maxima)."""
        return self.values.max(axis=0)

    @property
    def mmr_index(self) -> int:
        """Column of the policy minimizing the worst-case regret.  Ties go
        to the lower discount rate, then the lower climate response, with
        no abatement last, then to the first column."""
        column_max = self.max_regret

        def key(j):
            policy = self.policies[j]
            if policy.is_no_abatement:
                return column_max[j], (math.inf, math.inf), j
            return column_max[j], (policy.delta, policy.model.ccr), j

        return min(range(len(self.policies)), key=key)

    def diagonal_indices(self):
        """(row, col) pairs where the policy provenance equals the state."""
        return [(i, j) for i, state in enumerate(self.states)
                for j, policy in enumerate(self.policies) if policy == state]


def regret_matrix(policies, states, scenario: ScenarioConfig) -> RegretMatrix:
    """Evaluate every policy in every state: the one-scenario case of
    :func:`_regret_matrices`."""
    return _regret_matrices(policies, states, [scenario])[0]


def _regret_matrices(policies, states, scenarios) -> list:
    """One regret matrix per scenario; the scenarios differ only in their
    weights (alpha, beta).

    Each policy, and each state's own optimal policy, is a closed loop
    keyed by its (delta, k) provenance, and a state shares its key with
    the policy optimal for it.  Every distinct loop of every scenario is
    integrated once, at every distinct state discount rate, in one
    :func:`closed_loop_integrals` call; each scenario then weighs the
    entries of its own loops.  A state's optimal cost is the cost of its
    own loop, so wherever that loop is also a column the regret is
    exactly zero.  Each entry depends on its own (loop, rate) pair alone,
    so a matrix is the same to the last bit whichever scenarios share
    the call.
    """
    pairs = dict.fromkeys(list(states) + [p for p in policies if not p.is_no_abatement])
    keyed = []
    for scenario in scenarios:
        econ = scenario.econ
        loop_of = {pair: (pair.delta, char_roots(pair.delta, pair.model.ccr,
                                                 econ.alpha, econ.beta).stiffness)
                   for pair in pairs}
        keyed.append(([None if p.is_no_abatement else loop_of[p] for p in policies],
                      [loop_of[s] for s in states]))
    loops = list(dict.fromkeys(key for cell in keyed for side in cell for key in side))
    index = {key: i for i, key in enumerate(loops)}
    rates = sorted({s.delta for s in states})
    i_a, i_e = closed_loop_integrals(loops, rates, scenarios[0])

    rows = np.array([rates.index(s.delta) for s in states])
    ccr = np.array([s.model.ccr for s in states], dtype=float)
    matrices = []
    for scenario, (policy_loops, optimal_loops) in zip(scenarios, keyed):
        cols = np.array([index[key] for key in policy_loops])
        diag = np.array([index[key] for key in optimal_loops])
        costs = weighted_costs(i_a[cols[None, :], rows[:, None]],
                               i_e[cols[None, :], rows[:, None]], ccr[:, None], scenario)
        j_opt = weighted_costs(i_a[diag, rows], i_e[diag, rows], ccr, scenario)
        matrices.append(RegretMatrix(states=tuple(states), policies=tuple(policies),
                                     values=costs - j_opt[:, None], j_opt=j_opt))
    return matrices


def mmr_select(matrix: RegretMatrix):
    """Policy minimizing the worst-case regret, and that regret; ties
    are broken as in :attr:`RegretMatrix.mmr_index`."""
    idx = matrix.mmr_index
    return matrix.policies[idx], float(matrix.max_regret[idx])


def tmax(policy: Policy, model: ClimateModel, scenario: ScenarioConfig,
         root_tol: float = ROOT_TOL):
    """Peak temperature under a policy if ``model`` is the true model.

    Returns (years to peak, peak degC).  The emissions peak is the root
    of B - A with a + to - sign change (yearly scan over 3000 years plus
    bisection to ``root_tol``, which must be positive and finite); with
    several such roots the one with the highest emissions wins.  The
    peak time does not depend on the model, which only scales the
    temperature.  Temperature is ccr * E including the initial stock,
    matching the published convention.  Nondecreasing emissions (the
    no-abatement case) raise NoPeak carrying the asymptotic temperature
    when it is finite; a path that only drains the stock peaks at time
    zero, at ccr * e0.  A policy without a path is solved under
    ``scenario`` first; a solver failure keeps its type and attributes
    and names the pair.
    """
    if not (math.isfinite(root_tol) and root_tol > 0):
        # the bisection below never ends for a tolerance <= 0
        raise ValidationError(f"root_tol must be positive and finite, got {root_tol}")
    path = policy.path
    if path is None:
        try:
            path = optimal_path(policy.delta, policy.model, scenario).abatement
        except MmrClimateError as exc:
            # keep the type, its attributes and its exit code
            exc.args = (f"solver failed for policy pair (delta={policy.delta}, "
                        f"model={policy.model.name}): {exc}",) + exc.args[1:]
            raise
    slope = scenario.baseline - path   # dE/dt
    emissions = net_cumulative_emissions(path, scenario.baseline, scenario.e0)
    grid = np.arange(0.0, _PEAK_HORIZON + 1.0)
    values = slope(grid)

    crossings = []
    sign = np.sign(values)
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
        t_peak = max(crossings, key=emissions)
    elif np.any(values > 0):
        try:
            asymptote = model.ccr * emissions.limit_at_infinity()
        except ValueError:
            asymptote = None
        raise NoPeak(
            f"net cumulative emissions are nondecreasing under "
            f"{policy.label()}; the supremum is at the horizon",
            asymptote_degc=asymptote,
        )
    else:
        t_peak = 0.0   # the stock only drains; the maximum sits at the start
    return float(t_peak), float(model.ccr * emissions(t_peak))


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
    alphas: tuple
    betas: tuple
    cells: tuple                # row-major over (alpha, beta)


def sweep(alphas, betas, deltas, ensemble, scenario: ScenarioConfig,
          root_tol: float = ROOT_TOL) -> SweepReport:
    """MMR selection and peak warming across an (alpha, beta) grid.

    Each cell is the scenario with its cost and damage weights replaced.
    The regret matrices of all cells come from one engine call over the
    distinct loops of the grid, and each cell's matrix is the same as a
    lone :func:`regret_matrix` for it.  A cell's MMR policy is then
    solved and its peak is :func:`tmax` under the highest-response
    model, the worst case a planner can prepare for, with bisection to
    ``root_tol``: one path solve and one peak search per cell.
    """
    if not alphas or not betas:
        raise ValidationError("alpha and beta grids must be nonempty")
    worst_model = max(ensemble, key=lambda m: m.ccr)
    states = build_states(deltas, ensemble)
    policies = build_policy_set(deltas, ensemble, scenario)
    grid = [(alpha, beta) for alpha in alphas for beta in betas]
    scenarios = [replace(scenario, econ=EconParams(alpha=alpha, beta=beta))
                 for alpha, beta in grid]
    matrices = _regret_matrices(policies, states, scenarios)
    cells = []
    for (alpha, beta), cell_scenario, matrix in zip(grid, scenarios, matrices):
        policy, value = mmr_select(matrix)
        years, peak = tmax(policy, worst_model, cell_scenario, root_tol)
        cells.append(SweepCell(
            alpha=alpha, beta=beta,
            policy_delta=policy.delta, policy_model=policy.model.name,
            mmr_value=value, years_to_peak=years, tmax_degc=peak,
            tmax_model=worst_model.name,
        ))
    return SweepReport(alphas=tuple(alphas), betas=tuple(betas),
                       cells=tuple(cells))
