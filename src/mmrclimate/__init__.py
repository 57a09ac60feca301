"""Closed-form climate abatement control and minimax-regret policy choice.

The package solves a linear-quadratic abatement planning problem exactly
(exponential-polynomial paths, no time stepping), evaluates every policy
against every {discount rate, climate sensitivity} state of the world,
and selects the policy with the smallest worst-case regret.
"""

from .exppoly import ExpPoly
from .errors import (
    MmrClimateError,
    ParseError,
    ValidationError,
    DivergentIntegral,
    InvalidDiscount,
    NonConvergence,
    NoPeak,
)
from .baseline import (
    EmissionsSeries,
    BaselineParams,
    load_emissions,
    fit_baseline,
    baseline_exppoly,
    cumulative_baseline,
)
from .economy import (
    EconParams,
    ClimateModel,
    net_cumulative_emissions,
    discounted_total_cost,
)
from .control import (
    ScenarioConfig,
    CharRoots,
    OptimalSolution,
    char_roots,
    solve_optimal,
    numeric_oracle,
)
from .regret import (
    Policy,
    RegretMatrix,
    build_policy_set,
    build_states,
    regret_matrix,
    mmr_select,
    tmax,
    sweep,
)
from .config import RunConfig, load_config, save_config, bundled_data_path

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
