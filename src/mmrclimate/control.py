"""Closed-form solution of the abatement planning problem.

The planner minimizes the discounted integral of quadratic abatement
cost plus quadratic damage subject to dE/dt = B - A and T = m E.  The
first-order conditions reduce to a coupled linear system

    dA/dt = delta A - k E        with  k = beta m^2 / alpha
    dE/dt = B - A

whose matrix has one unstable root lam_plus > delta and one stable root
lam_minus < 0 (lam_plus + lam_minus = delta, lam_plus * lam_minus = -k).
Boundedness of the discounted objective forces the coefficient of the
unstable mode to zero; the stable-mode coefficient is pinned by the
initial stock E(0) = E0.

Paths and costs start from one form of the closed loops, built by
:func:`_loops`: the baseline in state space, B = c.w with dw/dt = G w
(one Jordan block per baseline rate), each loop's roots and its optimal
feedback A = -lam_minus E + s.w with (G - lam_plus I)^T s = lam_minus c.

The bounded particular response is E_p = p.w with
(G - lam_minus I)^T p = c - s.  Each component of w is a term
t^j e^{mu t} / j!, so the optimal paths are exact ExpPoly objects,
built in double precision.  :func:`_paths` builds the ExpPoly path E of
many loops at once, one stacked solve each; :func:`_path` is its
one-loop case, kept per loop and scenario, and both :func:`solve_optimal`
and the peak search read E from it.  Near resonance
(a baseline rate close to lam_minus) the particular response and the
stable mode carry large coefficients of opposite sign; the path's error
grows like 1/gap^2 times the rounding unit (about 1e-9 of max|E| at a
root gap of 1e-5, 1e-7 at 1e-6).  A Jordan block whose rate is within
RESONANCE_TOL of lam_minus, where G - lam_minus I is singular or nearly
so, is left out of the solve and written as the first two terms of its
series in the root gap (see :func:`_paths`).  Against a 120-digit
reference such a path is within about 1e-11 of max|E| over 1000 years
at every gap up to RESONANCE_TOL, exact collisions included, and the
discount rate is never moved.

Costs come from one engine, :func:`closed_loop_integrals`.  On
x = (E, w) the closed loop is dx/dt = F x, and each discounted quadratic
cost integral is a quadratic form in the solution Y of one small
Lyapunov equation (Van Loan 1978; Anderson & Moore 1990 for LQ tracking
of an exogenous signal).  The Jordan form of the baseline already is the
Schur step of Bartels & Stewart (CACM 15(9), 1972): with each Jordan
block in reverse order F is upper triangular, with diagonal lam_minus
and the baseline rates, and Y follows by back substitution, vectorised
over every loop and evaluation rate.  Every divisor is a sum of two
diagonal entries minus the evaluation rate, so it is negative even at
exact resonance, and costs need no special case there.  The integrals
do not depend on the weights alpha and beta, which
:func:`weighted_costs` applies afterwards, so one engine call serves a
whole (alpha, beta) sweep.

``numeric_oracle`` solves the same problem by brute force (piecewise
linear abatement on an annual grid, conjugate gradient on the discrete
normal equations) and is used only to cross-check the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .economy import ClimateModel, EconParams, _check_discount, net_cumulative_emissions
from .errors import NonConvergence, ValidationError
from .exppoly import ExpPoly

# At or below this root gap a baseline rate's block of the particular
# response is its series in the gap: at an exact collision the solve for
# it is singular, and beside one its coefficients grow like 1/gap^(J+1),
# J the block's top power.
RESONANCE_TOL = 1e-7


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything the solver needs besides the {delta, model} pair."""

    baseline: ExpPoly       # GtC/yr, all rates strictly negative
    e0: float               # GtC, net cumulative emissions at t = 0
    econ: EconParams
    start_year: int = 2020

    def __post_init__(self):
        if not (math.isfinite(self.e0) and self.e0 >= 0):
            raise ValidationError(
                f"initial cumulative emissions must be finite and >= 0, got {self.e0}")
        if not self.baseline.is_zero and self.baseline.max_rate() >= 0:
            raise ValidationError("baseline must decay (all rates < 0)")


@dataclass(frozen=True)
class CharRoots:
    """Eigenstructure of the optimality system."""

    lam_plus: float     # unstable, > delta
    lam_minus: float    # stable, <= 0
    stiffness: float    # k = beta m^2 / alpha, 1/yr^2


@dataclass(frozen=True)
class OptimalSolution:
    """Exact paths of one {delta, model} pair, their provenance and their
    cost.  ``delta``/``model`` record the pair the path was optimized
    for; the paths, ``roots`` and ``j_star`` are those of ``delta``
    itself, at any distance from resonance.  The passive path is not an
    OptimalSolution: it is
    ``net_cumulative_emissions(ExpPoly.zero(), baseline, e0)``."""

    abatement: ExpPoly       # GtC/yr
    net_emissions: ExpPoly   # GtC
    temperature: ExpPoly     # degC, ccr * E
    model: ClimateModel
    delta: float
    roots: CharRoots
    j_star: float


def char_roots(delta: float, m: float, alpha: float, beta: float) -> CharRoots:
    """Roots of lam^2 - delta lam - k = 0, ordered lam_plus >= lam_minus,
    with k = beta m^2 / alpha.  delta obeys the one rate rule
    (InvalidDiscount), alpha and beta the :class:`EconParams` rule and m
    the :class:`ClimateModel` rule (ValidationError), so beta = 0 fails."""
    _check_discount(delta)
    EconParams(alpha=alpha, beta=beta)
    ClimateModel(name="m", ccr=m)
    k = _stiffness(alpha, beta, m)
    lam_plus, lam_minus = _roots(delta, k)
    return CharRoots(lam_plus=float(lam_plus), lam_minus=float(lam_minus), stiffness=k)


@np.errstate(over="ignore")   # an infinite k makes _roots raise
def _stiffness(alpha, beta, m):
    """k = beta m^2 / alpha, the stiffness of the closed loop, elementwise
    over broadcast arrays; this order of operations makes every caller's
    k the same to the bit."""
    return beta * m * m / alpha


@np.errstate(over="ignore", invalid="ignore")   # non-finite roots raise below
def _roots(delta, k):
    """(lam_plus, lam_minus), the roots of lam^2 - delta lam - k = 0,
    elementwise over arrays.  Roots that are not finite, where delta^2 +
    4k overflows double precision, raise ValidationError naming the first
    such delta and k."""
    root = np.sqrt(delta * delta + 4.0 * k)
    lam_plus = 0.5 * (delta + root)
    bad = ~np.isfinite(lam_plus)   # lam_minus is finite wherever lam_plus is
    if bad.any():
        d_bad, k_bad = (float(v[bad][0]) for v in np.broadcast_arrays(delta, k))
        raise ValidationError(
            f"characteristic roots are not finite at delta = {d_bad!r}, k = {k_bad!r}: "
            "delta^2 + 4k overflows double precision")
    return lam_plus, 0.5 * (delta - root)


def solve_optimal(delta: float, model: ClimateModel,
                  scenario: ScenarioConfig) -> OptimalSolution:
    """Exact optimal abatement for one {delta, model} pair and its cost.

    ``roots`` and k are :func:`char_roots` of the pair.  The path is
    :func:`_path`, the one-loop case of :func:`_paths`, which writes a
    baseline rate that collides with lam_minus as a series in the root
    gap (see the module notes on the path's accuracy).  A zero stiffness
    k makes damages insensitive to emissions, so the strictly convex cost pins abatement
    at exactly zero and E is the passive path.  Otherwise abatement is B - dE/dt, so the state
    equation holds exactly.  ``j_star`` is the cost of the pair's own
    loop at the requested rate, from :func:`closed_loop_integrals`
    weighed by :func:`weighted_costs`; the k = 0 loop costs +0.0.  A
    rate that is not positive and finite raises InvalidDiscount.
    """
    roots = char_roots(delta, model.ccr, scenario.econ.alpha, scenario.econ.beta)
    k = roots.stiffness
    emissions = _path(delta, k, scenario)
    abatement = (ExpPoly.zero() if k == 0.0
                 else scenario.baseline - emissions.derivative())
    i_a, i_e = closed_loop_integrals([delta], [k], [delta], scenario)
    return OptimalSolution(
        abatement=abatement,
        net_emissions=emissions,
        temperature=emissions * model.ccr,
        model=model,
        delta=delta,
        roots=roots,
        j_star=float(weighted_costs(i_a[0, 0], i_e[0, 0], model.ccr, scenario.econ.alpha,
                                    scenario.econ.beta, scenario.e0)),
    )


@lru_cache(maxsize=16)
def _path(delta: float, k: float, scenario: ScenarioConfig) -> ExpPoly:
    """The path E of one loop, the one-loop case of :func:`_paths`, kept
    for :func:`solve_optimal` and the peak search alike, so a solve and
    the peaks of its pair build E once.  Scenarios are frozen and compare
    by value, equal keys give the same path to the bit, and an ExpPoly is
    immutable, so a kept one serves every equal key; the last 16 are
    kept."""
    (emissions,) = _paths([delta], [k], scenario)
    return emissions


def _paths(delta, k, scenario: ScenarioConfig):
    """The optimal paths of the loops of discount rates ``delta`` and
    stiffnesses ``k`` = beta m^2 / alpha, two equal-length 1-D arrays: per
    loop the net cumulative emissions E, an ExpPoly.  E is the bounded
    particular response E_p = p.w over the basis of :func:`_loops`, plus
    the stable mode (e0 - E_p(0)) e^{lam_minus t}; a k = 0 loop is
    passive, E = e0 plus the cumulative baseline.

    Every baseline rate is < 0 < delta < lam_plus, so only lam_minus
    collides.  A component t^j e^{mu t} / j! of w whose rate is within
    RESONANCE_TOL of lam_minus is left out of the solve (p = 0 there):
    its exact response from E = 0 is q e^{mu t} t^{j+1} phi_{j+1}(h t),
    with q its entry of c - s and h = lam_minus - mu, and the first two
    terms of phi's series, q e^{mu t} h^n t^{j+1+n} / (j+1+n)! for
    n = 0, 1, are added to E_p instead; the first term left out is of
    relative size (h t)^2 / (j+2)(j+3).  They vanish at t = 0, so the
    stable mode is unchanged, and every other component, and every loop
    with no collision, keeps its bits.
    """
    g, c, basis, lam_minus, s = _loops(delta, k, scenario.baseline)
    # bounded particular response E_p = p.w: A_p = -lam_minus E_p + s.w
    # and dE_p/dt = B - A_p give (G - lam_minus I)^T p = c - s; the
    # diagonal of G holds every baseline rate
    q = c - s
    h = lam_minus[:, None] - g.diagonal()
    near = np.abs(h) <= RESONANCE_TOL
    shifted = g.T - lam_minus[:, None, None] * np.eye(len(c))
    loop, comp = np.nonzero(near)
    shifted[loop, comp, comp] = 1.0   # a left-out component solves 1 p = 0
    p = np.linalg.solve(shifted, np.where(near, 0.0, q)[..., None])[..., 0]
    series = [[] for _ in lam_minus]   # per loop, its left-out components' terms
    for i, b in zip(loop.tolist(), comp.tolist()):
        j, mu = basis[b]
        series[i] += [(q[i, b] * h[i, b] ** n / math.factorial(j + 1 + n), j + 1 + n, mu)
                      for n in (0, 1)]
    emissions = []
    for p_i, series_i, lam, k_i in zip(p.tolist(), series, lam_minus.tolist(), k):
        if k_i == 0.0:
            emissions.append(
                net_cumulative_emissions(ExpPoly.zero(), scenario.baseline, scenario.e0))
            continue
        e_part = ExpPoly(tuple((p_ij / math.factorial(j), j, mu)
                               for p_ij, (j, mu) in zip(p_i, basis)) + tuple(series_i))
        emissions.append(e_part + ExpPoly.term(scenario.e0 - e_part(0.0), 0, lam))
    return emissions


def _loops(delta, k, baseline: ExpPoly):
    """The loops of discount rates ``delta`` and stiffnesses ``k``, two
    equal-length 1-D arrays, as (g, c, basis, lam_minus, s).  The
    baseline is B(t) = c.w(t) with dw/dt = G w: each rate mu gets one
    Jordan block over the basis t^j e^{mu t} / j!, sized by its highest
    power, and ``basis`` lists the (power j, rate mu) of each component
    of w, so w(0) is 1 where j = 0; this is the one place the baseline is
    grouped by rate.  Per loop, s is the feedback of A = -lam_minus E +
    s.w, (G - lam_plus I)^T s = lam_minus c."""
    groups: dict[float, dict[int, float]] = {}
    for coeff, n, mu in baseline.terms:
        groups.setdefault(mu, {})[n] = coeff
    basis = [(j, mu) for mu, coeffs in groups.items() for j in range(max(coeffs) + 1)]
    g = np.diag([mu for _, mu in basis])
    for i, (j, _) in enumerate(basis):
        if j:
            g[i, i - 1] = 1.0
    c = np.array([groups[mu].get(j, 0.0) * math.factorial(j) for j, mu in basis])
    lam_plus, lam_minus = _roots(*np.array([delta, k], dtype=float))
    g_shift = g.T - lam_plus[:, None, None] * np.eye(len(c))
    s = np.linalg.solve(g_shift, (lam_minus[:, None] * c)[..., None])[..., 0]
    return g, c, basis, lam_minus, s


@np.errstate(over="ignore", invalid="ignore")   # non-finite costs raise below
def weighted_costs(i_a, i_e, ccr, alpha, beta, e0) -> np.ndarray:
    """alpha/2 I_A + beta ccr^2 / 2 I_E, elementwise over broadcast
    arrays, so one call weighs every (alpha, beta) weighting of a set of
    loops.  A cost that is not finite (an initial stock ``e0``, baseline
    or weight too large for double precision) raises NonConvergence
    naming the alpha and beta of the first such cost, and e0."""
    costs = 0.5 * alpha * i_a + 0.5 * beta * ccr ** 2 * i_e
    bad = ~np.isfinite(costs)
    if bad.any():
        a_bad, b_bad = (float(np.broadcast_to(v, costs.shape)[bad][0]) for v in (alpha, beta))
        raise NonConvergence(
            f"closed-loop costs are not finite at alpha = {a_bad!r}, "
            f"beta = {b_bad!r}, e0 = {e0!r}: the weighted cost "
            "integrals overflow double precision")
    return costs


@np.errstate(over="ignore", invalid="ignore")   # weighted_costs raises on them
def closed_loop_integrals(delta, k, rates, scenario: ScenarioConfig):
    """The weight-free integrals of the closed loops, I_A and I_E, each
    of shape (len(delta), len(rates)).

    Loop i is the optimal feedback for discount rate ``delta[i]`` and
    stiffness ``k[i]`` = beta m^2 / alpha, two equal-length 1-D arrays;
    k = 0 is no abatement (lam_minus = 0 makes s = 0 and A = 0, at any
    delta).  ``rates`` are the evaluation discount rates.  Only the
    scenario's baseline and e0 are read, so one call serves every
    (alpha, beta) weighting of the loops; :func:`weighted_costs` weighs
    them.
    On x = (E, w) each loop is dx/dt = F x, A = q.x, x(0) = (e0, w0), and
    Y = integral of x x^T e^{-delta_eval t} solves
    (F - delta_eval/2) Y + Y (F - delta_eval/2)^T = -x0 x0^T, so
    I_A = q.Y q and I_E = Y[0, 0].  With each Jordan block of G in
    reverse order F is upper triangular, so Y comes from n(n+1)/2
    back-substitution steps, each vectorised over every (loop, rate)
    pair; each entry of the result depends on its own pair alone.
    Every divisor, lam_i + lam_j - delta_eval, is negative.
    """
    for rate in rates:
        _check_discount(rate, "evaluation discount rate")
    g, c, basis, lam_minus, s = _loops(delta, k, scenario.baseline)

    # x = (E, w) with each Jordan block reversed, higher powers first:
    # w_{j-1} drives w_j and now follows it, so F is upper triangular.  Its
    # diagonal is lam_minus and the rates; above it, row E holds c - s and
    # each w_j with j > 0 has a 1 at w_{j-1}.
    w_order = sorted(range(len(basis)), key=lambda i: (i - basis[i][0], -basis[i][0]))
    feed = (c - s)[:, w_order]
    diag = [lam_minus[:, None]] + [basis[i][1] for i in w_order]
    upper = [[(1 + p, feed[:, p, None]) for p in range(len(w_order))]] + [
        [(p + 2, 1.0)] if basis[i][0] else [] for p, i in enumerate(w_order)]
    q = [-lam_minus[:, None]] + [s[:, i, None] for i in w_order]
    x0 = [scenario.e0] + [float(basis[i][0] == 0) for i in w_order]

    # with M = F - delta_eval/2, rows i and columns j from the last:
    # (M_ii + M_jj) Y_ij = -x0_i x0_j - sum_{l>i} M_il Y_lj - sum_{l>j} M_jl Y_il
    # Entries of the w block are the same for every loop, so they are
    # computed once per rate.
    rates = np.asarray(rates, dtype=float)
    n = len(x0)
    y = [[None] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in reversed(range(i, n)):
            acc = -x0[i] * x0[j]
            for col, m_i in upper[i]:
                acc = acc - m_i * y[col][j]
            for col, m_j in upper[j]:
                acc = acc - m_j * y[i][col]
            y[i][j] = y[j][i] = acc / (diag[i] + diag[j] - rates)
    i_a = (sum(q[i] * q[i] * y[i][i] for i in range(n))
           + 2.0 * sum(q[i] * q[j] * y[i][j] for i in range(n) for j in range(i + 1, n)))
    return i_a, y[0][0]


@dataclass(frozen=True)
class OracleResult:
    times: np.ndarray
    abatement: np.ndarray
    j_estimate: float


def numeric_oracle(delta: float, model: ClimateModel,
                   scenario: ScenarioConfig) -> OracleResult:
    """Brute-force check: minimize the discretized objective directly.

    Abatement is piecewise linear on an annual grid; the integral uses
    trapezoid weights and the running emissions integral uses the
    matching trapezoid cumulative, so the discrete problem is a strictly
    convex quadratic in the nodal values.  It is solved by conjugate
    gradient with the Hessian applied matrix-free through prefix sums.
    Nothing here touches the closed-form solver.

    The horizon is max(1500, 40 / (delta - 2 nu)) years, where nu is the
    slowest mode of the optimal path (the largest baseline rate, or
    lam_minus if that is larger), so the truncated tail of the integrand
    has decayed by e^-40.
    """
    roots = char_roots(delta, model.ccr, scenario.econ.alpha, scenario.econ.beta)
    nu = max(scenario.baseline.rates() + (roots.lam_minus,))
    n = int(round(max(1500.0, 40.0 / (delta - 2.0 * nu))))
    t = np.arange(n + 1, dtype=float)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    omega = w * np.exp(-delta * t)

    cum_b = scenario.baseline.cumulative()(t)
    alpha, beta = scenario.econ.alpha, scenario.econ.beta
    bm2 = beta * model.ccr ** 2

    def cumulative_trapezoid(a):
        mids = 0.5 * (a[1:] + a[:-1])
        out = np.empty_like(a)
        out[0] = 0.0
        np.cumsum(mids, out=out[1:])
        return out

    def emissions_of(a):
        return scenario.e0 + cum_b - cumulative_trapezoid(a)

    def gradient(a):
        e = emissions_of(a)
        we = omega * e
        suffix = np.concatenate((np.cumsum(we[::-1])[::-1], [0.0]))
        pull = 0.5 * we + suffix[1:]
        pull[0] = 0.5 * suffix[1]
        return omega * alpha * a - bm2 * pull

    g0 = gradient(np.zeros(n + 1))

    def apply_hessian(v):
        return gradient(v) - g0

    # Jacobi preconditioner; the e^{-delta t} weights spread the diagonal
    # over tens of orders of magnitude, which plain CG cannot survive.
    omega_suffix = np.concatenate((np.cumsum(omega[::-1])[::-1], [0.0]))
    diag = omega * alpha + bm2 * (0.25 * omega + omega_suffix[1:])
    diag[0] = omega[0] * alpha + bm2 * 0.25 * omega_suffix[1]

    # preconditioned conjugate gradient for H a = -g0
    a = np.zeros(n + 1)
    r = -g0.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    r0 = math.sqrt(float(g0 @ g0))
    for _ in range(20 * (n + 1)):
        r_norm = math.sqrt(float(r @ r))
        if r_norm <= max(1e-10 * r0, 1e-300):
            break
        hp = apply_hessian(p)
        denom = float(p @ hp)
        if denom <= 0:
            raise NonConvergence("oracle lost positive definiteness")
        alpha_cg = rz / denom
        a += alpha_cg * p
        r -= alpha_cg * hp
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        if math.sqrt(float(r @ r)) > 1e-6 * r0:
            raise NonConvergence("oracle conjugate gradient did not converge")

    e = emissions_of(a)
    j = float(np.sum(omega * 0.5 * (alpha * a * a + bm2 * e * e)))
    return OracleResult(times=t, abatement=a, j_estimate=j)
