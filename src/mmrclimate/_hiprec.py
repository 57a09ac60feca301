"""High-precision construction of near-resonant optimal paths.

When a baseline decay rate sits close to the stable characteristic root,
the exact solution is a divided difference of two nearly equal
exponentials: its ExpPoly coefficients grow like 1/gap^2 with opposite
signs, and building them in double precision loses most of their
digits.  The cure is arithmetic, not analysis: the coefficients are
built with 60-digit decimals from the primary inputs and rounded once
to float.  Only paths whose root gap falls below the trigger in
:mod:`mmrclimate.control` take this route.  Costs never do: the
closed-loop cost engine in :mod:`mmrclimate.control` stays well
conditioned at any root gap.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

_PREC = 60


def _solution_terms(baseline_terms, e0, delta, k):
    """Decimal coefficients of the optimal net-emissions path E(t).

    Mirrors the float construction in ``control``: bounded particular
    response per baseline rate group plus the stable mode pinned by
    E(0) = e0.  Returns a list of (coeff, power, rate) Decimals.
    """
    d = Decimal(delta)
    kk = Decimal(k)
    disc = (d * d + 4 * kk).sqrt()
    lam_minus = (d - disc) / 2

    groups: dict[float, dict[int, Decimal]] = {}
    for c, n, mu in baseline_terms:
        groups.setdefault(mu, {})[n] = Decimal(c)

    e_terms = []
    e_part_at_zero = Decimal(0)
    for mu_f, coeffs in groups.items():
        mu = Decimal(mu_f)
        det = mu * mu - d * mu - kk
        top = max(coeffs)
        w_a = Decimal(0)
        w_e = Decimal(0)
        for j in range(top, -1, -1):
            rhs_a = (j + 1) * w_a
            rhs_e = (j + 1) * w_e - coeffs.get(j, Decimal(0))
            w_a = (-mu * rhs_a + kk * rhs_e) / det
            w_e = (rhs_a + (d - mu) * rhs_e) / det
            e_terms.append((w_e, j, mu))
            if j == 0:
                e_part_at_zero += w_e
    e_terms.append((Decimal(e0) - e_part_at_zero, 0, lam_minus))
    return e_terms


def _combine(terms):
    acc: dict[tuple[int, Decimal], Decimal] = {}
    for c, n, mu in terms:
        key = (n, mu)
        acc[key] = acc.get(key, Decimal(0)) + c
    return [(c, n, mu) for (n, mu), c in acc.items() if c != 0]


def solution_exppoly_terms(baseline_terms, e0, delta, k):
    """Best float rounding of the exact E(t) coefficients, for plotting
    and peak finding on ill-conditioned solutions."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        combined = _combine(_solution_terms(baseline_terms, e0, delta, k))
        return tuple((float(c), n, float(mu)) for c, n, mu in combined)
