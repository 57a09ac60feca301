"""Economic weights, climate models and the ExpPoly cost closed form.

Instantaneous abatement cost alpha/2 * A^2 and climate damage
beta/2 * T^2 are expressed as percent of gross world output, so the
discounted total J = integral of (cost + damage) e^{-delta t} lands
directly in the units of the published regret tables (percent of the
present discounted value of output).

:func:`net_cumulative_emissions` integrates an abatement path into the
emissions stock E; with no abatement it is the passive path of every
k = 0 loop in :mod:`mmrclimate.control`.

:func:`discounted_total_cost` integrates any ExpPoly abatement path in
closed form.  The solver and the regret matrix do not use it: they cost
optimal policies through the closed-loop engine in
:mod:`mmrclimate.control`, and this function stays as the independent
method the tests compare that engine against.

:func:`_check_discount` is the package's one rule for a discount rate:
positive and finite, or InvalidDiscount naming the rate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InvalidDiscount, ValidationError
from .exppoly import ExpPoly


@dataclass(frozen=True)
class EconParams:
    """Quadratic weights: alpha on abatement (per (GtC/yr)^2), beta on
    damages (per degC^2), both in percent-of-output units."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.beta)):
            raise ValidationError(
                f"alpha and beta must be positive and finite, got "
                f"alpha={self.alpha}, beta={self.beta}")


# what an output cannot hold in a model name: CSV's delimiter and quote, a
# path separator, XML's markup, and control characters but tab, LF and CR
_UNWRITABLE = re.compile(r'[,"/\\<&\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]')


@dataclass(frozen=True)
class ClimateModel:
    """A reduced-form climate model: its carbon-climate response ``ccr``
    maps cumulative carbon (GtC) to temperature increase (degC).  Its name
    goes into CSV rows, SVG text and file names, so one holding ``,``,
    ``"``, ``/``, ``\\``, ``<``, ``&`` or a control character other than
    tab, LF and CR is refused with ValidationError naming the model."""

    name: str
    ccr: float

    def __post_init__(self):
        bad = _UNWRITABLE.search(self.name)
        if bad:
            raise ValidationError(f"model name {self.name!r} holds {bad.group()!r}, "
                                  "which an output file cannot hold")
        if not (math.isfinite(self.ccr) and self.ccr >= 0):
            raise ValidationError(
                f"ccr must be nonnegative and finite, got {self.ccr}")


def _check_discount(delta: float, name: str = "discount rate") -> None:
    """Raise InvalidDiscount, naming ``name`` and the rate, unless
    ``delta`` is positive and finite."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise InvalidDiscount(
            f"{name} must be positive, finite, got {float(delta)!r} "
            "(transversality fails at zero discounting)")


def net_cumulative_emissions(abatement: ExpPoly, baseline: ExpPoly,
                             e0: float) -> ExpPoly:
    """E(t) = E0 + integral over [0, t] of (B - A), exact."""
    return ExpPoly.term(e0) + (baseline - abatement).cumulative()


def discounted_total_cost(abatement: ExpPoly, econ: EconParams,
                          model: ClimateModel, delta: float,
                          baseline: ExpPoly, e0: float) -> float:
    """Present value of abatement cost plus damage along a path.

    J = integral over [0, inf) of (alpha/2 A^2 + beta/2 (m E)^2) e^{-delta t}
    with E(t) = E0 + integral of (B - A).  Computed exactly from the
    closed forms; raises DivergentIntegral if the path does not decay
    fast enough at this discount rate and InvalidDiscount for a rate that
    is not positive and finite (no transversality at zero discounting).

    The closed form is exact but not always well conditioned.  The
    coefficients of E grow like c / mu^(n+1) for a slow baseline rate mu
    and then cancel, so on the no-abatement path the result can be off by
    up to 7.6e-9 relative (mu near -0.0036, delta near 0.09).  A
    near-resonant optimal path has huge cancelling coefficients, and
    squaring it loses more: about 4e-7 relative at a root gap of 1e-4 and
    2e-2 at 1e-5, and no correct digit below that.  Within
    ``control.RESONANCE_TOL`` of a collision the path carries powers up
    to 2 above the baseline's, and squaring it exceeds
    :data:`~mmrclimate.exppoly.MAX_POWER` (power 5 or 6 on the bundled
    baseline), so this function raises ValueError there; it is only the
    tests' reference.  The closed-loop engine in :mod:`mmrclimate.control`
    has none of these problems.
    """
    _check_discount(delta)
    emissions = net_cumulative_emissions(abatement, baseline, e0)
    cost = 0.5 * econ.alpha * (abatement * abatement).discounted_integral(delta)
    dmg = 0.5 * econ.beta * model.ccr ** 2 * (
        emissions * emissions
    ).discounted_integral(delta)
    return cost + dmg
