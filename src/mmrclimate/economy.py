"""Cost, damage and discounting primitives.

Instantaneous abatement cost C(A) = alpha/2 * A^2 and climate damage
D(T) = beta/2 * T^2 are expressed as percent of gross world output, so
the discounted total J = integral of (C + D) e^{-delta t} lands directly
in the units of the published regret tables (percent of the present
discounted value of output).  A reporting scale is exposed for safety
but defaults to 1 and should stay there.

:func:`discounted_total_cost` integrates any ExpPoly abatement path in
closed form.  The solver and the regret matrix do not use it: they cost
optimal policies through the closed-loop engine in
:mod:`mmrclimate.control`, and this function stays as the independent
method the tests compare that engine against.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class RamseyInputs:
    """rho: pure time preference (1/yr); eta: elasticity of marginal
    utility; g: consumption growth rate (1/yr)."""

    rho: float
    eta: float
    g: float

    def __post_init__(self):
        if self.rho < 0 or self.eta < 0:
            raise ValidationError("rho and eta must be nonnegative")


@dataclass(frozen=True)
class ClimateModel:
    """A reduced-form climate model: its carbon-climate response ``ccr``
    maps cumulative carbon (GtC) to temperature increase (degC)."""

    name: str
    ccr: float

    def __post_init__(self):
        if not (math.isfinite(self.ccr) and self.ccr >= 0):
            raise ValidationError(
                f"ccr must be nonnegative and finite, got {self.ccr}")


def ramsey_rate(inputs: RamseyInputs) -> float:
    """Consumption discount rate rho + eta * g."""
    return inputs.rho + inputs.eta * inputs.g


def abatement_cost(alpha: float, abatement: float) -> float:
    """Instantaneous abatement cost, percent of output: alpha/2 * A^2."""
    return 0.5 * alpha * abatement * abatement


def damage(beta: float, temp_increase: float) -> float:
    """Instantaneous climate damage, percent of output: beta/2 * T^2."""
    return 0.5 * beta * temp_increase * temp_increase


def net_cumulative_emissions(abatement: ExpPoly, baseline: ExpPoly,
                             e0: float) -> ExpPoly:
    """E(t) = E0 + integral over [0, t] of (B - A), exact."""
    return ExpPoly.constant(e0) + (baseline - abatement).cumulative()


def discounted_total_cost(abatement: ExpPoly, econ: EconParams,
                          model: ClimateModel, delta: float,
                          baseline: ExpPoly, e0: float,
                          scale: float = 1.0) -> float:
    """Present value of abatement cost plus damage along a path.

    J = integral over [0, inf) of (alpha/2 A^2 + beta/2 (m E)^2) e^{-delta t}
    with E(t) = E0 + integral of (B - A).  Computed exactly from the
    closed forms; raises DivergentIntegral if the path does not decay
    fast enough at this discount rate and InvalidDiscount for delta <= 0
    (no transversality at zero discounting).
    """
    if delta <= 0.0:
        raise InvalidDiscount(
            f"discount rate must be positive, got {delta}: the infinite "
            "horizon problem fails its transversality condition at zero "
            "discounting"
        )
    emissions = net_cumulative_emissions(abatement, baseline, e0)
    cost = 0.5 * econ.alpha * (abatement * abatement).discounted_integral(delta)
    dmg = 0.5 * econ.beta * model.ccr ** 2 * (
        emissions * emissions
    ).discounted_integral(delta)
    return scale * (cost + dmg)
