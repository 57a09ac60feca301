"""Exact algebra on exponential polynomials of time.

An :class:`ExpPoly` is a finite sum of terms ``c * t**n * exp(mu * t)``
with real coefficient ``c``, integer power ``n >= 0`` and real rate
``mu``.  The family is closed under addition, multiplication,
differentiation and running integration, and the discounted integral
over ``[0, inf)`` has the closed form ``sum c * n! / (delta - mu)**(n+1)``.
Every trajectory in this package (baseline emissions, abatement paths,
cumulative emissions, temperature) lives in this family, which is what
makes the whole pipeline free of time stepping.  :func:`_stacked`
evaluates many paths at once by :meth:`ExpPoly.__call__`'s arithmetic,
to the bit: the two evaluators are one computation.

Terms are kept canonical: coefficients of equal ``(power, rate)`` pairs
are combined (rates compared exactly, never by epsilon) and zero
coefficients are dropped.  Polynomial powers are capped at
:data:`MAX_POWER`.  The fitted baseline has power 1 (the tests draw up
to power 2), and an optimal path adds at most 2 where a baseline rate
collides with the stable root: power 3 for the fitted form, 4 for a
power-2 one.  Products of such paths exceed the cap: squaring a path
within ``control.RESONANCE_TOL`` of a collision needs power 5 or 6 on
the fitted form, and raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DivergentIntegral, InvalidDiscount

MAX_POWER = 4


class Term(NamedTuple):
    coeff: float
    power: int
    rate: float


def _canonical(terms: Iterable[tuple]) -> tuple:
    """Combine like terms in encounter order, drop zeros, sort for display.

    Summation order is the iteration order of ``terms``; this keeps
    cancellation bit-exact when an operand was itself built as the
    difference of the other operands.
    """
    acc: dict[tuple[int, float], float] = {}
    for coeff, power, rate in terms:
        power = int(power)
        if power < 0:
            raise ValueError(f"negative power {power}")
        if power > MAX_POWER:
            raise ValueError(
                f"power {power} exceeds cap {MAX_POWER}; products of paths "
                "near a collision with the stable root exceed the cap"
            )
        coeff = float(coeff)
        rate = float(rate)
        if not (math.isfinite(coeff) and math.isfinite(rate)):
            raise ValueError(f"non-finite term ({coeff}, {power}, {rate})")
        key = (power, rate)
        acc[key] = acc.get(key, 0.0) + coeff
    return tuple(
        Term(c, n, mu)
        for (n, mu), c in sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if c != 0.0
    )


@dataclass(frozen=True)
class ExpPoly:
    """Sum of ``c * t**n * exp(mu * t)`` terms, canonical form."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def term(coeff: float, power: int = 0, rate: float = 0.0) -> "ExpPoly":
        return ExpPoly(((coeff, power, rate),))

    @staticmethod
    def constant(value: float) -> "ExpPoly":
        return ExpPoly(((value, 0, 0.0),))

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(self.terms + other.terms)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(tuple((-c, n, mu) for c, n, mu in self.terms))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ExpPoly(tuple((other * c, n, mu) for c, n, mu in self.terms))
        prod = [
            (ca * cb, na + nb, ra + rb)
            for ca, na, ra in self.terms
            for cb, nb, rb in other.terms
        ]
        return ExpPoly(tuple(prod))

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------

    def __call__(self, t):
        """Evaluate at time ``t`` (scalar or ndarray), elementwise."""
        tt = np.asarray(t, dtype=float)
        out = np.zeros_like(tt)
        for c, n, mu in self.terms:
            out = out + c * tt**n * np.exp(mu * tt)
        if out.ndim == 0:
            return float(out)
        return out

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "ExpPoly":
        """Termwise d/dt: ``c t^n e^{mu t} -> c mu t^n e^{mu t} + c n t^{n-1} e^{mu t}``."""
        out = []
        for c, n, mu in self.terms:
            if mu != 0.0:
                out.append((c * mu, n, mu))
            if n >= 1:
                out.append((c * n, n - 1, mu))
        return ExpPoly(tuple(out))

    def cumulative(self) -> "ExpPoly":
        """Running integral ``t -> integral of f over [0, t]``, exact.

        Raises the power cap if a pure-polynomial term already sits at
        :data:`MAX_POWER`.
        """
        out = []
        for c, n, mu in self.terms:
            if mu == 0.0:
                out.append((c / (n + 1), n + 1, 0.0))
                continue
            # antiderivative e^{mu t} q(t): q' + mu q = c t^n solved top down
            q = [0.0] * (n + 1)
            q[n] = c / mu
            for j in range(n - 1, -1, -1):
                q[j] = -(j + 1) * q[j + 1] / mu
            for j, qj in enumerate(q):
                out.append((qj, j, mu))
            out.append((-q[0], 0, 0.0))  # subtract F(0)
        return ExpPoly(tuple(out))

    def discounted_integral(self, delta: float) -> float:
        """Exact ``integral of f(t) e^{-delta t} over [0, inf)``.

        Each term needs ``delta - rate > 0``; otherwise the integral
        diverges and :class:`DivergentIntegral` is raised.  ``delta = 0``
        is allowed when every rate is strictly negative (plain cumulative
        total of a decaying path).  A nan rate raises InvalidDiscount, for
        every ExpPoly, the zero one included.
        """
        if math.isnan(delta):
            raise InvalidDiscount(f"discount rate must not be nan, got {delta!r}")
        for c, n, mu in self.terms:
            if delta - mu <= 0.0:
                raise DivergentIntegral(
                    f"term with rate {mu} does not decay under discount {delta}"
                )
        total = 0.0
        for c, n, mu in self.terms:
            total += c * math.factorial(n) / (delta - mu) ** (n + 1)
        return total

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def rates(self) -> tuple:
        return tuple(sorted({mu for _, _, mu in self.terms}))

    def max_rate(self) -> float:
        if not self.terms:
            return -math.inf
        return max(mu for _, _, mu in self.terms)

    def limit_at_infinity(self) -> float:
        """Limit as t -> inf; only defined when every non-constant term decays."""
        limit = 0.0
        for c, n, mu in self.terms:
            if mu > 0.0 or (mu == 0.0 and n > 0):
                raise ValueError("function does not converge as t -> inf")
            if mu == 0.0:
                limit += c
        return limit

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = [f"{c:g}*t^{n}*e^({mu:g}t)" for c, n, mu in self.terms]
        return "ExpPoly(" + " + ".join(bits) + ")"


def _stacked(polys):
    """Evaluator of ``polys[i]`` at row i of points ``t`` (rows x points),
    by :meth:`ExpPoly.__call__`'s arithmetic over a table of their terms
    padded with zero terms, which add exactly zero at a finite t."""
    width = max((len(p.terms) for p in polys), default=0)
    table = np.reshape([p.terms + ((0.0, 0, 0.0),) * (width - len(p.terms)) for p in polys],
                       (len(polys), width, 3))
    coeffs, powers, rates = table[..., 0], table[..., 1].astype(int), table[..., 2]
    def evaluate(t):
        t_powers = np.stack([t**n for n in range(powers.max(initial=0) + 1)])
        terms = (coeffs[..., None] * t_powers[powers, np.arange(len(t))[:, None]]
                 * np.exp(rates[..., None] * t[:, None, :]))
        out = np.zeros(terms.shape[::2])
        for j in range(terms.shape[1]):
            out = out + terms[:, j]
        return out
    return evaluate
