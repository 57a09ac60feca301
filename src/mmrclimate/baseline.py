"""Baseline emissions: data ingestion, curve fitting, exact representation.

The no-policy emissions trajectory B(t) follows the extended RCP 8.5
shape: rapid growth through the 21st century, a plateau in the first
half of the 22nd, then a decline toward a small residual.  A three
parameter curve

    B(t) = (theta*t + B0*exp(-theta*phi)) * theta * exp(-theta*(t - phi))

is fitted to a digitized emissions series by damped Gauss-Newton
(Levenberg-Marquardt, implemented here; no optimizer dependency).  The
form as printed decays as exp(-(t - phi)), one e-fold per year, which
cannot plateau in the 22nd century; scaling the decay by theta is what
lets the curve follow the extended RCP 8.5 data.

The fitted curve expands into a two-term :class:`~mmrclimate.exppoly.ExpPoly`,
which is the representation every downstream module consumes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, ParseError, ValidationError
from .exppoly import ExpPoly

MIN_POINTS = 10
MIN_SPAN_YEARS = 200.0
BASELINE_VARIANT = "theta-scaled"   # the only form; named in configs and reports
_INITIAL_GUESS = (0.01, 200.0, 1000.0)   # (theta, phi, b0)
_MAX_ITER = 500


@dataclass(frozen=True)
class EmissionsSeries:
    """Emissions samples (years since model start, GtC/yr)."""

    year_offsets: np.ndarray
    emissions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.year_offsets, dtype=float)
        e = np.asarray(self.emissions, dtype=float)
        object.__setattr__(self, "year_offsets", t)
        object.__setattr__(self, "emissions", e)
        if t.shape != e.shape or t.ndim != 1:
            raise ValidationError("year/emissions arrays must be 1-d and equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
            raise ValidationError("year offsets and emissions must be finite")
        if len(t) < MIN_POINTS:
            raise ValidationError(f"need at least {MIN_POINTS} points, got {len(t)}")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("year offsets must be strictly increasing")
        if t[-1] - t[0] < MIN_SPAN_YEARS:
            raise ValidationError(
                f"series must span at least {MIN_SPAN_YEARS:.0f} years"
            )
        if np.any(e < 0):
            raise ValidationError("emissions must be nonnegative")


@dataclass(frozen=True)
class BaselineParams:
    """Fitted curve parameters.

    theta: 1/years, shape rate.  phi: years, peak-location parameter.
    b0: level parameter (B(0) = b0*theta).
    """

    theta: float
    phi: float
    b0: float
    r_squared: float | None = None

    def __post_init__(self):
        if not (self.theta > 0 and self.phi > 0 and self.b0 > 0):
            raise ValidationError("theta, phi, b0 must all be positive")
        if self.r_squared is not None and not (0.0 <= self.r_squared <= 1.0):
            raise ValidationError(f"r_squared {self.r_squared} outside [0, 1]")


def load_emissions(path, start_year: int = 2020) -> EmissionsSeries:
    """Read a UTF-8 `year,emissions_gtc` CSV, with or without a byte-order
    mark, into offsets from ``start_year``.  Lines starting with ``#`` are
    comments; an error names the file's own line number, comments counted."""
    years, values = [], []
    numbers = []   # file line number of each line the reader has read

    def lines(fh):
        for number, line in enumerate(fh, start=1):
            if not line.lstrip().startswith("#"):
                numbers.append(number)
                yield line

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(lines(fh))
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header[:2] != ["year", "emissions_gtc"]:
                raise ParseError(
                    f"{path}: expected header 'year,emissions_gtc', got {header}"
                )
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    year, value = float(row[0]), float(row[1])
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{path}:{numbers[-1]}: malformed row {row!r}") from exc
                if not (math.isfinite(year) and math.isfinite(value)):
                    raise ParseError(f"{path}:{numbers[-1]}: non-finite value in row {row!r}")
                years.append(year)
                values.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not years:
        raise ParseError(f"{path}: no data rows")
    offsets = np.asarray(years) - float(start_year)
    return EmissionsSeries(offsets, np.asarray(values))


def eval_baseline(t, theta: float, phi: float, b0: float):
    """Direct evaluation of the fitted functional form (scalar or array t)."""
    t = np.asarray(t, dtype=float)
    out = (theta * t + b0 * np.exp(-theta * phi)) * theta * np.exp(-theta * (t - phi))
    if out.ndim == 0:
        return float(out)
    return out


def baseline_exppoly(params: BaselineParams) -> ExpPoly:
    """Expand the fitted curve into its exact two-term representation:

    theta^2 e^{theta phi} * t e^{-theta t}  +  b0 theta * e^{-theta t}

    A theta * phi too large for double precision raises ValidationError.
    """
    theta, phi, b0 = params.theta, params.phi, params.b0
    try:
        scale = theta * math.exp(theta * phi)
    except OverflowError:
        scale = math.inf
    lead, const = theta * scale, b0 * math.exp(-theta * phi) * scale
    if not (math.isfinite(lead) and math.isfinite(const)):
        raise ValidationError(
            f"baseline theta = {theta!r}, phi = {phi!r}: the expansion "
            f"overflows (theta * phi = {theta * phi:g})")
    return ExpPoly(((lead, 1, -theta), (const, 0, -theta)))


def cumulative_baseline(params: BaselineParams) -> float:
    """Total emissions over [0, inf) in GtC, exact.

    Evaluates the discounted integral at rate zero, which requires every
    term to decay; a non-decaying fit raises DivergentIntegral.
    """
    return baseline_exppoly(params).discounted_integral(0.0)


def fit_baseline(series: EmissionsSeries) -> BaselineParams:
    """Levenberg-Marquardt least squares on (theta, phi, b0).

    Starts from theta = 0.01, phi = 200, b0 = 1000.  Damping starts at
    1e-3, multiplied by 10 on a rejected step and divided by 10 on an
    accepted one; convergence when the relative SSR change of an
    accepted step drops below 1e-10, within 500 iterations.
    Deterministic.  Steps that leave the positive octant are rejected.
    """
    t = series.year_offsets
    y = series.emissions
    p = np.array(_INITIAL_GUESS)

    def residuals(params):
        with np.errstate(over="ignore", invalid="ignore"):
            return eval_baseline(t, *params) - y

    def jacobian(params):
        jac = np.empty((len(t), 3))
        for k in range(3):
            h = 1e-7 * max(abs(params[k]), 1e-4)
            hi, lo = params.copy(), params.copy()
            hi[k] += h
            lo[k] -= h
            jac[:, k] = (residuals(hi) - residuals(lo)) / (2.0 * h)
        return jac

    y_scale = float(y @ y) + 1e-300
    r = residuals(p)
    ssr = float(r @ r)
    lam = 1e-3
    for _ in range(_MAX_ITER):
        if ssr <= 1e-22 * y_scale:
            break   # perfect fit to float precision
        with np.errstate(over="ignore", invalid="ignore"):
            jac = jacobian(p)
        if not np.all(np.isfinite(jac)):
            raise NonConvergence("residuals overflow")
        jtj = jac.T @ jac
        g = jac.T @ r
        damp = np.diag(np.maximum(np.diag(jtj), 1e-12))
        try:
            step = np.linalg.solve(jtj + lam * damp, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = p + step
        if np.any(trial <= 0.0) or not np.all(np.isfinite(trial)):
            lam *= 10.0
            continue
        r_trial = residuals(trial)
        with np.errstate(over="ignore"):   # a step whose SSR overflows is rejected
            ssr_trial = float(r_trial @ r_trial)
        if not math.isfinite(ssr_trial) or ssr_trial >= ssr:
            lam *= 10.0
            if lam > 1e12:
                break   # stalled: no step improves, gradient is numerically flat
            continue
        improvement = (ssr - ssr_trial) / max(ssr, 1e-300)
        p, r, ssr = trial, r_trial, ssr_trial
        lam = max(lam / 10.0, 1e-14)
        if improvement < 1e-10:
            break
    else:
        raise NonConvergence(f"no convergence in {_MAX_ITER} iterations")

    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0.0:
        raise NonConvergence("degenerate series (zero variance); fit rejected")
    r2 = 1.0 - ssr / sst
    if r2 < 0.0:
        raise NonConvergence(
            f"fit explains nothing (r_squared = {r2:.3f})")
    return BaselineParams(theta=float(p[0]), phi=float(p[1]), b0=float(p[2]),
                          r_squared=r2)
