"""Run configuration: a flat INI file with one section per concern.

The bundled ``data/default_config.ini`` reproduces the published middle
case; :func:`load_config` reads it when given no path.  ``e0 = auto``
resolves the initial cumulative-emissions stock from the
asymptotic-temperature anchor: the no-abatement temperature limit under
the anchor model equals ``anchor_temp_degc``, so E0 = anchor / ccr -
total baseline emissions.  Any float overrides it.

Schema (see README for the full key list)::

    [scenario]   start_year, e0, anchor_temp_degc, anchor_model
    [baseline]   variant (theta-scaled only), theta, phi, b0, r_squared,
                 data   (the series fit-baseline fits)
    [economy]    alpha, beta, report_scale (1 only)
    [uncertainty] deltas, alpha_grid, beta_grid   (space separated)
    [ensemble]   NAME = ccr   (one per model, order defines m1..mN; each
                 loop's k = beta ccr^2 / alpha keeps finite roots under
                 every weight)
    [tolerances] root_tol   (bracket width of the peak search, years)
    [output]     directory, formats   (a nonempty subset of csv txt svg)

A section or key the schema does not name is refused, and so is any
key under [DEFAULT]; [ensemble] keys are model names and may be any.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib.resources import files

import numpy as np

from .baseline import (
    BASELINE_VARIANT,
    BaselineParams,
    baseline_exppoly,
    cumulative_baseline,
)
from .control import ScenarioConfig, _roots, _stiffness, closed_loop_integrals
from .economy import ClimateModel, EconParams
from .errors import NonConvergence, ParseError, ValidationError
from .regret import ROOT_TOL, _halvings, build_states

FORMATS = ("csv", "txt", "svg")
# the keys of each section; [ensemble] keys are model names, so any goes
SCHEMA = {
    "scenario": {"start_year", "e0", "anchor_temp_degc", "anchor_model"},
    "baseline": {"variant", "theta", "phi", "b0", "r_squared", "data"},
    "economy": {"alpha", "beta", "report_scale"},
    "uncertainty": {"deltas", "alpha_grid", "beta_grid"},
    "ensemble": None,
    "tolerances": {"root_tol"},
    "output": {"directory", "formats"},
}


def bundled_data_path(name: str) -> str:
    """Filesystem path of a file shipped under ``mmrclimate/data``."""
    return str(files("mmrclimate").joinpath("data", name))


@dataclass(frozen=True)
class ToleranceConfig:
    root_tol: float = ROOT_TOL


@dataclass(frozen=True)
class RunConfig:
    """A parsed config, held to the library's rules for its ensemble, grid
    cells and ``root_tol``, plus its own: every response positive (``e0 =
    auto`` divides by the anchor's), model names distinct ignoring case
    (:meth:`model` ignores it) and both grids nonempty.  The engine's
    root rule holds for every model's closed loop under the weights and
    under each grid cell, at every rate, so no subcommand meets a model
    whose stiffness k = beta m^2 / alpha overflows."""

    start_year: int
    e0_setting: str                  # "auto" or a float literal
    anchor_temp_degc: float
    anchor_model: str
    baseline: BaselineParams
    data_file: str
    econ: EconParams
    deltas: tuple
    alpha_grid: tuple
    beta_grid: tuple
    ensemble: tuple                  # ClimateModel, order defines m1..mN
    tolerances: ToleranceConfig
    output_dir: str
    formats: tuple

    def __post_init__(self):
        build_states(self.deltas, self.ensemble)
        names = {}
        for m in self.ensemble:
            if m.name.lower() in names:
                raise ValidationError(f"ensemble names {names[m.name.lower()]!r} and "
                                      f"{m.name!r} are the same ignoring case")
            names[m.name.lower()] = m.name
        _halvings(self.tolerances.root_tol)
        if any(m.ccr <= 0 for m in self.ensemble):
            raise ValidationError("ensemble responses must be positive")
        if not self.alpha_grid or not self.beta_grid:
            raise ValidationError("alpha/beta grids must be nonempty")
        weights = [(self.econ.alpha, self.econ.beta)]
        for alpha in self.alpha_grid:
            for beta in self.beta_grid:
                EconParams(alpha=alpha, beta=beta)
                weights.append((alpha, beta))
        deltas = np.array(self.deltas)
        _roots(deltas, 0.0)   # a rate whose square overflows is named alone
        # the roots grow with k, so every loop passes if the stiffest does
        model = max(self.ensemble, key=lambda m: m.ccr)
        alpha, beta = max(weights, key=lambda w: _stiffness(*w, model.ccr))
        try:
            _roots(deltas, _stiffness(alpha, beta, model.ccr))
        except ValidationError as exc:
            raise ValidationError(
                f"[ensemble] {model.name} = {model.ccr!r} under alpha = {alpha!r}, "
                f"beta = {beta!r}: {exc}") from None

    def model(self, name: str) -> ClimateModel:
        for m in self.ensemble:
            if m.name.lower() == name.lower():
                return m
        known = ", ".join(m.name for m in self.ensemble)
        raise ValidationError(f"unknown model {name!r}; ensemble has: {known}")

    def resolved_e0(self) -> float:
        if self.e0_setting.strip().lower() == "auto":
            anchor = self.model(self.anchor_model)
            e0 = self.anchor_temp_degc / anchor.ccr - cumulative_baseline(self.baseline)
        else:
            try:
                e0 = float(self.e0_setting)
            except ValueError as exc:
                raise ValidationError(
                    f"e0 must be a number or 'auto', got {self.e0_setting!r}"
                ) from exc
        if e0 < 0:
            raise ValidationError(f"resolved initial stock is negative ({e0:.1f} GtC)")
        return e0

    def to_scenario(self) -> ScenarioConfig:
        """Build the solver scenario, bounding the initial stock here, once
        for every subcommand, by what the cost engine needs: the no-abatement
        (k = 0) cost integrals, which grow like e0**2 / delta, must be finite at
        every configured discount rate.  Past that (near e0 = 1e154 GtC at
        the bundled rates) no policy can be costed, and a printed path or
        peak temperature would mean nothing; NonConvergence (a numerical
        failure) is raised.
        """
        scenario = ScenarioConfig(
            baseline=baseline_exppoly(self.baseline),
            e0=self.resolved_e0(),
            econ=self.econ,
            start_year=self.start_year,
        )
        passive = closed_loop_integrals([1.0], [0.0], self.deltas, scenario)
        if not np.all(np.isfinite(passive)):
            raise NonConvergence(
                f"cost integrals are not finite at e0 = {scenario.e0!r}: the "
                "initial stock is too large for double precision")
        return scenario


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


def load_config(path: str | None = None) -> RunConfig:
    """Read a config file, by default the bundled one: UTF-8 INI, with or
    without a byte-order mark, whose values are literal, with no ``%``
    substitution.  A syntax error is one line, with its line number, and
    so is a section or key that :data:`SCHEMA` does not name."""
    if path is None:
        path = bundled_data_path("default_config.ini")
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser spreads a syntax error over several lines
        raise ParseError(f"bad config {path}: {' '.join(str(exc).split())}") from exc
    # a misspelt name would leave its default in place unseen, and a
    # [DEFAULT] key would reach every section, [ensemble] too
    if parser.defaults():
        raise ParseError(f"bad config {path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ParseError(f"bad config {path}: unknown section [{section}]")
        for key in parser[section]:
            if SCHEMA[section] is not None and key not in SCHEMA[section]:
                raise ParseError(f"bad config {path}: unknown key {key!r} in [{section}]")

    try:
        scen = parser["scenario"]
        base = parser["baseline"]
        econ = parser["economy"]
        unc = parser["uncertainty"]
        ens = parser["ensemble"]
        tol = parser["tolerances"] if parser.has_section("tolerances") else {}
        out = parser["output"] if parser.has_section("output") else {}

        r2 = base.get("r_squared", "").strip()
        baseline = BaselineParams(
            theta=float(base["theta"]),
            phi=float(base["phi"]),
            b0=float(base["b0"]),
            r_squared=float(r2) if r2 else None,
        )
        variant = base.get("variant", BASELINE_VARIANT)
        if variant != BASELINE_VARIANT:
            raise ParseError(
                f"bad config {path}: variant = {variant} is not supported; "
                f"the baseline form is {BASELINE_VARIANT}")
        ensemble = tuple(
            ClimateModel(name=name, ccr=float(value)) for name, value in ens.items()
        )
        scale = econ.get("report_scale", "1")
        if float(scale) != 1.0:
            raise ParseError(
                f"bad config {path}: report_scale = {scale} is not supported; "
                "scale alpha and beta (and alpha_grid, beta_grid) instead")
        formats = tuple(out.get("formats", " ".join(FORMATS)).split())
        if not formats or not set(formats) <= set(FORMATS):
            raise ParseError(
                f"bad config {path}: formats must name one or more of "
                f"{', '.join(FORMATS)}; got {' '.join(formats) or 'none'}")
        return RunConfig(
            start_year=int(scen.get("start_year", "2020")),
            e0_setting=scen.get("e0", "auto"),
            anchor_temp_degc=float(scen.get("anchor_temp_degc", "14.7")),
            anchor_model=scen.get("anchor_model", "HAD"),
            baseline=baseline,
            data_file=base.get("data", "extended_rcp85_emissions.csv"),
            econ=EconParams(alpha=float(econ["alpha"]), beta=float(econ["beta"])),
            deltas=_floats(unc["deltas"]),
            alpha_grid=_floats(unc["alpha_grid"]),
            beta_grid=_floats(unc["beta_grid"]),
            ensemble=ensemble,
            tolerances=ToleranceConfig(root_tol=float(tol.get("root_tol", ROOT_TOL))),
            output_dir=out.get("directory", "out"),
            formats=formats,
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad config {path}: {exc}") from exc


def save_config(config: RunConfig, path: str) -> None:
    """Serialize as UTF-8 with full float precision and literal values, so
    a round trip is exact."""
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str
    parser["scenario"] = {
        "start_year": str(config.start_year),
        "e0": config.e0_setting,
        "anchor_temp_degc": repr(config.anchor_temp_degc),
        "anchor_model": config.anchor_model,
    }
    parser["baseline"] = {
        "variant": BASELINE_VARIANT,
        "theta": repr(config.baseline.theta),
        "phi": repr(config.baseline.phi),
        "b0": repr(config.baseline.b0),
        "data": config.data_file,
    }
    if config.baseline.r_squared is not None:
        parser["baseline"]["r_squared"] = repr(config.baseline.r_squared)
    parser["economy"] = {
        "alpha": repr(config.econ.alpha),
        "beta": repr(config.econ.beta),
    }
    parser["uncertainty"] = {
        "deltas": " ".join(repr(d) for d in config.deltas),
        "alpha_grid": " ".join(repr(a) for a in config.alpha_grid),
        "beta_grid": " ".join(repr(b) for b in config.beta_grid),
    }
    parser["ensemble"] = {m.name: repr(m.ccr) for m in config.ensemble}
    parser["tolerances"] = {"root_tol": repr(config.tolerances.root_tol)}
    parser["output"] = {
        "directory": config.output_dir,
        "formats": " ".join(config.formats),
    }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
