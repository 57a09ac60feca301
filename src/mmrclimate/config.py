"""Run configuration: a flat INI file with one section per concern.

The bundled ``data/default_config.ini`` reproduces the published middle
case; :func:`load_config` reads it when given no path.  ``e0 = auto``
resolves the initial cumulative-emissions stock from the
asymptotic-temperature anchor: the no-abatement temperature limit under
the anchor model equals ``anchor_temp_degc``, so E0 = anchor / ccr -
total baseline emissions.  Any float overrides it.

The format is one table, :data:`SCHEMA`: each section's keys in the
order :func:`save_config` writes them, each with the text
:func:`load_config` reads when a file leaves it out, or required (see
README for what each key means).  A section or key the table does not
name is refused, and so is any key under [DEFAULT]; [ensemble] keys are
model names (``NAME = ccr``, in the order m1..mN) and may be any.  A
missing required section or key is named.
"""

from __future__ import annotations

import configparser
import io
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
REQUIRED = None   # a key that has no default
# The config format: each section's keys in the order save_config writes
# them, each mapped to the text load_config reads when a file leaves it
# out, or to REQUIRED; [ensemble] keys are model names, so any goes.
SCHEMA = {
    "scenario": {"start_year": "2020", "e0": "auto", "anchor_temp_degc": "14.7",
                 "anchor_model": "HAD"},
    "baseline": {"variant": BASELINE_VARIANT, "theta": REQUIRED, "phi": REQUIRED,
                 "b0": REQUIRED, "data": "extended_rcp85_emissions.csv", "r_squared": ""},
    "economy": {"alpha": REQUIRED, "beta": REQUIRED, "report_scale": "1"},
    "uncertainty": {"deltas": REQUIRED, "alpha_grid": REQUIRED, "beta_grid": REQUIRED},
    "ensemble": None,
    "tolerances": {"root_tol": repr(ROOT_TOL)},
    "output": {"directory": "out", "formats": " ".join(FORMATS)},
}
OPTIONAL = ("tolerances", "output")   # the sections a config may leave out


def bundled_data_path(name: str) -> str:
    """Filesystem path of a file shipped under ``mmrclimate/data``."""
    return str(files("mmrclimate").joinpath("data", name))


@dataclass(frozen=True)
class ToleranceConfig:
    root_tol: float = ROOT_TOL


@dataclass(frozen=True)
class RunConfig:
    """A parsed config, held to the library's rules for its ensemble, grid
    cells and ``root_tol``, plus its own: ``formats`` one or more of
    :data:`FORMATS`, every response positive (``e0 = auto`` divides by the
    anchor's), model names distinct ignoring case (:meth:`model` ignores
    it) and both grids nonempty.  The engine's root rule holds for every
    model's closed loop under the weights and under each grid cell, at
    every rate, so no subcommand meets a model whose stiffness k = beta
    m^2 / alpha overflows."""

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
        if not self.formats or not set(self.formats) <= set(FORMATS):
            raise ValidationError(
                f"formats must name one or more of {', '.join(FORMATS)}; "
                f"got {' '.join(self.formats) or 'none'}")
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


def _parser() -> configparser.ConfigParser:
    """The one INI dialect: keys keep their case, values are literal."""
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    return parser


def load_config(path: str | None = None) -> RunConfig:
    """Read a config file, by default the bundled one: UTF-8 INI, with or
    without a byte-order mark, whose values are literal, with no ``%``
    substitution.  A syntax error is one line, with its line number, and
    so is a section or key that :data:`SCHEMA` does not name, or a
    required one that the file leaves out."""
    if path is None:
        path = bundled_data_path("default_config.ini")
    parser = _parser()
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
    text = {}
    for section, keys in SCHEMA.items():
        if section not in OPTIONAL and not parser.has_section(section):
            raise ParseError(f"bad config {path}: missing section [{section}]")
        for key, default in (keys or {}).items():
            text[key] = parser.get(section, key, fallback=default)
            if text[key] is REQUIRED:
                raise ParseError(f"bad config {path}: missing key {key!r} in [{section}]")

    try:
        r2 = text["r_squared"].strip()
        baseline = BaselineParams(
            theta=float(text["theta"]),
            phi=float(text["phi"]),
            b0=float(text["b0"]),
            r_squared=float(r2) if r2 else None,
        )
        variant = text["variant"]
        if variant != BASELINE_VARIANT:
            raise ParseError(
                f"bad config {path}: variant = {variant} is not supported; "
                f"the baseline form is {BASELINE_VARIANT}")
        ensemble = tuple(
            ClimateModel(name=name, ccr=float(value))
            for name, value in parser["ensemble"].items()
        )
        scale = text["report_scale"]
        if float(scale) != 1.0:
            raise ParseError(
                f"bad config {path}: report_scale = {scale} is not supported; "
                "scale alpha and beta (and alpha_grid, beta_grid) instead")
        return RunConfig(
            start_year=int(text["start_year"]),
            e0_setting=text["e0"],
            anchor_temp_degc=float(text["anchor_temp_degc"]),
            anchor_model=text["anchor_model"],
            baseline=baseline,
            data_file=text["data"],
            econ=EconParams(alpha=float(text["alpha"]), beta=float(text["beta"])),
            deltas=_floats(text["deltas"]),
            alpha_grid=_floats(text["alpha_grid"]),
            beta_grid=_floats(text["beta_grid"]),
            ensemble=ensemble,
            tolerances=ToleranceConfig(root_tol=float(text["root_tol"])),
            output_dir=text["directory"],
            formats=tuple(text["formats"].split()),
        )
    except ValueError as exc:
        raise ParseError(f"bad config {path}: {exc}") from exc


def _ini(sections: dict) -> str:
    """The text of ``sections`` ({section: {key: text}}) as a config file."""
    parser = _parser()
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _read_back(text: str) -> dict | None:
    """What :func:`load_config` reads from a file of ``text``, through
    UTF-8 and universal newlines, as {section: {key: text}}; None for a
    file it cannot read."""
    parser = _parser()
    try:
        text.encode("utf-8")
        parser.read_file(io.StringIO(text, newline=None))
    except (configparser.Error, UnicodeEncodeError):
        return None
    return {section: dict(parser[section]) for section in parser.sections()}


def save_config(config: RunConfig, path: str) -> None:
    """Serialize as UTF-8, with full float precision and literal values,
    each section's keys in :data:`SCHEMA`'s order, so a round trip is
    exact: text that :func:`load_config` would not read back as written
    (a model named ``#MIROC`` or ``MI=ROC``, a value with `` #`` in it,
    space at either end or a newline at the end) is refused with
    ValidationError naming its key, or its model, and no file is opened."""
    fields = {
        "start_year": str(config.start_year),
        "e0": config.e0_setting,
        "anchor_temp_degc": repr(config.anchor_temp_degc),
        "anchor_model": config.anchor_model,
        "variant": BASELINE_VARIANT,
        "theta": repr(config.baseline.theta),
        "phi": repr(config.baseline.phi),
        "b0": repr(config.baseline.b0),
        "data": config.data_file,
        "alpha": repr(config.econ.alpha),
        "beta": repr(config.econ.beta),
        "deltas": " ".join(repr(d) for d in config.deltas),
        "alpha_grid": " ".join(repr(a) for a in config.alpha_grid),
        "beta_grid": " ".join(repr(b) for b in config.beta_grid),
        "root_tol": repr(config.tolerances.root_tol),
        "directory": config.output_dir,
        "formats": " ".join(config.formats),
    }
    if config.baseline.r_squared is not None:
        fields["r_squared"] = repr(config.baseline.r_squared)
    sections = {}
    for section, keys in SCHEMA.items():
        if keys is None:
            sections[section] = {m.name: repr(m.ccr) for m in config.ensemble}
        else:   # report_scale is never written, nor an unknown r_squared
            sections[section] = {key: fields[key] for key in keys if key in fields}
    text = _ini(sections)
    if _read_back(text) != sections:
        # name the first key whose line does not read back after the
        # lines before it
        kept = {}
        for section, values in sections.items():
            kept[section] = {}
            for key, value in values.items():
                kept[section][key] = value
                if _read_back(_ini(kept)) != kept:
                    raise ValidationError(f"[{section}] {key!r} = {value!r} "
                                          "would not read back as written")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
