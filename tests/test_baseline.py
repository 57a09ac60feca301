"""Emissions ingestion and the three-parameter baseline fit."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from mmrclimate.baseline import (
    BaselineParams,
    EmissionsSeries,
    baseline_exppoly,
    cumulative_baseline,
    eval_baseline,
    fit_baseline,
    load_emissions,
)
from mmrclimate.config import bundled_data_path
from mmrclimate.errors import DivergentIntegral, NonConvergence, ParseError, ValidationError


@pytest.fixture(scope="module")
def bundled_series():
    return load_emissions(bundled_data_path("extended_rcp85_emissions.csv"))


@pytest.fixture(scope="module")
def bundled_fit(bundled_series):
    return fit_baseline(bundled_series)


class TestLoadEmissions:
    def test_offsets_from_start_year(self, tmp_path):
        rows = "\n".join(f"{2020 + 10 * i},{10.0 + i}" for i in range(25))
        path = tmp_path / "ok.csv"
        path.write_text("year,emissions_gtc\n" + rows + "\n")
        series = load_emissions(path, start_year=2020)
        assert series.year_offsets[0] == 0.0
        assert series.year_offsets[1] == 10.0
        assert series.emissions[1] == 11.0

    def test_negative_emissions_rejected(self, tmp_path):
        rows = "\n".join(f"{2020 + 10 * i},{10.0 + i}" for i in range(25))
        path = tmp_path / "neg.csv"
        path.write_text("year,emissions_gtc\n" + rows + "\n2290,-1.0\n")
        with pytest.raises(ValidationError):
            load_emissions(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_emissions(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("year,emissions_gtc\n")
        with pytest.raises(ParseError):
            load_emissions(path)

    def test_wrong_header_names_file_and_header(self, tmp_path):
        path = tmp_path / "co2.csv"
        path.write_text("year,co2_gtc\n2020,10.0\n")
        with pytest.raises(ParseError, match=r"co2\.csv: expected header .*'co2_gtc'"):
            load_emissions(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        # blank and whitespace-only rows read as absent: the same series,
        # so the same fit to the bit
        bundled = Path(bundled_data_path("extended_rcp85_emissions.csv")).read_text()
        lines = bundled.splitlines(keepends=True)
        path = tmp_path / "blank.csv"
        path.write_text("".join(lines[:5] + ["\n", " , \n", "\t\n"] + lines[5:] + ["\n"]))
        plain, spaced = (load_emissions(bundled_data_path("extended_rcp85_emissions.csv")),
                         load_emissions(path))
        assert spaced.year_offsets.tobytes() == plain.year_offsets.tobytes()
        assert spaced.emissions.tobytes() == plain.emissions.tobytes()
        assert fit_baseline(spaced) == fit_baseline(plain)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,emissions_gtc\n2020,ten\n")
        with pytest.raises(ParseError):
            load_emissions(path)

    def test_error_names_the_file_line_counting_comments(self, tmp_path):
        # the bundled series opens with two comment lines; a bad row on
        # file line 5 is reported as line 5
        bundled = Path(bundled_data_path("extended_rcp85_emissions.csv")).read_text()
        lines = bundled.splitlines(keepends=True)
        assert [line.startswith("#") for line in lines[:3]] == [True, True, False]
        lines[4] = "2030;12.40\n"
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=r"bad\.csv:5: malformed row"):
            load_emissions(path)

    @pytest.mark.parametrize("row", ["2040,nan", "2040,inf", "2040,-inf", "nan,14.7",
                                     "inf,14.7", "2040,1e309"])
    def test_non_finite_row_names_its_line(self, tmp_path, row):
        rows = [f"{2020 + 10 * i},{10.0 + i}" for i in range(25)]
        rows[2] = row
        path = tmp_path / "nonfinite.csv"
        path.write_text("# a comment\nyear,emissions_gtc\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"nonfinite\.csv:5: non-finite value"):
            load_emissions(path)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        rows = "\n".join(f"{2020 + 10 * i},{10.0 + i}" for i in range(25))
        path = tmp_path / "latin.csv"
        path.write_bytes(b"# caf\xe9\nyear,emissions_gtc\n" + rows.encode() + b"\n")
        with pytest.raises(ParseError, match="latin.csv: 'utf-8' codec"):
            load_emissions(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["year_offsets", "emissions"])
    def test_series_refuses_non_finite_arrays(self, field, bad):
        arrays = {"year_offsets": np.arange(0.0, 250.0, 10.0),
                  "emissions": np.full(25, 10.0)}
        arrays[field][3] = bad
        with pytest.raises(ValidationError, match="finite"):
            EmissionsSeries(**arrays)

    @pytest.mark.parametrize("year_offsets, emissions", [
        (np.arange(0.0, 250.0, 10.0), np.full(24, 10.0)),
        (np.arange(0.0, 250.0, 10.0).reshape(5, 5), np.full((5, 5), 10.0)),
    ], ids=["unequal-length", "2-d"])
    def test_series_refuses_misshapen_arrays(self, year_offsets, emissions):
        with pytest.raises(ValidationError, match="1-d and equal length"):
            EmissionsSeries(year_offsets, emissions)

    def test_series_spanning_under_200_years(self):
        with pytest.raises(ValidationError, match="span at least 200 years"):
            EmissionsSeries(np.arange(0.0, 151.0, 10.0), np.full(16, 10.0))

    def test_non_increasing_years(self, tmp_path):
        rows = "\n".join(f"{2020 + 10 * i},{10.0}" for i in range(25))
        path = tmp_path / "dup.csv"
        path.write_text("year,emissions_gtc\n" + rows + "\n2260,9.0\n")
        with pytest.raises(ValidationError):
            load_emissions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_emissions(tmp_path / "nope.csv")

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "few.csv"
        path.write_text("year,emissions_gtc\n2020,10\n2260,5\n")
        with pytest.raises(ValidationError):
            load_emissions(path)


class TestFit:
    def test_exact_recovery(self):
        truth = BaselineParams(theta=0.012, phi=650.0, b0=360.0)
        t = np.arange(0.0, 481.0, 10.0)
        y = eval_baseline(t, truth.theta, truth.phi, truth.b0)
        series = EmissionsSeries(t, y)
        fitted = fit_baseline(series)
        assert fitted.theta == pytest.approx(truth.theta, rel=1e-6)
        assert fitted.phi == pytest.approx(truth.phi, rel=1e-6)
        assert fitted.b0 == pytest.approx(truth.b0, rel=1e-6)
        assert fitted.r_squared > 1.0 - 1e-10

    def test_bundled_scenario_r_squared(self, bundled_fit):
        # scenario-data fit quality: 0.927 within 0.02 either way
        assert bundled_fit.r_squared == pytest.approx(0.927, abs=0.02)
        assert bundled_fit.r_squared >= 0.90

    def test_all_zero_series_rejected(self):
        t = np.arange(0.0, 481.0, 10.0)
        series = EmissionsSeries(t, np.zeros_like(t))
        with pytest.raises(NonConvergence):
            fit_baseline(series)

    def test_deterministic(self, bundled_series):
        a = fit_baseline(bundled_series)
        b = fit_baseline(bundled_series)
        assert a.theta == b.theta and a.phi == b.phi and a.b0 == b.b0

    def test_single_interior_maximum(self, bundled_fit):
        curve = baseline_exppoly(bundled_fit)
        grid = np.linspace(0.0, 500.0, 5001)
        values = curve(grid)
        rises = np.diff(values) > 0
        assert int(np.sum(rises[:-1] & ~rises[1:])) == 1


class TestBaselineExpPoly:
    def test_theta_scaled_expansion(self, bundled_fit):
        p = bundled_fit
        curve = baseline_exppoly(p)
        # two terms: theta^2 e^{theta phi} t e^{-theta t} + b0 theta e^{-theta t}
        assert len(curve.terms) == 2
        for t in (0.0, 50.0, 200.0):
            direct = (p.theta * t + p.b0 * math.exp(-p.theta * p.phi)) \
                * p.theta * math.exp(-p.theta * (t - p.phi))
            assert curve(t) == pytest.approx(direct, rel=1e-12)

    def test_value_at_zero(self, bundled_fit):
        p = bundled_fit
        assert baseline_exppoly(p)(0.0) == pytest.approx(p.b0 * p.theta, rel=1e-12)

    def test_match_at_phi(self):
        p = BaselineParams(theta=0.02, phi=120.0, b0=500.0)
        direct = eval_baseline(p.phi, p.theta, p.phi, p.b0)
        assert baseline_exppoly(p)(p.phi) == pytest.approx(direct, rel=1e-12)

    def test_grid_agreement(self, bundled_fit):
        p = bundled_fit
        curve = baseline_exppoly(p)
        t = np.arange(0.0, 501.0)
        direct = eval_baseline(t, p.theta, p.phi, p.b0)
        np.testing.assert_allclose(curve(t), direct, rtol=1e-10)


class TestCumulativeBaseline:
    def test_closed_form_total(self, bundled_fit):
        p = bundled_fit
        # integral of the expanded form: e^{theta phi} + b0
        expected = math.exp(p.theta * p.phi) + p.b0
        assert cumulative_baseline(p) == pytest.approx(expected, rel=1e-12)

    def test_against_quadrature(self, bundled_fit):
        p = bundled_fit
        curve = baseline_exppoly(p)
        total, _ = quad(curve, 0.0, 3000.0, limit=500)
        assert cumulative_baseline(p) == pytest.approx(total, rel=1e-6)

    def test_divergent_when_not_decaying(self):
        from mmrclimate.exppoly import ExpPoly

        growing = ExpPoly.term(1.0, 0, 0.01)
        with pytest.raises(DivergentIntegral):
            growing.discounted_integral(0.0)

    def test_simple_decay_totals(self):
        from mmrclimate.exppoly import ExpPoly

        assert ExpPoly.term(10.0, 0, -0.01).discounted_integral(0.0) == \
            pytest.approx(1000.0, rel=1e-13)
        assert ExpPoly.term(1.0, 1, -0.02).discounted_integral(0.0) == \
            pytest.approx(2500.0, rel=1e-13)
