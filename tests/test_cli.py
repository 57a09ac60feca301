"""Command line surface: subcommands, exit codes, file outputs,
byte-for-byte determinism."""

import csv
import dataclasses
import errno
import importlib
import io
import os
import re
import subprocess
import sys
import typing
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

import mmrclimate
from mmrclimate import cli, report
from mmrclimate.baseline import fit_baseline, load_emissions
from mmrclimate.cli import main
from mmrclimate.config import SCHEMA, RunConfig, bundled_data_path, load_config, save_config
from mmrclimate.control import char_roots, solve_optimal
from mmrclimate.economy import ClimateModel
from mmrclimate.errors import ValidationError
from mmrclimate.regret import (build_policy_set, build_states, mmr_select,
                               regret_matrix, tmax)


GOLDEN = Path(__file__).parent / "data" / "golden"

# the sections and keys a config must give; every other key has a default
REQUIRED_SECTIONS = ["scenario", "baseline", "economy", "uncertainty", "ensemble"]
REQUIRED_KEYS = {"baseline": ["theta", "phi", "b0"], "economy": ["alpha", "beta"],
                 "uncertainty": ["deltas", "alpha_grid", "beta_grid"]}


class BrokenPipe(io.StringIO):
    """A stdout whose reader is gone, as under ``mmrclimate ... | head``
    with unbuffered output."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class BufferedBrokenPipe(io.StringIO):
    """A stdout whose reader is gone and which buffered every line, so
    only the last flush fails."""

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def child_env():
    """The environment of a child process that imports the package this
    suite imports, whether from the checkout or from an install."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(mmrclimate.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "out")


def run(args, outdir=None, config=None):
    argv = []
    if config:
        argv += ["--config", str(config)]
    if outdir:
        argv += ["--output-dir", str(outdir)]
    return main(argv + args)


@pytest.fixture(scope="module")
def small_config_path(tmp_path_factory):
    """Reduced ensemble so matrix-heavy commands stay fast."""
    from dataclasses import replace
    from mmrclimate.economy import ClimateModel

    cfg = load_config()
    cfg = replace(
        cfg,
        deltas=(0.02, 0.05),
        alpha_grid=(0.000125,),
        beta_grid=(0.018,),
        ensemble=(ClimateModel("HAD", 0.002286), ClimateModel("MIROC", 0.00244)),
    )
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    save_config(cfg, str(path))
    return str(path)


class TestSolve:
    def test_writes_annual_samples_and_prints_cost(self, outdir, capsys):
        assert run(["solve", "--delta", "0.05", "--model", "HAD"], outdir) == 0
        out = capsys.readouterr().out
        assert "J* = 0.50" in out
        path = os.path.join(outdir, "solution_d0.05_HAD.csv")
        lines = Path(path).read_text().splitlines()
        header = lines[1]
        assert header.startswith("year,t_years,baseline_gtc_yr,abatement_gtc_yr")
        assert len(lines) == 2 + 501   # stamp + header + years 0..500
        assert lines[2].startswith("2020,0,")

    def test_rows_match_scalar_evaluation(self):
        # the writer evaluates whole columns at once; each row must read as
        # if every path were evaluated at its own year alone (0.03/FIO is
        # the closest to resonance of the default policies)
        from mmrclimate import report
        from mmrclimate.economy import net_cumulative_emissions
        from mmrclimate.exppoly import ExpPoly

        config = load_config()
        scenario = config.to_scenario()
        sol = solve_optimal(0.03, config.model("FIO"), scenario)
        passive = net_cumulative_emissions(ExpPoly.zero(), scenario.baseline,
                                           scenario.e0)
        rows = report.solution_csv(sol, scenario, 1000,
                                   timestamp=False).splitlines()[1:]
        assert len(rows) == 1001
        for year, row in enumerate(rows):
            t = float(year)
            assert row == (
                f"{scenario.start_year + year},{year},{scenario.baseline(t):.6f},"
                f"{sol.abatement(t):.6f},{sol.net_emissions(t):.4f},"
                f"{passive(t):.4f},{sol.temperature(t):.6f}")

    def test_zero_discount_refused(self, outdir, capsys):
        code = run(["solve", "--delta", "0", "--model", "HAD"], outdir)
        assert code == 2
        assert "transversality" in capsys.readouterr().err

    def test_unknown_model_lists_ensemble(self, outdir, capsys):
        code = run(["solve", "--delta", "0.05", "--model", "NOPE"], outdir)
        assert code == 2
        err = capsys.readouterr().err
        for name in ("GFDL", "BCC", "FIO", "HAD", "IPSL", "MIROC"):
            assert name in err


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ["solve", "--delta", "inf", "--model", "HAD"],
        ["solve", "--delta", "nan", "--model", "HAD"],
        ["solve", "--delta", "-1", "--model", "HAD"],
        ["tmax", "--delta", "0", "--model", "IPSL"],
        ["mmr", "--beta", "inf"],
    ], ids=["delta-inf", "delta-nan", "delta-negative", "tmax-delta-zero",
            "beta-inf"])
    def test_usage_error_exit_code(self, args, outdir, capsys):
        assert run(args, outdir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not os.path.exists(outdir) or not os.listdir(outdir)
        if args[0] == "tmax":
            # tmax names the policy pair, and a bad input is no solver failure
            assert "delta=0" in err.splitlines()[0] and "solver failed" not in err

    @pytest.mark.parametrize("horizon", ["5", "100000000000"])
    def test_solve_takes_no_horizon(self, horizon, outdir, capsys):
        # solve always writes 500 years; an unknown option is argparse's exit 2
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--delta", "0.02", "--model", "IPSL", "--horizon", horizon],
                outdir)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --horizon" in err and "Traceback" not in err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("args", [["--no-abatement", "--delta", "0.02"],
                                      ["--delta", "0.02"], ["--model", "IPSL"]],
                             ids=" ".join)
    def test_tmax_flag_combinations_are_usage_errors(self, args):
        parsed = cli.build_parser().parse_args(["tmax", *args])
        with pytest.raises(ValidationError):
            cli.cmd_tmax(parsed, load_config())

    @pytest.mark.parametrize("root_tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["tmax", "sweep"])
    def test_bad_root_tol_fails_fast(self, command, root_tol, tmp_path,
                                     small_config_path):
        # a tolerance <= 0 never ends the peak search's bisection, so run
        # in a child process that a hang cannot outlive
        text = Path(small_config_path).read_text()
        path = tmp_path / "tol.ini"
        path.write_text(text.replace("root_tol = 1e-06", f"root_tol = {root_tol}"))
        outdir = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "mmrclimate.cli", "--config", str(path),
             "--output-dir", str(outdir), command],
            capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "root_tol" in proc.stderr
        assert not outdir.exists() or not os.listdir(outdir)

    @staticmethod
    def _default_config_with(tmp_path, pattern, line):
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "edited.ini"
        path.write_text(re.sub(pattern, line, text, count=1, flags=re.M))
        return path

    def test_baseline_overflow_is_config_error(self, tmp_path, capsys):
        # theta * phi ~ 1.3e7 overflows the baseline's exp(theta * phi)
        path = self._default_config_with(tmp_path, r"^phi = .*$", "phi = 1e9")
        outdir = tmp_path / "o"
        assert run(["tmax"], outdir, config=path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "phi" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", [
        ["mmr"], ["regret-table"], ["sweep"],
        ["solve", "--delta", "0.05", "--model", "HAD"],
    ], ids=lambda args: args[0])
    def test_non_finite_costs_are_numerical_failure(self, command, tmp_path,
                                                    capsys):
        path = self._default_config_with(tmp_path, r"^e0 = auto$", "e0 = 1e308")
        outdir = tmp_path / "o"
        assert run(command, outdir, config=path) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "not finite" in err
        assert "nan" not in (out + err).lower()
        assert not outdir.exists()

    SUBCOMMANDS = [
        ["fit-baseline"], ["solve", "--delta", "0.05", "--model", "HAD"],
        ["regret-table"], ["mmr"], ["tmax"], ["tmax", "--delta", "0.05", "--model", "IPSL"],
        ["tmax", "--no-abatement"], ["sweep"],
    ]

    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
    @pytest.mark.parametrize("e0", ["1e160", "1e200", "1e308"])
    def test_oversized_e0_is_numerical_failure_everywhere(self, command, e0,
                                                          tmp_path, capsys):
        # the stock is bounded where the scenario is built, so a subcommand
        # that reads no cost cannot print a peak of ~1e157 degC or more
        path = self._default_config_with(tmp_path, r"^e0 = auto$", f"e0 = {e0}")
        outdir = tmp_path / "o"
        assert run(command, outdir, config=path) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "not finite" in err
        assert "degC" not in out
        assert not outdir.exists()

    @pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
    @pytest.mark.parametrize("e0", [None, "1e6"])
    def test_e0_within_bound_runs(self, command, e0, tmp_path, capsys):
        path = None if e0 is None else self._default_config_with(
            tmp_path, r"^e0 = auto$", f"e0 = {e0}")
        assert run(command, tmp_path / "o", config=path) == 0

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_configured_delta_is_config_error(self, delta, tmp_path,
                                                         capsys):
        # caught where the config is read, before the scenario's e0 bound
        # integrates at the configured rates, so even a subcommand that
        # reads no rate stops there
        path = self._default_config_with(tmp_path, r"^deltas = .*$",
                                         f"deltas = 0.01 {delta}")
        assert run(["tmax", "--no-abatement"], tmp_path / "o", config=path) == 2
        assert "deltas must be positive, finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("alpha_grid", "nan", "alpha and beta must be positive and finite"),
        ("beta_grid", "-1 0.018", "alpha and beta must be positive and finite"),
        ("root_tol", "nan", "root_tol must be positive and finite"),
        ("GFDL", "1e300", "[ensemble] GFDL = 1e+300 under alpha = 0.000125"),
        ("alpha_grid", "7.5e-05 1e-318", "[ensemble] MIROC = 0.00244 under alpha = 1e-318"),
    ])
    def test_bad_sweep_setting_is_config_error(self, key, value, message,
                                               tmp_path, capsys):
        # each obeys the library's own rule where the config is read, so
        # fit-baseline cannot write a config that sweep would then refuse
        path = self._default_config_with(tmp_path, rf"^{key} = .*$", f"{key} = {value}")
        outdir = tmp_path / "o"
        assert run(["fit-baseline"], outdir, config=path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", SUBCOMMANDS + [
        [*args, "--alpha", "1e-320"] for args in SUBCOMMANDS
        if args[0] in ("regret-table", "mmr", "tmax")], ids=" ".join)
    def test_overflowing_stiffness_is_config_error_everywhere(self, command, tmp_path,
                                                              capsys):
        # k = beta m^2 / alpha is infinite for GFDL = 1e300 under any weights,
        # and for every model under alpha = 1e-320; the config check names a
        # model, its response and the weights, even where no such loop is solved
        config = None if "--alpha" in command else self._default_config_with(
            tmp_path, r"^GFDL = .*$", "GFDL = 1e300")
        outdir = tmp_path / "o"
        assert run(command, outdir, config=config) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: [ensemble] ") and err.count("\n") == 1
        assert ("GFDL = 1e+300" if config else "alpha = 1e-320") in err
        assert "degC" not in out
        assert not outdir.exists()

    @staticmethod
    def _assert_names_rate(code, rate, outdir, capsys):
        # exit 2 with one error line naming the rate, and no file written
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and repr(float(rate)) in err
        assert not outdir.exists()

    @pytest.mark.parametrize("delta", ["1e200", "1e308"])
    @pytest.mark.parametrize("command", ["solve", "tmax"])
    def test_huge_delta_is_usage_error(self, command, delta, tmp_path, capsys):
        # delta^2 overflows, so the characteristic roots are not finite
        outdir = tmp_path / "o"
        code = run([command, "--delta", delta, "--model", "IPSL"], outdir)
        self._assert_names_rate(code, delta, outdir, capsys)

    @pytest.mark.parametrize("command", ["regret-table", "mmr", "sweep", "tmax"])
    def test_huge_configured_delta_is_config_error(self, command, tmp_path, capsys):
        # the e0 in the scenario is fine; the rate is what overflows
        path = self._default_config_with(tmp_path, r"^(deltas = .*)$", r"\1 1e308")
        outdir = tmp_path / "o"
        code = run([command], outdir, config=path)
        self._assert_names_rate(code, "1e308", outdir, capsys)

    @pytest.mark.parametrize("command", ["mmr", "regret-table"])
    def test_huge_beta_is_numerical_failure_naming_beta(self, command, tmp_path,
                                                        capsys):
        # the scenario's e0 is fine; beta is what makes the costs overflow
        outdir = tmp_path / "o"
        assert run([command, "--beta", "1e308"], outdir) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "beta" in err and "not finite" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("pair", [["--delta", "0.02", "--model", "IPSL"],
                                      ["--delta", "0.02"], ["--model", "IPSL"]],
                             ids=" ".join)
    def test_no_abatement_takes_no_policy_pair(self, pair, tmp_path, capsys):
        # a pair cannot apply to the passive path, so it is refused, not ignored
        outdir = tmp_path / "o"
        assert run(["tmax", "--no-abatement", *pair], outdir) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--no-abatement" in err and "Traceback" not in err
        assert "no peak" not in out
        assert not outdir.exists()

    def test_large_delta_within_bound_runs(self, tmp_path):
        assert run(["solve", "--delta", "1e150", "--model", "IPSL"], tmp_path / "o") == 0

    def test_output_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert run(["tmax"], path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_tmax_prints_no_table_when_its_file_cannot_be_written(self, tmp_path,
                                                                  capsys):
        path = tmp_path / "taken"
        path.write_text("")
        for extra in ([], ["--no-abatement"]):
            assert run(["tmax", *extra], path) == 2
            out = capsys.readouterr().out
            assert "peak in" not in out and "no peak" not in out, extra

    def test_tmax_does_not_blame_its_file_when_stdout_fails(self, tmp_path, capsys,
                                                           monkeypatch):
        # a closed pipe on stdout (mmrclimate tmax | head) fails the table's
        # print once tmax.csv is written in full: that is no file error
        args = ["--no-timestamp", "tmax", "--delta", "0.02", "--model", "IPSL"]
        assert run(args, tmp_path / "ok") == 0
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert run(args, tmp_path / "broken") == 141
        assert "tmax.csv" not in capsys.readouterr().err
        assert ((tmp_path / "broken" / "tmax.csv").read_bytes()
                == (tmp_path / "ok" / "tmax.csv").read_bytes())


class TestClosedStdout:
    @pytest.mark.parametrize("command", [
        ["fit-baseline"], ["solve", "--delta", "0.02", "--model", "HAD"],
        ["regret-table"], ["mmr"], ["tmax"], ["sweep"]], ids=lambda command: command[0])
    def test_run_writes_every_file_and_exits_141(self, command, tmp_path, capsys,
                                                 monkeypatch, small_config_path):
        args = ["--no-timestamp", *command]
        ok = tmp_path / "ok"
        assert run(args, ok, small_config_path) == 0
        names = sorted(os.listdir(ok)) if ok.exists() else []   # mmr writes none
        for stdout in (BrokenPipe, BufferedBrokenPipe):
            closed = tmp_path / stdout.__name__
            monkeypatch.setattr(sys, "stdout", stdout())
            assert run(args, closed, small_config_path) == 141, stdout
            assert capsys.readouterr().err == ""
            assert (sorted(os.listdir(closed)) if closed.exists() else []) == names
            for name in names:
                assert (closed / name).read_bytes() == (ok / name).read_bytes(), name

    @pytest.mark.parametrize("unbuffered, taken", [("1", 1), ("", 0)],
                             ids=["unbuffered-one-byte", "buffered-none"])
    def test_pipe_closed_by_its_reader(self, unbuffered, taken, tmp_path):
        # a real pipe whose reader takes a byte or none and exits: the exit
        # races the writes, so the run exits 0 or 141, with nothing on
        # stderr and every file equal to a normal run's.  Unbuffered, the
        # child prints each line as it goes, so the pipe can close before
        # its later files are written; buffered, its whole report is one
        # write at the last flush, which must not fail again at exit
        args = ["--no-timestamp", "regret-table"]
        ok, closed = tmp_path / "ok", tmp_path / "closed"
        assert run(args, ok) == 0
        command = [sys.executable, "-m", "mmrclimate.cli", "--output-dir", str(closed), *args]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(child_env(), PYTHONUNBUFFERED=unbuffered)) as proc:
            proc.stdout.read(taken)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode in (0, 141)
        assert err == b""
        names = ["regret_heatmap.svg", "regret_matrix.csv", "regret_table.txt"]
        assert sorted(os.listdir(closed)) == sorted(os.listdir(ok)) == names
        for name in names:
            assert (closed / name).read_bytes() == (ok / name).read_bytes(), name

    def test_file_is_whole_or_absent(self, tmp_path, capsys, monkeypatch,
                                     small_config_path):
        # a write that fails part-way (a full disk) is a usage error that
        # leaves no part of the file, under its name or a temporary one,
        # and an earlier run's file as it was
        real_open = open

        class Full:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        opened = []

        def failing_open(*args, **kwargs):
            # regret-table writes regret_matrix.csv, then regret_table.txt
            opened.append(args[0])
            return (Full if len(opened) == 2 else real_open)(*args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        earlier = tmp_path / "earlier"
        earlier.mkdir()
        (earlier / "regret_table.txt").write_text("an earlier run\n")
        for out, left in [(tmp_path / "fresh", ["regret_matrix.csv"]),
                          (earlier, ["regret_matrix.csv", "regret_table.txt"])]:
            opened.clear()
            assert run(["regret-table"], out, small_config_path) == 2
            assert capsys.readouterr().err == (
                f"error: cannot write {out / 'regret_table.txt'}: "
                f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
            assert sorted(os.listdir(out)) == left
        assert (earlier / "regret_table.txt").read_text() == "an earlier run\n"


class TestFitBaseline:
    def test_fit_writes_report_and_config(self, outdir, capsys):
        code = run(["fit-baseline"], outdir)
        assert code == 0
        assert "r_squared=0.92" in capsys.readouterr().out
        assert os.path.exists(os.path.join(outdir, "fit_report.txt"))
        refit = load_config(os.path.join(outdir, "fitted_config.ini"))
        original = load_config()
        assert refit.baseline.theta == original.baseline.theta
        assert refit.baseline.phi == original.baseline.phi
        assert refit.baseline.b0 == original.baseline.b0

    @pytest.mark.parametrize("directory", ["out%x", "out%%x", "out%(beta)s"])
    def test_writes_and_reads_back_a_literal_directory(self, tmp_path, monkeypatch,
                                                       capsys, directory):
        # the output directory is read and written as it stands: fit-baseline
        # writes there and its config names the same directory
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "percent.ini"
        path.write_text(text.replace("directory = out", f"directory = {directory}"))
        monkeypatch.chdir(tmp_path)
        assert run(["fit-baseline"], config=str(path)) == 0
        fitted = tmp_path / directory / "fitted_config.ini"
        assert f"directory = {directory}\n" in fitted.read_text()
        assert load_config(str(fitted)).output_dir == directory
        assert (tmp_path / directory / "fit_report.txt").exists()

    def test_config_round_trip_is_exact(self, tmp_path):
        # save_config writes only keys the schema names; [ensemble] keys
        # are model names, so a model may be called anything
        cfg = load_config()
        renamed = replace(cfg, anchor_model="E0",
                          ensemble=(ClimateModel("E0", 0.002), ClimateModel("root_toll", 0.0024)),
                          baseline=replace(cfg.baseline, r_squared=None))
        for config in (cfg, renamed):
            path = tmp_path / "copy.ini"
            save_config(config, str(path))
            assert load_config(str(path)) == config

    @staticmethod
    def _config_with_data(tmp_path, data):
        path = tmp_path / "data.ini"
        save_config(replace(load_config(), data_file=str(data)), str(path))
        return path

    def test_missing_data_file(self, outdir, tmp_path, capsys):
        config = self._config_with_data(tmp_path, "/nonexistent.csv")
        assert run(["fit-baseline"], outdir, config) == 2
        assert "no such data file" in capsys.readouterr().err
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("data", ["", ".", "directory"])
    def test_data_must_name_a_file(self, data, outdir, tmp_path, capsys):
        # an empty name once resolved to the bundled data directory
        if data == "directory":
            data = str(tmp_path)
        assert run(["fit-baseline"], outdir, self._config_with_data(tmp_path, data)) == 2
        assert capsys.readouterr().err == f"error: no such data file: {data!r}\n"
        assert not os.path.exists(outdir)

    def test_wrong_header_is_parse_error(self, outdir, tmp_path, capsys):
        data = tmp_path / "co2.csv"
        data.write_text("year,co2_gtc\n2020,10.0\n")
        assert run(["fit-baseline"], outdir, self._config_with_data(tmp_path, data)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "co2.csv" in err and "'co2_gtc'" in err
        assert not os.path.exists(outdir)

    def test_config_target_directory_is_created(self, tmp_path, capsys):
        outdir = tmp_path / "new" / "sub"
        assert run(["fit-baseline"], outdir) == 0
        fitted = load_config(str(outdir / "fitted_config.ini"))
        assert fitted.baseline == load_config().baseline

    def test_fits_and_names_the_configured_series(self, outdir, tmp_path, capsys):
        # the written config names the series it was fitted to, and its
        # baseline is that series' fit (a halved series halves b0)
        bundled = Path(bundled_data_path("extended_rcp85_emissions.csv")).read_text()
        rows = [line.split(",") for line in bundled.splitlines()[3:]]
        half = tmp_path / "half.csv"
        half.write_text("year,emissions_gtc\n" + "".join(
            f"{year},{float(value) * 0.5!r}\n" for year, value in rows))
        assert run(["fit-baseline"], outdir, self._config_with_data(tmp_path, half)) == 0
        fitted = load_config(os.path.join(outdir, "fitted_config.ini"))
        assert fitted.data_file == str(half)
        start_year = load_config().start_year
        assert fitted.baseline == fit_baseline(load_emissions(str(half), start_year))
        assert fitted.baseline.b0 != load_config().baseline.b0

    def test_short_series_is_usage_error(self, outdir, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("year,emissions_gtc\n" + "".join(
            f"{2020 + 10 * i},10.0\n" for i in range(16)))   # 150 years
        assert run(["fit-baseline"], outdir, self._config_with_data(tmp_path, data)) == 2
        assert capsys.readouterr().err == "error: series must span at least 200 years\n"
        assert not os.path.exists(outdir)

    @pytest.mark.parametrize("flag", ["--data", "--write-config"])
    def test_takes_no_second_data_or_config_path(self, flag, outdir, tmp_path, capsys):
        # the series is the config's data key and the fitted config goes to
        # the output directory; an unknown option is argparse's exit 2
        with pytest.raises(SystemExit) as exc:
            run(["fit-baseline", flag, str(tmp_path / "x")], outdir)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestRegretTable:
    def test_outputs_and_flags(self, outdir, small_config_path, capsys):
        code = run(["--no-timestamp", "regret-table"], outdir, small_config_path)
        assert code == 0
        csv_text = Path(outdir, "regret_matrix.csv").read_text()
        rows = csv_text.strip().splitlines()
        assert len(rows) == 1 + 4 + 1          # header, 4 states, max regret
        assert rows[0].count(",") == 5         # label + 5 policies
        values = [float(cell) for cell in rows[1].split(",")[1:]]
        assert len(values) == 5 and min(values) >= -1e-9
        table = Path(outdir, "regret_table.txt").read_text()
        assert "max regret" in table
        assert "*" in table                    # MMR flag
        svg = Path(outdir, "regret_heatmap.svg").read_text()
        assert svg.count("<rect") == 1 + 4 * 5 + 5
        assert svg.count('fill="#ffffff"') >= 4   # zero diagonal is white

    def test_full_matrix_diagonal_white(self, outdir, capsys):
        code = run(["--no-timestamp", "regret-table"], outdir)
        assert code == 0
        svg = Path(outdir, "regret_heatmap.svg").read_text()
        assert svg.count("<rect") == 1 + 42 * 43 + 43
        assert svg.count('fill="#ffffff"') >= 42

    def test_alpha_beta_override(self, outdir, capsys):
        code = run(["--no-timestamp", "regret-table",
                    "--alpha", "0.0002", "--beta", "0.014"],
                   outdir, None)
        assert code == 0
        assert "d=0.02/MIROC" in capsys.readouterr().out

    @pytest.mark.parametrize("formats, names", [
        (("svg", "csv"), ["regret_matrix.csv", "regret_heatmap.svg"]),
        (("txt",), ["regret_table.txt"]),
        (("csv",), ["regret_matrix.csv"]),
    ], ids=["svg-csv", "txt", "csv"])
    def test_formats_subset(self, formats, names, tmp_path, small_config_path, capsys):
        # only the configured files, in the order csv, txt, svg, each the
        # full run's bytes
        full, part = tmp_path / "full", tmp_path / "part"
        assert run(["--no-timestamp", "regret-table"], full, small_config_path) == 0
        config = tmp_path / "subset.ini"
        save_config(replace(load_config(small_config_path), formats=formats), str(config))
        capsys.readouterr()
        assert run(["--no-timestamp", "regret-table"], part, config) == 0
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [f"wrote {part / name}" for name in names]
        assert sorted(os.listdir(part)) == sorted(names)
        for name in names:
            assert (part / name).read_bytes() == (full / name).read_bytes()

    def test_deterministic_bytes(self, tmp_path, small_config_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["--no-timestamp", "regret-table"], a, small_config_path) == 0
        assert run(["--no-timestamp", "regret-table"], b, small_config_path) == 0
        for name in ("regret_matrix.csv", "regret_table.txt", "regret_heatmap.svg"):
            assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


class TestMmrAndTmax:
    def test_mmr_prints_selection(self, small_config_path, capsys):
        assert run(["mmr"], config=small_config_path) == 0
        out = capsys.readouterr().out
        assert "minimax-regret policy: d=0.02/" in out

    def test_tmax_reports_every_model(self, outdir, small_config_path, capsys,
                                      monkeypatch):
        # one path solve, without a cost-engine call or a solve_optimal,
        # and one peak search serve every model, whether the policy is
        # named or the MMR choice
        calls = {}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            return counted

        control = importlib.import_module("mmrclimate.control")
        regret = importlib.import_module("mmrclimate.regret")
        for module, name in ((cli, "solve_optimal"), (control, "_paths"),
                             (regret, "_peaks")):
            monkeypatch.setattr(module, name,
                                counting(f"{module.__name__}.{name}", getattr(module, name)))
        for args in (["tmax", "--delta", "0.02", "--model", "HAD"], ["tmax"]):
            calls.clear()
            regret._peak.cache_clear()
            control._path.cache_clear()   # the peak's E comes from the kept path
            assert run(args, outdir, small_config_path) == 0
            out = capsys.readouterr().out
            assert out.count("Tmax =") == 2
            assert calls == {"mmrclimate.control._paths": 1,
                             "mmrclimate.regret._peaks": 1}
            assert os.path.exists(os.path.join(outdir, "tmax.csv"))

    def test_tmax_file_bounds_the_solve_file(self, tmp_path, capsys):
        # tmax reads the path solve writes: IPSL's Tmax exceeds the highest
        # yearly temperature of the pair's solution by no more than a yearly
        # grid misses of a flat peak, less the CSV's 6-decimal rounding
        out = tmp_path / "o"
        for command in ("solve", "tmax"):
            assert run(["--no-timestamp", command, "--delta", "0.02", "--model", "IPSL"],
                       out) == 0
        with open(out / "tmax.csv") as fh:
            (peak_degc,) = [float(row["tmax_degc"]) for row in csv.DictReader(fh)
                            if row["model"] == "IPSL"]
        with open(out / "solution_d0.02_IPSL.csv") as fh:
            highest = max(float(row["temperature_degc"]) for row in csv.DictReader(fh))
        assert -5e-7 <= peak_degc - highest <= 2e-5

    def test_tmax_no_abatement_reports_asymptote(self, outdir, small_config_path,
                                                 capsys):
        code = run(["tmax", "--no-abatement"], outdir, small_config_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "no peak" in out
        assert "asymptote 14.7" in out

    def test_tmax_no_abatement_beside_a_zero_baseline_rate(self, tmp_path, capsys):
        # theta = 1e-300 puts the baseline rate within RESONANCE_TOL of the
        # passive loop's lam_minus = 0; that loop is never nudged, so the
        # run warns of nothing and prints the asymptotes as before
        config = tmp_path / "tiny_theta.ini"
        text = Path(bundled_data_path("default_config.ini")).read_text()
        config.write_text(re.sub(r"(?m)^theta = .*$", "theta = 1e-300", text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--no-timestamp", "tmax", "--no-abatement"],
                       tmp_path / "o", config) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == TINY_THETA_STDOUT.format(path=tmp_path / "o" / "tmax.csv")
        assert (tmp_path / "o" / "tmax.csv").read_text() == TINY_THETA_CSV

    def test_resonant_pair_solves_and_peaks_silently(self, tmp_path, capsys):
        # this GFDL response puts lam_minus exactly on the baseline rate at
        # delta = 0.02: solve and tmax exit 0, warn of nothing and write
        # finite numbers
        config = tmp_path / "resonant.ini"
        text = Path(bundled_data_path("default_config.ini")).read_text()
        config.write_text(re.sub(r"(?m)^GFDL = .*$", "GFDL = 0.0016893970107764956", text))
        cfg = load_config(str(config))
        roots = char_roots(0.02, cfg.model("GFDL").ccr, cfg.econ.alpha, cfg.econ.beta)
        assert abs(roots.lam_minus - cfg.to_scenario().baseline.rates()[0]) <= 1e-17
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("solve", "tmax"):
                assert run(["--no-timestamp", command, "--delta", "0.02", "--model", "GFDL"],
                           out, config) == 0
        assert capsys.readouterr().err == ""
        for name in ("solution_d0.02_GFDL.csv", "tmax.csv"):
            text = (out / name).read_text().lower()
            assert "nan" not in text and "inf" not in text

    def test_underflowing_stiffness_abates_nothing(self, tmp_path, capsys):
        # k = beta m^2 / alpha underflows to 0 for GFDL = 1e-170: the passive
        # loop, whose abatement column is zero, never -0.000000
        config = tmp_path / "tiny_ccr.ini"
        text = Path(bundled_data_path("default_config.ini")).read_text()
        config.write_text(re.sub(r"(?m)^GFDL = .*$", "GFDL = 1e-170", text))
        out = tmp_path / "o"
        assert run(["--no-timestamp", "solve", "--delta", "0.02", "--model", "GFDL"],
                   out, config) == 0
        text = (out / "solution_d0.02_GFDL.csv").read_text()
        assert "-0.000000" not in text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 501
        assert {row["abatement_gtc_yr"] for row in rows} == {"0.000000"}

    def test_one_process_keeps_each_scenario_apart(self, tmp_path, capsys):
        # solve under the bundled config, under e0 = 400, then the bundled
        # config again: each file is the one a fresh process writes, so
        # nothing kept for one scenario reaches another's file
        bundled = bundled_data_path("default_config.ini")
        e0_400 = tmp_path / "e0_400.ini"
        e0_400.write_text(re.sub(r"(?m)^e0 = .*$", "e0 = 400", Path(bundled).read_text()))
        args = ["--no-timestamp", "solve", "--delta", "0.02", "--model", "IPSL"]
        name = "solution_d0.02_IPSL.csv"
        written = []
        for i, config in enumerate((bundled, e0_400, bundled)):
            assert run(args, tmp_path / str(i), config) == 0
            written.append((tmp_path / str(i) / name).read_bytes())
        fresh = tmp_path / "fresh"
        subprocess.run([sys.executable, "-m", "mmrclimate.cli", "--config", str(e0_400),
                        "--output-dir", str(fresh), *args],
                       check=True, capture_output=True, env=child_env(), timeout=60)
        assert written[0] == written[2] == (GOLDEN / name).read_bytes()
        assert written[1] == (fresh / name).read_bytes() != written[0]

    def test_tmax_requires_full_provenance(self, outdir, small_config_path, capsys):
        code = run(["tmax", "--delta", "0.02"], outdir, small_config_path)
        assert code == 2


# what each subcommand prints of the pick under --alpha 0.0002 --beta 0.014
BOTH_WEIGHTS_PICK = {
    "regret-table": "minimax regret: d=0.02/MIROC (max regret 0.479)\n",
    "mmr": "minimax-regret policy: d=0.02/MIROC\nmaximum regret: 0.479380\n",
    "tmax": "policy: d=0.02/MIROC\n",
}


class TestWeightOverrides:
    @pytest.mark.parametrize("weights", [{"alpha": 0.0002}, {"beta": 0.014},
                                         {"alpha": 0.0002, "beta": 0.014}],
                             ids=["alpha", "beta", "both"])
    @pytest.mark.parametrize("command", ["regret-table", "mmr", "tmax"])
    def test_outputs_match_the_library(self, command, weights, tmp_path, capsys):
        # each flag replaces its weight alone; the other is the config's
        config = load_config()
        econ = replace(config.econ, **weights)
        scenario = replace(config.to_scenario(), econ=econ)
        matrix = regret_matrix(build_policy_set(config.deltas, config.ensemble, scenario),
                               build_states(config.deltas, config.ensemble), scenario)
        policy, value = mmr_select(matrix)
        flags = [arg for name, weight in weights.items() for arg in (f"--{name}", repr(weight))]
        out = tmp_path / "o"
        assert run(["--no-timestamp", command, *flags], out) == 0
        stdout = capsys.readouterr().out
        if len(weights) == 2:
            assert BOTH_WEIGHTS_PICK[command] in stdout
        if command == "regret-table":
            assert (out / "regret_matrix.csv").read_bytes() == \
                report.matrix_csv(matrix, timestamp=False).encode()
            assert f"minimax regret: {policy.label()} (max regret {value:.3f})\n" in stdout
        elif command == "mmr":
            assert stdout == (f"alpha={econ.alpha:g} beta={econ.beta:g}\n"
                              f"minimax-regret policy: {policy.label()}\n"
                              f"maximum regret: {value:.6f}\n")
        else:
            assert stdout.startswith(f"policy: {policy.label()}\n")
            with open(out / "tmax.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [row["model"] for row in rows] == [m.name for m in config.ensemble]
            for row, model in zip(rows, config.ensemble):
                years, peak_degc = tmax(policy, model, scenario,
                                        root_tol=config.tolerances.root_tol)
                assert row["years_to_peak"] == f"{years:.1f}"
                assert float(row["tmax_degc"]) == peak_degc

    @pytest.mark.parametrize("command", [["fit-baseline"], ["sweep"],
                                         ["solve", "--delta", "0.02", "--model", "IPSL"]],
                             ids=lambda command: command[0])
    def test_other_subcommands_take_no_weights(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--alpha", "0.0002"], tmp_path / "o")
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


TINY_THETA_STDOUT = """\
policy: no-abatement
  GFDL   no peak: emissions keep rising (asymptote 10.10 degC)
  BCC    no peak: emissions keep rising (asymptote 11.96 degC)
  FIO    no peak: emissions keep rising (asymptote 12.48 degC)
  HAD    no peak: emissions keep rising (asymptote 14.70 degC)
  IPSL   no peak: emissions keep rising (asymptote 15.18 degC)
  MIROC  no peak: emissions keep rising (asymptote 15.69 degC)
wrote {path}
"""
TINY_THETA_CSV = """\
model,ccr,years_to_peak,tmax_degc
GFDL,0.00157,,10.095800524934385
BCC,0.00186,,11.960629921259844
FIO,0.00194,,12.475065616797902
HAD,0.002286,,14.7
IPSL,0.00236,,15.175853018372704
MIROC,0.00244,,15.69028871391076
"""


class TestSweep:
    def test_writes_summary_and_tables(self, outdir, small_config_path, capsys):
        code = run(["--no-timestamp", "sweep"], outdir, small_config_path)
        assert code == 0
        summary = Path(outdir, "sweep_summary.csv").read_text()
        assert summary.splitlines()[0].startswith("alpha,beta,mmr_delta")
        assert len(summary.strip().splitlines()) == 2
        assert os.path.exists(os.path.join(outdir, "sweep_mmr.txt"))
        assert os.path.exists(os.path.join(outdir, "sweep_tmax.txt"))

    def test_uses_configured_root_tol(self, tmp_path, small_config_path, capsys):
        import csv
        from dataclasses import replace
        from mmrclimate.config import ToleranceConfig

        cfg = replace(load_config(small_config_path),
                      tolerances=ToleranceConfig(root_tol=0.25))
        path = tmp_path / "coarse.ini"
        save_config(cfg, str(path))
        out = str(tmp_path / "o")
        assert run(["--no-timestamp", "sweep"], out, str(path)) == 0
        assert run(["--no-timestamp", "tmax"], out, str(path)) == 0
        with open(os.path.join(out, "sweep_summary.csv")) as fh:
            (cell,) = csv.DictReader(fh)
        with open(os.path.join(out, "tmax.csv")) as fh:
            years = {row["model"]: row["years_to_peak"] for row in csv.DictReader(fh)}
        assert cell["years_to_peak"] == years[cell["tmax_model"]]


class TestSinglePair:
    def test_one_state_matrix_has_two_policies(self, tmp_path, capsys):
        from dataclasses import replace
        from mmrclimate.economy import ClimateModel

        cfg = replace(load_config(), deltas=(0.05,),
                      ensemble=(ClimateModel("HAD", 0.002286),))
        path = tmp_path / "pair.ini"
        save_config(cfg, str(path))
        out = str(tmp_path / "o")
        assert run(["--no-timestamp", "regret-table"], out, str(path)) == 0
        rows = Path(out, "regret_matrix.csv").read_text().strip().splitlines()
        assert len(rows) == 3                       # header, one state, max regret
        assert rows[0] == "actual_world,d=0.05/HAD,no-abatement"


class TestReportScale:
    """A config may set [baseline] variant only to theta-scaled, which
    changes nothing; any other value is an error rather than being
    ignored.  report_scale is no key at all: the weights carry the scale."""

    def config_with(self, tmp_path, old, new):
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "edited.ini"
        path.write_text(text.replace(old, new))
        return str(path)

    def config_with_scale(self, tmp_path, value):
        return self.config_with(tmp_path, "beta = 0.018\n",
                                f"beta = 0.018\nreport_scale = {value}\n")

    def test_scale_other_than_one_is_config_error(self, tmp_path, capsys):
        for old, new, key, hint in [
            ("beta = 0.018\n", "beta = 0.018\nreport_scale = 2\n",
             "report_scale", "unknown key"),
            ("variant = theta-scaled", "variant = as-printed",
             "variant", "theta-scaled"),
        ]:
            assert run(["mmr"], config=self.config_with(tmp_path, old, new)) == 2
            err = capsys.readouterr().err
            assert key in err and hint in err, key

    def test_scale_of_one_is_unknown_key(self, tmp_path, capsys):
        path = self.config_with_scale(tmp_path, "1")
        assert run(["mmr"], config=path) == 2
        assert capsys.readouterr() == (
            "", f"error: bad config {path}: unknown key 'report_scale' in [economy]\n")


class TestConfigHandling:
    def test_environment_does_not_select_config(self, tmp_path, capsys, monkeypatch):
        # only --config names a config; the variable once read is ignored
        monkeypatch.setenv("MMRCLIMATE_CONFIG", str(tmp_path / "missing.ini"))
        assert run(["mmr"]) == 0
        out = capsys.readouterr().out
        assert run(["mmr"], config=bundled_data_path("default_config.ini")) == 0
        assert out == capsys.readouterr().out

    def test_cli_import_loads_no_importlib_resources(self):
        # bundled files are found beside the package, so importing the CLI
        # adds no importlib.resources (nor its zipfile, tempfile, shutil);
        # -S keeps site's .pth files from importing it first, and numpy is
        # imported before the snapshot, so whatever it imports is allowed
        import numpy
        path = os.pathsep.join(os.path.dirname(os.path.dirname(module.__file__))
                               for module in (mmrclimate, numpy))
        code = ("import sys, numpy; before = set(sys.modules); import mmrclimate.cli; "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.startswith('importlib.resources')))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        text = Path(bundled_data_path("default_config.ini")).read_text()
        broken = text.replace("alpha_grid = 7.5e-05 0.000125 0.0002",
                              "alpha_grid =")
        path = tmp_path / "broken.ini"
        path.write_text(broken)
        assert run(["sweep"], str(tmp_path / "o"), str(path)) == 2
        assert "nonempty" in capsys.readouterr().err

    @pytest.mark.parametrize("formats", ["pdf", "", "csv pdf"])
    def test_formats_outside_csv_txt_svg_is_config_error(self, tmp_path, capsys,
                                                         formats):
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "formats.ini"
        path.write_text(text.replace("formats = csv txt svg", f"formats = {formats}"))
        out = tmp_path / "o"
        assert run(["regret-table"], str(out), str(path)) == 2
        assert capsys.readouterr().err == ("error: formats must name one or more of "
                                           f"csv, txt, svg; got {formats or 'none'}\n")
        assert not out.exists()

    @pytest.mark.parametrize("formats, got", [(("pdf",), "pdf"), ((), "none"),
                                              (("csv txt",), "csv txt")])
    def test_run_config_refuses_formats_a_file_cannot_hold(self, formats, got):
        # saved, the first two would fail to load and the third would load
        # as ("csv", "txt")
        with pytest.raises(ValidationError) as exc:
            replace(load_config(), formats=formats)
        assert str(exc.value) == f"formats must name one or more of csv, txt, svg; got {got}"

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        # so is a syntax error, in one line that keeps its line number
        text = Path(bundled_data_path("default_config.ini")).read_bytes()
        for name, data, where in [
                ("latin.ini", b"# caf\xe9\n" + text, ""),
                ("bracket.ini", text.replace(b"[scenario]", b"[scenario"), "line: 1 "),
                ("bare.ini", text.replace(b"[economy]\n", b"[economy]\nx\n"), "[line 16]: "),
        ]:
            path = tmp_path / name
            path.write_bytes(data)
            out = tmp_path / "o"
            assert run(["fit-baseline"], str(out), str(path)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad config") and err.count("\n") == 1
            assert where in err
            assert not out.exists()

    def test_names_colliding_ignoring_case_are_config_error(self, tmp_path, capsys):
        # tmax --model had would find HAD first and evaluate its pair
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "had.ini"
        path.write_text(text.replace("HAD = 0.002286\n", "HAD = 0.002286\nhad = 0.0021\n"))
        out = tmp_path / "o"
        assert run(["tmax", "--delta", "0.02", "--model", "had"], str(out), str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'HAD'" in err and "'had'" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["MI,ROC", 'MI"ROC', "../../escape", "MI\\ROC",
                                      "MI<ROC", "MI&ROC", "MI\x01ROC", "MI\x7fROC"])
    def test_model_name_an_output_cannot_hold_is_config_error(self, name, tmp_path,
                                                              capsys):
        # a comma split regret_matrix.csv's rows, & or U+0001 broke the
        # heatmap's XML, and a / put solve's CSV outside the directory
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "name.ini"
        path.write_text(text.replace("MIROC = ", f"{name} = "), encoding="utf-8")
        assert run(["regret-table"], str(tmp_path / "o"), str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(name) in err
        assert os.listdir(tmp_path) == ["name.ini"]

    def test_model_names_with_other_punctuation_load(self, tmp_path, capsys):
        names = {"GFDL": "HadGEM2-ES", "BCC": "CESM1(BGC)", "FIO": "ACCESS1.0",
                 "IPSL": "MPI ESM"}
        text = Path(bundled_data_path("default_config.ini")).read_text()
        for old, new in names.items():
            text = text.replace(f"\n{old} = ", f"\n{new} = ")
        path = tmp_path / "names.ini"
        path.write_text(text)
        assert [m.name for m in load_config(str(path)).ensemble] == [
            "HadGEM2-ES", "CESM1(BGC)", "ACCESS1.0", "HAD", "MPI ESM", "MIROC"]
        out = tmp_path / "o"
        assert run(["--no-timestamp", "regret-table"], str(out), str(path)) == 0
        with open(out / "regret_matrix.csv", newline="") as fh:
            assert {len(row) for row in csv.reader(fh)} == {1 + 43}
        ET.parse(out / "regret_heatmap.svg")

    def test_schema_rows_fill_every_field_once(self):
        # a field that no row names would be left out of the file format
        rows = [field for keys in SCHEMA.values() if keys is not None
                for _, field, _ in keys.values() if field is not None]
        hints = typing.get_type_hints(RunConfig)
        fields = []
        for field in dataclasses.fields(RunConfig):
            record = hints[field.name]
            if dataclasses.is_dataclass(record):
                fields += [f"{field.name}.{f.name}" for f in dataclasses.fields(record)]
            elif field.name != "ensemble":
                fields.append(field.name)
        assert sorted(rows) == sorted(fields)

    def test_saved_lists_are_written_as_tuples_are(self, tmp_path):
        config = load_config()
        listed = replace(config, deltas=list(config.deltas),
                         alpha_grid=list(config.alpha_grid),
                         beta_grid=list(config.beta_grid), formats=list(config.formats))
        save_config(config, str(tmp_path / "tuples.ini"))
        save_config(listed, str(tmp_path / "lists.ini"))
        assert ((tmp_path / "lists.ini").read_bytes()
                == (tmp_path / "tuples.ini").read_bytes()
                == Path(bundled_data_path("default_config.ini")).read_bytes())

    @pytest.mark.parametrize("value", ["%(beta)s", "%"])
    def test_percent_is_literal_not_substituted(self, tmp_path, capsys, value):
        # no % interpolation: alpha = %(beta)s is not beta's value
        text = Path(bundled_data_path("default_config.ini")).read_text()
        path = tmp_path / "percent.ini"
        path.write_text(text.replace("alpha = 0.000125", f"alpha = {value}"))
        assert run(["mmr"], config=str(path)) == 2
        assert f"'{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("e0 = auto", "E0 = 400", "unknown key 'E0' in [scenario]"),
        ("root_tol = 1e-06", "root_toll = 0.5", "unknown key 'root_toll' in [tolerances]"),
        ("[output]", "[Output]", "unknown section [Output]"),
        ("[scenario]", "[DEFAULT]\nstart_year = 2020\n\n[scenario]",
         "unknown section [DEFAULT]"),
    ])
    def test_unknown_section_or_key_is_config_error(self, old, new, message, tmp_path,
                                                    capsys):
        # keys are case-sensitive, so each typo once loaded and left its
        # default in place, and a [DEFAULT] key reached every section,
        # [ensemble] too
        text = Path(bundled_data_path("default_config.ini")).read_text()
        assert old in text
        path = tmp_path / "typo.ini"
        path.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert run(["fit-baseline"], str(out), str(path)) == 2
        assert capsys.readouterr().err == f"error: bad config {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        *[(section, key) for section, keys in REQUIRED_KEYS.items() for key in keys],
        *[(section, None) for section in REQUIRED_SECTIONS]])
    def test_missing_section_or_key_is_named(self, section, key, tmp_path, capsys):
        text = Path(bundled_data_path("default_config.ini")).read_text()
        if key is None:
            pattern, message = rf"^\[{section}\]\n(.+\n)*\n?", f"missing section [{section}]"
        else:
            pattern, message = rf"^{key} = .*\n", f"missing key {key!r} in [{section}]"
        path = tmp_path / "missing.ini"
        path.write_text(re.sub(pattern, "", text, count=1, flags=re.M))
        out = tmp_path / "o"
        assert run(["fit-baseline"], str(out), str(path)) == 2
        assert capsys.readouterr().err == f"error: bad config {path}: {message}\n"
        assert not out.exists()

    def test_required_keys_alone_take_the_defaults(self, tmp_path, capsys):
        # every other key's default is the bundled config's value, and
        # [tolerances] and [output] may be left out
        kept, section = [], None
        for line in Path(bundled_data_path("default_config.ini")).read_text().splitlines():
            if line.startswith("["):
                section = line[1:-1]
                if section in REQUIRED_SECTIONS:
                    kept.append(line)
            elif section == "ensemble" or line.split(" = ")[0] in REQUIRED_KEYS.get(section, ()):
                kept.append(line)
        path = tmp_path / "required.ini"
        path.write_text("\n".join(kept) + "\n")
        bundled = load_config()
        assert load_config(str(path)) == replace(
            bundled, baseline=replace(bundled.baseline, r_squared=None))
        assert run(["mmr"], tmp_path / "o", path) == 0
        assert capsys.readouterr().out == (GOLDEN / "mmr_stdout.txt").read_text()

    def test_unreadable_config(self, tmp_path, capsys):
        assert run(["mmr"], config=str(tmp_path / "missing.ini")) == 2
