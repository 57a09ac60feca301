"""Golden outputs of the bundled default config, byte for byte.

``tests/data/golden/`` holds the ``--no-timestamp`` files of
``fit-baseline`` and ``sweep`` and the stdout of ``tmax``, recorded
before the as-printed baseline form and the single-value options were
deleted, the ``regret-table`` text table and heatmap and the stdout
of ``mmr``, recorded before states and policies became one type, and
the stdout of ``tmax --delta 0.05 --model IPSL`` and ``tmax
--no-abatement``, recorded before the peak search was batched over
paths, and the path samples of ``solve --delta 0.02 --model IPSL``
(fixed-decimal fields only), recorded before the report writers were
rewritten to format each value once.  The fit's full-precision floats
in ``fit_report.txt`` and ``fitted_config.ini`` are already held to
the bundled config's exact bits by
``test_fit_writes_report_and_config``.  Files that print full-precision
``repr`` floats of costs and paths (``regret_matrix.csv``,
``sweep_summary.csv``, ``tmax.csv``) are left out: their last digits
follow the platform's ``exp``, and the acceptance tests hold those
values to tolerances instead (``test_report.py`` holds
``regret_matrix.csv`` to the matrix it prints, bit for bit).
"""

import codecs
from pathlib import Path

import pytest

from mmrclimate.cli import main
from mmrclimate.config import bundled_data_path

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture()
def run_default(tmp_path, monkeypatch, capsys):
    """Run one subcommand on the bundled config in an empty directory;
    return its stdout."""
    monkeypatch.chdir(tmp_path)

    def run(*args):
        assert main(["--no-timestamp", "--output-dir", ".", *args]) == 0
        return capsys.readouterr().out

    return run


@pytest.mark.parametrize("command, names", [
    ("fit-baseline", ("fit_report.txt", "fitted_config.ini")),
    ("sweep", ("sweep_mmr.txt", "sweep_tmax.txt")),
    ("regret-table", ("regret_table.txt", "regret_heatmap.svg")),
    ("solve --delta 0.02 --model IPSL", ("solution_d0.02_IPSL.csv",)),
])
def test_files_match_golden(run_default, tmp_path, command, names):
    run_default(*command.split())
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_tmax_stdout_matches_golden(run_default):
    assert run_default("tmax") == (GOLDEN / "tmax_stdout.txt").read_text()


@pytest.mark.parametrize("args, name", [
    (("--delta", "0.05", "--model", "IPSL"), "tmax_ipsl_stdout.txt"),
    (("--no-abatement",), "tmax_no_abatement_stdout.txt"),
])
def test_tmax_variant_stdout_matches_golden(run_default, args, name):
    assert run_default("tmax", *args) == (GOLDEN / name).read_text()


def test_mmr_stdout_matches_golden(run_default):
    assert run_default("mmr") == (GOLDEN / "mmr_stdout.txt").read_text()


def test_byte_order_marked_config_prints_golden(run_default, tmp_path):
    text = Path(bundled_data_path("default_config.ini")).read_bytes()
    (tmp_path / "bom.ini").write_bytes(codecs.BOM_UTF8 + text)
    assert run_default("--config", "bom.ini", "mmr") == (GOLDEN / "mmr_stdout.txt").read_text()


def test_byte_order_marked_series_fits_golden(run_default, tmp_path):
    series = Path(bundled_data_path("extended_rcp85_emissions.csv")).read_bytes()
    (tmp_path / "bom.csv").write_bytes(codecs.BOM_UTF8 + series)
    text = Path(bundled_data_path("default_config.ini")).read_text()
    (tmp_path / "bom.ini").write_text(
        text.replace("data = extended_rcp85_emissions.csv", "data = bom.csv"))
    run_default("--config", "bom.ini", "fit-baseline")
    name = "fit_report.txt"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
