"""Report writers on their edge branches: blank and near-zero colours,
table part folding, the minimax-regret marker, and a ``regret_matrix.csv``
that parses back to the matrix bit for bit."""

import os
import re

import numpy as np
import pytest

from mmrclimate import report
from mmrclimate.cli import main
from mmrclimate.economy import ClimateModel
from mmrclimate.regret import RegretMatrix, build_policy_set, build_states

MODELS = (ClimateModel("LOW", 0.0016), ClimateModel("HIGH", 0.0024))
RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="14" height="14" '
                  r'fill="(#[0-9a-f]{6})"')


def make_matrix(values, deltas, models=MODELS):
    """A matrix of the given regrets over the states of ``deltas`` x
    ``models``; the writers read only labels and values."""
    states = build_states(deltas, models)
    policies = build_policy_set(deltas, models, None)
    values = np.asarray(values, dtype=float)
    return RegretMatrix(tuple(states), tuple(policies), values,
                        np.zeros(len(states)))


def fills(svg):
    """{(row, col): fill} of every heatmap cell; the max-regret row is
    the row after a one-row gap below the states."""
    return {((int(y) - 70) // 14, (int(x) - 110) // 14): fill
            for x, y, fill in RECT.findall(svg)}


def ramp(v, vmax):
    level = round(255 - 225 * min(1.0, (v / vmax) ** 0.25))
    return f"#ff{level:02x}{level:02x}"


def table_parts(text):
    """Header cells of each part of a regret table."""
    lines = text.splitlines()
    return [lines[i + 1].split()[2:] for i, line in enumerate(lines)
            if line.startswith("Part ")]


class TestHeatmapColours:
    def test_all_zero_matrix_is_white(self):
        matrix = make_matrix(np.zeros((4, 5)), (0.01, 0.03))
        cells = fills(report.svg_heatmap(matrix, timestamp=False))
        assert len(cells) == 4 * 5 + 5
        assert set(cells.values()) == {"#ffffff"}

    def test_tiny_negative_regret_is_white(self):
        values = np.array([[0.0, 0.5, 2.0, 1e-6, 40.0],
                           [-1e-9, 0.0, 1.0, 3.0, 50.0],
                           [0.25, -1e-12, 0.0, 4.0, 20.0],
                           [8.0, 6.0, -5e-10, 0.0, 10.0]])
        matrix = make_matrix(values, (0.01, 0.03))
        cells = fills(report.svg_heatmap(matrix, timestamp=False))
        for (i, j), v in np.ndenumerate(values):
            want = "#ffffff" if v <= 0 else ramp(v, 50.0)
            assert cells[i, j] == want, (i, j, v)
        assert cells[1, 0] == cells[2, 1] == cells[3, 2] == "#ffffff"
        assert cells[0, 3] == "#fffcfc"          # tiny but positive
        assert cells[1, 4] == "#ff1e1e"          # the matrix max saturates
        for j, v in enumerate(values.max(axis=0)):
            assert cells[5, j] == ramp(v, 50.0)


class TestTableParts:
    @pytest.mark.parametrize("n_deltas, n_models, want", [
        (13, 1, [14]),          # 14 policies: one part
        (7, 2, [15]),           # 15: the lone trailing column is folded in
        (15, 1, [14, 2]),       # 16: a trailing part of two stays
        (14, 3, [14, 14, 15]),  # 43, the paper's table
    ])
    def test_part_widths(self, n_deltas, n_models, want):
        deltas = tuple(0.01 * (d + 1) for d in range(n_deltas))
        models = tuple(ClimateModel(f"M{m}", 0.0016 + 0.0001 * m)
                       for m in range(n_models))
        n = n_deltas * n_models
        values = np.arange(n * (n + 1), dtype=float).reshape(n, n + 1)
        text = report.matrix_table(make_matrix(values, deltas, models),
                                   timestamp=False)
        assert [len(cells) for cells in table_parts(text)] == want
        assert f"Part {len(want)} of {len(want)}" in text
        assert text.endswith("\n\n* minimax-regret policy\n")


class TestMmrMarker:
    @pytest.fixture()
    def matrix(self):
        values = np.array([[0.0, 0.4, 0.3, 0.9, 5.0],
                           [0.2, 0.0, 0.1, 0.8, 6.0],
                           [0.6, 0.5, 0.0, 0.7, 7.0],
                           [0.9, 0.3, 0.2, 0.0, 8.0]])
        return make_matrix(values, (0.01, 0.03))

    def test_table_marks_header_and_max_regret(self, matrix):
        assert matrix.mmr_index == 2
        lines = report.matrix_table(matrix, timestamp=False).splitlines()
        header = lines[3].split()
        assert header[2:] == ["d=0.01/LOW", "d=0.03/LOW", "d=0.01/HIGH*",
                              "d=0.03/HIGH", "no-abatement"]
        assert lines[8].split()[2:] == ["0.900", "0.500", "0.300*", "0.900",
                                        "8.000"]
        assert sum(line.count("*") for line in lines) == 3   # + the legend

    def test_svg_marks_the_label(self, matrix):
        svg = report.svg_heatmap(matrix, timestamp=False)
        labels = re.findall(r'rotate\(-60 (\d+) 64\)">([^<]*)</text>', svg)
        assert labels == [("117", "d=0.01/LOW"), ("131", "d=0.03/LOW"),
                          ("145", "d=0.01/HIGH*"), ("159", "d=0.03/HIGH"),
                          ("173", "no-abatement")]


def test_regret_matrix_csv_round_trips(default_matrix, tmp_path):
    assert main(["--no-timestamp", "--output-dir", str(tmp_path),
                 "regret-table"]) == 0
    with open(os.path.join(tmp_path, "regret_matrix.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    m = default_matrix
    assert rows[0] == ["actual_world"] + [p.label() for p in m.policies]
    assert [row[0] for row in rows[1:]] == \
        [s.label() for s in m.states] + ["max_regret"]
    want = np.vstack([m.values, m.max_regret])
    assert all(len(row) == want.shape[1] + 1 for row in rows[1:])
    for row, values in zip(rows[1:], want.tolist()):
        assert [float(field) for field in row[1:]] == values
