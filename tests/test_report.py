"""Report writers on their edge branches: blank and near-zero colours,
table part folding, the minimax-regret marker, and a ``regret_matrix.csv``
that parses back to the matrix bit for bit.  Derandomized properties pin
the bytes of ``solution_csv``, ``matrix_table`` and ``svg_heatmap`` to
reference writers that format every value in its own row, cell by cell."""

import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmrclimate import report  # noqa: E402
from mmrclimate.cli import main  # noqa: E402
from mmrclimate.config import load_config  # noqa: E402
from mmrclimate.control import solve_optimal  # noqa: E402
from mmrclimate.economy import ClimateModel, net_cumulative_emissions  # noqa: E402
from mmrclimate.errors import ValidationError  # noqa: E402
from mmrclimate.exppoly import ExpPoly  # noqa: E402
from mmrclimate.regret import Policy, RegretMatrix, build_policy_set, build_states  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
CONFIG = load_config()
SCENARIO = CONFIG.to_scenario()

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


def reference_solution_csv(solution, scenario, horizon_years):
    """Every column of every row evaluated and formatted in the row."""
    no_abate = net_cumulative_emissions(ExpPoly.zero(), scenario.baseline,
                                        scenario.e0)
    t = np.arange(horizon_years + 1.0)
    columns = (scenario.baseline, solution.abatement, solution.net_emissions,
               no_abate, solution.temperature)
    rows = zip(*(f(t).tolist() for f in columns))
    start = scenario.start_year
    lines = ["year,t_years,baseline_gtc_yr,abatement_gtc_yr,net_cumulative_gtc,"
             "net_cumulative_no_abatement_gtc,temperature_degc"]
    lines += [f"{start + year},{year},{base:.6f},{abate:.6f},{net:.4f},"
              f"{net_passive:.4f},{temp:.6f}"
              for year, (base, abate, net, net_passive, temp) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def reference_matrix_table(matrix):
    """The regret table with every cell formatted and padded on its own."""
    width = 13
    n = len(matrix.policies)
    starts = list(range(0, n, report.POLICY_COLUMNS_PER_PART))
    if len(starts) > 1 and n - starts[-1] <= 1:
        starts.pop()
    parts = list(zip(starts, starts[1:] + [n]))
    mark = [""] * n
    mark[matrix.mmr_index] = "*"
    header = [(p.label() + m).rjust(width) for p, m in zip(matrix.policies, mark)]
    max_row = [f"{v:.3f}{m}".rjust(width)
               for v, m in zip(matrix.max_regret.tolist(), mark)]
    lines = ["Regrets (percent of present value of output)"]
    for part_no, (a, b) in enumerate(parts, start=1):
        lines += ["", f"Part {part_no} of {len(parts)}",
                  "actual world".ljust(width) + "".join(header[a:b])]
        lines += [state.label().ljust(width)
                  + "".join(f"{v:.3f}".rjust(width) for v in row[a:b].tolist())
                  for state, row in zip(matrix.states, matrix.values)]
        lines.append("max regret".ljust(width) + "".join(max_row[a:b]))
    lines += ["", "* minimax-regret policy"]
    return "\n".join(lines) + "\n"


def reference_svg_heatmap(matrix):
    """The heatmap with every cell's fill level found on its own."""
    left, top, cell = 110, 70, 14
    n_rows, n_cols = matrix.values.shape
    width = left + n_cols * cell + 20
    height = top + (n_rows + 2) * cell + 30
    vmax = float(matrix.values.max())

    def rects(y, row, stroke, stroke_width):
        out = []
        for j, v in enumerate(row.tolist()):
            level = (255 if vmax <= 0 or v <= 0
                     else round(255 - 225 * min(1.0, (v / vmax) ** 0.25)))
            out.append(f'<rect x="{left + j * cell}" y="{y}" width="{cell}" '
                       f'height="{cell}" fill="#ff{level:02x}{level:02x}" '
                       f'stroke="{stroke}" stroke-width="{stroke_width}"/>')
        return out

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{left}" y="20" font-family="sans-serif" font-size="13">'
             f'Regret by actual world (rows) and policy (columns)</text>']
    for j, policy in enumerate(matrix.policies):
        x = left + j * cell + cell // 2
        lines.append(f'<text x="{x}" y="{top - 6}" font-family="sans-serif" '
                     f'font-size="6" text-anchor="start" '
                     f'transform="rotate(-60 {x} {top - 6})">'
                     f'{policy.label()}{"*" if j == matrix.mmr_index else ""}</text>')
    for i, (state, row) in enumerate(zip(matrix.states, matrix.values)):
        y = top + i * cell
        lines.append(f'<text x="{left - 6}" y="{y + cell - 4}" '
                     f'font-family="sans-serif" font-size="7" '
                     f'text-anchor="end">{state.label()}</text>')
        lines += rects(y, row, "#cccccc", 0.5)
    y_max = top + (n_rows + 1) * cell
    lines.append(f'<text x="{left - 6}" y="{y_max + cell - 4}" '
                 f'font-family="sans-serif" font-size="7" '
                 f'text-anchor="end">max regret</text>')
    lines += rects(y_max, matrix.max_regret, "#999999", 0.8)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def body(text):
    """A written file without its first line, the timestamp."""
    stamp, rest = text.split("\n", 1)
    assert stamp.startswith("# generated ")
    return rest


class TestSolutionCsv:
    @PROPERTY
    @given(delta=st.floats(0.005, 0.1), model=st.sampled_from(CONFIG.ensemble),
           e0_factor=st.floats(0.0, 2.0), start_year=st.integers(1900, 2100),
           horizon=st.sampled_from([0, 1, 500, 1000]))
    def test_bytes_match_the_reference_across_two_scenarios(self, delta, model, e0_factor,
                                                             start_year, horizon):
        # calls under two scenarios interleave, so columns kept for one
        # would show in the other's file
        drawn = replace(SCENARIO, e0=SCENARIO.e0 * e0_factor, start_year=start_year)
        solved = [(scenario, solve_optimal(delta, model, scenario))
                  for scenario in (drawn, SCENARIO)]
        for scenario, solution in solved + solved:
            want = reference_solution_csv(solution, scenario, horizon)
            assert report.solution_csv(solution, scenario, horizon, timestamp=False) == want
            assert body(report.solution_csv(solution, scenario, horizon)) == want

    @pytest.mark.parametrize("horizon", [-3, -1.0, 2.5, True, False, math.nan, math.inf,
                                         np.bool_(True), "500", None])
    def test_horizon_must_be_a_whole_number_of_years(self, horizon):
        solution = solve_optimal(0.02, CONFIG.model("IPSL"), SCENARIO)
        with pytest.raises(ValidationError, match=re.escape(f"got {horizon!r}")):
            report.solution_csv(solution, SCENARIO, horizon)

    @pytest.mark.parametrize("horizon", [500.0, np.int64(500), np.float64(500.0)])
    def test_a_whole_horizon_of_another_type_is_its_int(self, horizon):
        solution = solve_optimal(0.02, CONFIG.model("IPSL"), SCENARIO)
        assert report.solution_csv(solution, SCENARIO, horizon, timestamp=False) == \
            reference_solution_csv(solution, SCENARIO, 500)


def matrix_of(values):
    """A matrix of any shape: one state per row, one policy per column."""
    rows, cols = values.shape
    states = tuple(Policy(0.01 * (i + 1), MODELS[0]) for i in range(rows))
    policies = tuple(Policy(0.01 * (j + 1), MODELS[1]) for j in range(cols))
    return RegretMatrix(states, policies, values, np.zeros(rows))


@st.composite
def regret_values(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 31))
    cell = st.one_of(st.floats(0.0, 100.0),
                     st.sampled_from([0.0, -0.0, -1e-10, 5e-324, 1e-12, 0.0005, 100.0]),
                     st.floats(-1e7, 1e7))
    return np.reshape(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)),
                      (rows, cols))


class TestMatrixWriters:
    @PROPERTY
    @given(values=regret_values())
    @example(values=np.zeros((3, 5)))                 # vmax = 0: all white
    @example(values=np.full((2, 4), -1e-10))          # vmax < 0
    @example(values=np.array([[0.0, 3.0], [-1e-10, 0.0], [2.0, -1e-10]]))
    @example(values=np.array([[0.5], [2.0], [0.0]]))  # one policy column
    @example(values=np.array([[3.0]]))                # 1 x 1
    def test_bytes_match_the_reference(self, values):
        matrix = matrix_of(values)
        assert report.matrix_table(matrix, timestamp=False) == reference_matrix_table(matrix)
        assert report.svg_heatmap(matrix, timestamp=False) == reference_svg_heatmap(matrix)
        assert body(report.matrix_table(matrix)) == reference_matrix_table(matrix)
