"""Serialization: CSV emitters, aligned text tables, SVG heatmap.

Everything here is deterministic byte-for-byte given the same inputs,
except the single optional timestamp header line, which callers disable
with ``timestamp=False``.  No plotting library is used; the heatmap is
written as self-contained SVG markup.  Each writer reads its matrix or
path columns as Python floats once, formats every value once and joins
its lines in one call; what is fixed per row or per column (labels, the
``*`` marker, coordinates, constant tag text) is formatted once too, and
the columns of ``solution_csv`` that depend on the scenario alone once
per scenario and horizon.
"""

from __future__ import annotations

import datetime
from functools import lru_cache

import numpy as np

from .economy import net_cumulative_emissions
from .errors import ValidationError
from .exppoly import ExpPoly
from .regret import RegretMatrix, SweepReport

POLICY_COLUMNS_PER_PART = 14


def _stamp(timestamp: bool) -> str:
    if not timestamp:
        return ""
    now = datetime.datetime.now(datetime.timezone.utc)
    return f"# generated {now.strftime('%Y-%m-%dT%H:%M:%SZ')}\n"


def _text(lines) -> str:
    """``lines``, each ended by a newline (without copying the result)."""
    lines.append("")
    return "\n".join(lines)


def solution_csv(solution, scenario, horizon_years: int = 500,
                 timestamp: bool = True) -> str:
    """Annual path samples: baseline, abatement, net cumulative emissions
    under the policy and under no abatement, temperature.  The horizon
    must be a whole number of years >= 0 (ValidationError otherwise).
    Only the solution's three columns are evaluated and formatted here;
    the rest of each row is :func:`_scenario_columns`'s."""
    t, heads, mids = _scenario_columns(scenario, _horizon(horizon_years))
    rows = zip(heads, solution.abatement(t).tolist(), solution.net_emissions(t).tolist(),
               mids, solution.temperature(t).tolist())
    lines = [_stamp(timestamp) + "year,t_years,baseline_gtc_yr,"
             "abatement_gtc_yr,net_cumulative_gtc,"
             "net_cumulative_no_abatement_gtc,temperature_degc"]
    lines += map("%s%.6f,%.4f%s%.6f".__mod__, rows)
    return _text(lines)


def _horizon(years) -> int:
    """``years`` as an int, if it is a whole number >= 0 and not a bool."""
    try:
        whole = (not isinstance(years, (bool, np.bool_)) and years >= 0
                 and float(years).is_integer())
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValidationError(
            f"horizon_years must be a whole number of years >= 0, got {years!r}")
    return int(years)


@lru_cache(maxsize=8)
def _scenario_columns(scenario, horizon_years: int):
    """The sample times of :func:`solution_csv` and, per row, the text of
    the columns that depend on the scenario alone: ``year,t_years,
    baseline,`` before the solution's abatement and E, and ``,E under no
    abatement,`` before its temperature.  Scenarios are frozen and compare
    by value, so the last 8 (scenario, horizon) pairs are kept."""
    no_abate = net_cumulative_emissions(ExpPoly.zero(), scenario.baseline,
                                        scenario.e0)
    t = np.arange(horizon_years + 1.0)
    t.flags.writeable = False
    start = scenario.start_year
    heads = tuple(f"{start + year},{year},{base:.6f},"
                  for year, base in enumerate(scenario.baseline(t).tolist()))
    mids = tuple(f",{net_passive:.4f}," for net_passive in no_abate(t).tolist())
    return t, heads, mids


def matrix_csv(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Full-precision regret matrix plus the max-regret row."""
    lines = [_stamp(timestamp) + "actual_world,"
             + ",".join(p.label() for p in matrix.policies)]
    lines += [state.label() + "," + ",".join(map(repr, row.tolist()))
              for state, row in zip(matrix.states, matrix.values)]
    lines.append("max_regret," + ",".join(map(repr, matrix.max_regret.tolist())))
    return _text(lines)


def matrix_table(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Three-part aligned table, three decimals, max-regret bottom row.

    The minimax-regret column is flagged with a trailing ``*`` in its
    header and on its max-regret entry.
    """
    width = 13
    mmr_idx = matrix.mmr_index
    n = len(matrix.policies)
    starts = list(range(0, n, POLICY_COLUMNS_PER_PART))
    # fold a short trailing part (the no-abatement column) into the last one
    if len(starts) > 1 and n - starts[-1] <= 1:
        starts.pop()
    parts = list(zip(starts, starts[1:] + [n]))
    mark = [""] * n
    mark[mmr_idx] = "*"

    header = [(p.label() + m).rjust(width) for p, m in zip(matrix.policies, mark)]
    labels = [state.label().ljust(width) for state in matrix.states]
    max_row = [f"{v:.3f}{m}".rjust(width)
               for v, m in zip(matrix.max_regret.tolist(), mark)]

    lines = [_stamp(timestamp) + "Regrets (percent of present value of output)"]
    for part_no, (a, b) in enumerate(parts, start=1):
        lines += ["", f"Part {part_no} of {len(parts)}",
                  "actual world".ljust(width) + "".join(header[a:b])]
        format_row = ("%s" + f"%{width}.3f" * (b - a)).__mod__
        lines += [format_row((label, *values))
                  for label, values in zip(labels, matrix.values[:, a:b].tolist())]
        lines.append("max regret".ljust(width) + "".join(max_row[a:b]))
    lines += ["", "* minimax-regret policy"]
    return _text(lines)


# Heatmap fills by level, white (255) down to the saturated red (30).
_FILLS = tuple(f"#ff{level:02x}{level:02x}" for level in range(256))


def svg_heatmap(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Color-shaded plot of every regret and the max-regret row.

    A cell is white where its regret is not positive (or no regret is),
    saturating toward red at the matrix max.  A quartic-root ramp keeps
    the small-regret structure visible despite the no-abatement column
    dominating the linear scale.
    """
    left, top, cell = 110, 70, 14   # margins and cell side, px
    n_rows, n_cols = matrix.values.shape
    width = left + n_cols * cell + 20
    height = top + (n_rows + 2) * cell + 30   # gap + max-regret row
    vmax = float(matrix.values.max())
    mmr_idx = matrix.mmr_index
    # the fill level of every cell and then of the max-regret row; a
    # regret <= 0 has ratio 0 and level 255.  The fourth root is Python's
    # pow, value by value: numpy's power can differ from it in the last
    # bit and so move a level at a rounding tie.
    if vmax > 0:
        ratio = np.maximum(np.vstack((matrix.values, matrix.max_regret)) / vmax, 0.0)
        root = np.reshape([r ** 0.25 for r in ratio.ravel().tolist()], ratio.shape)
        levels = np.rint(255 - 225 * np.minimum(1.0, root)).astype(int).tolist()
    else:
        levels = [[255] * n_cols] * (n_rows + 1)

    def rects(y, row_levels, stroke, stroke_width):
        # only x and the fill vary along a row: the rest is formatted once
        mid = f'" y="{y}" width="{cell}" height="{cell}" fill="'
        end = f'" stroke="{stroke}" stroke-width="{stroke_width}"/>'
        return "\n".join([f'<rect x="{x}{mid}{_FILLS[level]}{end}'
                          for x, level in zip(xs, row_levels)])

    xs = [str(left + j * cell) for j in range(n_cols)]
    x_mid = [left + j * cell + cell // 2 for j in range(n_cols)]
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if timestamp:
        stamp_text = _stamp(True).strip("# \n")
        lines.append(f"<!-- {stamp_text} -->")
    lines += [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="13">'
        f'Regret by actual world (rows) and policy (columns)</text>',
    ]
    y_label = top - 6
    lines += [f'<text x="{x}" y="{y_label}" font-family="sans-serif" '
              f'font-size="6" text-anchor="start" '
              f'transform="rotate(-60 {x} {y_label})">'
              f'{policy.label()}{"*" if j == mmr_idx else ""}</text>'
              for j, (x, policy) in enumerate(zip(x_mid, matrix.policies))]
    for i, (state, row_levels) in enumerate(zip(matrix.states, levels)):
        y = top + i * cell
        lines.append(f'<text x="{left - 6}" y="{y + cell - 4}" '
                     f'font-family="sans-serif" font-size="7" '
                     f'text-anchor="end">{state.label()}</text>')
        lines.append(rects(y, row_levels, "#cccccc", 0.5))

    y_max = top + (n_rows + 1) * cell
    lines.append(f'<text x="{left - 6}" y="{y_max + cell - 4}" '
                 f'font-family="sans-serif" font-size="7" '
                 f'text-anchor="end">max regret</text>')
    lines.append(rects(y_max, levels[-1], "#999999", 0.8))
    lines.append("</svg>")
    return _text(lines)


def sweep_csv(report: SweepReport, timestamp: bool = True) -> str:
    lines = [_stamp(timestamp) + "alpha,beta,mmr_delta,mmr_model,mmr_value,"
             "years_to_peak,tmax_model,tmax_degc"]
    lines += [f"{c.alpha!r},{c.beta!r},{c.policy_delta!r},{c.policy_model},"
              f"{c.mmr_value!r},{c.years_to_peak:.1f},{c.tmax_model},"
              f"{c.tmax_degc!r}" for c in report.cells]
    return _text(lines)


def tmax_csv(peaks, timestamp: bool = True) -> str:
    """One row per ``(model, years_to_peak, tmax_degc)``; a model with no
    peak has no years, and its asymptote, if any, as its Tmax."""
    lines = [_stamp(timestamp) + "model,ccr,years_to_peak,tmax_degc"]
    lines += [f"{m.name},{m.ccr!r},{'' if years is None else f'{years:.1f}'},"
              f"{'' if degc is None else repr(degc)}" for m, years, degc in peaks]
    return _text(lines)


def _blocks_side_by_side(blocks, gap="    "):
    """Blocks of equal line count, their lines joined left to right."""
    width = [max(len(line) for line in b) for b in blocks]
    return "\n".join(gap.join(line.ljust(w) for line, w in zip(lines, width)).rstrip()
                     for lines in zip(*blocks))


def _sweep_table(report: SweepReport, title: str, header: str, row,
                 timestamp: bool) -> str:
    """One row of side-by-side cell blocks per alpha, read straight off
    ``report.cells``, which is row-major over (alpha, beta)."""
    out = _stamp(timestamp) + title
    n = len(report.betas)
    for start in range(0, len(report.cells), n):
        blocks = [[f"alpha={c.alpha:g} beta={c.beta:g}", header, row(c)]
                  for c in report.cells[start:start + n]]
        out += "\n" + _blocks_side_by_side(blocks) + "\n"
    return out


def sweep_table_mmr(report: SweepReport, timestamp: bool = True) -> str:
    """Minimax-regret selection per (alpha, beta) cell."""
    return _sweep_table(
        report, "Minimax regret by cost and damage weights\n",
        f"{'Model':<8}{'delta':>7}{'MMR':>8}",
        lambda c: f"{c.policy_model:<8}{c.policy_delta:>7g}{c.mmr_value:>8.3f}",
        timestamp)


def sweep_table_tmax(report: SweepReport, timestamp: bool = True) -> str:
    """Peak warming of the selected policy under the strongest response."""
    return _sweep_table(
        report, "Peak temperature increase of the minimax-regret policy\n"
                "(worst case over the ensemble: highest carbon-climate response)\n",
        f"{'Model':<8}{'Years':>7}{'Tmax':>8}",
        lambda c: f"{c.policy_model:<8}{c.years_to_peak:>7.0f}{c.tmax_degc:>8.3f}",
        timestamp)


def fit_report(params, series, timestamp: bool = True) -> str:
    from .baseline import BASELINE_VARIANT, eval_baseline

    fitted = eval_baseline(series.year_offsets, params.theta, params.phi,
                           params.b0)
    resid = fitted - series.emissions
    out = _stamp(timestamp)
    out += (
        "Baseline fit report\n"
        f"variant    : {BASELINE_VARIANT}\n"
        f"theta      : {params.theta!r}  (1/years)\n"
        f"phi        : {params.phi!r}  (years)\n"
        f"b0         : {params.b0!r}\n"
        f"r_squared  : {params.r_squared!r}\n"
        f"points     : {len(series.emissions)}\n"
        f"max |resid|: {np.abs(resid).max():.4f} GtC/yr\n"
        f"B(0)       : {params.b0 * params.theta:.4f} GtC/yr\n"
    )
    return out
