"""Serialization: CSV emitters, aligned text tables, SVG heatmap.

Everything here is deterministic byte-for-byte given the same inputs,
except the single optional timestamp header line, which callers disable
with ``timestamp=False``.  No plotting library is used; the heatmap is
written as self-contained SVG markup.
"""

from __future__ import annotations

import datetime
import io

import numpy as np

from .economy import net_cumulative_emissions
from .exppoly import ExpPoly
from .regret import RegretMatrix, SweepReport

POLICY_COLUMNS_PER_PART = 14


def _stamp(timestamp: bool) -> str:
    if not timestamp:
        return ""
    now = datetime.datetime.now(datetime.timezone.utc)
    return f"# generated {now.strftime('%Y-%m-%dT%H:%M:%SZ')}\n"


def solution_csv(solution, scenario, horizon_years: int = 500,
                 timestamp: bool = True) -> str:
    """Annual path samples: baseline, abatement, net cumulative emissions
    under the policy and under no abatement, temperature."""
    no_abate = net_cumulative_emissions(ExpPoly.zero(), scenario.baseline,
                                        scenario.e0)
    out = io.StringIO()
    out.write(_stamp(timestamp))
    out.write("year,t_years,baseline_gtc_yr,abatement_gtc_yr,"
              "net_cumulative_gtc,net_cumulative_no_abatement_gtc,"
              "temperature_degc\n")
    t = np.arange(horizon_years + 1.0)
    columns = zip(scenario.baseline(t), solution.abatement(t),
                  solution.net_emissions(t), no_abate(t), solution.temperature(t))
    for year, (base, abate, net, net_passive, temp) in enumerate(columns):
        out.write(
            f"{scenario.start_year + year},{year},{base:.6f},{abate:.6f},"
            f"{net:.4f},{net_passive:.4f},{temp:.6f}\n"
        )
    return out.getvalue()


def matrix_csv(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Full-precision regret matrix plus the max-regret row."""
    out = io.StringIO()
    out.write(_stamp(timestamp))
    out.write("actual_world," + ",".join(p.label() for p in matrix.policies) + "\n")
    for state, row in zip(matrix.states, matrix.values):
        out.write(state.label() + ","
                  + ",".join(repr(float(v)) for v in row) + "\n")
    out.write("max_regret,"
              + ",".join(repr(float(v)) for v in matrix.max_regret) + "\n")
    return out.getvalue()


def matrix_table(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Three-part aligned table, three decimals, max-regret bottom row.

    The minimax-regret column is flagged with a trailing ``*`` in its
    header and on its max-regret entry.
    """
    mmr_idx = matrix.mmr_index
    n = len(matrix.policies)
    parts = [
        list(range(start, min(start + POLICY_COLUMNS_PER_PART, n)))
        for start in range(0, n, POLICY_COLUMNS_PER_PART)
    ]
    # fold a short trailing part (the no-abatement column) into the last one
    if len(parts) > 1 and len(parts[-1]) <= 1:
        parts[-2].extend(parts.pop())

    width = 13
    out = io.StringIO()
    out.write(_stamp(timestamp))
    out.write("Regrets (percent of present value of output)\n")
    for part_no, cols in enumerate(parts, start=1):
        out.write(f"\nPart {part_no} of {len(parts)}\n")
        header = "actual world".ljust(width)
        for j in cols:
            label = matrix.policies[j].label()
            if j == mmr_idx:
                label += "*"
            header += label.rjust(width)
        out.write(header + "\n")
        for state, row in zip(matrix.states, matrix.values):
            line = state.label().ljust(width)
            for j in cols:
                line += f"{row[j]:.3f}".rjust(width)
            out.write(line + "\n")
        line = "max regret".ljust(width)
        for j in cols:
            cell = f"{matrix.max_regret[j]:.3f}"
            if j == mmr_idx:
                cell += "*"
            line += cell.rjust(width)
        out.write(line + "\n")
    out.write("\n* minimax-regret policy\n")
    return out.getvalue()


def _heat_color(value: float, vmax: float) -> str:
    """White at exactly zero, saturating toward red at the matrix max.

    A quartic-root ramp keeps the small-regret structure visible despite
    the no-abatement column dominating the linear scale.
    """
    if vmax <= 0 or value <= 0:
        return "#ffffff"
    s = min(1.0, (value / vmax) ** 0.25)
    level = int(round(255 - 225 * s))
    return f"#ff{level:02x}{level:02x}"


def svg_heatmap(matrix: RegretMatrix, timestamp: bool = True) -> str:
    """Color-shaded plot of every regret and the max-regret row."""
    left, top, cell = 110, 70, 14   # margins and cell side, px
    n_rows, n_cols = matrix.values.shape
    width = left + n_cols * cell + 20
    height = top + (n_rows + 2) * cell + 30   # gap + max-regret row
    vmax = float(matrix.values.max())
    mmr_idx = matrix.mmr_index

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    if timestamp:
        stamp_text = _stamp(True).strip("# \n")
        out.write(f"<!-- {stamp_text} -->\n")
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(f'<text x="{left}" y="20" font-family="sans-serif" font-size="13">'
              f'Regret by actual world (rows) and policy (columns)</text>\n')

    for j, policy in enumerate(matrix.policies):
        x = left + j * cell + cell // 2
        label = policy.label() + ("*" if j == mmr_idx else "")
        out.write(
            f'<text x="{x}" y="{top - 6}" font-family="sans-serif" '
            f'font-size="6" text-anchor="start" '
            f'transform="rotate(-60 {x} {top - 6})">{label}</text>\n'
        )
    for i, state in enumerate(matrix.states):
        y = top + i * cell + cell - 4
        out.write(f'<text x="{left - 6}" y="{y}" font-family="sans-serif" '
                  f'font-size="7" text-anchor="end">{state.label()}</text>\n')
        for j in range(n_cols):
            color = _heat_color(float(matrix.values[i, j]), vmax)
            out.write(f'<rect x="{left + j * cell}" y="{top + i * cell}" '
                      f'width="{cell}" height="{cell}" fill="{color}" '
                      f'stroke="#cccccc" stroke-width="0.5"/>\n')

    y_max = top + (n_rows + 1) * cell
    out.write(f'<text x="{left - 6}" y="{y_max + cell - 4}" '
              f'font-family="sans-serif" font-size="7" '
              f'text-anchor="end">max regret</text>\n')
    for j in range(n_cols):
        color = _heat_color(float(matrix.max_regret[j]), vmax)
        out.write(f'<rect x="{left + j * cell}" y="{y_max}" width="{cell}" '
                  f'height="{cell}" fill="{color}" stroke="#999999" '
                  f'stroke-width="0.8"/>\n')
    out.write("</svg>\n")
    return out.getvalue()


def sweep_csv(report: SweepReport, timestamp: bool = True) -> str:
    out = io.StringIO()
    out.write(_stamp(timestamp))
    out.write("alpha,beta,mmr_delta,mmr_model,mmr_value,"
              "years_to_peak,tmax_model,tmax_degc\n")
    for c in report.cells:
        out.write(f"{c.alpha!r},{c.beta!r},{c.policy_delta!r},{c.policy_model},"
                  f"{c.mmr_value!r},{c.years_to_peak:.1f},{c.tmax_model},"
                  f"{c.tmax_degc!r}\n")
    return out.getvalue()


def _blocks_side_by_side(blocks, gap="    "):
    rows = max(len(b) for b in blocks)
    width = [max(len(line) for line in b) for b in blocks]
    out = []
    for i in range(rows):
        cells = [
            (b[i] if i < len(b) else "").ljust(w) for b, w in zip(blocks, width)
        ]
        out.append(gap.join(cells).rstrip())
    return "\n".join(out)


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
