"""Command line batch surface.

Subcommands: fit-baseline, solve, regret-table, mmr, tmax, sweep.
Configuration comes from --config or else the bundled default, which
reproduces the published middle case; fit-baseline fits its data series.
``main`` sets up each run once: it loads the config, applies --alpha and
--beta, and resolves the output directory.  Every subcommand but mmr,
which only prints, writes its files there through one writer.  Exit
codes: 0 success, 2 usage or configuration error, 3 numerical failure,
141 stdout closed early (every file is still written).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace

from . import report
from .baseline import fit_baseline, load_emissions
from .config import RunConfig, bundled_data_path, load_config, save_config
from .economy import EconParams
from .errors import MmrClimateError, NoPeak, ParseError, ValidationError
from .regret import (
    Policy,
    build_policy_set,
    mmr_select,
    regret_matrix,
    sweep,
    tmax,
)
from .control import solve_optimal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmrclimate",
        description="Closed-form climate abatement control and "
                    "minimax-regret policy choice.",
    )
    parser.add_argument("--config", help="config file (default: the bundled one)")
    parser.add_argument("--output-dir", help="override the configured output directory")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header from emitted files")
    parser.set_defaults(stdout_closed=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fit-baseline", help="fit the baseline curve to the configured "
                   "emissions series and write the updated config"
                   ).set_defaults(run=cmd_fit_baseline)

    p = sub.add_parser("solve", help="closed-form optimal paths for one "
                       "{delta, model} pair")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(run=cmd_solve)

    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--alpha", type=float)
    weights.add_argument("--beta", type=float)
    sub.add_parser("regret-table", parents=[weights], help="full regret matrix: "
                   "CSV, three-part table, SVG heatmap"
                   ).set_defaults(run=cmd_regret_table)
    sub.add_parser("mmr", parents=[weights], help="print the minimax-regret policy"
                   ).set_defaults(run=cmd_mmr)

    p = sub.add_parser("tmax", parents=[weights], help="peak temperature of a "
                       "policy under every ensemble model")
    p.add_argument("--delta", type=float, help="policy provenance rate "
                   "(default: the MMR policy)")
    p.add_argument("--model", help="policy provenance model")
    p.add_argument("--no-abatement", action="store_true",
                   help="evaluate the passive benchmark instead")
    p.set_defaults(run=cmd_tmax)

    sub.add_parser("sweep", help="MMR selection and peak warming over the "
                   "configured (alpha, beta) grid").set_defaults(run=cmd_sweep)
    return parser


@contextmanager
def _output(args, name: str, shown: str = ""):
    """Yield a temporary path beside ``name`` in the run's output
    directory, then rename the closed file onto ``name``, so the file is
    whole or absent.  The directory is created only when the file is
    written, so a failed run leaves none behind; a path that cannot be
    written is a usage error, and leaves no temporary file.  Once the
    file is in place, ``shown`` (if any) and ``wrote`` print outside the
    handler, so a failing stdout is not blamed on the file."""
    path = os.path.join(args.output_dir, name)
    directory = os.path.dirname(path)
    # a name of fixed length, so any name that fits the directory fits too
    temporary = os.path.join(directory, f".mmrclimate-{os.getpid()}.tmp")
    try:
        os.makedirs(directory or ".", exist_ok=True)
        try:
            yield temporary
            os.replace(temporary, path)
        finally:
            with suppress(FileNotFoundError):
                os.remove(temporary)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    if shown:
        _say(args, shown)
    _say(args, f"wrote {path}")


def _say(args, *lines: str) -> None:
    """Print lines of the run's report.  Once stdout is closed (say, by
    ``mmrclimate ... | head``), the run goes on writing its files, and
    :func:`main` exits 141."""
    try:
        print(*lines, sep="\n")
    except BrokenPipeError:
        _close_stdout(args)


def _close_stdout(args) -> None:
    """Point stdout at os.devnull, so no later print, nor the
    interpreter's last flush, fails on it again."""
    args.stdout_closed = True
    devnull = os.open(os.devnull, os.O_WRONLY)
    with suppress(io.UnsupportedOperation):   # a stdout with no descriptor
        os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write(args, name: str, writer, *inputs, shown: str = ""):
    """Write the report text ``writer(*inputs)`` to ``name``, stamped
    unless --no-timestamp is given."""
    text = writer(*inputs, timestamp=not args.no_timestamp)
    with _output(args, name, shown) as path, open(path, "w", newline="") as fh:
        fh.write(text)


def _resolve_data(config: RunConfig) -> str:
    """The configured series: a file at ``data``, else a bundled file of
    that name; never a directory."""
    for path in (config.data_file, bundled_data_path(config.data_file)):
        if os.path.isfile(path):
            return path
    raise ParseError(f"no such data file: {config.data_file!r}")


def cmd_fit_baseline(args, config: RunConfig) -> int:
    series = load_emissions(_resolve_data(config), config.start_year)
    params = fit_baseline(series)
    fitted = replace(config, baseline=params)
    fitted.to_scenario()   # every other subcommand builds one from the written config
    _write(args, "fit_report.txt", report.fit_report, params, series)
    with _output(args, "fitted_config.ini") as path:
        save_config(fitted, path)
    _say(args, f"fit: theta={params.theta:.6g} phi={params.phi:.6g} "
               f"b0={params.b0:.6g} r_squared={params.r_squared:.4f}")
    return 0


def cmd_solve(args, config: RunConfig) -> int:
    model = config.model(args.model)
    scenario = config.to_scenario()
    sol = solve_optimal(args.delta, model, scenario)
    _write(args, f"solution_d{args.delta:g}_{model.name}.csv", report.solution_csv,
           sol, scenario)
    _say(args, f"J* = {sol.j_star:.6f} (percent of present value of output)",
         f"roots: lam+ = {sol.roots.lam_plus:.6f}, lam- = {sol.roots.lam_minus:.6f}")
    return 0


def _matrix_for(config: RunConfig, scenario):
    policies = build_policy_set(config.deltas, config.ensemble, scenario)
    return regret_matrix(policies, policies[:-1], scenario)   # no abatement is no state


def cmd_regret_table(args, config: RunConfig) -> int:
    matrix = _matrix_for(config, config.to_scenario())
    for fmt, name, writer in (("csv", "regret_matrix.csv", report.matrix_csv),
                              ("txt", "regret_table.txt", report.matrix_table),
                              ("svg", "regret_heatmap.svg", report.svg_heatmap)):
        if fmt in config.formats:
            _write(args, name, writer, matrix)
    policy, value = mmr_select(matrix)
    _say(args, f"minimax regret: {policy.label()} (max regret {value:.3f})")
    return 0


def cmd_mmr(args, config: RunConfig) -> int:
    policy, value = mmr_select(_matrix_for(config, config.to_scenario()))
    _say(args, f"alpha={config.econ.alpha:g} beta={config.econ.beta:g}",
         f"minimax-regret policy: {policy.label()}",
         f"maximum regret: {value:.6f}")
    return 0


def cmd_tmax(args, config: RunConfig) -> int:
    scenario = config.to_scenario()
    if args.no_abatement:
        if args.delta is not None or args.model is not None:
            raise ValidationError("--no-abatement takes no --delta or --model")
        policy = Policy.no_abatement()
    else:
        if args.delta is not None or args.model is not None:
            if args.delta is None or args.model is None:
                raise ValidationError("--delta and --model must be given together")
            policy = Policy(args.delta, config.model(args.model))
        else:
            policy, _ = mmr_select(_matrix_for(config, scenario))
    shown = [f"policy: {policy.label()}"]
    peaks = []
    for model in config.ensemble:
        # one peak search serves every model, which only scales E(t)
        try:
            years, peak_degc = tmax(policy, model, scenario,
                                    root_tol=config.tolerances.root_tol)
            shown.append(f"  {model.name:<6} peak in {years:7.1f} years, "
                         f"Tmax = {peak_degc:.3f} degC")
        except NoPeak as exc:
            years, peak_degc = None, exc.asymptote_degc
            note = "" if peak_degc is None else f" (asymptote {peak_degc:.2f} degC)"
            shown.append(f"  {model.name:<6} no peak: emissions keep rising{note}")
        peaks.append((model, years, peak_degc))
    _write(args, "tmax.csv", report.tmax_csv, peaks, shown="\n".join(shown))
    return 0


def cmd_sweep(args, config: RunConfig) -> int:
    scenario = config.to_scenario()
    rep = sweep(config.alpha_grid, config.beta_grid, config.deltas,
                config.ensemble, scenario, root_tol=config.tolerances.root_tol)
    _write(args, "sweep_summary.csv", report.sweep_csv, rep)
    _write(args, "sweep_mmr.txt", report.sweep_table_mmr, rep)
    _write(args, "sweep_tmax.txt", report.sweep_table_tmax, rep)
    chosen = {c.policy_delta for c in rep.cells}
    _say(args, f"MMR discount rate(s) selected across the grid: "
               f"{sorted(chosen)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        # regret-table, mmr and tmax take --alpha/--beta; either alone
        # keeps the config's other weight
        alpha, beta = getattr(args, "alpha", None), getattr(args, "beta", None)
        if alpha is not None or beta is not None:
            config = replace(config, econ=EconParams(
                alpha=config.econ.alpha if alpha is None else alpha,
                beta=config.econ.beta if beta is None else beta))
        args.output_dir = args.output_dir or config.output_dir
        code = args.run(args, config)
        sys.stdout.flush()   # a closed stdout that buffered every line fails here
    except BrokenPipeError:
        _close_stdout(args)
    except MmrClimateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended
    return 141 if args.stdout_closed else code


if __name__ == "__main__":
    sys.exit(main())
