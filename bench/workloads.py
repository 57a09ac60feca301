"""The three benchmark workloads: inputs from a seed, one op, and the
correctness checks on its output and on the matching CLI run's files.

All calls into mmrclimate go through module attributes (``mc.sweep``,
``report.matrix_csv``) so that the tracer's replaced bindings are used.

- ``table``: the in-process work of ``regret-table`` (42 states x 43
  policies), cycling through 12 seeded (alpha, beta) pairs.  The
  headline artefact; the cost engine is ~90% of an op.
- ``sweep``: ``sweep()`` over the 3x3 (alpha, beta) grid plus its three
  writers, cycling through 4 seeded grids.  Rebuilds policies and matrix
  nine times; the only workload where per-cell rebuilding and reuse
  across cells show.
- ``paths``: one seeded ``solve`` + ``tmax`` request per op, a new draw
  each time.  Never builds a regret matrix, so a cost-engine change
  should leave it unchanged while changes to paths and peak search land
  on it directly.
"""

from __future__ import annotations

import csv
import glob
import io
import json
import math
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "table_seed0.json"

# Same trigger as the package's high-precision route: a (delta, model)
# pair is near-resonant when a baseline rate lies this close to a
# characteristic root.
NEAR_RESONANT_GAP = 3e-3
MATRIX_TOL = 1e-9
ORACLE_REL_TOL = 5e-3
SCALE_RANGE = (0.8, 1.25)
DELTA_RANGE = (0.005, 0.1)

# Published Tables 2 and 3 and their acceptance tolerances, as fixed in
# tests/test_acceptance.py.
REL_TOL, YEARS_TOL, TMAX_TOL = 0.15, 15.0, 0.25
TABLE2 = {
    (0.000075, 0.014): ("IPSL", 0.172), (0.000075, 0.018): ("HAD", 0.172),
    (0.000075, 0.022): ("HAD", 0.178), (0.000125, 0.014): ("MIROC", 0.266),
    (0.000125, 0.018): ("IPSL", 0.273), (0.000125, 0.022): ("IPSL", 0.284),
    (0.0002, 0.014): ("MIROC", 0.478), (0.0002, 0.018): ("MIROC", 0.436),
    (0.0002, 0.022): ("MIROC", 0.423),
}
TABLE3 = {
    (0.000075, 0.014): (124.0, 1.248), (0.000075, 0.018): (121.0, 1.055),
    (0.000075, 0.022): (118.0, 0.877), (0.000125, 0.014): (134.0, 1.831),
    (0.000125, 0.018): (130.0, 1.564), (0.000125, 0.022): (125.0, 1.315),
    (0.0002, 0.014): (149.0, 2.660), (0.0002, 0.018): (141.0, 2.187),
    (0.0002, 0.022): (135.0, 1.859),
}
EXCEED_2C = {(0.0002, 0.014), (0.0002, 0.018)}


class Context:
    """The package, its report module and the bundled default config."""

    def __init__(self):
        import importlib

        self.mc = importlib.import_module("mmrclimate")
        self.report = importlib.import_module("mmrclimate.report")
        self.config = self.mc.load_config()
        self.scenario = self.config.to_scenario()

    def near_resonant(self, delta, model, econ) -> bool:
        roots = self.mc.char_roots(delta, model.ccr, econ.alpha, econ.beta)
        gap = min((min(abs(mu - roots.lam_plus), abs(mu - roots.lam_minus))
                   for mu in self.scenario.baseline.rates()), default=math.inf)
        return gap < NEAR_RESONANT_GAP


def _factors(name, seed, count=1):
    """Seed 0 is the published inputs; any other seed gives ``count``
    pairs of factors, drawn from SCALE_RANGE, that scale two inputs."""
    if seed == 0:
        return [(1.0, 1.0)]
    rng = random.Random(f"{name}-{seed}")
    return [(rng.uniform(*SCALE_RANGE), rng.uniform(*SCALE_RANGE))
            for _ in range(count)]


def _sum_tolerance(path, value):
    """Tolerance for ``path(0) == value``: MATRIX_TOL relative, plus the
    rounding error of summing the path's float coefficients at t = 0 when
    it exposes them.  Within ~1e-5 of exact resonance the float closed
    form carries canceling coefficients of up to ~1e12, so E(0) is only as
    exact as that sum (errors up to ~1e-2 GtC); a representation without
    such terms is held to MATRIX_TOL alone."""
    terms = getattr(path, "terms", ())
    at_zero = sum(abs(c) for c, n, _ in terms if n == 0)
    return MATRIX_TOL * max(1.0, abs(value)) + len(terms) * sys.float_info.epsilon * at_zero


def _write(outdir, files):
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w", newline="") as fh:
            fh.write(text)


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _csv_rows(text):
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _compare_csv(got, want, what):
    """Field-by-field comparison: numbers within MATRIX_TOL, everything
    else exactly."""
    got_rows, want_rows = _csv_rows(got), _csv_rows(want)
    if len(got_rows) != len(want_rows):
        return [f"{what}: {len(got_rows)} rows, expected {len(want_rows)}"]
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            return [f"{what}: row {r} has {len(g_row)} fields, expected {len(w_row)}"]
        for g, w in zip(g_row, w_row):
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                if g != w:
                    return [f"{what}: row {r} field {g!r} != {w!r}"]
                continue
            if not abs(gv - wv) <= MATRIX_TOL:
                return [f"{what}: row {r} value {g} != {w}"]
    return []


class Workload:
    name = ""
    traced_ops = 1      # fixed op count of the traced pass
    cli_per_s = 0.2     # CLI samples per second of the timed window
    # Consecutive ops averaged into one op_p50_ms sample.  An op that
    # takes a few seconds, or whose time varies widely with its inputs,
    # is its own sample.
    batch_ops = 1
    keep = 1            # outputs of ops 0..keep-1 are kept as references

    def cli_samples(self, seconds) -> int:
        return max(3, round(self.cli_per_s * seconds))

    def __init__(self, ctx: Context, seed: int, workdir: str):
        self.ctx = ctx
        self.seed = seed
        self.workdir = workdir
        self.first = {}     # op index -> output, the references for later ops and the CLI

    def describe(self) -> dict:
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out) -> list:
        raise NotImplementedError

    def cli_op(self, j) -> int:
        """Index of the op that CLI sample j repeats; its output is the
        reference for the sample's files."""
        return 0

    def cli_argvs(self, outdir, j) -> list:
        raise NotImplementedError

    def check_cli(self, outdir, stdouts, j) -> list:
        raise NotImplementedError

    def near_resonance(self, i):
        """(near-resonant pairs, solved pairs) of op i."""
        raise NotImplementedError

    def _remember(self, i, out):
        if i < self.keep:
            self.first[i] = out


# An op's cost depends on how many policies are near-resonant (13 to 20 of
# 42 over the scaled (alpha, beta)), so a run cycles through this many
# seeded (alpha, beta) pairs, and every op_p50_ms batch covers all of
# them: a run's figures then vary with the seed much less than the cost
# of one pair does.
TABLE_VARIANTS = 12


class Table(Workload):
    name = "table"
    traced_ops = 3
    cli_per_s = 0.3
    batch_ops = TABLE_VARIANTS

    def __init__(self, ctx, seed, workdir):
        super().__init__(ctx, seed, workdir)
        cfg = ctx.config
        self.econs = [ctx.mc.EconParams(alpha=cfg.econ.alpha * fa, beta=cfg.econ.beta * fb)
                      for fa, fb in _factors(self.name, seed, TABLE_VARIANTS)]
        self.scenarios = [replace(ctx.scenario, econ=econ) for econ in self.econs]
        self.n_near = [sum(ctx.near_resonant(d, m, econ)
                           for m in cfg.ensemble for d in cfg.deltas)
                       for econ in self.econs]
        self.n_pairs = len(cfg.ensemble) * len(cfg.deltas)
        self.keep = len(self.econs)

    def describe(self):
        return {"alpha": [e.alpha for e in self.econs],
                "beta": [e.beta for e in self.econs],
                "states": self.n_pairs, "policies": self.n_pairs + 1,
                "near_resonant_policies": self.n_near}

    def op(self, i):
        mc, report, cfg = self.ctx.mc, self.ctx.report, self.ctx.config
        scenario = self.scenarios[i % self.keep]
        states = mc.build_states(cfg.deltas, cfg.ensemble)
        policies = mc.build_policy_set(cfg.deltas, cfg.ensemble, scenario)
        matrix = mc.regret_matrix(policies, states, scenario)
        policy, value = mc.mmr_select(matrix)
        _write(self.workdir, {
            "regret_matrix.csv": report.matrix_csv(matrix, timestamp=False),
            "regret_table.txt": report.matrix_table(matrix, timestamp=False),
            "regret_heatmap.svg": report.svg_heatmap(matrix, timestamp=False),
        })
        return matrix, policy, value

    def check(self, i, out):
        matrix, policy, _ = out
        values = np.asarray(matrix.values)
        failures = []
        diagonal = [values[r, c]
                    for r, s in enumerate(matrix.states)
                    for c, p in enumerate(matrix.policies)
                    if p.delta == s.delta and p.model is not None
                    and p.model.name == s.model.name]
        if len(diagonal) != self.n_pairs or max(abs(v) for v in diagonal) > MATRIX_TOL:
            failures.append("table: regret diagonal is not zero")
        if values.min() < -MATRIX_TOL:
            failures.append(f"table: negative regret {values.min():.3e}")
        if policy.delta != 0.02:
            failures.append(f"table: MMR selected {policy.label()}, not delta=0.02")
        if i == 0 and self.seed == 0:
            ref = json.loads(REFERENCE.read_text())
            labels = ([s.label() for s in matrix.states],
                      [p.label() for p in matrix.policies])
            if labels != (ref["states"], ref["policies"]):
                failures.append("table: labels differ from the recorded reference")
            else:
                worst = float(np.abs(values - np.array(ref["values"])).max())
                if worst > MATRIX_TOL:
                    failures.append(f"table: {worst:.3e} away from the recorded reference")
        first = i % self.keep
        if i != first and not np.allclose(values, self.first[first][0].values,
                                          rtol=0.0, atol=MATRIX_TOL):
            failures.append(f"table: op {i} differs from op {first}")
        self._remember(i, out)
        return failures

    def cli_op(self, j):
        return j % self.keep

    def cli_argvs(self, outdir, j):
        argv = ["regret-table"]
        if self.seed != 0:
            econ = self.econs[self.cli_op(j)]
            argv += ["--alpha", repr(econ.alpha), "--beta", repr(econ.beta)]
        return [argv]

    def check_cli(self, outdir, stdouts, j):
        matrix, policy, _ = self.first[self.cli_op(j)]
        want = self.ctx.report.matrix_csv(matrix, timestamp=False)
        failures = _compare_csv(_read(os.path.join(outdir, "regret_matrix.csv")),
                                want, "regret-table csv")
        if f"minimax regret: {policy.label()} " not in stdouts[0]:
            failures.append("regret-table: printed MMR policy differs")
        return failures

    def near_resonance(self, i):
        return self.n_near[i % self.keep], self.n_pairs


# As for table: a sweep's cost varies by ~15% with the scaled grids, so a
# run cycles through this many seeded grids.
SWEEP_VARIANTS = 4


class Sweep(Workload):
    name = "sweep"
    traced_ops = 1
    cli_per_s = 0.175

    def __init__(self, ctx, seed, workdir):
        super().__init__(ctx, seed, workdir)
        cfg = ctx.config
        self.grids = [(tuple(a * fa for a in cfg.alpha_grid),
                       tuple(b * fb for b in cfg.beta_grid))
                      for fa, fb in _factors(self.name, seed, SWEEP_VARIANTS)]
        self.config_paths = [None]
        if seed != 0:
            self.config_paths = [os.path.join(workdir, f"sweep_config{v}.ini")
                                 for v in range(len(self.grids))]
            for (alphas, betas), path in zip(self.grids, self.config_paths):
                ctx.mc.save_config(replace(cfg, alpha_grid=alphas, beta_grid=betas), path)
        self.n_near = [sum(ctx.near_resonant(d, m, ctx.mc.EconParams(alpha=a, beta=b))
                           for a in alphas for b in betas
                           for m in cfg.ensemble for d in cfg.deltas)
                       for alphas, betas in self.grids]
        self.cells = len(cfg.alpha_grid) * len(cfg.beta_grid)
        self.n_pairs = self.cells * len(cfg.ensemble) * len(cfg.deltas)
        self.keep = len(self.grids)

    def describe(self):
        return {"alpha_grids": [a for a, _ in self.grids],
                "beta_grids": [b for _, b in self.grids], "cells": self.cells,
                "near_resonant_pairs": self.n_near, "pairs": self.n_pairs}

    def op(self, i):
        mc, report, cfg = self.ctx.mc, self.ctx.report, self.ctx.config
        alphas, betas = self.grids[i % self.keep]
        rep = mc.sweep(alphas, betas, cfg.deltas, cfg.ensemble, self.ctx.scenario)
        _write(self.workdir, {
            "sweep_summary.csv": report.sweep_csv(rep, timestamp=False),
            "sweep_mmr.txt": report.sweep_table_mmr(rep, timestamp=False),
            "sweep_tmax.txt": report.sweep_table_tmax(rep, timestamp=False),
        })
        return rep

    def _published(self, rep):
        failures = []
        if {c.policy_delta for c in rep.cells} != {0.02}:
            failures.append("sweep: delta=0.02 not selected in every cell")
        hits = sum(c.policy_model == TABLE2[(c.alpha, c.beta)][0] for c in rep.cells)
        if hits < 7:
            failures.append(f"sweep: only {hits}/9 Table 2 model selections match")
        for c in rep.cells:
            mmr_pub = TABLE2[(c.alpha, c.beta)][1]
            years_pub, tmax_pub = TABLE3[(c.alpha, c.beta)]
            if abs(c.mmr_value / mmr_pub - 1.0) > REL_TOL:
                failures.append(f"sweep: MMR {c.mmr_value:.3f} vs Table 2 {mmr_pub}")
            if abs(c.years_to_peak - years_pub) > YEARS_TOL:
                failures.append(f"sweep: peak year {c.years_to_peak:.0f} vs Table 3 {years_pub:.0f}")
            if abs(c.tmax_degc - tmax_pub) > TMAX_TOL:
                failures.append(f"sweep: Tmax {c.tmax_degc:.3f} vs Table 3 {tmax_pub}")
        exceed = {(c.alpha, c.beta) for c in rep.cells if c.tmax_degc >= 2.0}
        if exceed != EXCEED_2C:
            failures.append(f"sweep: cells above 2 degC are {sorted(exceed)}")
        return failures

    def _one_cell(self, i, rep):
        """Recompute one seeded cell through the single-matrix path."""
        mc, cfg = self.ctx.mc, self.ctx.config
        cell = rep.cells[(self.seed + i) % len(rep.cells)]
        scenario = replace(self.ctx.scenario,
                           econ=mc.EconParams(alpha=cell.alpha, beta=cell.beta))
        matrix = mc.regret_matrix(
            mc.build_policy_set(cfg.deltas, cfg.ensemble, scenario),
            mc.build_states(cfg.deltas, cfg.ensemble), scenario)
        policy, value = mc.mmr_select(matrix)
        worst = max(cfg.ensemble, key=lambda m: m.ccr)
        years, peak = mc.tmax(policy, worst, scenario)
        if (policy.delta, policy.model.name) != (cell.policy_delta, cell.policy_model) \
                or abs(value - cell.mmr_value) > MATRIX_TOL \
                or abs(years - cell.years_to_peak) > MATRIX_TOL \
                or abs(peak - cell.tmax_degc) > MATRIX_TOL:
            return [f"sweep: cell ({cell.alpha:g}, {cell.beta:g}) disagrees "
                    "with its own regret matrix"]
        return []

    def check(self, i, rep):
        failures = []
        first = i % self.keep
        if len(rep.cells) != self.cells or any(
                not (c.mmr_value > 0 and math.isfinite(c.tmax_degc))
                for c in rep.cells):
            failures.append("sweep: malformed cells")
        elif i == first:
            if self.seed == 0:
                failures += self._published(rep)
            failures += self._one_cell(i, rep)
        elif first in self.first:
            want = self.ctx.report.sweep_csv(self.first[first], timestamp=False)
            failures += _compare_csv(self.ctx.report.sweep_csv(rep, timestamp=False),
                                     want, f"sweep op {i} vs op {first}")
        self._remember(i, rep)
        return failures

    def cli_op(self, j):
        return j % self.keep

    def cli_argvs(self, outdir, j):
        path = self.config_paths[self.cli_op(j)]
        return [([] if path is None else ["--config", path]) + ["sweep"]]

    def check_cli(self, outdir, stdouts, j):
        want = self.ctx.report.sweep_csv(self.first[self.cli_op(j)], timestamp=False)
        return _compare_csv(_read(os.path.join(outdir, "sweep_summary.csv")),
                            want, "sweep csv")

    def near_resonance(self, i):
        return self.n_near[i % self.keep], self.n_pairs


class Paths(Workload):
    name = "paths"
    traced_ops = 32
    cli_per_s = 0.3
    # CLI samples repeat the first draws in turn: a draw's cost varies
    # several-fold with how near-resonant it is, so repeating one request
    # would let a single draw set a run's cli_wall_s.
    keep = 16

    def __init__(self, ctx, seed, workdir):
        super().__init__(ctx, seed, workdir)
        self._rng = random.Random(f"{self.name}-{seed}")
        self._draws = []
        self.e0_err_max = 0.0

    def draw(self, i):
        """(delta, model) of op i: delta uniform on DELTA_RANGE, the model
        uniform over the ensemble; alpha and beta are the bundled values."""
        ensemble = self.ctx.config.ensemble
        while len(self._draws) <= i:
            delta = self._rng.uniform(*DELTA_RANGE)
            self._draws.append((delta, ensemble[self._rng.randrange(len(ensemble))]))
        return self._draws[i]

    def describe(self):
        delta, model = self.draw(0)
        return {"delta_range": DELTA_RANGE, "first_draw": [delta, model.name],
                "horizon_years": 500, "models": len(self.ctx.config.ensemble),
                "e0_abs_err_max": self.e0_err_max}

    def _tmax_csv(self, policy):
        mc, cfg = self.ctx.mc, self.ctx.config
        lines = ["model,ccr,years_to_peak,tmax_degc"]
        for model in cfg.ensemble:
            try:
                years, peak = mc.tmax(policy, model, self.ctx.scenario,
                                      root_tol=cfg.tolerances.root_tol)
                lines.append(f"{model.name},{model.ccr!r},{years:.1f},{peak!r}")
            except mc.NoPeak as exc:
                tail = "" if exc.asymptote_degc is None else repr(exc.asymptote_degc)
                lines.append(f"{model.name},{model.ccr!r},,{tail}")
        return "\n".join(lines) + "\n"

    def op(self, i):
        mc, report = self.ctx.mc, self.ctx.report
        delta, model = self.draw(i)
        sol = mc.solve_optimal(delta, model, self.ctx.scenario)
        path_csv = report.solution_csv(sol, self.ctx.scenario, horizon_years=500,
                                       timestamp=False)
        tmax_csv = self._tmax_csv(mc.Policy.from_solution(sol))
        _write(self.workdir, {"solution.csv": path_csv, "tmax.csv": tmax_csv})
        return sol, path_csv, tmax_csv

    def check(self, i, out):
        sol = out[0]
        delta, model = self.draw(i)
        e0 = self.ctx.scenario.e0
        failures = []
        oracle = self.ctx.mc.numeric_oracle(delta, model, self.ctx.scenario).j_estimate
        if not (math.isfinite(sol.j_star) and sol.j_star > 0) \
                or abs(oracle / sol.j_star - 1.0) > ORACLE_REL_TOL:
            failures.append(f"paths: J* {sol.j_star!r} vs oracle {oracle!r} "
                            f"at delta={delta!r}/{model.name}")
        e0_err = abs(sol.net_emissions(0.0) - e0)
        self.e0_err_max = max(self.e0_err_max, e0_err)
        if not e0_err <= _sum_tolerance(sol.net_emissions, e0):
            failures.append(f"paths: E(0) - e0 = {e0_err!r} at delta={delta!r}/{model.name}")
        self._remember(i, out)
        return failures

    def cli_op(self, j):
        return j % self.keep

    def cli_argvs(self, outdir, j):
        delta, model = self.draw(self.cli_op(j))
        request = ["--delta", repr(delta), "--model", model.name]
        return [["solve"] + request, ["tmax"] + request]

    def check_cli(self, outdir, stdouts, j):
        sol, path_csv, tmax_csv = self.first[self.cli_op(j)]
        found = glob.glob(os.path.join(outdir, "solution_*.csv"))
        if len(found) != 1:
            return [f"solve: expected one solution csv, found {len(found)}"]
        failures = _compare_csv(_read(found[0]), path_csv, "solve csv")
        failures += _compare_csv(_read(os.path.join(outdir, "tmax.csv")),
                                 tmax_csv, "tmax csv")
        printed = [line for line in stdouts[0].splitlines() if line.startswith("J* = ")]
        if not printed or abs(float(printed[0].split()[2]) - sol.j_star) > 5e-7:
            failures.append("solve: printed J* differs")
        return failures

    def near_resonance(self, i):
        delta, model = self.draw(i)
        return int(self.ctx.near_resonant(delta, model, self.ctx.scenario.econ)), 1


WORKLOADS = {w.name: w for w in (Table, Sweep, Paths)}
