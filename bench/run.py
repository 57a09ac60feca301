"""Benchmark of mmrclimate: one closed-loop client, three workloads.

    python3 bench/run.py --workload {table,sweep,paths} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (or any copy of it holding ``src/``).  The
package is imported from ``src/`` in process and through PYTHONPATH in
every subprocess; BLAS/OpenMP pools are pinned to one thread.  Scratch
files go under ``.bench_out/`` in the root and are removed at the end,
except the result record and, with --trace 1, the span file.

The timed window is --seconds of wall time, side measurements included,
so a run lasts about that long plus one warm-up op.
--trace 0 prints the end-to-end metrics:
  setup_s      median, over fresh processes, of import + load_config()
               + to_scenario(), timed inside the child
  op_p50_ms    median in-process op time after one warm-up op, taken
               over batches of consecutive ops (a workload's batch_ops)
               of each batch's mean op time: the host's speed swings by
               ~1.3x every few seconds, and the median of single ops
               jumps between its two levels, while batch means move
               with the share of slow time; a table batch covers each
               of the run's 12 (alpha, beta) pairs once
  ops_per_s    ops completed per second of op time in the timed loop
  cli_wall_s   median wall time of the workload's CLI subcommand(s), each
               sample a fresh process with a fresh output directory; the
               samples repeat the inputs of the run's first ops in turn
  peak_rss_mb  peak resident set of this process (getrusage)
--trace 1 prints per-op per-layer metrics from a traced pass over a fixed
op list (see tracer.py); ``.ms`` is self time.  It also times an untraced
pass first, for ``trace.overhead_frac``, and ``cli.main`` in process.

Every op's output is checked outside the timed region (workloads.py); so
are the files of every CLI sample.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (machine, provenance, inputs, sample counts and, traced,
the calls and self/inclusive ms of every traced function), also written
to .bench_out/.  Exit status is 1 if any check failed, 2 if the package
cannot be set up at all (no result is printed then).
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MMRCLIMATE_CONFIG", None)

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
os.environ["PYTHONPATH"] = str(SRC)

SETUP_SAMPLES = 7
CLI_MAIN_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 150
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import mmrclimate
t1 = time.perf_counter()
mmrclimate.load_config().to_scenario()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


class SetupFailed(Exception):
    pass


class Run:
    """Counts of attempted and failed operations, with failure messages."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def outcome(self, label, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{label}: {f}" for f in failures)

    def op(self, i):
        """Run and time op i.  Returns (seconds, output, ok); an op that
        raises counts as failed."""
        start = time.perf_counter()
        try:
            out = self.workload.op(i)
        except Exception:
            self.outcome(f"op {i}", [traceback.format_exc(limit=3)])
            return time.perf_counter() - start, None, False
        return time.perf_counter() - start, out, True

    def check(self, i, out):
        try:
            failures = self.workload.check(i, out)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
        self.outcome(f"op {i}", failures)

    def loop(self, start, seconds, extras=()):
        """Closed loop from op index ``start`` for ``seconds`` of wall
        time; returns the times of the ops that succeeded.  Each output is
        checked after its op's timing ends.  The ``extras`` (side
        measurements) run between ops at evenly spaced points of the
        window, so that every metric samples the whole run, not one
        stretch of it; the window includes them, so a run's length does
        not depend on how fast its ops are.  At least one op runs, even
        when the extras alone fill the window."""
        times, i, k = [], start, 0
        t0 = time.perf_counter()
        while True:
            now = time.perf_counter() - t0
            if k < len(extras) and now >= k * seconds / len(extras):
                extras[k]()
                k += 1
                continue
            if now >= seconds and k == len(extras) and i > start:
                return times
            elapsed, out, ok = self.op(i)
            if ok:
                times.append(elapsed)
                self.check(i, out)
            i += 1


def setup_sample():
    """(import_s, config_s) of one fresh process, timed inside it."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupFailed(f"setup process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_sample(run, workdir, j, in_process=False):
    """Wall time of CLI sample j, all of the workload's subcommands in a
    fresh output directory: each in a fresh interpreter, or as
    ``cli.main(argv)`` in this process.  The files and printed output are
    checked against the output of the op the sample repeats, which is
    run first, untimed, if the loop has not reached it yet."""
    workload = run.workload
    ref = workload.cli_op(j)
    if ref not in workload.first:
        _, out, ok = run.op(ref)
        if ok:
            run.check(ref, out)
    outdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    wall, stdouts, failures = 0.0, [], []
    for argv in workload.cli_argvs(outdir, j):
        argv = ["--no-timestamp", "--output-dir", outdir] + argv
        start = time.perf_counter()
        if in_process:
            cli = importlib.import_module("mmrclimate.cli")
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "mmrclimate.cli"] + argv,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        wall += time.perf_counter() - start
        stdouts.append(stdout)
        if code != 0:
            failures.append(f"{' '.join(argv)} exited {code}: {stderr.strip()}")
    if not failures:
        try:
            failures = workload.check_cli(outdir, stdouts, j)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
    run.outcome("cli sample", failures)
    shutil.rmtree(outdir, ignore_errors=True)
    return wall


def interleave(*groups):
    """Round-robin merge of lists of side measurements."""
    merged = []
    for k in range(max(len(g) for g in groups)):
        merged += [g[k] for g in groups if k < len(g)]
    return merged


def batched_median(times, size):
    """(median, count) over batches of ``size`` consecutive op times of
    the batch's mean; all the times form one batch if there are fewer."""
    batches = [times[k:k + size] for k in range(0, len(times) - size + 1, size)]
    batches = batches or [times]
    return statistics.median(statistics.fmean(b) for b in batches), len(batches)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def provenance():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmrclimate").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def machine():
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table", "sweep", "paths"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "mmrclimate" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workdir)
    except (SetupFailed, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    import workloads
    from tracer import Tracer

    ctx = workloads.Context()
    workload = workloads.WORKLOADS[args.workload](ctx, args.seed, workdir)
    run = Run(workload)
    metrics, record_layers = {}, None

    def put(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    setup_sample()   # unmeasured: later samples all find compiled bytecode
    setup, walls = [], []
    setup_extras = [lambda: setup.append(setup_sample())] * SETUP_SAMPLES
    elapsed, out, ok = run.op(0)   # warm-up, checked like any other op
    if ok:
        run.check(0, out)

    if args.trace == 0:
        cli_extras = [lambda j=j: walls.append(cli_sample(run, workdir, j))
                      for j in range(workload.cli_samples(args.seconds))]
        times = run.loop(1, args.seconds, interleave(setup_extras, cli_extras))
        put("setup_s", statistics.median(a + b for a, b in setup), "s", len(setup))
        p50, batches = batched_median(times, workload.batch_ops) if times else (0.0, 0)
        put("op_p50_ms", p50 * 1e3, "ms", batches)
        put("ops_per_s", len(times) / sum(times) if times else 0.0, "1/s", len(times))
        put("cli_wall_s", median_or_zero(walls), "s", len(walls))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)
    else:
        untraced = run.loop(1, args.seconds / 2.0, setup_extras)
        tracer = Tracer()
        traced, outputs = [], []
        tracer.install()
        try:
            for i in range(workload.traced_ops):
                tracer.op = i
                elapsed, out, ok = run.op(i)
                if ok:
                    traced.append(elapsed)
                    outputs.append((i, out))
        finally:
            tracer.restore()
        for i, out in outputs:
            run.check(i, out)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        main_ms = [cli_sample(run, workdir, j, in_process=True) * 1e3
                   for j in range(CLI_MAIN_SAMPLES)]
        summary = tracer.summarize(len(traced))
        per_layer(put, summary, workload, run, setup, untraced, traced, main_ms)
        record_layers = layers(summary)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "provenance": provenance(),
        "inputs": workload.describe(), "metrics": metrics, "layers": record_layers,
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures[:20],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for message in run.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


# The regret and report layers are reported whole: every workload reaches
# them, while each of their functions is reached by only some workloads.
# Their per-function split is in the record's "layers".
REGRET_SPANS = ("regret.build_policy_set", "regret.regret_matrix",
                "regret.tmax", "regret.sweep")


def layers(summary):
    """Per-op calls, self and inclusive ms of every traced function."""
    out = {name: {"calls": summary["calls"][name],
                  "self_ms": summary["self_s"][name] * 1e3,
                  "incl_ms": summary["incl_s"][name] * 1e3}
           for name in sorted(summary["calls"])}
    matrix = out.get("regret.regret_matrix")
    if matrix:
        matrix["cells_per_s"] = summary["counters"]["regret.cells"] / (
            matrix["incl_ms"] / 1e3)
    return out


def per_layer(put, summary, workload, run, setup, untraced, traced, main_ms):
    calls, self_s = summary["calls"], summary["self_s"]
    counters = summary["counters"]
    n = len(traced)
    put("import.ms", statistics.median(a for a, _ in setup) * 1e3, "ms", len(setup))
    put("config.load_ms", statistics.median(b for _, b in setup) * 1e3, "ms", len(setup))
    for span in ("control.solve_optimal", "control.solution_cost",
                 "economy.discounted_total_cost", "exppoly.mul", "exppoly.eval"):
        put(f"{span}.calls", calls.get(span, 0), "count", n)
        put(f"{span}.ms", self_s.get(span, 0.0) * 1e3, "ms", n)
    put("exppoly.discounted_integral.calls",
        calls.get("exppoly.discounted_integral", 0), "count", n)
    put("control.hiprec_ms", summary["hiprec_s"] * 1e3, "ms", n)
    near = [workload.near_resonance(i) for i in range(workload.traced_ops)]
    put("control.near_resonant_frac",
        sum(h for h, _ in near) / sum(p for _, p in near), "fraction", len(near))
    for span in REGRET_SPANS:
        put(f"{span}.calls", calls.get(span, 0), "count", n)
    put("regret.cells", counters.get("regret.cells", 0), "count", n)
    put("regret.ms", sum(self_s.get(s, 0.0) for s in REGRET_SPANS) * 1e3, "ms", n)
    put("report.ms", sum(v for k, v in self_s.items() if k.startswith("report.")) * 1e3,
        "ms", n)
    put("report.bytes", counters.get("report.bytes", 0), "bytes", n)
    put("cli.main.ms", median_or_zero(main_ms), "ms", len(main_ms))
    base = median_or_zero(untraced)
    put("trace.overhead_frac",
        median_or_zero(traced) / base - 1.0 if base else 0.0, "fraction", n)
    put("error_rate", run.failed / max(run.attempted, 1), "fraction", run.attempted)


if __name__ == "__main__":
    sys.exit(main())
