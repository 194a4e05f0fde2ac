"""Run one linadd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus|family|gadgets --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout: linadd is imported from ./src.
The run generates the workload's inputs from the seed three times and
reports the median as the set-up time.  It then runs the job set in a
closed loop with one client, each job starting when the previous verdict
returns, in whole passes, and stops before a pass that would end after
--seconds.  Every job's output is checked against its known answer; a wrong
answer or an exception fails that job and the loop goes on.

Between jobs, and on both sides of each set-up, the run times a fixed
reference task that does not call linadd (speed.py).  Every reported time
is the raw time scaled by REF_S / (the reference's time around it), which
cancels the drift of the shared host's speed and keeps a change to linadd
in full.  The raw times are printed too.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  `attempted` is the number of distinct jobs, whatever the number
of passes; `correct` is false when some job returned a wrong answer in some
pass, and `failed` counts the jobs that were wrong or raised in some pass.
With --trace 0 the metrics are the end-to-end ones: setup_s is the median
set-up time, wall_s the median over passes of the sum of job times, and
job_p50_ms and job_tail_ms percentiles of the times of every job in every
pass.  With --trace 1 the passes alternate between untraced and traced,
and the metrics are per layer, each the median over traced passes of its
per-pass value.  The lines before the JSON object give the exact counts of
every pass for diffing two runs, the failed jobs and, when traced, every
per-layer figure, self times and the tracing overhead.  The spans of a
traced run are written to .bench_out/<workload>-<seed>.spans.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import REF_S, reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_REF_REPEAT = 9     # reference tasks on each side of a set-up

# The tail percentile of job latency, fixed per workload so that it does
# not move with the number of passes.  In a 35-second run each leaves at
# least ten samples beyond it: corpus in three passes of 256 jobs, family
# in about ten passes of 17 jobs and gadgets in about ten passes of 21 jobs.
# Family's and gadgets' fall inside the latencies of one job (ladd check at
# n = 12) or of like jobs (the B*B contracts), not between two, so that
# noise does not move them from one job to another.  The report prints how
# many samples were beyond.
TAIL = {"corpus": 0.95, "family": 0.90, "gadgets": 0.85}

# Per-layer times: metric -> the spans whose outermost durations it sums.
PASS_TIMES = {
    "frontend.parse_s": ("frontend.parse_derivation",),
    "frontend.print_s": ("frontend.print_derivation",),
    "derivation.check_s": ("derivation.check",),
    "reduce.normalize_s": ("reduce.normalize",),
    "reduce.push_s": ("reduce.push_reduction",),
    "reduce.beta_eta_s": ("reduce.beta_eta_equal",),
    "cutelim.eliminate_s": ("cutelim.eliminate",),
    "translate.translate_s": ("translate.translate_derivation",),
    "translate.gadget_s": ("translate.gadget",),
    "inhabit.enumerate_s": ("inhabit.enumerate_inhabitants",),
    "terms.alpha_equal_s": ("terms.alpha_equal", "frontend.derivations_equal"),
    "cli.main_s": ("cli.main",),
}
SETUP_TIMES = {
    "corpus.build_s": ("corpus.build_corpus",),
    "families.gen_s": ("families.gen_ladd", "families.gen_add",
                       "families.gen_applied"),
}
# Per-layer counts of one pass, reported under the same names.
PASS_COUNTS = (
    "frontend.chars", "derivation.check_nodes", "derivation.check_failed",
    "reduce.steps", "reduce.pushes", "reduce.failed", "cutelim.steps",
    "cutelim.rounds", "translate.gadget_nodes", "translate.out_nodes",
    "inhabit.inhabitants", "cli.jobs",
)
# Microseconds per unit of work: metric -> (time metric, count).
RATES = {
    "derivation.check_us_per_node": ("derivation.check_s", "derivation.check_nodes"),
    "reduce.us_per_step": ("reduce.normalize_s", "reduce.steps"),
    "cutelim.us_per_step": ("cutelim.eliminate_s", "cutelim.steps"),
}
# The per-layer metrics of the JSON line: the times that all three
# workloads exercise, so that none reads 0, and the counts an optimisation
# may move.  The report prints the others.
JSON_LAYER = ("derivation.check_s", "derivation.check_us_per_node",
              "reduce.normalize_s", "reduce.us_per_step", "terms.alpha_equal_s",
              "frontend.chars", "derivation.check_failed", "reduce.steps",
              "reduce.failed", "cutelim.steps", "cutelim.rounds",
              "translate.gadget_nodes", "translate.out_nodes")


def unit_of(name: str) -> str:
    if name in RATES:
        return "us"
    return "s" if name.endswith("_s") else "count"


def import_linadd():
    """Import linadd from this checkout's src, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "linadd" / "__init__.py").is_file():
        sys.exit("error: no linadd sources under %s" % src)
    sys.path.insert(0, str(src))
    import linadd
    if Path(linadd.__file__).resolve().parent != (src / "linadd").resolve():
        sys.exit("error: linadd imported from %s, not this checkout" % linadd.__file__)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of the
    sample at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.elapsed = 0.0           # raw seconds, reference tasks included
        self.raw = 0.0               # raw seconds in jobs
        self.wall = 0.0              # scaled seconds in jobs
        self.latencies: list = []    # scaled seconds per job
        self.failures: list = []     # (job, kind, detail)
        self.counts: Counter = Counter()
        self.spans: dict = {}


def run_pass(jobs, calls, tracer, number: int, traced: bool) -> Pass:
    from workloads import WrongAnswer

    p = Pass(traced)
    calls.tracer = tracer
    calls.counts = p.counts
    since = tracer.mark() if p.traced else 0
    start = perf_counter()
    before = reference()
    for name, fn in jobs:
        tracer.job = "%d/%s" % (number, name)
        t0 = perf_counter()
        try:
            tracer.call("job", fn, calls)
        except WrongAnswer as e:
            p.failures.append((name, "wrong", str(e)))
        except Exception as e:  # a crash fails this job; the loop goes on
            where = traceback.extract_tb(e.__traceback__)[-1]
            p.failures.append((name, type(e).__name__, "%s:%d" % (
                os.path.basename(where.filename), where.lineno)))
        took = perf_counter() - t0
        after = reference()
        p.raw += took
        p.latencies.append(took * 2 * REF_S / (before + after))
        before = after
    p.elapsed = perf_counter() - start
    p.wall = sum(p.latencies)
    if p.traced:
        p.spans = tracer.summary(since)
    return p


def layer_values(spans: dict, table: dict) -> dict:
    out = {}
    for metric, names in table.items():
        if any(n in spans for n in names):
            out[metric] = sum(spans[n]["total_s"] for n in names if n in spans)
    return out


def per_layer(p: Pass) -> dict:
    # Span times scaled by the pass's ratio of scaled to raw job time.
    vals = {m: v * p.wall / p.raw
            for m, v in layer_values(p.spans, PASS_TIMES).items()}
    for name in PASS_COUNTS:
        vals[name] = p.counts[name]
    for metric, (t, n) in RATES.items():
        if vals.get(n):
            vals[metric] = vals[t] / vals[n] * 1e6
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TAIL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_linadd()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Calls

    setup = WORKLOADS[args.workload]
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        calls = Calls(null)
        setup_times, raw_setup = [], []
        for rep in range(SETUP_REPS):
            jobs = None     # each set-up starts without the last one's inputs
            gc.collect()
            last = rep == SETUP_REPS - 1
            calls.tracer = tracer if last else null
            calls.counts = Counter()
            since = tracer.mark() if last and args.trace else 0
            rep_dir = os.path.join(tmp, "setup%d" % rep)
            os.mkdir(rep_dir)
            before = reference(SETUP_REF_REPEAT)
            t0 = perf_counter()
            jobs = setup(args.seed, calls, rep_dir)
            took = perf_counter() - t0
            raw_setup.append(took)
            after = reference(SETUP_REF_REPEAT)
            setup_times.append(took * 2 * REF_S / (before + after))
        setup_counts = calls.counts
        setup_spans = tracer.summary(since) if args.trace else {}

        # The inputs of every job stay alive for the whole run.  Freezing them
        # keeps the collector from rescanning them while the jobs run, as it
        # would not in a process that loads one input.
        gc.collect()
        gc.freeze()
        passes: list = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(jobs, calls, tracer if traced else null,
                                   len(passes), traced))
            gc.collect()
            elapsed = perf_counter() - start
            if (len(passes) >= 1 + args.trace
                    and elapsed + passes[-1].elapsed > args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer.write(OUT / ("%s-%d.spans.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return report(args, jobs, passes, setup_times, raw_setup, setup_counts,
                  setup_spans, peak_rss_mb)


def report(args, jobs, passes, setup_times, raw_setup, setup_counts,
           setup_spans, peak_rss_mb) -> int:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    # Every pass repeats the same jobs, and how many passes fit in the run
    # depends on the machine's speed.  So a job counts once: as attempted,
    # and as failed or wrong when it failed or was wrong in any pass.
    attempted = len(jobs)
    failed = {name for p in passes for name, _, _ in p.failures}
    wrong = {name for p in passes for name, kind, _ in p.failures
             if kind == "wrong"}

    print("workload %s seed %d: %d jobs per pass, %d passes (%d traced)"
          % (args.workload, args.seed, len(jobs), len(passes), len(traced)))
    print("set-up counts: %s" % json.dumps(dict(sorted(setup_counts.items()))))
    first = dict(sorted(passes[0].counts.items()))
    same = all(dict(sorted(p.counts.items())) == first for p in passes)
    print("pass counts: %s" % json.dumps(first))
    print("pass counts identical across passes: %s" % same)
    print("pass walls, scaled (s): %s" % " ".join(
        "%.3f%s" % (p.wall, "t" if p.traced else "") for p in passes))
    print("pass walls, raw (s): %s" % " ".join(
        "%.3f%s" % (p.raw, "t" if p.traced else "") for p in passes))
    print("set-up times, scaled (s): %s; raw (s): %s" % (
        " ".join("%.4f" % t for t in setup_times),
        " ".join("%.4f" % t for t in raw_setup)))
    kinds = Counter(kind for _, kind, _ in passes[0].failures)
    print("known answers per pass: %d ok, %d wrong, %d raised %s"
          % (len(jobs) - len(passes[0].failures), kinds.pop("wrong", 0),
             sum(kinds.values()), json.dumps(dict(sorted(kinds.items())))))
    for name, kind, detail in passes[0].failures:
        print("  failed job %s: %s %s" % (name, kind, detail))
    print("failures identical across passes: %s"
          % all(p.failures == passes[0].failures for p in passes))
    print("fail_ratio = %.4f ratio (%d failed of %d attempted jobs)"
          % (len(failed) / attempted, len(failed), attempted))
    if passes[0].counts["translate.out_nodes"]:
        print("translated_nodes = %d count"
              % passes[0].counts["translate.out_nodes"])

    if args.trace:
        metrics = trace_report(traced, plain, setup_spans)
    else:
        metrics = end_to_end(args, plain, setup_times, peak_rss_mb)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(args, plain, setup_times, peak_rss_mb) -> dict:
    lat = [x for p in plain for x in p.latencies]
    print("job latency percentiles (ms): %s" % " ".join(
        "p%d=%.3f" % (k, quantile(lat, k / 100) * 1e3)
        for k in (10, 25, 50, 75, 90, 95, 100)))
    q = TAIL[args.workload]
    tail = quantile(lat, q)
    beyond = sum(1 for x in lat if x > tail)
    print("job_tail_ms is p%g of %d job latencies, %d beyond it%s"
          % (q * 100, len(lat), beyond,
             "" if beyond >= 10 else " (fewer than 10: too few jobs)"))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (v, unit) in metrics.items():
        print("%s = %.6g %s" % (name, v, unit))
    return metrics


def trace_report(traced, plain, setup_spans) -> dict:
    print("set-up spans (last set-up, raw seconds): name calls total_s self_s")
    for name, row in sorted(setup_spans.items()):
        print("  %-32s %7d %10.6f %10.6f" % (name, row["calls"], row["total_s"], row["self_s"]))
    for metric, v in layer_values(setup_spans, SETUP_TIMES).items():
        print("per-layer %s = %.6g s (set-up, raw)" % (metric, v))

    print("pass spans (median over traced passes, raw seconds): name calls total_s self_s")
    names = sorted({n for p in traced for n in p.spans})
    for name in names:
        rows = [p.spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for p in traced]
        print("  %-32s %7d %10.6f %10.6f" % (
            name, rows[0]["calls"], statistics.median(r["total_s"] for r in rows),
            statistics.median(r["self_s"] for r in rows)))

    values = [per_layer(p) for p in traced]
    merged = {}
    for metric in values[0]:
        merged[metric] = statistics.median(v.get(metric, 0) for v in values)
    for metric, v in merged.items():
        if metric in PASS_COUNTS and not v:
            continue
        print("per-layer %s = %.6g %s" % (metric, v, unit_of(metric)))
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    print("tracing overhead = traced wall_s - untraced wall_s = %.6g s" % overhead)
    return {m: (merged.get(m, 0), unit_of(m)) for m in JSON_LAYER}


if __name__ == "__main__":
    sys.exit(main())
