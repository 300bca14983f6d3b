"""markovmix benchmark: one workload per run, closed loop, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; times are medians over the run.  With ``--trace 1`` it traces one
more set-up, alternates untraced and traced operations, and reports
per-layer metrics of the traced set-up plus one traced operation, and the
tracing overhead.  Every operation's outputs are checked against
``reference.json``; a mismatch or an error counts as a failed step.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the environment and input fingerprint
and, when traced, every span, goes to ``bench/results/``.

The metric names and units printed are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 50, 1.0
# A set-up shorter than SHORT_SETUP_S is also repeated between the timed
# operations, for SETUP_SHARE of the loop's time, so that the median covers
# the whole run and not only its first second: the machine's speed changes
# in phases that last longer than that.
SHORT_SETUP_S, SETUP_SHARE = 0.5, 0.2
MIN_OPS = 3
MAX_FAILURE_STREAK = 3
REL_TOL = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    """Cores this process may run on: affinity, capped by a cgroup quota."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            cores = min(cores, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return cores


def thread_settings(cores: int) -> dict:
    """Clamp BLAS/OpenMP thread variables to the usable cores.

    Runs before numpy is imported, so the clamp takes effect.
    """
    clamped = []
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > cores:
            os.environ[var] = str(cores)
            clamped.append(var)
    return {**{var: os.environ.get(var) for var in THREAD_VARS}, "clamped": clamped}


def environment(cores: int, threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_cpu_count": os.cpu_count(),
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "platform": platform.platform(),
    }


def matches(actual, expected) -> bool:
    """Ints and strings exactly; floats to a relative 1e-9."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(matches(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            return False
        return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-12)
    return actual == expected


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """State of one benchmark run: checks, timings and traced metrics."""

    def __init__(self, workload, reference: dict, tracer):
        self.wl = workload
        self.ref = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests = None
        self.caught: list = []
        # Spans, counts and GT-fallback warnings of the traced set-up; each
        # traced operation's layer metrics include them.
        self.setup_trace: tuple[list, Counter, int] = ([], Counter(), 0)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, label: str, actual, expected) -> None:
        self.attempted += 1
        if not matches(actual, expected):
            self.fail("%s: got %r, reference %r" % (label, actual, expected))

    def operation(self, state, traced: bool) -> dict | None:
        """Run, time and check one operation; None if it raised.

        A traced operation keeps the tracer installed through the output
        check, whose package calls (train-desk's probe evaluation) are
        traced too but not timed.  A failed operation's outputs are
        discarded here.
        """
        gc.collect()
        first_warning = len(self.caught)
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                outputs, phases = self.wl.run(state)
                seconds = time.perf_counter() - t0
            except Exception:
                self.attempted += len(self.ref["steps"])
                self.fail("operation raised:\n" + traceback.format_exc())
                return None
            try:
                summary = self.wl.summarize(state, outputs)
            except Exception:
                self.attempted += len(self.ref["steps"])
                self.fail("summarize raised:\n" + traceback.format_exc())
                self.wl.discard(outputs)
                return None
        finally:
            if traced:
                self.tracer.uninstall()
            spans, counts = self.tracer.take()
        warned = [str(w.message) for w in self.caught[first_warning:]]
        for step, expected in self.ref["steps"].items():
            self.check(step, summary.get(step), expected)
        op = {"seconds": seconds, "phases": phases, "summary": summary, "outputs": outputs}
        op["gt_fallback_warnings"] = gt_fallbacks(warned)
        if hasattr(self.wl, "digests"):
            digests = self.wl.digests(outputs)
            if self.first_digests is None:
                self.first_digests = digests
            self.attempted += 1
            if digests != self.first_digests:
                self.fail("artifacts differ between repetitions: %s" % sorted(
                    k for k in digests.keys() | self.first_digests.keys()
                    if digests.get(k) != self.first_digests.get(k)))
            ref_digests = self.ref["digests"]
            op["artifacts_changed"] = sum(
                digests.get(k) != ref_digests.get(k) for k in digests.keys() | ref_digests.keys()
            )
            op["artifact_bytes"] = self.wl.artifact_bytes(outputs)
        if traced:
            from tracer import layer_metrics

            setup_spans, setup_counts, setup_warned = self.setup_trace
            op["spans"] = spans
            op["layers"] = layer_metrics(setup_spans + spans, setup_counts + counts,
                                         self.tracer.missing)
            op["gt_fallback_warnings"] += setup_warned
        return op

    def traced_setup(self):
        """One set-up with the tracer installed; its state is used after."""
        gc.collect()
        first_warning = len(self.caught)
        self.tracer.install()
        try:
            state = self.wl.setup()
        finally:
            self.tracer.uninstall()
            spans, counts = self.tracer.take()
        warned = [str(w.message) for w in self.caught[first_warning:]]
        self.setup_trace = (spans, counts, gt_fallbacks(warned))
        return state


def gt_fallbacks(warned: list[str]) -> int:
    """Good-Turing discounts that fell back to d=1, from warning texts."""
    return sum("d=1" in w for w in warned)


def run_benchmark(args) -> dict:
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    index = workloads.input_index(args.seed)
    ref = reference["workloads"][args.workload][str(index)]
    workdir = WORK_DIR / ("%s-%d" % (args.workload, os.getpid()))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    run = Run(wl, ref, Tracer())

    workdir.mkdir(parents=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run.caught = caught
            setup_times = []
            state = None
            while len(setup_times) < MIN_SETUPS or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
            ):
                state = None
                gc.collect()
                t0 = time.perf_counter()
                state = wl.setup()
                setup_times.append(time.perf_counter() - t0)
            if args.trace:
                state = None
                state = run.traced_setup()

            # The first operation is a warm-up: checked, not timed.  The
            # loop ends at the deadline once enough operations were
            # attempted, failed ones included, or after a streak of failures.
            plain, traced = [], []
            outputs = None
            deadline = None
            timed = streak = 0
            n_before = len(setup_times)
            spread_setups = not args.trace and statistics.median(setup_times) < SHORT_SETUP_S
            while True:
                use_trace = deadline is not None and bool(args.trace) and timed % 2 == 1
                if outputs is not None:
                    wl.discard(outputs)
                outputs = None
                if deadline is not None and spread_setups:
                    share = SETUP_SHARE * (time.perf_counter() - loop_start)
                    while sum(setup_times[n_before:]) < share:
                        gc.collect()
                        t0 = time.perf_counter()
                        wl.setup()
                        setup_times.append(time.perf_counter() - t0)
                op = run.operation(state, traced=use_trace)
                streak = 0 if op is not None else streak + 1
                if op is not None:
                    outputs = op.pop("outputs")
                    if deadline is not None:
                        (traced if use_trace else plain).append(op)
                if deadline is None:
                    loop_start = time.perf_counter()
                    deadline = loop_start + args.seconds
                else:
                    timed += 1
                if streak >= MAX_FAILURE_STREAK or (
                    time.perf_counter() >= deadline and timed >= MIN_OPS * (1 + args.trace)
                ):
                    break
            final = {}
            if outputs is not None:
                try:
                    final = wl.final(state, outputs)
                except Exception:
                    run.fail("final raised:\n" + traceback.format_exc())
                for key, expected in ref["final"].items():
                    run.check("final." + key, final.get(key), expected)
                wl.discard(outputs)
            n_warnings = len(caught)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_index": index,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SIZES[args.workload],
        "setup_times": setup_times,
        "op_times": [op["seconds"] for op in plain],
        "traced_op_times": [op["seconds"] for op in traced],
        "warnings": n_warnings,
    }
    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb()}
    named = {}
    if plain:
        last_summary = plain[-1]["summary"]
        tables = wl.tables(last_summary, state)
        result["tables"] = tables
        metrics["op_s"] = statistics.median(op["seconds"] for op in plain)
        named["op_min_s"] = min(op["seconds"] for op in plain)
        named["events_per_s"] = statistics.median(
            wl.events_per_s(op["phases"], op["summary"], state) for op in plain
        )
        for phase in plain[0]["phases"]:
            named[phase + "_median"] = statistics.median(op["phases"][phase] for op in plain)
        test_ppl = wl.test_ppl(last_summary, final)
        if test_ppl is not None:
            named["test_ppl"] = test_ppl
    if traced and plain:
        layers = {}
        for name in sorted(set().union(*(op["layers"] for op in traced))):
            values = [op["layers"].get(name) for op in traced]
            # Counts are ints, times and rates floats.
            is_count = all(isinstance(v, int) for v in values if v is not None)
            if is_count:
                run.check("trace counts repeat: " + name, values, [values[0]] * len(values))
            if any(v is None for v in values):
                continue
            layers[name] = values[0] if is_count else statistics.median(values)
        # Each traced operation against the untraced one just before it,
        # so that a slow phase of the machine falls on both.
        layers["trace.overhead_ratio"] = statistics.median(
            t["seconds"] / p["seconds"] for p, t in zip(plain, traced)
        )
        layers["trace.overhead_s"] = (
            statistics.median(op["seconds"] for op in traced) - metrics["op_s"]
        )
        warned = [op["gt_fallback_warnings"] for op in traced]
        run.check("trace counts repeat: warnings", warned, [warned[0]] * len(warned))
        layers["smoothing.gt_fallback_warnings"] = warned[0]
        layers["corpus.events"] = tables["events"]
        layers["corpus.bigrams"] = tables["bigrams"]
        layers["corpus.trigrams"] = tables["trigrams"]
        layers["corpus.skip_pairs"] = sum(v for k, v in tables.items() if k.startswith("skip"))
        if "artifact_bytes" in traced[0]:
            layers["cli.artifact_bytes"] = traced[0]["artifact_bytes"]
            layers["cli.artifacts_changed"] = traced[0]["artifacts_changed"]
        result["layers"] = layers
        result["missing_wrap_targets"] = run.tracer.missing
        result["setup_spans"] = run.setup_trace[0]
        result["spans"] = [op["spans"] for op in traced]
        metrics.update(layers)
    named["fail_rate"] = run.failed / max(run.attempted, 1)
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    result["metrics"] = metrics
    result["named"] = named
    if plain and "artifacts_changed" in plain[0]:
        result["artifacts_changed"] = plain[0]["artifacts_changed"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["absent"] = [m["name"] for m in wanted if m["name"] not in metrics]
    result["reported"] = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in metrics
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "score-desk", "cli-files"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "markovmix" / "__init__.py", ROOT / "tests" / "corpusgen.py",
              ROOT / "BENCHMARK.json", BENCH_DIR / "reference.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("error: not a markovmix checkout, missing %s" % ", ".join(missing), file=sys.stderr)
        return 2

    cores = usable_cores()
    threads = thread_settings(cores)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    env = environment(cores, threads)

    result = run_benchmark(args)
    result["environment"] = env

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    print("workload %s, seed %d (inputs #%d), %d set-ups, %d timed operations%s"
          % (args.workload, args.seed, result["input_index"], len(result["setup_times"]),
             len(result["op_times"]),
             ", %d traced" % len(result["traced_op_times"]) if args.trace else ""))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("tables: %s" % json.dumps(result.get("tables"), sort_keys=True))
    for name, value in sorted(result["named"].items()):
        print("  %-34s %.6g" % (name, value))
    for name, entry in result["reported"].items():
        print("  %-34s %.6g %s" % (name, entry["value"], entry["unit"]))
    for name in result["absent"]:
        print("  %-34s absent" % name)
    for name, value in sorted(result.get("layers", {}).items()):
        if name not in result["reported"]:
            print("  %-34s %.6g (result file only)" % (name, value))
    for problem in result["problems"]:
        print("FAILED: %s" % problem)
    print("results: %s" % out_path.relative_to(ROOT))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["reported"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
