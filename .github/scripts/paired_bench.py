"""Paired benchmark runs of a parent commit and a change, as BENCH_<pr>.json.

usage: python3 .github/scripts/paired_bench.py --parent REV --pr N
           [--change REV] [--seconds 30] [--claim TEXT] [--note KEY=TEXT ...]

Each side runs from a fresh copy of its committed files (`git archive`).
For every workload of BENCHMARK.json and seeds 1-10 the two sides run
`bench/run.py --trace 0` one after the other, the parent first on odd seeds
and the change first on even ones, so that a slow phase of the machine
falls on both.  Per end-to-end metric the record holds each side's runs,
median and quartiles, how many pairs the change won, the relative change
of the median, whether it lies within the bound of BENCHMARK.json, and
`gain_shown`: whether the change won at least 9 of 10 pairs and its median
beats the parent's by more than the parent's quartile spread (recorded,
not a gate).  Per phase of the operation the record holds each side's
median time and how many pairs the change won.

Then each side runs once traced (`--trace 1 --seconds 3`) per workload on
input sets 0 and 5; each output must pass check_bench_result.py, and the
per-layer counts are recorded, with every count that differs between the
sides as [parent, change].  Last, one operation per workload and input
set is run in-process on each side, and every checked output is compared
bit for bit, and the cli-files artifacts byte for byte.  The record also
holds each side's line count of `src/markovmix`, so that a change in the
size of the package is measured.

The record goes to BENCH_<pr>.json at the root of the checkout; every
--note adds one more top-level key.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(1, 11)
TRACED_SEEDS = (0, 5)

# Runs one operation of every workload on input sets 0 and 5 in the checkout
# named by argv[1] and prints every checked output (and, for cli-files, the
# artifact digests) as JSON; floats print as repr, so equal JSON is equal bits.
OUTPUTS_SCRIPT = r"""
import json, sys, tempfile, warnings
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "bench"), str(root / "tests")]
import workloads
warnings.simplefilter("ignore")
out = {}
for seed in (0, 5):
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as d:
            wl = cls(seed, Path(d) / "work")
            state = wl.setup()
            outputs, _ = wl.run(state)
            record = {"summary": wl.summarize(state, outputs), "final": wl.final(state, outputs)}
            if hasattr(wl, "digests"):
                record["digests"] = wl.digests(outputs)
            wl.discard(outputs)
        out["%s/%d" % (name, seed)] = record
print(json.dumps(out, sort_keys=True, default=repr))
"""


def export(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, extracted into `dest`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


def src_lines(side: Path) -> int:
    """Lines of the package's source files, as `wc -l src/markovmix/*.py`."""
    files = (side / "src" / "markovmix").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in files)


def bench_run(side: Path, workload: str, seed: int, seconds: float, trace: int):
    """(last-line JSON, result file JSON, full output) of one bench run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s: %s failed:\n%s" % (side, " ".join(argv), done.stderr))
    named = [l[len("results:"):].strip() for l in lines if l.startswith("results:")]
    result = json.loads((side / named[-1]).read_text()) if named else {}
    return json.loads(lines[-1]), result, done.stdout


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "runs": [round(v, 4) for v in values],
    }


def paired(sides: dict[str, Path], workload: str, seconds: float, metrics: list[dict]):
    """The paired runs of one workload over SEEDS, summarised."""
    runs = {side: [] for side in sides}
    for seed in SEEDS:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(sides[side], workload, seed, seconds, 0))
            print("%s seed %d %s done" % (workload, seed, side), file=sys.stderr)
    out = {
        "seeds": list(SEEDS),
        "correct": all(last["correct"] for side in runs for last, _, _ in runs[side]),
        "failed": {side: sum(last["failed"] for last, _, _ in runs[side]) for side in runs},
        "attempted": {side: sum(last["attempted"] for last, _, _ in runs[side]) for side in runs},
        "metrics": {},
        "phase_medians_s": {},
    }
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        values = {side: [last["metrics"][name]["value"] for last, _, _ in runs[side]]
                  for side in runs}
        parent, change = stats(values["parent"]), stats(values["change"])
        median_change = change["median"] / parent["median"] - 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent_iqr = round(parent["q3"] - parent["q1"], 4)
        out["metrics"][name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(SEEDS),
            "median_change": round(median_change, 4),
            "parent_iqr": parent_iqr,
            "bound": metric["bound"],
            "within_bound": sign * median_change <= metric["bound"],
            "gain_shown": (wins * 10 >= 9 * len(SEEDS)
                           and sign * (parent["median"] - change["median"]) > parent_iqr),
        }
    phases = [k for k in runs["parent"][0][1].get("named", {}) if k.endswith("_s_median")]
    for key in phases:
        values = {side: [r["named"][key] for _, r, _ in runs[side]] for side in runs}
        phase = {side: round(statistics.median(values[side]), 4) for side in runs}
        # A gain confined to one phase shows more clearly in its own pairs
        # than in op_s, which adds the noise of every other phase.
        phase["change_wins"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        out["phase_medians_s"][key[: -len("_median")]] = phase
    return out, runs["change"][0][1].get("environment", {})


def traced(sides: dict[str, Path], workloads: list[str], work: Path, per_layer: list[dict]):
    """Per-layer counts of one traced run per side, workload and traced seed,
    and under "differ" every count whose value differs between the sides, as
    {name: [parent, change]} (None where a side lacks it)."""
    counts = [m["name"] for m in per_layer if m["unit"] == "count"]
    out = {"command": "python3 bench/run.py --workload W --seed {0,5} --seconds 3 --trace 1",
           "check_bench_result": {side: True for side in sides}}
    for seed in TRACED_SEEDS:
        found = out["seed%d" % seed] = {side: {} for side in sides}
        found["differ"] = {}
        for workload in workloads:
            for side, path in sides.items():
                last, _, text = bench_run(path, workload, seed, 3, 1)
                log = work / ("%s-%s-%d.txt" % (side, workload, seed))
                log.write_text(text)
                check = subprocess.run(
                    [sys.executable, ".github/scripts/check_bench_result.py", str(log)],
                    cwd=path, capture_output=True, text=True,
                )
                if check.returncode != 0:
                    out["check_bench_result"][side] = False
                    print(check.stdout, file=sys.stderr)
                metrics = last["metrics"]
                found[side][workload] = {
                    name: metrics[name]["value"] for name in counts if name in metrics
                }
            pair = [found["parent"][workload], found["change"][workload]]
            found["differ"][workload] = {
                name: [record.get(name) for record in pair]
                for name in counts if pair[0].get(name) != pair[1].get(name)
            }
    return out


def outputs(sides: dict[str, Path]) -> str:
    """Whether every checked output and artifact is equal on both sides."""
    found = {}
    for side, path in sides.items():
        done = subprocess.run([sys.executable, "-c", OUTPUTS_SCRIPT, str(path)],
                              capture_output=True, text=True, check=True)
        found[side] = json.loads(done.stdout)
    differ = sorted(k for k in found["parent"] if found["parent"][k] != found["change"].get(k))
    if differ:
        return "outputs differ between parent and change: %s" % ", ".join(differ)
    artifacts = sum(len(r.get("digests", {})) for r in found["change"].values())
    return ("every checked output of one operation per workload (%s) and all %d cli-files "
            "artifacts equal at parent and change, bit for bit"
            % (", ".join(sorted(found["change"])), artifacts))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", default="none: no end-to-end metric may be worse than its "
                        "BENCHMARK.json bound and the share of failed operations may not rise")
    parser.add_argument("--note", action="append", default=[], metavar="KEY=TEXT")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        work = Path(tmp)
        sides = {"parent": export(args.parent, work / "parent"),
                 "change": export(args.change, work / "change")}
        record = {
            "command": "python3 bench/run.py --workload W --seed S --seconds %g --trace 0"
                       % args.seconds,
            "pairing": "seeds 1-10 per workload; odd seeds run the parent first, even seeds the "
                       "change first; each side a fresh copy of its committed files",
            "parent": subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                                     check=True, capture_output=True, text=True).stdout.strip(),
            "machine": "",
            "quartiles": "statistics.quantiles(values, n=4), method 'exclusive'",
            "claim": args.claim,
            "src_markovmix_lines": {side: src_lines(path) for side, path in sides.items()},
            "workloads": {},
        }
        for workload in workloads:
            record["workloads"][workload], env = paired(
                sides, workload, args.seconds, bench["end_to_end"]
            )
            record["machine"] = "%s cores usable, %s, Python %s, numpy %s" % (
                env.get("usable_cores"), env.get("platform"), env.get("python"), env.get("numpy"))
        record["outputs_sets_0_and_5"] = outputs(sides)
        record["traced_counts"] = traced(sides, workloads, work, bench["per_layer"])
    for note in args.note:
        key, _, text = note.partition("=")
        record[key] = text
    path = ROOT / ("BENCH_%d.json" % args.pr)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
