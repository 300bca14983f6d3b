"""The three benchmark workloads.

Each workload turns a seed into inputs, has a set-up that the benchmark
times and repeats, and one timed operation that the benchmark runs in a
closed loop.  ``summarize`` turns an operation's outputs into the values
checked against ``reference.json``; it runs outside the timed region.

Only public markovmix API is called: ``markovmix.__all__``,
``markovmix.smoothing.build_katz_trigram`` and ``markovmix.cli.main``.
Calls go through module attributes at call time, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from pathlib import Path

import markovmix as mm
from markovmix import cli, smoothing

from corpusgen import generate_lines

# The seed picks one of N_INPUTS corpus triples; index 0 is the desk
# corpus seeds of the test suite.  Reference outputs exist for each.
N_INPUTS = 16
DESK_SEEDS = {"train": 101, "valid": 202, "test": 303}
SEED_STRIDE = 1009

# Input sizes (sentences, vocabulary) per workload.  They are a fraction of
# the desk corpus so that several operations fit in one run.
SIZES = {
    "train-desk": {"train": 6000, "valid": 600, "test": 1000, "vocab": 2000},
    "score-desk": {"train": 6000, "valid": 600, "test": 4000, "vocab": 2000},
    "cli-files": {"train": 2500, "valid": 250, "test": 500, "vocab": 1200},
}
SKIPS = (1, 2, 3, 4)
PROBE_SENTENCES = 200


def input_index(seed: int) -> int:
    return seed % N_INPUTS


def make_lines(workload: str, seed: int) -> dict[str, list[str]]:
    """The workload's train/valid/test text for this seed."""
    offset = SEED_STRIDE * input_index(seed)
    return {
        name: generate_lines(base + offset, SIZES[workload][name])
        for name, base in DESK_SEEDS.items()
    }


def tables(counts) -> dict[str, int]:
    out = {
        "events": counts.total,
        "unigrams": len(counts.unigrams),
        "bigrams": len(counts.bigrams),
        "trigrams": len(counts.trigrams),
    }
    for k in counts.skip_ks:
        out["skip%d" % k] = len(counts.skips[k])
    return out


def report_fields(report) -> dict:
    out = {
        "perplexity": report.perplexity,
        "total_events": report.total_events,
        "zero_events": report.zero_events,
        "backoff_events": report.backoff_events,
    }
    if report.unseen_events is not None:
        out["unseen_events"] = report.unseen_events
        out["unseen_perplexity"] = report.unseen_perplexity
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.sizes = SIZES[self.name]
        self.lines = make_lines(self.name, seed)

    def setup(self):
        raise NotImplementedError

    def run(self, state) -> tuple[object, dict[str, float]]:
        """The timed operation: its outputs and its named phase times."""
        raise NotImplementedError

    def summarize(self, state, outputs) -> dict[str, dict]:
        """Checked values of one operation, keyed by step."""
        raise NotImplementedError

    def final(self, state, outputs) -> dict:
        """Checked values computed once, after the timed loop."""
        return {}

    def test_ppl(self, summary: dict, final: dict) -> float | None:
        raise NotImplementedError

    def tables(self, summary: dict, state) -> dict[str, int]:
        raise NotImplementedError

    def events_per_s(self, phases: dict, summary: dict, state) -> float:
        raise NotImplementedError

    def discard(self, outputs) -> None:
        """Release an operation's outputs before the next one runs."""


class TrainDesk(Workload):
    """Tokenized text to a fitted m=2 cascade with a Katz trigram level."""

    name = "train-desk"

    def setup(self):
        vocab = mm.build_vocabulary(self.lines["train"], self.sizes["vocab"])
        return {
            "vocab": vocab,
            **{name: mm.tokenize_corpus(self.lines[name], vocab) for name in DESK_SEEDS},
        }

    def run(self, state):
        t0 = time.perf_counter()
        counts = mm.count_ngrams(state["train"], state["vocab"], max_order=3, skips=SKIPS)
        t1 = time.perf_counter()
        base, agg_trace = mm.train_aggregate(counts, 32, iterations=32, seed=0)
        t2 = time.perf_counter()
        mix, mix_trace = mm.train_mixed(state["train"], 2, len(state["vocab"]), iterations=4)
        t3 = time.perf_counter()
        cascade = mm.SmoothedCascade.fit(counts, base, [mix], state["valid"], with_trigram=True)
        t4 = time.perf_counter()
        phases = {"count_s": t1 - t0, "aggregate_s": t2 - t1, "mixed_s": t3 - t2, "fit_s": t4 - t3}
        return (counts, agg_trace, mix_trace, cascade), phases

    def summarize(self, state, outputs):
        counts, agg_trace, mix_trace, cascade = outputs
        probe = mm.evaluate(cascade, state["test"][:PROBE_SENTENCES], unseen_from_backoff=True)
        return {
            "count": tables(counts),
            "aggregate": {"final_perplexity": agg_trace.perplexities[-1]},
            "mixed": {"final_perplexity": mix_trace.perplexities[-1]},
            "fit": report_fields(probe),
        }

    def final(self, state, outputs):
        cascade = outputs[3]
        return {"test": report_fields(mm.evaluate(cascade, state["test"], unseen_from_backoff=True))}

    def test_ppl(self, summary, final):
        return final["test"]["perplexity"] if "test" in final else None

    def tables(self, summary, state):
        return summary["count"]

    def events_per_s(self, phases, summary, state):
        return summary["count"]["events"] / sum(phases.values())


class ScoreDesk(Workload):
    """Each cascade level scored on its own, plus two Katz trigram builds."""

    name = "score-desk"
    LEVELS = ("aggregate", "interp_bigram", "mixed2", "katz_baseline", "katz_mixed")

    def setup(self):
        vocab = mm.build_vocabulary(self.lines["train"], self.sizes["vocab"])
        sents = {name: mm.tokenize_corpus(self.lines[name], vocab) for name in DESK_SEEDS}
        counts = mm.count_ngrams(sents["train"], vocab, max_order=3, skips=SKIPS)
        base, _ = mm.train_aggregate(counts, 32, iterations=32, seed=0)
        mix, _ = mm.train_mixed(sents["train"], 2, len(vocab), iterations=4)
        cascade = mm.SmoothedCascade.fit(counts, base, [mix], sents["valid"])
        return {"counts": counts, "cascade": cascade, "test": sents["test"]}

    def run(self, state):
        counts, cascade, test = state["counts"], state["cascade"], state["test"]
        reports = {}
        eval_s = build_s = 0.0
        for level, model in (
            ("aggregate", cascade.base),
            ("interp_bigram", cascade.level_stack[0]),
            ("mixed2", cascade.top),
        ):
            t0 = time.perf_counter()
            reports[level] = mm.evaluate(model, test)
            eval_s += time.perf_counter() - t0
        for level, make_backoff in (
            ("katz_baseline", lambda: mm.KatzBigram(counts)),
            ("katz_mixed", lambda: cascade.top),
        ):
            t0 = time.perf_counter()
            trigram = smoothing.build_katz_trigram(counts, make_backoff())
            t1 = time.perf_counter()
            reports[level] = mm.evaluate(trigram, test, unseen_from_backoff=True)
            build_s += t1 - t0
            eval_s += time.perf_counter() - t1
        return reports, {"eval_s": eval_s, "katz_build_s": build_s}

    def summarize(self, state, outputs):
        return {level: report_fields(outputs[level]) for level in self.LEVELS}

    def test_ppl(self, summary, final):
        return summary["katz_mixed"]["perplexity"]

    def tables(self, summary, state):
        return tables(state["counts"])

    def events_per_s(self, phases, summary, state):
        events = sum(summary[level]["total_events"] for level in self.LEVELS)
        return events / phases["eval_s"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count_table_lines(path: Path) -> dict[str, int]:
    """Table sizes read straight from a counts artifact's line tags."""
    sizes: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "N":
                sizes["events"] = int(parts[1])
            elif parts[0] in ("U", "B", "T"):
                key = {"U": "unigrams", "B": "bigrams", "T": "trigrams"}[parts[0]]
                sizes[key] = sizes.get(key, 0) + 1
            elif parts[0] == "S":
                key = "skip" + parts[1]
                sizes[key] = sizes.get(key, 0) + 1
    return sizes


def _last_perplexity(trace_csv: Path) -> float:
    last = trace_csv.read_text(encoding="utf-8").splitlines()[-1]
    return float(last.split(",")[2])


class CliFiles(Workload):
    """The README pipeline through ``markovmix.cli.main``, in-process."""

    name = "cli-files"
    PIPELINE = (
        ("prepare", ["prepare", "--input", "{in}/train.txt", "--vocab-size", "{vocab}",
                     "--max-order", "3", "--skips", "1,2",
                     "--vocab-out", "vocab.txt", "--counts-out", "counts.txt"]),
        ("train-aggregate", ["train-aggregate", "--counts", "counts.txt", "--classes", "32",
                             "--iters", "16", "--seed", "0", "--model-out", "agg.txt",
                             "--trace-out", "agg_trace.csv"]),
        ("train-mixed", ["train-mixed", "--input", "{in}/train.txt", "--vocab", "vocab.txt",
                         "--order", "2", "--model-out", "mix2.txt",
                         "--trace-out", "mix2_trace.csv"]),
        ("smooth", ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt",
                    "--agg-model", "agg.txt", "--mixed-models", "mix2.txt",
                    "--valid", "{in}/valid.txt", "--out-dir", "smooth_nt",
                    "--manifest-out", "cascade_nt.txt"]),
        ("smooth-trigram", ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt",
                            "--agg-model", "agg.txt", "--mixed-models", "mix2.txt",
                            "--valid", "{in}/valid.txt", "--with-trigram",
                            "--out-dir", "smooth", "--manifest-out", "cascade.txt"]),
        ("eval", ["eval", "--test", "{in}/test.txt", "--vocab", "vocab.txt",
                  "--cascade", "cascade.txt", "--unseen", "backoff",
                  "--report-out", "report.json", "--csv-out", "row.csv"]),
        ("sweep-truncate", ["sweep-truncate", "--counts", "counts.txt", "--vocab", "vocab.txt",
                            "--cascade", "cascade_nt.txt", "--test", "{in}/test.txt",
                            "--t-max", "3", "--csv-out", "sweep.csv"]),
    )

    def __init__(self, seed, workdir):
        # No text here: the set-up makes it, with the files a user would have.
        self.seed = seed
        self.workdir = workdir
        self.sizes = SIZES[self.name]
        self.n_setups = 0
        self.n_ops = 0

    def setup(self):
        self.n_setups += 1
        in_dir = self.workdir / ("inputs%d" % self.n_setups)
        in_dir.mkdir(parents=True)
        for name, lines in make_lines(self.name, self.seed).items():
            (in_dir / (name + ".txt")).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"inputs": in_dir}

    def run(self, state):
        self.n_ops += 1
        op_dir = self.workdir / ("op%d" % self.n_ops)
        op_dir.mkdir()
        in_rel = os.path.relpath(state["inputs"], op_dir)
        codes = {}
        phases = {"pipeline_s": 0.0, "sweep_s": 0.0}
        cwd = os.getcwd()
        os.chdir(op_dir)
        try:
            for step, argv in self.PIPELINE:
                argv = [a.format(**{"in": in_rel, "vocab": self.sizes["vocab"]}) for a in argv]
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[step] = cli.main(argv)
                phase = "sweep_s" if step == "sweep-truncate" else "pipeline_s"
                phases[phase] += time.perf_counter() - t0
        except BaseException:
            os.chdir(cwd)
            self.discard((op_dir, codes))
            raise
        os.chdir(cwd)
        return (op_dir, codes), phases

    def summarize(self, state, outputs):
        op_dir, codes = outputs
        out = {step: {"exit_code": code} for step, code in codes.items()}
        out["prepare"]["tables"] = _count_table_lines(op_dir / "counts.txt")
        out["train-aggregate"]["final_perplexity"] = _last_perplexity(op_dir / "agg_trace.csv")
        out["train-mixed"]["final_perplexity"] = _last_perplexity(op_dir / "mix2_trace.csv")
        report = json.loads((op_dir / "report.json").read_text(encoding="utf-8"))
        out["eval"].update(
            {k: report[k] for k in ("perplexity", "total_events", "zero_events",
                                    "backoff_events", "unseen_perplexity")}
        )
        rows = (op_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        out["sweep-truncate"]["rows"] = [
            [int(t), float(b), float(m), int(n), float(f)]
            for t, b, m, n, f in (row.split(",") for row in rows)
        ]
        return out

    def digests(self, outputs) -> dict[str, str]:
        op_dir = outputs[0]
        return {
            str(p.relative_to(op_dir)): _sha256(p)
            for p in sorted(op_dir.rglob("*")) if p.is_file()
        }

    def artifact_bytes(self, outputs) -> int:
        return sum(p.stat().st_size for p in outputs[0].rglob("*") if p.is_file())

    def discard(self, outputs) -> None:
        shutil.rmtree(outputs[0], ignore_errors=True)

    def test_ppl(self, summary, final):
        return summary["eval"]["perplexity"]

    def tables(self, summary, state):
        return summary["prepare"]["tables"]

    def events_per_s(self, phases, summary, state):
        return summary["prepare"]["tables"]["events"] / sum(phases.values())


WORKLOADS = {w.name: w for w in (TrainDesk, ScoreDesk, CliFiles)}
