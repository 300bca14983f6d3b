"""Command-line pipeline: argument handling, artifacts, and determinism."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markovmix as mm
from markovmix import smoothing as sm
from markovmix.artifact import SUM_TOLERANCE
from markovmix.cli import RunConfig, build_config, main
from markovmix.corpus import read_lines
from markovmix.errors import DataError, NumericError

CORPUS = [
    "the cat sat on the mat .",
    "a dog sat on a log .",
    "the dog saw the cat .",
    "a cat saw a dog on the mat .",
    "the cat and the dog sat .",
    "a bird saw the log .",
    "the bird sat on the dog .",
    "a mat and a log .",
] * 6


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "train.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
    (tmp_path / "test.txt").write_text(
        "the dog sat on the mat .\na bird saw a cat .\n", encoding="utf-8"
    )
    return tmp_path


def run(workdir, *args):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(list(args))
    finally:
        os.chdir(cwd)


def prepare(workdir, **extra):
    args = [
        "prepare",
        "--input", "train.txt",
        "--vocab-size", "16",
        "--max-order", "3",
        "--skips", "1,2",
        "--vocab-out", "vocab.txt",
        "--counts-out", "counts.txt",
    ]
    for key, value in extra.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    assert run(workdir, *args) == 0


class TestPrepare:
    def test_writes_vocab_and_sorted_counts(self, workdir):
        prepare(workdir, vocab_size=10)
        vocab_lines = (workdir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        assert len(vocab_lines) == 10
        assert vocab_lines[:3] == ["<s>", "</s>", "<unk>"]
        counts_lines = (workdir / "counts.txt").read_text(encoding="utf-8").splitlines()
        assert counts_lines[0].startswith("NGRAM-COUNTS v1 order=3 skips=1,2")
        bigrams = [l for l in counts_lines if l.startswith("B ")]
        assert bigrams == sorted(bigrams, key=lambda l: [int(x) for x in l.split()[1:3]])

    def test_rerun_is_byte_identical(self, workdir):
        prepare(workdir)
        first = (workdir / "counts.txt").read_bytes(), (workdir / "vocab.txt").read_bytes()
        prepare(workdir)
        second = (workdir / "counts.txt").read_bytes(), (workdir / "vocab.txt").read_bytes()
        assert first == second

    def test_missing_input_exits_2_and_names_path(self, workdir, capsys):
        code = run(
            workdir,
            "prepare",
            "--input", "nope.txt",
            "--vocab-out", "v.txt",
            "--counts-out", "c.txt",
        )
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err
        assert not (workdir / "v.txt").exists()

    def test_empty_corpus_exits_3(self, workdir):
        (workdir / "blank.txt").write_text("   \n\n", encoding="utf-8")
        code = run(
            workdir,
            "prepare",
            "--input", "blank.txt",
            "--vocab-out", "v.txt",
            "--counts-out", "c.txt",
        )
        assert code == 3
        assert not (workdir / "v.txt").exists()


class TestTrainAggregate:
    def test_trace_rows_and_monotone_perplexity(self, workdir):
        prepare(workdir)
        code = run(
            workdir,
            "train-aggregate",
            "--counts", "counts.txt",
            "--classes", "2",
            "--iters", "32",
            "--seed", "0",
            "--model-out", "agg.txt",
            "--trace-out", "trace.csv",
        )
        assert code == 0
        rows = (workdir / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 32
        ppl = [float(r.split(",")[2]) for r in rows]
        for a, b in zip(ppl, ppl[1:]):
            assert b <= a * (1 + 1e-9)

    def test_invalid_classes_exits_2_without_artifacts(self, workdir):
        prepare(workdir)
        code = run(
            workdir,
            "train-aggregate",
            "--counts", "counts.txt",
            "--classes", "0",
            "--model-out", "agg.txt",
            "--trace-out", "trace.csv",
        )
        assert code == 2
        assert not (workdir / "agg.txt").exists()
        assert not (workdir / "trace.csv").exists()

    def test_negative_seed_exits_2_without_artifacts(self, workdir, capsys):
        prepare(workdir)
        code = run(
            workdir,
            "train-aggregate",
            "--counts", "counts.txt",
            "--classes", "2",
            "--seed", "-1",
            "--model-out", "agg.txt",
            "--trace-out", "trace.csv",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1
        assert not (workdir / "agg.txt").exists()
        assert not (workdir / "trace.csv").exists()


def edit_line(pattern, edit):
    """Garble: apply `edit` to the fields of the first line matching `pattern`."""

    def garble(text):
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if re.match(pattern, line))
        lines[i] = " ".join(edit(lines[i].split(" ")))
        return "\n".join(lines)

    return garble


def drop(part):
    return lambda text: text.replace(part, "", 1)


def non_numeric(fields):
    return fields[:-1] + ["x"]


def too_few(fields):
    return fields[:-1]


def repeat_line(pattern):
    """Garble: repeat the first line matching `pattern` right after itself."""

    def garble(text):
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if re.match(pattern, line))
        lines.insert(i + 1, lines[i])
        return "\n".join(lines)

    return garble


def level_after_trigram(text):
    """Garble: move the manifest's trigram line up above its last level line."""
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("trigram "))
    lines.insert(i - 1, lines.pop(i))
    return "\n".join(lines)


def cut(text):
    """Cut the file off inside its last line."""
    return text[:-4]


def nudged(pattern, first_field, delta):
    """Garble: subtract `delta` from the largest of the values from field
    `first_field` on of the first line matching `pattern`."""

    def edit(fields):
        i = max(range(first_field, len(fields)), key=lambda j: float(fields[j]))
        return fields[:i] + [repr(float(fields[i]) - delta)] + fields[i + 1 :]

    return edit_line(pattern, edit)


def halved(pattern):
    """Garble: halve the last field of every line matching `pattern`."""

    def garble(text):
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if re.match(pattern, line):
                fields = line.split(" ")
                lines[i] = " ".join(fields[:-1] + [repr(float(fields[-1]) / 2)])
        return "\n".join(lines)

    return garble


# (file, line pattern, first value field): a row of probabilities whose sum
# is moved by nudging one line.  Moved by twice the row-sum tolerance, the
# file exits 3 (GARBLES); moved by half of it, the file still loads.
NUDGES = {
    "agg-membership_row": ("agg.txt", r"\d\S*( \S+){3}$", 0),
    "agg-emission_row": ("agg.txt", r"\d\S*( \S+){14}$", 0),
    "mix-transition_row": ("mix2.txt", r"1 \d+ \d+ (0\.[5-9]|1\.0$)", 3),
}


# The vocabulary size of the pipeline's cascade (pipeline_dir).
CASCADE_V = 15

# (file, garble) per case; each garbled file makes `eval` of the cascade exit 3.
GARBLES = {
    "counts-non_numeric": ("counts.txt", edit_line("B ", non_numeric)),
    "counts-header_key": ("counts.txt", drop(" order=3")),
    "counts-field_count": ("counts.txt", edit_line("B ", too_few)),
    "counts-truncated": ("counts.txt", cut),
    "counts-repeated_unigram": ("counts.txt", repeat_line("U ")),
    "counts-repeated_bigram": ("counts.txt", repeat_line("B ")),
    "agg-non_numeric": ("agg.txt", edit_line(r"\d", non_numeric)),
    "agg-header_key": ("agg.txt", drop(" C=4")),
    "agg-field_count": ("agg.txt", edit_line(r"\d", too_few)),
    "agg-truncated": ("agg.txt", cut),
    "agg-not_finite": ("agg.txt", edit_line(r"\d", lambda f: f[:-1] + ["nan"])),
    "agg-extra_line": ("agg.txt", lambda text: text + "0.5 0.5\n"),
    "agg-out_of_range": ("agg.txt", edit_line(r"\d", lambda f: ["-0.5"] + f[1:])),
    "mix-non_numeric": ("mix2.txt", edit_line(r"1 \d+ \d+ ", non_numeric)),
    "mix-header_key": ("mix2.txt", drop(" m=2")),
    "mix-field_count": ("mix2.txt", edit_line(r"1 \d+ \d+ ", too_few)),
    "mix-truncated": ("mix2.txt", cut),
    "mix-id_out_of_range": (
        "mix2.txt", edit_line(r"2 \d+ \d+ ", lambda f: [f[0], "99"] + f[2:])
    ),
    "mix-k_out_of_range": ("mix2.txt", edit_line(r"2 \d+ \d+ ", lambda f: ["3"] + f[1:])),
    "mix-blank_line": ("mix2.txt", lambda text: text + "\n"),
    "mix-lambda_out_of_range": ("mix2.txt", edit_line(r"\S+ \S+$", lambda f: ["2.5", f[1]])),
    "mix-transition_out_of_range": (
        "mix2.txt", edit_line(r"1 \d+ \d+ ", lambda f: f[:-1] + ["-3.0"])
    ),
    "mix-repeated_pair": ("mix2.txt", repeat_line(r"2 \d+ \d+ ")),
    "mix-k1_rows_halved": ("mix2.txt", halved(r"1 \d+ \d+ ")),
    "mix-last_lambda": ("mix2.txt", edit_line(r"\S+ \S+$", lambda f: [f[0], "0.5"])),
    **{
        case + "_off_by_2_tolerances": (name, nudged(pattern, first, 2 * SUM_TOLERANCE))
        for case, (name, pattern, first) in NUDGES.items()
    },
    "sigma_bigram-non_numeric": ("smooth/sigma_bigram.txt", edit_line(r"1 \d+ ", non_numeric)),
    "sigma_bigram-bad_header": ("smooth/sigma_bigram.txt", drop(" v1")),
    "sigma_bigram-field_count": ("smooth/sigma_bigram.txt", edit_line(r"1 \d+ ", too_few)),
    "sigma_bigram-truncated": ("smooth/sigma_bigram.txt", cut),
    "sigma_bigram-no_fallback": (
        "smooth/sigma_bigram.txt", edit_line("1 -1 ", lambda f: ["1", "0", f[2]])
    ),
    "sigma_bigram-id_out_of_range": (
        "smooth/sigma_bigram.txt", lambda text: text + "1 %d 0.25\n" % (CASCADE_V + 7)
    ),
    "sigma_mixed-non_numeric": ("smooth/sigma_mixed2.txt", edit_line(r"2 \d+ ", non_numeric)),
    "sigma_mixed-bad_header": ("smooth/sigma_mixed2.txt", drop(" v1")),
    "sigma_mixed-field_count": ("smooth/sigma_mixed2.txt", edit_line(r"2 \d+ ", too_few)),
    "sigma_mixed-truncated": ("smooth/sigma_mixed2.txt", cut),
    "sigma_mixed-no_fallback": (
        "smooth/sigma_mixed2.txt", edit_line("2 -1 ", lambda f: ["2", "0", f[2]])
    ),
    "sigma_mixed-out_of_range": (
        "smooth/sigma_mixed2.txt", edit_line(r"2 \d+ ", lambda f: f[:-1] + ["1.7"])
    ),
    "sigma_mixed-repeated_key": ("smooth/sigma_mixed2.txt", repeat_line(r"2 \d+ ")),
    "sigma_mixed-id_out_of_range": (
        "smooth/sigma_mixed2.txt", lambda text: text + "2 %d 0.25\n" % (CASCADE_V + 1_000_000)
    ),
    "gt-non_numeric": ("smooth/gt_trigram.txt", edit_line("1 ", non_numeric)),
    "gt-out_of_range": ("smooth/gt_trigram.txt", edit_line("1 ", lambda f: [f[0], "1.5"])),
    "gt-repeated_count": ("smooth/gt_trigram.txt", repeat_line("1 ")),
    "gt-bad_header": ("smooth/gt_trigram.txt", drop(" v1")),
    "gt-field_count": ("smooth/gt_trigram.txt", edit_line("1 ", too_few)),
    "gt-truncated": ("smooth/gt_trigram.txt", cut),
    "gt-not_utf8": ("smooth/gt_trigram.txt", lambda text: text.encode() + b"\xff\n"),
    "cascade-non_numeric": ("cascade.txt", lambda text: text.replace("kgt=2", "kgt=x")),
    "cascade-header_key": ("cascade.txt", drop(" kgt=2")),
    "cascade-field_count": ("cascade.txt", edit_line("level 2 ", too_few)),
    "cascade-truncated": ("cascade.txt", cut),
    "cascade-level_gap": ("cascade.txt", edit_line("level 2 ", lambda f: [f[0], "3"] + f[2:])),
    "cascade-vocab_mismatch": ("cascade.txt", lambda text: text.replace("agg.txt", "agg9.txt")),
    "cascade-level_after_trigram": ("cascade.txt", level_after_trigram),
    "vocab-no_reserved": ("vocab.txt", lambda text: text.split("\n", 1)[1]),
    "vocab-duplicate": ("vocab.txt", lambda text: text + "the\n"),
    "vocab-size_mismatch": ("vocab.txt", lambda text: text + "zebra\n"),
    "test-not_utf8": ("test.txt", lambda text: text.encode() + b"the cat \xff\xfe sat\n"),
}

# Option and replacement file per case; each makes `smooth` exit 3 before fitting.
SMOOTH_BAD_INPUTS = {
    "counts-size_mismatch": ("--counts", "counts9.txt"),
    "agg-size_mismatch": ("--agg-model", "agg9.txt"),
    "mix-size_mismatch": ("--mixed-models", "mix9.txt"),
    "vocab-size_mismatch": ("--vocab", "vocab9.txt"),
    "valid-not_utf8": ("--valid", "latin1.txt"),
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A fitted trigram cascade, plus a vocabulary, counts, an aggregate and
    a mixed model with V=9 (the cascade has V=15), and a Latin-1 corpus."""
    d = tmp_path_factory.mktemp("pipeline")
    (d / "train.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
    (d / "test.txt").write_text("the dog sat on the mat .\na bird saw a cat .\n", encoding="utf-8")
    build_pipeline(d, with_trigram=True)
    vocab9 = mm.build_vocabulary(CORPUS, 9)
    vocab9.save(d / "vocab9.txt")
    counts9 = mm.count_ngrams(mm.tokenize_corpus(CORPUS, vocab9), vocab9, 3, (1, 2))
    counts9.save(d / "counts9.txt")
    mm.AggregateModel.random_init(9, 4, seed=0).save(d / "agg9.txt")
    mm.MixedOrderModel.from_counts(counts9, 2).save(d / "mix9.txt")
    (d / "latin1.txt").write_bytes("the caf\u00e9 sat\n".encode("latin-1"))
    return d


class TestMalformedCounts:
    """Malformed artifacts exit 3 with a one-line message: counts files given
    to train-aggregate, and every artifact type read by eval."""

    GOOD = "NGRAM-COUNTS v1 order=2 skips=1\nV 5\nN 3\nU 3 1\nU 4 1\nU 1 1\n"

    @pytest.mark.parametrize(
        "text",
        [
            GOOD + "B 3 4 x\n",
            "NGRAM-COUNTS v1 skips=1\nV 5\nN 1\nB 3 4 1\n",
            GOOD + "B 9 1 3\n",
            GOOD + "B 3 4\n",
            GOOD + "U 3 7\nB 3 4 1\n",
            GOOD + "B 3 4 1\nB 3 4 2\n",
        ],
        ids=[
            "non_numeric_field", "header_without_order", "id_out_of_range", "too_few_fields",
            "repeated_unigram", "repeated_bigram",
        ],
    )
    def test_train_aggregate_exits_3(self, workdir, capsys, text):
        (workdir / "bad.txt").write_text(text, encoding="utf-8")
        code = run(
            workdir,
            "train-aggregate",
            "--counts", "bad.txt",
            "--classes", "2",
            "--model-out", "agg.txt",
            "--trace-out", "trace.csv",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (workdir / "agg.txt").exists()

    def test_repeated_key_names_its_second_line(self, workdir, capsys):
        # Rows need not be sorted (U 1 follows U 4), but a key may not repeat.
        (workdir / "bad.txt").write_text(self.GOOD + "U 3 7\n", encoding="utf-8")
        code = run(
            workdir,
            "train-aggregate",
            "--counts", "bad.txt",
            "--classes", "2",
            "--model-out", "agg.txt",
            "--trace-out", "trace.csv",
        )
        assert code == 3
        assert capsys.readouterr().err == "error: bad.txt:7: repeats the key of line 4\n"

    @pytest.mark.parametrize("case", sorted(GARBLES))
    def test_eval_exits_3(self, pipeline_dir, tmp_path, capsys, case):
        name, garble = GARBLES[case]
        workdir = tmp_path / "run"
        shutil.copytree(pipeline_dir, workdir)
        path = workdir / name
        text = garble(path.read_text(encoding="utf-8"))
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        code = run(
            workdir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--unseen", "backoff",
        )
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: ") and err.count("\n") == 1
        if case.endswith("id_out_of_range") and case.startswith("sigma"):
            # A SIGMA file holds no V; the cascade's is the bound.
            assert name in err and "out of range [0, %d)" % CASCADE_V in err, err

    @pytest.mark.parametrize("case", sorted(NUDGES))
    def test_rows_within_the_sum_tolerance_load(self, pipeline_dir, tmp_path, capsys, case):
        name, pattern, first = NUDGES[case]
        workdir = tmp_path / "run"
        shutil.copytree(pipeline_dir, workdir)
        path = workdir / name
        text = nudged(pattern, first, SUM_TOLERANCE / 2)(path.read_text(encoding="utf-8"))
        path.write_text(text, encoding="utf-8")
        code = run(
            workdir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
        )
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(SMOOTH_BAD_INPUTS))
    def test_smooth_exits_3(self, pipeline_dir, tmp_path, capsys, case):
        workdir = tmp_path / "run"
        shutil.copytree(pipeline_dir, workdir)
        os.remove(workdir / "cascade.txt")
        # The last occurrence of an option wins.
        code = run(workdir, *SMOOTH_ARGS, *SMOOTH_BAD_INPUTS[case])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (workdir / "cascade.txt").exists()

    @pytest.mark.parametrize(
        "args, v9_file",
        [
            (("sweep-truncate", "--counts", "counts.txt", "--vocab", "vocab9.txt",
              "--cascade", "cascade_nt.txt", "--test", "test.txt", "--csv-out", "out.csv"),
             "vocab9.txt"),
            (("report-classes", "--agg-model", "agg9.txt", "--vocab", "vocab.txt",
              "--counts", "counts.txt", "--csv-out", "out.csv"), "agg9.txt"),
            (("report-lambda", "--model", "mix9.txt", "--vocab", "vocab.txt",
              "--counts", "counts.txt", "--out", "out.csv"), "mix9.txt"),
        ],
        ids=["sweep", "report_classes", "report_lambda"],
    )
    def test_vocab_size_mismatch_exits_3(self, pipeline_dir, tmp_path, capsys, args, v9_file):
        workdir = tmp_path / "run"
        shutil.copytree(pipeline_dir, workdir)
        # sweep-truncate takes a cascade without a trigram level.
        manifest = (workdir / "cascade.txt").read_text(encoding="utf-8")
        without = "".join(l for l in manifest.splitlines(True) if not l.startswith("trigram "))
        (workdir / "cascade_nt.txt").write_text(without, encoding="utf-8")
        code = run(workdir, *args)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: vocabulary sizes disagree: ") and err.count("\n") == 1
        assert re.search(r"[ =]9 in %s( |$)" % re.escape(v9_file), err, re.M), err
        assert not (workdir / "out.csv").exists()

    def test_eval_unseen_bigram_counts_size_mismatch_exits_3(self, pipeline_dir, capsys):
        code = run(
            pipeline_dir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--unseen", "bigram",
            "--counts", "counts9.txt",
        )
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "counts9.txt" in err


class TestTrainMixed:
    def test_order_one_matches_ml_bigram_oracle(self, workdir):
        prepare(workdir)
        code = run(
            workdir,
            "train-mixed",
            "--input", "train.txt",
            "--vocab", "vocab.txt",
            "--order", "1",
            "--model-out", "mix1.txt",
            "--trace-out", "mtrace.csv",
        )
        assert code == 0
        vocab = mm.Vocabulary.load(workdir / "vocab.txt")
        sents = mm.tokenize_corpus(
            (workdir / "train.txt").read_text(encoding="utf-8").splitlines(), vocab
        )
        counts = mm.count_ngrams(sents, vocab, max_order=2, skips=(1,))
        rows = Counter()
        for (w1, _), n in counts.bigrams.items():
            rows[w1] += n
        ll = sum(n * math.log(n / rows[w1]) for (w1, _), n in counts.bigrams.items())
        oracle = math.exp(-ll / counts.total)
        last = (workdir / "mtrace.csv").read_text(encoding="utf-8").splitlines()[-1]
        assert float(last.split(",")[2]) == pytest.approx(oracle, rel=1e-9)


SMOOTH_ARGS = [
    "smooth",
    "--counts", "counts.txt",
    "--vocab", "vocab.txt",
    "--agg-model", "agg.txt",
    "--mixed-models", "mix2.txt",
    "--input", "train.txt",
    "--valid-frac", "0.25",
    "--gt-threshold", "2",
    "--out-dir", "smooth",
    "--manifest-out", "cascade.txt",
]


def build_pipeline(workdir, with_trigram=False):
    prepare(workdir)
    assert run(
        workdir,
        "train-aggregate",
        "--counts", "counts.txt",
        "--classes", "4",
        "--iters", "8",
        "--seed", "0",
        "--model-out", "agg.txt",
        "--trace-out", "trace.csv",
    ) == 0
    assert run(
        workdir,
        "train-mixed",
        "--input", "train.txt",
        "--vocab", "vocab.txt",
        "--order", "2",
        "--model-out", "mix2.txt",
        "--trace-out", "mtrace.csv",
    ) == 0
    smooth_args = SMOOTH_ARGS + ["--with-trigram"] * with_trigram
    assert run(workdir, *smooth_args) == 0


class TestSmooth:
    def test_manifest_levels_and_sigma_files(self, workdir):
        build_pipeline(workdir)
        manifest = (workdir / "cascade.txt").read_text(encoding="utf-8").splitlines()
        assert manifest[0] == "CASCADE v1"
        assert any(l.startswith("base aggregate ") for l in manifest)
        assert any(l.startswith("level 1 bigram ") for l in manifest)
        assert any(l.startswith("level 2 mixed ") for l in manifest)
        assert (workdir / "smooth" / "sigma_bigram.txt").exists()
        assert (workdir / "smooth" / "sigma_mixed2.txt").exists()

    def test_refit_identical(self, workdir):
        build_pipeline(workdir)
        first = (workdir / "smooth" / "sigma_bigram.txt").read_bytes()
        assert run(workdir, *SMOOTH_ARGS) == 0
        assert (workdir / "smooth" / "sigma_bigram.txt").read_bytes() == first

    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_whitespace_in_a_manifest_path_exits_2_before_writing(self, workdir, capsys):
        build_pipeline(workdir)
        capsys.readouterr()
        args = SMOOTH_ARGS + ["--with-trigram", "--out-dir", "out dir", "--manifest-out", "spaced.txt"]
        assert run(workdir, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "whitespace" in err
        assert not (workdir / "spaced.txt").exists()
        assert not (workdir / "out dir").exists()

    def test_missing_level_model_exits_2(self, workdir):
        prepare(workdir)
        code = run(
            workdir,
            "smooth",
            "--counts", "counts.txt",
            "--vocab", "vocab.txt",
            "--agg-model", "missing_agg.txt",
            "--input", "train.txt",
            "--out-dir", "smooth",
            "--manifest-out", "cascade.txt",
        )
        assert code == 2


NO_EVENTS = "error: no events to score: the corpus has no sentences\n"


class TestEval:
    @pytest.mark.parametrize(
        "model_args",
        [("--cascade", "cascade.txt"), ("--agg-model", "agg.txt"), ("--counts", "counts.txt")],
        ids=["cascade", "agg_model", "counts"],
    )
    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_empty_test_corpus_exits_3(self, workdir, capsys, model_args):
        build_pipeline(workdir, with_trigram=True)
        (workdir / "empty.txt").write_text("", encoding="utf-8")
        capsys.readouterr()
        code = run(workdir, "eval", "--test", "empty.txt", "--vocab", "vocab.txt", *model_args)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == NO_EVENTS

    def test_cascade_report_fields(self, workdir):
        build_pipeline(workdir, with_trigram=True)
        code = run(
            workdir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--unseen", "backoff",
            "--report-out", "report.json",
            "--csv-out", "row.csv",
        )
        assert code == 0
        import json

        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        assert report["total_events"] == report["scored_events"] + report["zero_events"]
        assert 0.0 <= report["backoff_fraction"] <= 1.0
        assert report["perplexity"] > 1.0
        assert "unseen_perplexity" in report
        header = (workdir / "row.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "model,perplexity,unseen_perplexity,backoff_fraction,missing_fraction"

    def test_unseen_bigram_predicate(self, workdir):
        build_pipeline(workdir)
        code = run(
            workdir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--agg-model", "agg.txt",
            "--unseen", "bigram",
            "--counts", "counts.txt",
            "--report-out", "report.json",
        )
        assert code == 0
        import json

        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        assert "unseen_events" in report

    @pytest.mark.parametrize("truncate", ["0", "-3"])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_katz_baseline_truncation_below_one_exits_2(self, workdir, capsys, truncate):
        prepare(workdir)
        code = run(
            workdir,
            "eval",
            "--test", "test.txt",
            "--vocab", "vocab.txt",
            "--counts", "counts.txt",
            "--truncate", truncate,
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == "error: truncation threshold must be >= 1\n"

    def test_zero_mass_model_exits_4(self, workdir):
        prepare(workdir)
        assert run(
            workdir,
            "train-mixed",
            "--input", "train.txt",
            "--vocab", "vocab.txt",
            "--order", "1",
            "--model-out", "mix1.txt",
            "--trace-out", "mtrace.csv",
        ) == 0
        (workdir / "weird.txt").write_text("zzz qqq xxx\n", encoding="utf-8")
        # Every event is OOV -> OOV, and unk never followed unk in training.
        code = run(
            workdir,
            "eval",
            "--test", "weird.txt",
            "--vocab", "vocab.txt",
            "--model", "mix1.txt",
        )
        assert code == 4


def reference_sweep(workdir, t_max, k_gt=5):
    """The rows sweep-truncate writes for the files of `workdir` (counts.txt,
    vocab.txt, cascade.txt, test.txt), from one pair of build_katz_trigram
    calls and evaluate calls per t."""
    counts = mm.NgramCounts.load(str(workdir / "counts.txt"))
    vocab = mm.Vocabulary.load(str(workdir / "vocab.txt"))
    test = mm.tokenize_corpus(read_lines(workdir / "test.txt"), vocab)
    cascade = mm.load_cascade(str(workdir / "cascade.txt"))
    katz_bigram = mm.KatzBigram(counts, k_gt=k_gt)
    discounts = mm.good_turing_discounts(counts.trigrams, k_gt)
    rows = []
    for t in range(1, t_max + 1):
        base, mixed = (
            mm.evaluate(sm.build_katz_trigram(counts, backoff, k_gt, t, discounts), test,
                        unseen_from_backoff=True)
            for backoff in (katz_bigram, cascade.top)
        )
        n_trigrams = int((counts.trigrams.n >= t).sum())
        rows.append("%d,%r,%r,%d,%r" % (t, base.perplexity, mixed.perplexity, n_trigrams,
                                        base.backoff_fraction))
    return rows


def run_with_errors(workdir, *args):
    """run's exit code and the lines beginning with "error:" that it wrote
    to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(workdir, *args)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


def text_lines(words, max_lines):
    return st.lists(st.lists(st.sampled_from(words), max_size=6).map(" ".join), max_size=max_lines)


TINY_WORDS = "a b c d e".split()


class TestSweep:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_empty_test_corpus_exits_3_before_any_katz_build(self, workdir, capsys):
        build_pipeline(workdir)
        (workdir / "empty.txt").write_text("", encoding="utf-8")
        capsys.readouterr()
        with mock.patch.object(sm, "build_katz_trigram") as build, \
                mock.patch.object(sm, "KatzBigram") as katz_bigram:
            code = run(workdir, "sweep-truncate", "--counts", "counts.txt", "--vocab", "vocab.txt",
                       "--cascade", "cascade.txt", "--test", "empty.txt", "--csv-out", "sweep.csv")
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == NO_EVENTS
        assert (build.call_count, katz_bigram.call_count) == (0, 0)
        assert not (workdir / "sweep.csv").exists()

    @settings(max_examples=30, deadline=None)
    @given(
        text_lines(TINY_WORDS, 10),
        text_lines(TINY_WORDS, 4),
        st.one_of(text_lines(TINY_WORDS + ["zz", "qq"], 4), st.lists(st.just(""), max_size=3)),
        st.integers(-1, 2),
    )
    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse Good-Turing statistics
    def test_sweep_equals_per_threshold_evaluation_on_tiny_corpora(self, train, valid, test, above):
        # Test words may be out of the vocabulary, the test file may hold
        # only blank lines or none, and t_max may pass the largest count.
        steps = [
            ["prepare", "--input", "train.txt", "--vocab-size", "7", "--max-order", "3",
             "--skips", "1,2", "--vocab-out", "vocab.txt", "--counts-out", "counts.txt"],
            ["train-aggregate", "--counts", "counts.txt", "--classes", "2", "--iters", "2",
             "--seed", "0", "--model-out", "agg.txt", "--trace-out", "agg_trace.csv"],
            ["train-mixed", "--input", "train.txt", "--vocab", "vocab.txt", "--order", "2",
             "--iters", "1", "--model-out", "mix2.txt", "--trace-out", "mix2_trace.csv"],
            ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt", "--agg-model", "agg.txt",
             "--mixed-models", "mix2.txt", "--valid", "valid.txt", "--out-dir", "smooth",
             "--manifest-out", "cascade.txt"],
        ]
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            for name, lines in (("train", train), ("valid", valid), ("test", test)):
                (workdir / (name + ".txt")).write_text("".join(l + "\n" for l in lines),
                                                       encoding="utf-8")
            for args in steps:
                code, errors = run_with_errors(workdir, *args)
                assert code in (0, 2, 3, 4) and len(errors) == (code != 0), (args[0], errors)
                if code:
                    return
            largest = max(mm.NgramCounts.load(str(workdir / "counts.txt")).trigrams.values())
            t_max = max(1, largest + above)
            code, errors = run_with_errors(
                workdir, "sweep-truncate", "--counts", "counts.txt", "--vocab", "vocab.txt",
                "--cascade", "cascade.txt", "--test", "test.txt", "--t-max", str(t_max),
                "--csv-out", "sweep.csv",
            )
            assert code in (0, 3, 4) and len(errors) == (code != 0), errors
            if code == 0:
                rows = (workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
                assert rows[1:] == reference_sweep(workdir, t_max)
            else:
                with pytest.raises({3: DataError, 4: NumericError}[code]):
                    reference_sweep(workdir, t_max)

    def test_truncation_csv_shape(self, workdir):
        build_pipeline(workdir)
        code = run(
            workdir,
            "sweep-truncate",
            "--counts", "counts.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--test", "test.txt",
            "--t-max", "5",
            "--gt-threshold", "2",
            "--csv-out", "sweep.csv",
        )
        assert code == 0
        rows = (workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "t,baseline_perplexity,mixed_perplexity,trigrams,backoff_fraction"
        assert len(rows) == 6
        trigram_counts = [int(r.split(",")[3]) for r in rows[1:]]
        for a, b in zip(trigram_counts, trigram_counts[1:]):
            assert b <= a
        assert rows[1:] == reference_sweep(workdir, 5, k_gt=2)

    def test_threshold_no_trigram_reaches_writes_a_backoff_only_row(self, workdir, capsys):
        # Every trigram of this corpus occurs once, so t=2 keeps none: every
        # event backs off with alpha 1, and each perplexity is the backoff's.
        (workdir / "train.txt").write_text(
            "a b .\nc d .\ne f .\ng h .\n", encoding="utf-8"
        )
        build_pipeline(workdir)
        code = run(
            workdir,
            "sweep-truncate",
            "--counts", "counts.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--test", "test.txt",
            "--t-max", "2",
            "--csv-out", "sweep.csv",
        )
        assert code == 0, capsys.readouterr().err
        counts = mm.NgramCounts.load(str(workdir / "counts.txt"))
        vocab = mm.Vocabulary.load(str(workdir / "vocab.txt"))
        test = mm.tokenize_corpus(
            (workdir / "test.txt").read_text(encoding="utf-8").splitlines(), vocab
        )
        cascade = mm.load_cascade(str(workdir / "cascade.txt"))
        baseline = mm.evaluate(mm.KatzBigram(counts), test).perplexity
        mixed = mm.evaluate(cascade.top, test).perplexity
        rows = (workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert rows[2] == "2,%r,%r,0,1.0" % (baseline, mixed)

    @pytest.mark.parametrize("counts_file, loads", [("counts.txt", 1), ("copy/counts.txt", 2)])
    def test_reads_the_manifest_counts_file_once(self, workdir, counts_file, loads):
        # The manifest names counts.txt; a copy elsewhere is another file
        # with the same bytes, so the sweep reads both and writes the same rows.
        build_pipeline(workdir)
        (workdir / "copy").mkdir()
        shutil.copy(workdir / "counts.txt", workdir / "copy" / "counts.txt")
        args = ["--vocab", "vocab.txt", "--cascade", "cascade.txt", "--test", "test.txt",
                "--t-max", "2", "--gt-threshold", "2"]
        assert run(workdir, "sweep-truncate", "--counts", "counts.txt", *args,
                   "--csv-out", "reference.csv") == 0
        with mock.patch.object(
            mm.NgramCounts, "load", wraps=mm.NgramCounts.load
        ) as load:
            code = run(workdir, "sweep-truncate", "--counts", counts_file, *args,
                       "--csv-out", "sweep.csv")
        assert code == 0
        assert load.call_count == loads
        assert (workdir / "sweep.csv").read_bytes() == (workdir / "reference.csv").read_bytes()

    def test_rejects_trigram_cascade(self, workdir):
        build_pipeline(workdir, with_trigram=True)
        code = run(
            workdir,
            "sweep-truncate",
            "--counts", "counts.txt",
            "--vocab", "vocab.txt",
            "--cascade", "cascade.txt",
            "--test", "test.txt",
            "--csv-out", "sweep.csv",
        )
        assert code == 2


class TestReports:
    def test_class_report(self, workdir):
        build_pipeline(workdir)
        code = run(
            workdir,
            "report-classes",
            "--agg-model", "agg.txt",
            "--vocab", "vocab.txt",
            "--counts", "counts.txt",
            "--top-n", "5",
            "--csv-out", "classes.csv",
        )
        assert code == 0
        rows = (workdir / "classes.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "word,class,max_prob"
        assert len(rows) == 6
        for row in rows[1:]:
            word, cls, prob = row.split(",")
            assert 0 <= int(cls) < 4
            assert 0.0 < float(prob) <= 1.0

    def test_lambda_report(self, workdir):
        build_pipeline(workdir)
        code = run(
            workdir,
            "report-lambda",
            "--model", "mix2.txt",
            "--vocab", "vocab.txt",
            "--counts", "counts.txt",
            "--top-n", "8",
            "--list-size", "3",
            "--out", "lambda.txt",
        )
        assert code == 0
        text = (workdir / "lambda.txt").read_text(encoding="utf-8")
        assert "# lowest skip-1 mixing weights" in text
        assert "# highest skip-1 mixing weights" in text


    @pytest.mark.parametrize(
        "args",
        [
            ("report-classes", "--agg-model", "agg.txt", "--csv-out", "classes.csv",
             "--top-n", "-2"),
            ("report-lambda", "--model", "mix2.txt", "--out", "lambda.txt", "--top-n", "0"),
            ("report-lambda", "--model", "mix2.txt", "--out", "lambda.txt", "--list-size", "-1"),
        ],
        ids=["classes_top_n", "lambda_top_n", "lambda_list_size"],
    )
    def test_report_rejects_sizes_below_one(self, workdir, capsys, args):
        build_pipeline(workdir)
        code = run(workdir, *args, "--vocab", "vocab.txt", "--counts", "counts.txt")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --") and "must be at least 1" in err and err.count("\n") == 1
        assert not (workdir / args[4]).exists()


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\ninput = a.txt\nvocab_size=123\n\nvalid_frac=0.125\n"
            "with_trigram=true\nskips=1,2,3\n",
            encoding="utf-8",
        )
        loaded = build_config(["prepare", "--config", str(path)])
        assert loaded == RunConfig(command="prepare", input="a.txt", vocab_size=123,
                                   valid_frac=0.125, with_trigram=True, skips="1,2,3")

    def test_flags_override_config(self, workdir):
        (workdir / "run.cfg").write_text(
            "input=train.txt\nvocab_size=8\nmax_order=2\nskips=1\n"
            "vocab_out=v1.txt\ncounts_out=c1.txt\n",
            encoding="utf-8",
        )
        code = run(
            workdir,
            "prepare",
            "--config", "run.cfg",
            "--vocab-size", "12",
        )
        assert code == 0
        assert len((workdir / "v1.txt").read_text(encoding="utf-8").splitlines()) == 12

    def test_unknown_config_key_exits_2(self, workdir):
        (workdir / "bad.cfg").write_text("no_such_key=1\n", encoding="utf-8")
        code = run(workdir, "prepare", "--config", "bad.cfg")
        assert code == 2

    def test_config_that_is_not_utf8_exits_2_and_names_the_file(self, workdir, capsys):
        (workdir / "bad.cfg").write_bytes(b"input=train.txt\nvocab_size=\xff\n")
        code = run(workdir, "prepare", "--config", "bad.cfg")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad.cfg: not UTF-8 text") and err.count("\n") == 1


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path):
        outputs = [
            "vocab.txt", "counts.txt", "agg.txt", "trace.csv", "mix2.txt",
            "mtrace.csv", "cascade.txt", "report.json", "row.csv",
            os.path.join("smooth", "sigma_bigram.txt"),
            os.path.join("smooth", "sigma_mixed2.txt"),
            os.path.join("smooth", "gt_trigram.txt"),
        ]
        digests = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            (d / "train.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
            (d / "test.txt").write_text(
                "the dog sat on the mat .\na bird saw a cat .\n", encoding="utf-8"
            )
            build_pipeline(d, with_trigram=True)
            assert run(
                d,
                "eval",
                "--test", "test.txt",
                "--vocab", "vocab.txt",
                "--cascade", "cascade.txt",
                "--unseen", "backoff",
                "--report-out", "report.json",
                "--csv-out", "row.csv",
            ) == 0
            digests.append([
                (d / name2).read_bytes() for name2 in outputs
            ])
        assert digests[0] == digests[1]

    def test_artifacts_do_not_depend_on_the_string_hash_seed(self, tmp_path):
        # Every README command, each run in a child process per hash seed:
        # counting forms and looking them up go through str hashes.
        steps = [
            ["prepare", "--input", "train.txt", "--vocab-size", "16", "--max-order", "3",
             "--skips", "1,2", "--vocab-out", "vocab.txt", "--counts-out", "counts.txt"],
            ["train-aggregate", "--counts", "counts.txt", "--classes", "4", "--iters", "8",
             "--seed", "0", "--model-out", "agg.txt", "--trace-out", "agg_trace.csv"],
            ["train-mixed", "--input", "train.txt", "--vocab", "vocab.txt", "--order", "2",
             "--model-out", "mix2.txt", "--trace-out", "mix2_trace.csv"],
            ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt", "--agg-model", "agg.txt",
             "--mixed-models", "mix2.txt", "--valid", "valid.txt", "--with-trigram",
             "--gt-threshold", "2", "--out-dir", "smooth", "--manifest-out", "cascade.txt"],
            ["smooth", "--counts", "counts.txt", "--vocab", "vocab.txt", "--agg-model", "agg.txt",
             "--mixed-models", "mix2.txt", "--valid", "valid.txt", "--out-dir", "smooth_nt",
             "--manifest-out", "cascade_no_trigram.txt"],
            ["eval", "--test", "test.txt", "--vocab", "vocab.txt", "--cascade", "cascade.txt",
             "--unseen", "backoff", "--report-out", "report.json", "--csv-out", "row.csv"],
            ["sweep-truncate", "--counts", "counts.txt", "--vocab", "vocab.txt",
             "--cascade", "cascade_no_trigram.txt", "--test", "test.txt", "--t-max", "2",
             "--csv-out", "sweep.csv"],
            ["report-classes", "--agg-model", "agg.txt", "--vocab", "vocab.txt",
             "--counts", "counts.txt", "--top-n", "10", "--csv-out", "classes.csv"],
            ["report-lambda", "--model", "mix2.txt", "--vocab", "vocab.txt", "--counts", "counts.txt",
             "--top-n", "10", "--list-size", "5", "--out", "lambda.txt"],
        ]
        child = (
            "import json, sys\n"
            "from markovmix.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    if main(args):\n"
            "        sys.exit('%s failed' % args[0])\n"
        )
        package_root = os.path.dirname(os.path.dirname(mm.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        artifacts = []
        for seed in ("0", "1"):
            d = tmp_path / ("hash" + seed)
            d.mkdir()
            (d / "train.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
            (d / "valid.txt").write_text("\n".join(CORPUS[1::3]) + "\n", encoding="utf-8")
            (d / "test.txt").write_text(
                "the dog sat on the mat .\na bird saw a cat .\n", encoding="utf-8"
            )
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", child, json.dumps(steps)], cwd=d, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            artifacts.append({
                str(f.relative_to(d)): f.read_bytes() for f in sorted(d.rglob("*")) if f.is_file()
            })
        assert len(artifacts[0]) == 21
        assert artifacts[0] == artifacts[1]
