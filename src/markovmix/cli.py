"""Command-line orchestration for the toolkit.

Subcommands: prepare, train-aggregate, train-mixed, smooth, eval,
sweep-truncate, report-classes, report-lambda.  Options may also be given
in a flat key=value config file via --config; explicit flags win over file
values.  Exit codes: 0 success, 2 usage or parameter error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields

from . import aggregate, evaluation, mixedorder, smoothing
from .artifact import read_utf8
from .corpus import (
    NgramCounts,
    Vocabulary,
    build_vocabulary,
    count_ngrams,
    most_frequent,
    read_lines,
    tokenize_corpus,
)
from .errors import DataError, NumericError, ParameterError


@dataclass
class RunConfig:
    """All experiment knobs; --config reads them from a flat key=value file."""

    command: str = ""
    input: str = ""
    test: str = ""
    valid: str = ""
    vocab: str = ""
    counts: str = ""
    model: str = ""
    agg_model: str = ""
    mixed_models: str = ""
    cascade: str = ""
    vocab_size: int = 10000
    max_order: int = 2
    skips: str = "1"
    classes: int = 16
    order: int = 2
    iters: int = 0  # 0 means the per-command default (32 aggregate, 4 mixed)
    seed: int = 0
    init: str = "random"
    truncate: int = 1
    t_max: int = 5
    gt_threshold: int = 5
    valid_frac: float = 0.1
    with_trigram: bool = False
    tie_sigma: bool = False
    unseen: str = ""
    top_n: int = 300
    list_size: int = 50
    vocab_out: str = ""
    counts_out: str = ""
    model_out: str = ""
    trace_out: str = ""
    out_dir: str = ""
    manifest_out: str = ""
    report_out: str = ""
    csv_out: str = ""
    out: str = ""

    def apply(self, mapping: dict[str, str]) -> None:
        converters = {f.name: type(getattr(self, f.name)) for f in fields(self)}
        for key, raw in mapping.items():
            if key not in converters:
                raise ParameterError("unknown config key %r" % key)
            kind = converters[key]
            if kind is bool:
                if raw not in ("true", "false"):
                    raise ParameterError("config key %r expects true/false" % key)
                value = raw == "true"
            else:
                try:
                    value = kind(raw)
                except ValueError as exc:
                    raise ParameterError("bad value for config key %r: %s" % (key, exc))
            setattr(self, key, value)


def _read_config_file(path) -> dict[str, str]:
    """The key=value lines of a config file; a file that is not UTF-8 text
    is a ParameterError, like any other bad config line."""
    try:
        text = read_utf8(path)
    except DataError as exc:
        raise ParameterError(str(exc)) from None
    mapping = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError("config lines must be key=value, got %r" % line)
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _require_inputs(*paths: str) -> None:
    for path in paths:
        if path and not os.path.exists(path):
            raise ParameterError("input path does not exist: %s" % path)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(cfg, name):
            raise ParameterError("missing required option --%s" % name.replace("_", "-"))


def _require_positive(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            option = "--" + name.replace("_", "-")
            raise ParameterError("%s must be at least 1, got %d" % (option, value))


def _check_vocab_sizes(*sized: tuple[str, int]) -> None:
    """DataError unless every (artifact, V) pair has the V of the first."""
    (first, v), *rest = sized
    for name, other in rest:
        if other != v:
            raise DataError("vocabulary sizes disagree: V=%d in %s but %d in %s"
                            % (v, first, other, name))


def _load_sentences(path: str, vocab: Vocabulary):
    return tokenize_corpus(read_lines(path), vocab)


def cmd_prepare(cfg: RunConfig) -> None:
    _require(cfg, "input", "vocab_out", "counts_out")
    _require_inputs(cfg.input)
    if cfg.vocab_size < 4:
        raise ParameterError("vocab-size must be at least 4")
    try:
        skips = tuple(int(k) for k in cfg.skips.split(",") if k)
    except ValueError:
        raise ParameterError("skips must be a comma-separated list of integers")
    if not skips or any(k < 1 for k in skips):
        raise ParameterError("skips must be positive integers")
    if cfg.max_order not in (1, 2, 3):
        raise ParameterError("max-order must be 1, 2, or 3")
    lines = read_lines(cfg.input)
    vocab = build_vocabulary(lines, cfg.vocab_size)
    sentences = tokenize_corpus(lines, vocab)
    counts = count_ngrams(sentences, vocab, cfg.max_order, skips)
    vocab.save(cfg.vocab_out)
    counts.save(cfg.counts_out)


def cmd_train_aggregate(cfg: RunConfig) -> None:
    _require(cfg, "counts", "model_out", "trace_out")
    _require_inputs(cfg.counts)
    if cfg.init not in ("random", "identity"):
        raise ParameterError("init must be 'random' or 'identity'")
    iters = cfg.iters or 32
    if iters < 1 or cfg.classes < 1:
        raise ParameterError("iters and classes must be positive")
    counts = NgramCounts.load(cfg.counts)
    initial = None
    n_classes = cfg.classes
    if cfg.init == "identity":
        initial = aggregate.AggregateModel.identity_init(counts.vocab_size)
        n_classes = counts.vocab_size
    elif cfg.classes > counts.vocab_size:
        raise ParameterError("classes must not exceed the vocabulary size")
    model, trace = aggregate.train_aggregate(
        counts, n_classes, iterations=iters, seed=cfg.seed, initial=initial
    )
    model.save(cfg.model_out)
    trace.write_csv(cfg.trace_out)


def cmd_train_mixed(cfg: RunConfig) -> None:
    _require(cfg, "input", "vocab", "model_out", "trace_out")
    _require_inputs(cfg.input, cfg.vocab)
    iters = cfg.iters or 4
    if iters < 1:
        raise ParameterError("iters must be positive")
    if not 1 <= cfg.order <= mixedorder.MAX_COMPONENTS:
        raise ParameterError("order must be in 1..%d" % mixedorder.MAX_COMPONENTS)
    vocab = Vocabulary.load(cfg.vocab)
    sentences = _load_sentences(cfg.input, vocab)
    model, trace = mixedorder.train_mixed(
        sentences, cfg.order, len(vocab), iterations=iters
    )
    model.save(cfg.model_out)
    trace.write_csv(cfg.trace_out)


def _validation_sentences(cfg: RunConfig, vocab: Vocabulary):
    """Explicit validation corpus, or a slice carved off the input corpus."""
    if cfg.valid:
        return _load_sentences(cfg.valid, vocab)
    if not cfg.input:
        raise ParameterError("smooth needs --valid or --input to carve from")
    if not 0.0 < cfg.valid_frac < 1.0:
        raise ParameterError("valid-frac must be in (0, 1)")
    sentences = _load_sentences(cfg.input, vocab)
    n_valid = max(1, int(len(sentences) * cfg.valid_frac))
    return sentences[len(sentences) - n_valid :]


def cmd_smooth(cfg: RunConfig) -> None:
    _require(cfg, "counts", "vocab", "agg_model", "out_dir", "manifest_out")
    _require_inputs(cfg.counts, cfg.vocab, cfg.agg_model, cfg.valid, cfg.input)
    mixed_paths = [p for p in cfg.mixed_models.split(",") if p]
    _require_inputs(*mixed_paths)
    if cfg.truncate < 1:
        raise ParameterError("truncate must be >= 1")
    if cfg.gt_threshold < 1:
        raise ParameterError("gt-threshold must be >= 1")

    vocab = Vocabulary.load(cfg.vocab)
    counts = NgramCounts.load(cfg.counts)
    base = aggregate.AggregateModel.load(cfg.agg_model)
    mixed_models = [mixedorder.MixedOrderModel.load(p) for p in mixed_paths]
    _check_vocab_sizes((cfg.vocab, len(vocab)), (cfg.counts, counts.vocab_size),
                       (cfg.agg_model, base.vocab_size),
                       *((p, model.vocab_size) for p, model in zip(mixed_paths, mixed_models)))
    validation = _validation_sentences(cfg, vocab)
    if cfg.with_trigram and not counts.trigrams:
        raise DataError("counts file has no trigram table; re-run prepare with order 3")

    cascade = smoothing.SmoothedCascade.fit(
        counts,
        base,
        mixed_models,
        validation,
        with_trigram=cfg.with_trigram,
        gt_threshold=cfg.gt_threshold,
        truncation=cfg.truncate,
        tied=cfg.tie_sigma,
    )
    cascade.save(cfg.manifest_out, cfg.out_dir, cfg.counts, cfg.agg_model, mixed_paths)


def _load_eval_model(cfg: RunConfig):
    """Pick the model to score: cascade, aggregate, mixed, or (given only a
    counts file) the Katz trigram baseline backing off through bigrams."""
    if cfg.cascade:
        _require_inputs(cfg.cascade)
        return smoothing.load_cascade(cfg.cascade), "cascade:%s" % cfg.cascade
    if cfg.agg_model:
        _require_inputs(cfg.agg_model)
        return aggregate.AggregateModel.load(cfg.agg_model), "aggregate:%s" % cfg.agg_model
    if cfg.model:
        _require_inputs(cfg.model)
        return mixedorder.MixedOrderModel.load(cfg.model), "mixed:%s" % cfg.model
    if cfg.counts:
        _require_inputs(cfg.counts)
        counts = NgramCounts.load(cfg.counts)
        bigram = smoothing.KatzBigram(counts, k_gt=cfg.gt_threshold)
        model = smoothing.build_katz_trigram(
            counts, bigram, k_gt=cfg.gt_threshold, truncation=cfg.truncate
        )
        return model, "katz-baseline:%s" % cfg.counts
    raise ParameterError(
        "eval needs one of --cascade, --agg-model, --model, or --counts (katz baseline)"
    )


def cmd_eval(cfg: RunConfig) -> None:
    _require(cfg, "test", "vocab")
    _require_inputs(cfg.test, cfg.vocab)
    if cfg.unseen not in ("", "bigram", "backoff"):
        raise ParameterError("unseen must be 'bigram' or 'backoff'")
    if cfg.unseen == "bigram":
        _require(cfg, "counts")
        _require_inputs(cfg.counts)
    model, model_id = _load_eval_model(cfg)
    vocab = Vocabulary.load(cfg.vocab)
    sized = [(cfg.vocab, len(vocab)), (model_id, model.vocab_size)]
    predicate = None
    if cfg.unseen == "bigram":
        counts = NgramCounts.load(cfg.counts)
        sized.append((cfg.counts, counts.vocab_size))
        predicate = evaluation.bigram_seen_predicate(counts)
    _check_vocab_sizes(*sized)
    sentences = _load_sentences(cfg.test, vocab)
    report = evaluation.evaluate(
        model,
        sentences,
        seen_predicate=predicate,
        unseen_from_backoff=cfg.unseen == "backoff",
    )
    print(report.to_text())
    if cfg.report_out:
        with open(cfg.report_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if cfg.csv_out:
        with open(cfg.csv_out, "w", encoding="utf-8") as fh:
            fh.write("model,perplexity,unseen_perplexity,backoff_fraction,missing_fraction\n")
            fh.write(
                "%s,%r,%s,%r,%r\n"
                % (
                    model_id,
                    report.perplexity,
                    "" if report.unseen_perplexity is None else repr(report.unseen_perplexity),
                    report.backoff_fraction,
                    report.missing_fraction,
                )
            )


def cmd_sweep_truncate(cfg: RunConfig) -> None:
    _require(cfg, "counts", "vocab", "cascade", "test", "csv_out")
    _require_inputs(cfg.counts, cfg.vocab, cfg.cascade, cfg.test)
    if cfg.t_max < 1:
        raise ParameterError("t-max must be >= 1")
    counts = NgramCounts.load(cfg.counts)
    if not counts.trigrams:
        raise DataError("counts file has no trigram table; re-run prepare with order 3")
    cascade = smoothing.load_cascade(cfg.cascade, loaded_counts=(cfg.counts, counts))
    if cascade.trigram is not None:
        raise ParameterError(
            "sweep-truncate builds its own trigram levels; pass a cascade without one"
        )
    vocab = Vocabulary.load(cfg.vocab)
    _check_vocab_sizes((cfg.vocab, len(vocab)), (cfg.counts, counts.vocab_size),
                       (cfg.cascade, cascade.vocab_size))
    sentences = _load_sentences(cfg.test, vocab)
    katz_bigram = smoothing.KatzBigram(counts, k_gt=cfg.gt_threshold)
    discounts = smoothing.good_turing_discounts(counts.trigrams, cfg.gt_threshold)
    rows = []
    for t in range(1, cfg.t_max + 1):
        baseline = smoothing.build_katz_trigram(
            counts, katz_bigram, k_gt=cfg.gt_threshold, truncation=t, discounts=discounts
        )
        mixed = smoothing.build_katz_trigram(
            counts, cascade.top, k_gt=cfg.gt_threshold, truncation=t, discounts=discounts
        )
        n_trigrams = int((counts.trigrams.n >= t).sum())
        rep_base = evaluation.evaluate(baseline, sentences, unseen_from_backoff=True)
        rep_mixed = evaluation.evaluate(mixed, sentences, unseen_from_backoff=True)
        rows.append(
            (t, rep_base.perplexity, rep_mixed.perplexity, n_trigrams, rep_base.backoff_fraction)
        )
    with open(cfg.csv_out, "w", encoding="utf-8") as fh:
        fh.write("t,baseline_perplexity,mixed_perplexity,trigrams,backoff_fraction\n")
        for t, base_pp, mixed_pp, n_tri, frac in rows:
            fh.write("%d,%r,%r,%d,%r\n" % (t, base_pp, mixed_pp, n_tri, frac))


def cmd_report_classes(cfg: RunConfig) -> None:
    _require(cfg, "agg_model", "vocab", "counts", "csv_out")
    _require_positive(cfg, "top_n")
    _require_inputs(cfg.agg_model, cfg.vocab, cfg.counts)
    model = aggregate.AggregateModel.load(cfg.agg_model)
    vocab = Vocabulary.load(cfg.vocab)
    counts = NgramCounts.load(cfg.counts)
    _check_vocab_sizes((cfg.vocab, len(vocab)), (cfg.counts, counts.vocab_size),
                       (cfg.agg_model, model.vocab_size))
    assignments = {w: (c, p) for w, c, p in model.class_assignments()}
    with open(cfg.csv_out, "w", encoding="utf-8") as fh:
        fh.write("word,class,max_prob\n")
        for w in most_frequent(counts.unigrams, cfg.top_n):
            c, p = assignments[w]
            fh.write("%s,%d,%r\n" % (vocab.word_of(w), c, p))


def cmd_report_lambda(cfg: RunConfig) -> None:
    _require(cfg, "model", "vocab", "counts", "out")
    _require_positive(cfg, "top_n", "list_size")
    _require_inputs(cfg.model, cfg.vocab, cfg.counts)
    model = mixedorder.MixedOrderModel.load(cfg.model)
    vocab = Vocabulary.load(cfg.vocab)
    counts = NgramCounts.load(cfg.counts)
    _check_vocab_sizes((cfg.vocab, len(vocab)), (cfg.counts, counts.vocab_size),
                       (cfg.model, model.vocab_size))
    low, high = mixedorder.lambda_report(
        model, cfg.top_n, counts.unigrams, list_size=cfg.list_size
    )
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write("# lowest skip-1 mixing weights\n")
        for w, lam in low:
            fh.write("%s %r\n" % (vocab.word_of(w), lam))
        fh.write("# highest skip-1 mixing weights\n")
        for w, lam in high:
            fh.write("%s %r\n" % (vocab.word_of(w), lam))


_COMMANDS = {
    "prepare": cmd_prepare,
    "train-aggregate": cmd_train_aggregate,
    "train-mixed": cmd_train_mixed,
    "smooth": cmd_smooth,
    "eval": cmd_eval,
    "sweep-truncate": cmd_sweep_truncate,
    "report-classes": cmd_report_classes,
    "report-lambda": cmd_report_lambda,
}

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --config and one option per RunConfig field but
    the command, typed like the field's default.  Built once per process:
    parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="markovmix",
        description="Train and evaluate aggregate and mixed-order Markov language models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for f in [f for f in fields(RunConfig) if f.name != "command"]:
            kind = type(getattr(RunConfig, f.name))
            typed = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None, **typed)
    return parser


def build_config(argv: list[str]) -> RunConfig:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig()
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ParameterError("input path does not exist: %s" % args.config)
        cfg.apply(_read_config_file(args.config))
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        setattr(cfg, key, value)
    cfg.command = args.command
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
        _COMMANDS[cfg.command](cfg)
    except ParameterError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NumericError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
