"""Span tracing at the boundaries of the markovmix layers, from outside.

A traced operation patches the public functions and methods of each layer
(module attributes and class attributes) with wrappers that record spans:
name, id, parent id, start and end.  Scalar ``prob`` calls are too many to
record as spans, so they are only counted, per class; their time lands in
the self time of the span that made them.  Spans stay in memory until the
benchmark writes them out at the end of the run.

A wrap target that no longer exists is skipped and listed in ``missing``,
so the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("corpus", "aggregate", "mixedorder", "smoothing", "evaluation", "cli")

# Functions and methods timed as spans, by layer module.
SPAN_TARGETS = {
    "corpus": (
        "build_vocabulary",
        "tokenize_corpus",
        "count_ngrams",
        "NgramCounts.save",
        "NgramCounts.load",
        "Vocabulary.save",
        "Vocabulary.load",
    ),
    "aggregate": ("train_aggregate", "AggregateModel.save", "AggregateModel.load"),
    "mixedorder": ("train_mixed", "MixedOrderModel.save", "MixedOrderModel.load"),
    "smoothing": (
        "SmoothedCascade.fit",
        "fit_interpolation",
        "fit_mixed_smoothing",
        "good_turing_discounts",
        "build_katz_trigram",
        "KatzBigram.__init__",
        "load_cascade",
    ),
    "evaluation": ("evaluate",),
    "cli": ("main",),
}

# Classes whose scalar scoring calls are counted.
PROB_CLASSES = {
    "aggregate": ("AggregateModel",),
    "mixedorder": ("MixedOrderModel",),
    "smoothing": (
        "MLUnigram",
        "MLBigram",
        "InterpolatedBigram",
        "SmoothedMixedLevel",
        "KatzBigram",
        "KatzTrigram",
        "SmoothedCascade",
    ),
}
PROB_METHODS = ("prob", "prob_and_backoff")

KATZ_SPANS = ("smoothing.build_katz_trigram", "smoothing.KatzBigram.__init__")


def level_name(model) -> str:
    """Which cascade level a model passed to ``evaluate`` is."""
    kind = type(model).__name__
    if kind == "SmoothedCascade":
        model = getattr(model, "top", model)
        kind = type(model).__name__
    if kind == "KatzTrigram":
        backoff = type(getattr(model, "backoff", None)).__name__
        return "katz_baseline" if backoff == "KatzBigram" else "katz_mixed"
    if kind == "SmoothedMixedLevel":
        return "mixed%d" % getattr(model, "context_size", 0)
    return {"AggregateModel": "aggregate", "InterpolatedBigram": "interp_bigram"}.get(
        kind, kind
    )


def _span_attrs(name: str, bound: inspect.BoundArguments | None, result) -> dict:
    """Extra facts a span needs for the layer metrics; best effort."""
    args = bound.arguments if bound is not None else {}
    try:
        if name == "evaluation.evaluate":
            return {"level": level_name(args["model"]), "events": result.total_events}
        if name == "corpus.count_ngrams":
            return {"events": result.total}
        if name == "aggregate.train_aggregate":
            return {"iterations": args["iterations"]}
        if name == "cli.main":
            return {"command": args["argv"][0]}
    except (KeyError, AttributeError, IndexError, TypeError):
        pass
    return {}


class Tracer:
    """Installs the wrappers for one traced operation and collects spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._prob_stack: list = []
        self._undo: list = []
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer, names in SPAN_TARGETS.items():
            module = self._module(layer)
            for qual in names:
                self._patch(module, layer, qual, self._span_wrapper)
        for layer, classes in PROB_CLASSES.items():
            module = self._module(layer)
            for cls_name in classes:
                cls = getattr(module, cls_name, None) if module else None
                found = False
                for meth in PROB_METHODS:
                    if cls is not None and meth in vars(cls):
                        self._patch(module, layer, "%s.%s" % (cls_name, meth), self._prob_wrapper)
                        found = True
                if not found:
                    self.missing.append("%s.%s.prob" % (layer, cls_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _module(self, layer: str):
        try:
            return importlib.import_module("markovmix." + layer)
        except ImportError:
            return None

    def _patch(self, module, layer: str, qual: str, make_wrapper) -> None:
        name = "%s.%s" % (layer, qual)
        cls_name, _, attr = qual.rpartition(".")
        owner = getattr(module, cls_name, None) if cls_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(name)
            return
        if cls_name:
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(name, raw.__func__))
            else:
                wrapped = make_wrapper(name, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # A module-level function may also be bound by name in other
        # package modules (``from .corpus import count_ngrams``).
        wrapped = make_wrapper(name, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "markovmix" or mod_name.startswith("markovmix.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name: str, func):
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            signature = None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {
                "name": name,
                "id": tracer._next_id,
                "parent": parent["id"] if parent else None,
                "child_s": 0.0,
            }
            tracer._next_id += 1
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
                tracer.spans.append(span)
            bound = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError:
                    bound = None
            span.update(_span_attrs(name, bound, result))
            return result

        return wrapper

    def _prob_wrapper(self, name: str, func):
        cls_name = name.split(".")[1]
        key = "prob_calls." + cls_name
        tracer = self

        def wrapper(obj, *args, **kwargs):
            pstack = tracer._prob_stack
            # prob -> prob_and_backoff on the same object is one call.
            if not pstack or pstack[-1] is not obj:
                tracer.counts[key] += 1
                if not pstack and tracer._stack and tracer._stack[-1]["name"] in KATZ_SPANS:
                    tracer.counts["katz_backoff_calls"] += 1
            pstack.append(obj)
            try:
                return func(obj, *args, **kwargs)
            finally:
                pstack.pop()

        return wrapper

    # -- results ------------------------------------------------------

    def take(self) -> tuple[list[dict], Counter]:
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans: list[dict], counts: Counter, missing: list[str]) -> dict:
    """Per-layer metrics of one traced operation.

    Times are inclusive span durations summed per function; ``<layer>.self_s``
    is span time minus the time of direct child spans.  A metric whose wrap
    target is missing, or whose functions the operation never called, is
    left out, so it is reported as absent rather than as 0.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def called(*names: str) -> list[dict]:
        return [s for n in names for s in by_name.get(n, ())]

    def seconds(group: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in group)

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".", 1)[0] == layer]
        if mine:
            out[layer + ".self_s"] = sum(seconds([s]) - s["child_s"] for s in mine)

    count = called("corpus.count_ngrams")
    if count:
        out["corpus.count_s"] = seconds(count)
        if out["corpus.count_s"] > 0:
            out["corpus.tokens_per_s"] = sum(s.get("events", 0) for s in count) / seconds(count)
    for metric, name in (
        ("corpus.counts_save_s", "corpus.NgramCounts.save"),
        ("corpus.counts_load_s", "corpus.NgramCounts.load"),
        ("aggregate.train_s", "aggregate.train_aggregate"),
        ("aggregate.model_load_s", "aggregate.AggregateModel.load"),
        ("mixedorder.train_s", "mixedorder.train_mixed"),
        ("mixedorder.model_save_s", "mixedorder.MixedOrderModel.save"),
        ("mixedorder.model_load_s", "mixedorder.MixedOrderModel.load"),
        ("smoothing.fit_interpolation_s", "smoothing.fit_interpolation"),
        ("smoothing.fit_mixed_smoothing_s", "smoothing.fit_mixed_smoothing"),
        ("smoothing.load_cascade_s", "smoothing.load_cascade"),
    ):
        if called(name):
            out[metric] = seconds(called(name))
    if called("corpus.NgramCounts.load"):
        out["corpus.counts_loads"] = len(called("corpus.NgramCounts.load"))

    agg = called("aggregate.train_aggregate")
    iters = sum(s.get("iterations", 0) for s in agg)
    if iters and all("iterations" in s for s in agg):
        out["aggregate.iter_s"] = seconds(agg) / iters

    katz = called(*KATZ_SPANS)
    if katz and not any(t in missing for t in KATZ_SPANS):
        out["smoothing.katz_build_s"] = seconds(katz)
        out["smoothing.katz_builds"] = len(katz)
        out["smoothing.katz_backoff_calls"] = counts["katz_backoff_calls"]

    evals = called("evaluation.evaluate")
    for level in ("aggregate", "interp_bigram", "mixed2", "katz_baseline", "katz_mixed"):
        mine = [s for s in evals if s.get("level") == level]
        if mine and seconds(mine) > 0:
            out["evaluation.events_per_s." + level] = (
                sum(s.get("events", 0) for s in mine) / seconds(mine)
            )
    for classes in PROB_CLASSES.values():
        for cls_name in classes:
            if counts["prob_calls." + cls_name]:
                out["evaluation.prob_calls." + cls_name] = counts["prob_calls." + cls_name]

    cli_spans = called("cli.main")
    for command in ("prepare", "train-aggregate", "train-mixed", "smooth", "eval", "sweep-truncate"):
        mine = [s for s in cli_spans if s.get("command") == command]
        if mine:
            out["cli.%s_s" % command.replace("-", "_")] = seconds(mine)
    out["trace.spans"] = len(spans)
    return out
