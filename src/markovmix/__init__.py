"""Aggregate and mixed-order Markov language models.

Train class-based bigrams whose word-to-class mapping is probabilistic, and
mixtures of skip-k bigram predictions with context-dependent weights, both
by EM; compose them into smoothing cascades (held-out interpolation, Katz
backoff with Good-Turing discounting); evaluate perplexity and coverage.
"""

from .aggregate import AggregateModel, TrainingTrace, train_aggregate
from .corpus import (
    END_ID,
    END_TOKEN,
    START_ID,
    START_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    NgramCounts,
    Vocabulary,
    build_vocabulary,
    count_ngrams,
    tokenize,
    tokenize_corpus,
)
from .evaluation import EvalReport, evaluate
from .mixedorder import MixedOrderModel, lambda_report, missing_fraction, train_mixed
from .smoothing import (
    KatzBigram,
    KatzTrigram,
    MixedSmoothingParams,
    MLBigram,
    MLUnigram,
    SmoothedCascade,
    fit_interpolation,
    fit_mixed_smoothing,
    good_turing_discounts,
    load_cascade,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateModel",
    "EvalReport",
    "KatzBigram",
    "KatzTrigram",
    "MLBigram",
    "MLUnigram",
    "MixedOrderModel",
    "MixedSmoothingParams",
    "NgramCounts",
    "SmoothedCascade",
    "TrainingTrace",
    "Vocabulary",
    "build_vocabulary",
    "count_ngrams",
    "evaluate",
    "fit_interpolation",
    "fit_mixed_smoothing",
    "good_turing_discounts",
    "lambda_report",
    "load_cascade",
    "missing_fraction",
    "tokenize",
    "tokenize_corpus",
    "train_aggregate",
    "train_mixed",
]
