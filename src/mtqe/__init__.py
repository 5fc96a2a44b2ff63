"""Reference-free translation quality estimation.

Extracts 16 features from (source sentence, translation) pairs, trains a
Gaussian Naive Bayes grader against human judgments, predicts four-level
quality grades, and reports human/classifier agreement.
"""

from .bayes import NaiveBayesModel, Posterior, load_model, train_nb
from .corpus import (
    SOURCE,
    TARGET,
    CorpusStats,
    HumanJudgment,
    ParallelCorpus,
    SentencePair,
    load_judgments,
    load_parallel,
    stats_from_sentences,
    tokenize,
)
from .evaluation import (
    AgreementReport,
    ConfusionMatrix,
    GradeHistogram,
    agreement,
    confusion,
    histogram,
)
from .features import FeatureVector, extract_features, read_features, write_features
from .grading import (
    Grade,
    aggregate_judgment,
    judgment_grade,
    score_to_grade,
)
from .lexicon import TranslationLexicon, build_lexicon, load_lexicon
from .ngram import BOS, END, UNK, FreqClass, NgramModel, load_lm, ngrams, train_lm

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "BOS",
    "ConfusionMatrix",
    "CorpusStats",
    "END",
    "FeatureVector",
    "FreqClass",
    "Grade",
    "GradeHistogram",
    "HumanJudgment",
    "NaiveBayesModel",
    "NgramModel",
    "ParallelCorpus",
    "Posterior",
    "SOURCE",
    "SentencePair",
    "TARGET",
    "TranslationLexicon",
    "UNK",
    "agreement",
    "aggregate_judgment",
    "build_lexicon",
    "confusion",
    "extract_features",
    "histogram",
    "judgment_grade",
    "load_judgments",
    "load_lexicon",
    "load_lm",
    "load_model",
    "load_parallel",
    "ngrams",
    "read_features",
    "score_to_grade",
    "stats_from_sentences",
    "tokenize",
    "train_lm",
    "train_nb",
    "write_features",
]
