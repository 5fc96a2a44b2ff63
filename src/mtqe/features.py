"""The 16 per-sentence-pair features that feed the classifier."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .corpus import SentencePair, is_punctuation_token
from .errors import MalformedRow, MixedLabeling
from .fileio import atomic_write_text, read_lines, split_row
from .grading import Grade
from .lexicon import TranslationLexicon
from .ngram import NgramModel, ngrams

N_FEATURES = 16
FEATURE_COLUMNS = tuple(f"f{i}" for i in range(1, N_FEATURES + 1))
_INT_INDEXES = (0, 1, 14, 15)  # f1, f2, f15, f16 are counts


@dataclass(frozen=True)
class FeatureVector:
    """One row of the classifier's input, field order matching f1..f16."""

    src_token_count: int            # f1
    tgt_token_count: int            # f2
    avg_src_token_len: float        # f3, Unicode scalars per source token
    src_lm_logprob: float           # f4, mean natural-log probability
    tgt_lm_logprob: float           # f5
    tgt_tokens_per_type: float      # f6, target tokens over distinct tokens
    avg_translations_per_src_word: float  # f7
    pct_low_freq_unigrams: float    # f8, 0..100 over source unigrams
    pct_high_freq_unigrams: float   # f9
    pct_low_freq_bigrams: float     # f10
    pct_high_freq_bigrams: float    # f11
    pct_high_freq_trigrams: float   # f12
    pct_low_freq_trigrams: float    # f13
    pct_unigrams_seen: float        # f14, 0..100
    src_punct_count: int            # f15
    tgt_punct_count: int            # f16

    def values(self) -> tuple[float, ...]:
        """The 16 feature values as floats, in f1..f16 order."""
        return tuple(map(float, _fields_of(self)))


_fields_of = attrgetter(*(field.name for field in fields(FeatureVector)))


def _low_high_pct(model: NgramModel, tokens, n: int) -> tuple[float, float]:
    n_grams = len(tokens) - n + 1
    if n_grams <= 0:
        return 0.0, 0.0
    n_low, n_high = model.band_counts(tokens, n)
    low = 100.0 * n_low / n_grams
    if n_low + n_high == n_grams:
        # Complement keeps low + high from creeping past 100 in float.
        high = 100.0 - low
    else:
        high = 100.0 * n_high / n_grams
    return low, high


def extract_features(
    pair: SentencePair,
    src_lm: NgramModel,
    tgt_lm: NgramModel,
    lexicon: TranslationLexicon,
) -> FeatureVector:
    """Compute the full feature vector for one sentence pair.

    Both language models must have order >= 3 so the bigram and trigram
    frequency bands are defined.  Degenerate inputs follow the documented
    zero conventions (a sentence shorter than n scores 0 on the length-n
    percentage features, empty sides zero out their averages).
    """
    if src_lm.order < 3 or tgt_lm.order < 3:
        raise ValueError("language models must have order >= 3")
    source = tuple(pair.source)
    target = tuple(pair.target)
    src_count = len(source)
    tgt_count = len(target)
    low_uni, high_uni = _low_high_pct(src_lm, source, 1)
    low_bi, high_bi = _low_high_pct(src_lm, source, 2)
    low_tri, high_tri = _low_high_pct(src_lm, source, 3)
    return FeatureVector(
        src_token_count=src_count,
        tgt_token_count=tgt_count,
        avg_src_token_len=(sum(len(t) for t in source) / src_count) if src_count else 0.0,
        src_lm_logprob=src_lm.sentence_log_prob(source),
        tgt_lm_logprob=tgt_lm.sentence_log_prob(target),
        tgt_tokens_per_type=(tgt_count / len(set(target))) if tgt_count else 0.0,
        avg_translations_per_src_word=lexicon.translations_per_word(source),
        pct_low_freq_unigrams=low_uni,
        pct_high_freq_unigrams=high_uni,
        pct_low_freq_bigrams=low_bi,
        pct_high_freq_bigrams=high_bi,
        pct_high_freq_trigrams=high_tri,
        pct_low_freq_trigrams=low_tri,
        pct_unigrams_seen=100.0 * src_lm.seen_fraction(ngrams(source, 1)),
        src_punct_count=sum(1 for t in source if is_punctuation_token(t)),
        tgt_punct_count=sum(1 for t in target if is_punctuation_token(t)),
    )


def _format_int(value: float) -> str:
    return str(int(value))


def _format_float(value: float) -> str:
    return f"{value:.6f}"


# One cell formatter and one cell parser per feature column, in f1..f16 order.
_FORMATTERS = tuple(
    _format_int if i in _INT_INDEXES else _format_float for i in range(N_FEATURES)
)
_PARSERS = tuple(int if i in _INT_INDEXES else float for i in range(N_FEATURES))


def write_features(rows, path) -> None:
    """Write ``(id, FeatureVector, Grade | None)`` rows as CSV, ordered by id.

    The header is ``id,f1,...,f16`` with a trailing ``grade`` column when
    rows are labeled.  Floats carry six decimal places.  Mixing labeled and
    unlabeled rows raises MixedLabeling.
    """
    rows = sorted(rows, key=lambda row: row[0])
    flags = [grade is not None for _, _, grade in rows]
    if any(flags) and not all(flags):
        raise MixedLabeling()
    labeled = bool(rows) and flags[0]
    header = "id," + ",".join(FEATURE_COLUMNS) + (",grade" if labeled else "")
    lines = [header]
    for row_id, vector, grade in rows:
        cells = [str(row_id)]
        cells.extend(fmt(v) for fmt, v in zip(_FORMATTERS, vector.values()))
        if labeled:
            cells.append(grade.label)
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_features(path) -> list[tuple[int, FeatureVector, Grade | None]]:
    """Read a feature CSV written by :func:`write_features`.

    A row of the wrong width, an unparseable cell or a non-finite value
    raises MalformedRow with the row's 0-based index.
    """
    lines = read_lines(path)
    if not lines:
        raise MalformedRow(None, "empty feature file")
    base = ["id", *FEATURE_COLUMNS]
    header = lines[0].split(",")
    if header == base:
        labeled = False
    elif header == base + ["grade"]:
        labeled = True
    else:
        raise MalformedRow(None, f"unexpected feature header {lines[0]!r}")
    width = len(base) + (1 if labeled else 0)
    out: list[tuple[int, FeatureVector, Grade | None]] = []
    for row, line in enumerate(lines[1:]):
        cells = split_row(line, row, ",", width)
        try:
            row_id = int(cells[0])
            values = [parse(cell) for parse, cell in zip(_PARSERS, cells[1:])]
            grade = Grade.from_label(cells[1 + N_FEATURES]) if labeled else None
        except ValueError as exc:
            raise MalformedRow(row, str(exc)) from None
        if not all(map(math.isfinite, values)):
            raise MalformedRow(row, "non-finite feature value")
        out.append((row_id, FeatureVector(*values), grade))
    return out
