"""The 16 per-sentence-pair features that feed the classifier."""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import SentencePair, is_punctuation_token
from .errors import MalformedRow, MixedLabeling
from .fileio import atomic_write_lines, is_plain, not_rising, parse_int, read_table
from .grading import Grade
from .lexicon import TranslationCounts
from .ngram import NgramModel

N_FEATURES = 16
FEATURE_COLUMNS = tuple(f"f{i}" for i in range(1, N_FEATURES + 1))
# The header of an unlabeled and of a labeled feature CSV.
FEATURE_HEADERS = tuple("id," + ",".join(FEATURE_COLUMNS) + tail for tail in ("", ",grade"))
_INT_INDEXES = (0, 1, 14, 15)  # f1, f2, f15, f16 are counts


class FeatureVector(NamedTuple):
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


def _low_high_pct(windows: int, low: int, high: int) -> tuple[float, float]:
    if windows <= 0:
        return 0.0, 0.0
    low_pct = 100.0 * low / windows
    if low + high == windows:
        # Complement keeps low + high from creeping past 100 in float.
        return low_pct, 100.0 - low_pct
    return low_pct, 100.0 * high / windows


def extract_features(
    pair: SentencePair,
    src_lm: NgramModel,
    tgt_lm: NgramModel,
    lexicon: TranslationCounts,
) -> FeatureVector:
    """Compute the full feature vector for one sentence pair.

    Both language models must have order >= 3 so the bigram and trigram
    frequency bands are defined.  Degenerate inputs follow the documented
    zero conventions (a sentence shorter than n scores 0 on the length-n
    percentage features, empty sides zero out their averages).
    """
    if src_lm.order < 3 or tgt_lm.order < 3:
        raise ValueError("language models must have order >= 3")
    _, source, target = pair
    src_count = len(source)
    tgt_count = len(target)
    (uni, bi, tri), seen = src_lm.bands(source, 3)
    low_uni, high_uni = _low_high_pct(src_count, *uni)
    low_bi, high_bi = _low_high_pct(src_count - 1, *bi)
    low_tri, high_tri = _low_high_pct(src_count - 2, *tri)
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
        pct_unigrams_seen=100.0 * (seen / src_count) if src_count else 0.0,
        src_punct_count=sum(1 for t in source if is_punctuation_token(t)),
        tgt_punct_count=sum(1 for t in target if is_punctuation_token(t)),
    )


# One rule per feature column, in f1..f16 order: a count is an integer
# and every other feature a float with six decimal places.  The template
# of a labeled row ends in the grade's label.
_CELLS = ",".join(["{}", *("{:d}" if i in _INT_INDEXES else "{:.6f}" for i in range(N_FEATURES))])
_ROWS = (_CELLS, _CELLS + ",{.label}")
_PARSERS = tuple(parse_int if i in _INT_INDEXES else float for i in range(N_FEATURES))


def write_features(rows, path) -> None:
    """Write ``(id, FeatureVector, Grade | None)`` rows as CSV, in the order given.

    The header is ``id,f1,...,f16`` with a trailing ``grade`` column when
    rows are labeled.  Floats carry six decimal places.  Before any file is
    written, a row labeled unlike the first raises MixedLabeling, an id not
    above the previous row's raises the MalformedRow that
    :func:`read_features` would, and a count that is not an int raises
    ValueError.
    """
    rows = list(rows)
    labeled = bool(rows) and rows[0][2] is not None
    lines = [FEATURE_HEADERS[labeled]]
    # An unlabeled row's template has no grade field, so format ignores its None.
    template = _ROWS[labeled]
    previous = -math.inf  # below every id
    for row, (row_id, vector, grade) in enumerate(rows):
        if (grade is not None) != labeled:
            raise MixedLabeling()
        if row_id <= previous:
            raise not_rising(row, f"id {row_id}", f"id {previous}")
        previous = row_id
        lines.append(template.format(row_id, *vector, grade))
    atomic_write_lines(path, lines)


def read_features(path) -> list[tuple[int, FeatureVector, Grade | None]]:
    """Read a feature CSV written by :func:`write_features`.

    A row of the wrong width, a bad id or one not above the previous
    row's (see :func:`~mtqe.fileio.read_table`), an unparseable cell, a
    non-finite value or a count too large for a float raises MalformedRow
    with the row's 0-based index.
    """
    out: list[tuple[int, FeatureVector, Grade | None]] = []
    for row, row_id, line, cells in read_table(path, ",", FEATURE_HEADERS):
        try:
            # The fileio rule for every float cell at once: a plain row.
            if not is_plain(line):
                raise ValueError("cells must be plain ASCII numbers")
            values = [parse(cell) for parse, cell in zip(_PARSERS, cells[1:])]
            grade = Grade.from_label(cells[-1]) if len(cells) > 1 + N_FEATURES else None
            # isfinite converts a count to a float, so a count too large
            # for one raises OverflowError.
            if not all(map(math.isfinite, values)):
                raise ValueError("non-finite feature value")
        except (ValueError, OverflowError) as exc:
            raise MalformedRow(row, str(exc)) from None
        out.append((row_id, FeatureVector(*values), grade))
    return out
