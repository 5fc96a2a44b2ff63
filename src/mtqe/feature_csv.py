"""The feature vector and the feature CSV that carries it between stages.

``extract`` writes the CSV, and ``train``, ``predict`` and ``evaluate``
read it.  Those three import this module, not :mod:`mtqe.features`, so
none of them loads the tokenizer or the n-gram code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedRow, MixedLabeling
from .fileio import atomic_write_lines, is_plain, not_rising, parse_int, read_table
from .grading import Grade

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


# One rule per cell, the id's and then f1..f16's: a count is an integer
# and every other feature a float with six decimal places.  The template
# of a labeled row ends in the grade's label.
_CELLS = ",".join(["{}", *("{:d}" if i in _INT_INDEXES else "{:.6f}" for i in range(N_FEATURES))])
_ROWS = (_CELLS, _CELLS + ",{.label}")
_PARSERS = (parse_int, *(parse_int if i in _INT_INDEXES else float for i in range(N_FEATURES)))


def feature_line(row_id: int, vector: FeatureVector, grade) -> str:
    """The feature CSV line of one row: labeled when ``grade`` is a Grade, not when it is None."""
    # An unlabeled row's template has no grade field, so format ignores its None.
    return _ROWS[grade is not None].format(row_id, *vector, grade)


def write_features(rows, path) -> None:
    """Write ``(id, FeatureVector, Grade | None)`` rows as CSV, in the order given.

    The header is ``id,f1,...,f16`` with a trailing ``grade`` column when
    rows are labeled.  Floats carry six decimal places.  Before any file is
    written, a row labeled unlike the first raises MixedLabeling, an id not
    above the previous row's raises the MalformedRow that
    :func:`read_features` would, and a count that is not an int raises
    ValueError.
    """
    lines = [FEATURE_HEADERS[0]]  # the labeled header replaces it once row 0 is labeled
    labeled = False
    previous = -math.inf  # below every id
    for row, (row_id, vector, grade) in enumerate(rows):
        if row == 0 and grade is not None:
            labeled, lines[0] = True, FEATURE_HEADERS[1]
        if (grade is not None) != labeled:
            raise MixedLabeling()
        if row_id <= previous:
            raise MalformedRow(row, not_rising(f"id {row_id}", f"id {previous}"))
        previous = row_id
        lines.append(feature_line(row_id, vector, grade))
    atomic_write_lines(path, lines)


def parse_row(row, line) -> tuple[int, FeatureVector, Grade | None]:
    """Data row ``row`` of a feature CSV as ``(id, FeatureVector, Grade | None)``, each cell checked.

    ``line`` is the row as :func:`~mtqe.fileio.read_table` yields it, its
    width and id checked, and is split here.  An unparseable cell, a
    non-finite value or a count too large for a float raises MalformedRow.
    """
    try:
        # The fileio rule for every float cell at once: a plain row.
        if not is_plain(line):
            raise ValueError("cells must be plain ASCII numbers")
        cells = line.split(",")
        row_id, *values = [parse(cell) for parse, cell in zip(_PARSERS, cells)]
        grade = Grade.from_label(cells[-1]) if len(cells) > 1 + N_FEATURES else None
        # isfinite converts a count to a float, so a count too large
        # for one raises OverflowError.
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite feature value")
    except (ValueError, OverflowError) as exc:
        raise MalformedRow(row, str(exc)) from None
    return row_id, FeatureVector(*values), grade


def read_features(path) -> list[tuple[int, FeatureVector, Grade | None]]:
    """Every row of a feature CSV written by :func:`write_features`, each checked.

    Each row is checked by :func:`~mtqe.fileio.read_table` and then split
    and parsed by :func:`parse_row`, so the first faulty row raises MalformedRow.
    """
    return [parse_row(row, line) for row, _, line in read_table(path, ",", FEATURE_HEADERS)]
