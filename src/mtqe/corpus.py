"""Tokenization, parallel-corpus and judgment ingestion.

A token is a plain string with no internal whitespace.  The tokenizer
splits on whitespace and then peels leading and trailing punctuation off
each chunk into tokens of their own; source-side text is lowercased first,
target-side text is kept as written.
"""

from __future__ import annotations

import unicodedata
from itertools import zip_longest
from typing import NamedTuple

# bench/ imports SOURCE and TARGET from this module.
from .defaults import SIDES, SOURCE, TARGET
from .errors import LineCountMismatch, MalformedRow, OutOfRangeScore, ReservedToken
# bench/layers.py imports read_lines from this module.
from .fileio import iter_lines, parse_int, read_lines, read_table
from .grading import JUDGMENT_MAX, JUDGMENT_PARAMS, HumanJudgment

# The language model's markers, which no corpus token may be: an unknown
# word, a sentence's begin and its end.  mtqe.ngram imports them from here.
UNK = "<unk>"
BOS = "<s>"
END = "</s>"

_JUDGMENT_HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, JUDGMENT_PARAMS + 1)])
_MARKERS = (UNK, BOS, END)
# The parameter cells a judgment file holds, and the scores they read as;
# any other cell is read and checked on its own.
_SCORES = {str(score): score for score in range(JUDGMENT_MAX + 1)}
# What zip_longest gives in place of a line when one corpus file is shorter.
_NO_LINE = object()


def is_punctuation_char(ch: str) -> bool:
    # No letter or digit is punctuation (no alphanumeric code point has a
    # P* category), so the common case skips the lookup.
    if ch.isalnum():
        return False
    return unicodedata.category(ch).startswith("P")


def is_punctuation_token(token: str) -> bool:
    """True when the token consists entirely of punctuation characters."""
    return bool(token) and all(map(is_punctuation_char, token))


def tokenize(text: str, side: str) -> list[str]:
    """Split ``text`` into tokens for the given side.

    Args:
        text: arbitrary Unicode text.
        side: ``"source"`` (lowercased) or ``"target"`` (kept as written).

    Returns:
        Tokens in reading order.  Whitespace separates chunks; leading and
        trailing punctuation characters of each chunk become tokens of
        their own, so internal punctuation (hyphens, apostrophes) stays
        attached.  Empty or all-whitespace input yields an empty list.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if side == SOURCE:
        text = text.lower()
    tokens: list[str] = []
    for chunk in text.split():
        if not (is_punctuation_char(chunk[0]) or is_punctuation_char(chunk[-1])):
            tokens.append(chunk)  # most chunks are words
            continue
        # Peel punctuation off both ends by index: chunk[start:end] is the rest.
        start, end = 0, len(chunk)
        while start < end and is_punctuation_char(chunk[start]):
            start += 1
        while start < end and is_punctuation_char(chunk[end - 1]):
            end -= 1
        tokens.extend(chunk[:start])  # one token per character
        if start < end:
            tokens.append(chunk[start:end])
        tokens.extend(chunk[end:])
    return tokens


class SentencePair(NamedTuple):
    """One source sentence and its translation, both tokenized."""

    id: int
    source: tuple[str, ...]
    target: tuple[str, ...]


# A parallel corpus is a tuple of SentencePairs, pair i at position i with id i,
# as ``tuple(iter_parallel(...))`` gives it.
ParallelCorpus = tuple


def _checked_lines(path, side: str):
    """Yield each line of a UTF-8 text file, checking it as it is read.

    Raises InvalidEncoding for non-UTF-8 content, and ReservedToken naming
    ``path`` and the 1-based line for a token, tokenized for ``side``,
    that is one of the language model's markers ``<unk>``, ``<s>`` and
    ``</s>``, after yielding every line before it.
    """
    for line_no, line in enumerate(iter_lines(path), 1):
        if "<" in line:  # every marker holds one, so most lines skip the scan
            for token in tokenize(line, side):
                if token in _MARKERS:
                    raise ReservedToken(token, line_no, path)
        yield line


def iter_corpus(path, side: str):
    """Yield each line of a UTF-8 text file tokenized for ``side``, checked as it is read.

    The checks and their errors are those of :func:`_checked_lines`.
    """
    for line in _checked_lines(path, side):
        yield tuple(tokenize(line, side))


def iter_parallel_lines(source_path, target_path):
    """Yield the ``(source, target)`` lines of two line-aligned text files, read in step.

    Line i of each file makes pair i.  The first faulty line raises the
    errors of :func:`_checked_lines`, the source side's first when both sides
    fault on one line.  When one file is longer, the rest of it is read
    and checked too, and then LineCountMismatch gives both line counts.
    """
    lines = zip_longest(
        _checked_lines(source_path, SOURCE),
        _checked_lines(target_path, TARGET),
        fillvalue=_NO_LINE,
    )
    for pair_id, (source, target) in enumerate(lines):
        if source is _NO_LINE or target is _NO_LINE:
            longer = pair_id + 1 + sum(1 for _ in lines)
            counts = (pair_id, longer) if source is _NO_LINE else (longer, pair_id)
            raise LineCountMismatch(*counts)
        yield source, target


def sentence_pair(pair_id: int, source: str, target: str) -> SentencePair:
    """Pair ``pair_id`` of a source and a target line, each tokenized for its side."""
    return SentencePair(pair_id, tuple(tokenize(source, SOURCE)), tuple(tokenize(target, TARGET)))


def iter_parallel(source_path, target_path):
    """Yield pair i of :func:`iter_parallel_lines` as :func:`sentence_pair` ``i``, one at a time."""
    for pair_id, (source, target) in enumerate(iter_parallel_lines(source_path, target_path)):
        yield sentence_pair(pair_id, source, target)


def load_judgments(path) -> list[HumanJudgment]:
    """Load a TSV of human judgments (header ``id p1 .. p10``, tab-separated).

    Every parameter cell must be an integer in 0..4; violations raise
    OutOfRangeScore with the 0-based data-row index and 1-based parameter
    number.  Structural problems and a bad or repeated id (see
    :func:`~mtqe.fileio.read_table`) raise MalformedRow.
    """
    judgments = []
    for row, sentence_id, _, cells in read_table(path, "\t", (_JUDGMENT_HEADER,)):
        params = tuple(map(_SCORES.get, cells[1:]))
        if None in params:  # a cell other than "0" to "4", such as "00", or a fault to name
            params = _checked_params(row, cells[1:])
        judgments.append(HumanJudgment(sentence_id, params))
    return judgments


def _checked_params(row: int, cells) -> tuple[int, ...]:
    """The parameters of judgment data row ``row``, each checked to be an integer in 0..4."""
    try:
        params = tuple(parse_int(cell) for cell in cells)
    except ValueError:
        raise MalformedRow(row, "non-integer cell") from None
    except OverflowError as exc:
        raise MalformedRow(row, str(exc)) from None
    for col, value in enumerate(params, start=1):
        if not 0 <= value <= JUDGMENT_MAX:
            raise OutOfRangeScore(row, col, value)
    return params
