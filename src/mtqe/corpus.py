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
from .ngram import BOS, END, UNK

_JUDGMENT_HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, JUDGMENT_PARAMS + 1)])
_MARKERS = (UNK, BOS, END)


def is_punctuation_char(ch: str) -> bool:
    # No letter or digit is punctuation (no alphanumeric code point has a
    # P* category), so the common case skips the lookup.
    if ch.isalnum():
        return False
    return unicodedata.category(ch).startswith("P")


def is_punctuation_token(token: str) -> bool:
    """True when the token consists entirely of punctuation characters."""
    # Most tokens are words, which their first character settles without
    # building a generator.
    if not token or not is_punctuation_char(token[0]):
        return False
    return all(is_punctuation_char(ch) for ch in token[1:])


def _split_chunk(chunk: str) -> list[str]:
    head: list[str] = []
    while chunk and is_punctuation_char(chunk[0]):
        head.append(chunk[0])
        chunk = chunk[1:]
    tail: list[str] = []
    while chunk and is_punctuation_char(chunk[-1]):
        tail.append(chunk[-1])
        chunk = chunk[:-1]
    tail.reverse()
    if chunk:
        head.append(chunk)
    return head + tail


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
        tokens.extend(_split_chunk(chunk))
    return tokens


class SentencePair(NamedTuple):
    """One source sentence and its translation, both tokenized."""

    id: int
    source: tuple[str, ...]
    target: tuple[str, ...]


# A parallel corpus is a tuple of SentencePairs, pair i at position i with id i,
# as ``tuple(iter_parallel(...))`` gives it.
ParallelCorpus = tuple


def iter_corpus(path, side: str):
    """Yield each line of a UTF-8 text file tokenized for ``side``, checking it as it is read.

    Raises InvalidEncoding for non-UTF-8 content, and ReservedToken naming
    ``path`` and the 1-based line for a token that is one of the language
    model's markers ``<unk>``, ``<s>`` and ``</s>``, after yielding every
    line before it.
    """
    for line_no, line in enumerate(iter_lines(path), start=1):
        tokens = tuple(tokenize(line, side))
        if "<" in line:  # every marker holds one, so most lines skip the scan
            for token in tokens:
                if token in _MARKERS:
                    raise ReservedToken(token, line_no, path)
        yield tokens


def iter_parallel(source_path, target_path):
    """Yield the SentencePairs of two line-aligned text files, one line of each at a time.

    Line i of each file becomes pair i.  The files are read in step, so
    the first faulty line raises the errors of :func:`iter_corpus`, the
    source side's first when both sides fault on one line.  When one file
    is longer, the rest of it is read and checked too, and then
    LineCountMismatch gives both line counts.
    """
    lines = zip_longest(iter_corpus(source_path, SOURCE), iter_corpus(target_path, TARGET))
    for pair_id, (source, target) in enumerate(lines):
        if source is None or target is None:
            longer = pair_id + 1 + sum(1 for _ in lines)
            raise LineCountMismatch(*((pair_id, longer) if source is None else (longer, pair_id)))
        yield SentencePair(pair_id, source, target)


def load_judgments(path) -> list[HumanJudgment]:
    """Load a TSV of human judgments (header ``id p1 .. p10``, tab-separated).

    Every parameter cell must be an integer in 0..4; violations raise
    OutOfRangeScore with the 0-based data-row index and 1-based parameter
    number.  Structural problems and a bad or repeated id (see
    :func:`~mtqe.fileio.read_table`) raise MalformedRow.
    """
    judgments = []
    for row, sentence_id, _, cells in read_table(path, "\t", (_JUDGMENT_HEADER,)):
        try:
            params = [parse_int(cell) for cell in cells[1:]]
        except ValueError:
            raise MalformedRow(row, "non-integer cell") from None
        except OverflowError as exc:
            raise MalformedRow(row, str(exc)) from None
        for col, value in enumerate(params, start=1):
            if not 0 <= value <= JUDGMENT_MAX:
                raise OutOfRangeScore(row, col, value)
        judgments.append(HumanJudgment(sentence_id, tuple(params)))
    return judgments
