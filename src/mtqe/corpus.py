"""Tokenization, parallel-corpus and judgment ingestion.

A token is a plain string with no internal whitespace.  The tokenizer
splits on whitespace and then peels leading and trailing punctuation off
each chunk into tokens of their own; source-side text is lowercased first,
target-side text is kept as written.
"""

from __future__ import annotations

import unicodedata
from typing import NamedTuple

from .errors import LineCountMismatch, MalformedRow, OutOfRangeScore, ReservedToken
from .fileio import check_new_id, parse_ints, read_lines, read_table
from .ngram import BOS, END, UNK

SOURCE = "source"
TARGET = "target"
SIDES = (SOURCE, TARGET)

# Devanagari danda and double danda, the Hindi sentence terminators.
# Current Unicode tables already class them as Po; listed explicitly so the
# rule does not depend on the unicodedata version.
_EXTRA_PUNCTUATION = frozenset("।॥")

JUDGMENT_PARAMS = 10
JUDGMENT_MAX = 4
_JUDGMENT_HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, JUDGMENT_PARAMS + 1)])
_MARKERS = (UNK, BOS, END)


def is_punctuation_char(ch: str) -> bool:
    # No letter or digit is punctuation (no alphanumeric code point has a
    # P* category or is a danda), so the common case skips the lookup.
    if ch.isalnum():
        return False
    return ch in _EXTRA_PUNCTUATION or unicodedata.category(ch).startswith("P")


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


# A parallel corpus is a tuple of SentencePairs, pair i at position i with id i.
ParallelCorpus = tuple


class HumanJudgment(NamedTuple):
    """Ten parameter scores for one translated sentence; load_judgments checks each is 0..4."""

    sentence_id: int
    params: tuple[int, ...]


def read_corpus(path, side: str) -> list[tuple[str, ...]]:
    """The lines of a UTF-8 text file, each tokenized for ``side``.

    Raises InvalidEncoding for non-UTF-8 content, and ReservedToken naming
    ``path`` and the 1-based line for a token that is one of the language
    model's markers ``<unk>``, ``<s>`` and ``</s>``.
    """
    sentences = []
    for line_no, line in enumerate(read_lines(path), start=1):
        tokens = tuple(tokenize(line, side))
        if "<" in line:  # every marker holds one, so most lines skip the scan
            for token in tokens:
                if token in _MARKERS:
                    raise ReservedToken(token, line_no, path)
        sentences.append(tokens)
    return sentences


def load_parallel(source_path, target_path) -> ParallelCorpus:
    """Load two line-aligned text files as a tuple of tokenized sentence pairs.

    Line i of each file becomes pair i.  Raises LineCountMismatch when the
    files differ in length, and the errors of :func:`read_corpus`.
    """
    sources = read_corpus(source_path, SOURCE)
    targets = read_corpus(target_path, TARGET)
    if len(sources) != len(targets):
        raise LineCountMismatch(len(sources), len(targets))
    return tuple(map(SentencePair, range(len(sources)), sources, targets))


def load_judgments(path) -> list[HumanJudgment]:
    """Load a TSV of human judgments (header ``id p1 .. p10``, tab-separated).

    Every parameter cell must be an integer in 0..4; violations raise
    OutOfRangeScore with the 0-based data-row index and 1-based parameter
    number.  Structural problems and a repeated id raise MalformedRow.
    """
    judgments = []
    seen = set()
    for row, _, cells in read_table(path, "\t", (_JUDGMENT_HEADER,)):
        try:
            sentence_id, *params = parse_ints(cells)
        except ValueError:
            raise MalformedRow(row, "non-integer cell") from None
        check_new_id(sentence_id, row, seen)
        for col, value in enumerate(params, start=1):
            if not 0 <= value <= JUDGMENT_MAX:
                raise OutOfRangeScore(row, col, value)
        judgments.append(HumanJudgment(sentence_id, tuple(params)))
    return judgments
