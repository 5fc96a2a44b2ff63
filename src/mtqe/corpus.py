"""Tokenization, parallel-corpus and judgment ingestion, corpus statistics.

A token is a plain string with no internal whitespace.  The tokenizer
splits on whitespace and then peels leading and trailing punctuation off
each chunk into tokens of their own; source-side text is lowercased first,
target-side text is kept as written.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .errors import LineCountMismatch, MalformedRow, OutOfRangeScore
from .fileio import read_lines, split_row

SOURCE = "source"
TARGET = "target"
SIDES = (SOURCE, TARGET)

# Devanagari danda and double danda, the Hindi sentence terminators.
# Current Unicode tables already class them as Po; listed explicitly so the
# rule does not depend on the unicodedata version.
_EXTRA_PUNCTUATION = frozenset("।॥")

JUDGMENT_PARAMS = 10
JUDGMENT_MAX = 4
_JUDGMENT_HEADER = ("id",) + tuple(f"p{i}" for i in range(1, JUDGMENT_PARAMS + 1))


def is_punctuation_char(ch: str) -> bool:
    # No letter or digit is punctuation (no alphanumeric code point has a
    # P* category or is a danda), so the common case skips the lookup.
    if ch.isalnum():
        return False
    return ch in _EXTRA_PUNCTUATION or unicodedata.category(ch).startswith("P")


def is_punctuation_token(token: str) -> bool:
    """True when the token consists entirely of punctuation characters."""
    return bool(token) and all(is_punctuation_char(ch) for ch in token)


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


@dataclass(frozen=True)
class SentencePair:
    """One source sentence and its translation, both tokenized."""

    id: int
    source: tuple[str, ...]
    target: tuple[str, ...]


@dataclass(frozen=True)
class ParallelCorpus:
    """Ordered sentence pairs with ids 0..n-1."""

    pairs: tuple[SentencePair, ...]

    def __post_init__(self):
        for position, pair in enumerate(self.pairs):
            if pair.id != position:
                raise ValueError(
                    f"pair ids must be 0..n-1 in order; position {position} has id {pair.id}"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class HumanJudgment:
    """Ten 0..4 parameter scores for one translated sentence."""

    sentence_id: int
    params: tuple[int, ...]

    def __post_init__(self):
        if len(self.params) != JUDGMENT_PARAMS:
            raise ValueError(f"expected {JUDGMENT_PARAMS} parameters, got {len(self.params)}")
        for value in self.params:
            if not 0 <= value <= JUDGMENT_MAX:
                raise ValueError(f"parameter value {value} outside 0..{JUDGMENT_MAX}")


@dataclass(frozen=True)
class CorpusStats:
    """Sentence, token, and distinct-token counts for one corpus side."""

    sentences: int
    words: int
    unique_words: int

    def __str__(self) -> str:
        return (
            f"sentences={self.sentences} words={self.words} "
            f"unique_words={self.unique_words}"
        )


def load_parallel(source_path, target_path) -> ParallelCorpus:
    """Load two line-aligned text files into a tokenized parallel corpus.

    Line i of each file becomes pair i.  Raises LineCountMismatch when the
    files differ in length and InvalidEncoding for non-UTF-8 content.
    """
    source_lines = read_lines(source_path)
    target_lines = read_lines(target_path)
    if len(source_lines) != len(target_lines):
        raise LineCountMismatch(len(source_lines), len(target_lines))
    pairs = tuple(
        SentencePair(i, tuple(tokenize(s, SOURCE)), tuple(tokenize(t, TARGET)))
        for i, (s, t) in enumerate(zip(source_lines, target_lines))
    )
    return ParallelCorpus(pairs)


def load_judgments(path) -> list[HumanJudgment]:
    """Load a TSV of human judgments (header ``id p1 .. p10``, tab-separated).

    Every parameter cell must be an integer in 0..4; violations raise
    OutOfRangeScore with the 0-based data-row index and 1-based parameter
    number.  Structural problems and a repeated id raise MalformedRow.
    """
    lines = read_lines(path)
    if not lines or tuple(lines[0].split("\t")) != _JUDGMENT_HEADER:
        raise MalformedRow(None, "expected header 'id\\tp1\\t...\\tp10'")
    judgments = []
    seen = set()
    for row, line in enumerate(lines[1:]):
        cells = split_row(line, row, "\t", 1 + JUDGMENT_PARAMS)
        try:
            values = [int(cell) for cell in cells]
        except ValueError:
            raise MalformedRow(row, "non-integer cell") from None
        sentence_id, params = values[0], values[1:]
        if sentence_id in seen:
            raise MalformedRow(row, f"duplicate id {sentence_id}")
        seen.add(sentence_id)
        for col, value in enumerate(params, start=1):
            if not 0 <= value <= JUDGMENT_MAX:
                raise OutOfRangeScore(row, col, value)
        judgments.append(HumanJudgment(sentence_id, tuple(params)))
    return judgments


def stats_from_sentences(sentences) -> CorpusStats:
    """Token and type counts over a sequence of token sequences."""
    words = 0
    types: set[str] = set()
    count = 0
    for sentence in sentences:
        count += 1
        words += len(sentence)
        types.update(sentence)
    return CorpusStats(count, words, len(types))
