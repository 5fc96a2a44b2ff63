"""Translation lexicon induced from sentence-level co-occurrence.

The association between a source and a target word is the Dice coefficient
over sentence pairs: 2 * cooc / (sentences containing the source word +
sentences containing the target word), with presence counted once per pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import repeat

from .corpus import ParallelCorpus
from .errors import EmptyCorpus, MalformedRow
from .fileio import atomic_write_lines, is_plain, read_lines, split_row

DEFAULT_THRESHOLD = 0.2


class TranslationCounts:
    """Source token -> number of lexicon targets, all that feature f7 reads."""

    def __init__(self, sizes: dict[str, int]):
        self.sizes = sizes

    def translations_per_word(self, source_tokens) -> float:
        """Mean lexicon-entry count over the sentence's source tokens.

        Tokens absent from the lexicon contribute 0; an empty sentence
        scores 0.
        """
        source_tokens = list(source_tokens)
        if not source_tokens:
            return 0.0
        get = self.sizes.get
        total = sum(get(token, 0) for token in source_tokens)
        return total / len(source_tokens)


class TranslationLexicon(TranslationCounts):
    """Source token -> {target token: association score}."""

    def __init__(self, entries: dict[str, dict[str, float]]):
        super().__init__({source: len(targets) for source, targets in entries.items()})
        self.entries = entries

    def save(self, path) -> None:
        """Write entries as a sorted TSV of source, target, score."""
        lines = []
        for source in sorted(self.entries):
            targets = self.entries[source]
            for target in sorted(targets):
                lines.append(f"{source}\t{target}\t{targets[target]!r}")
        atomic_write_lines(path, lines)


def _dice_band(ns: int, threshold: float, limit: int) -> tuple[int, int]:
    """The nt in 1..limit with 2 * min(ns, nt) / (ns + nt) >= threshold, as (low, high).

    The test is the filter's own float expression with the co-occurrence
    count replaced by its upper bound.  It rises with nt up to ns and falls
    after, and correctly rounded division keeps both runs monotone, so each
    end is a bisection; nt = ns scores 1.0 and always lies in the band.
    """
    rising = range(1, ns + 1)
    falling = range(ns, limit + 1)
    low = rising[bisect_left(rising, True, key=lambda nt: 2 * nt / (ns + nt) >= threshold)]
    high = falling[bisect_left(falling, True, key=lambda nt: 2 * ns / (ns + nt) < threshold) - 1]
    return low, high


def build_lexicon(corpus: ParallelCorpus, threshold: float = DEFAULT_THRESHOLD) -> TranslationLexicon:
    """Induce a lexicon by keeping word pairs whose Dice score >= threshold.

    Args:
        corpus: sentence pairs, as :func:`~mtqe.corpus.load_parallel` returns them.
        threshold: cut-off in the open interval (0, 1).

    Raises:
        EmptyCorpus: when the corpus has no pairs.
        ValueError: when the threshold is outside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not corpus:
        raise EmptyCorpus("cannot induce a lexicon from an empty corpus")
    # Document frequencies: the number of pairs containing each word.
    source_sentences: Counter = Counter()
    target_sentences: Counter = Counter()
    for pair in corpus:
        source_sentences.update(set(pair.source))
        target_sentences.update(set(pair.target))
    # A word pair co-occurs at most min(ns, nt) times, so only targets whose
    # nt lies in the source word's Dice band can pass.  The band depends on
    # the global counts alone, so a word pair is counted in every sentence
    # pair that holds it, or in none, and its count stays exact.
    limit = len(corpus)
    bands = {ns: _dice_band(ns, threshold, limit) for ns in set(source_sentences.values())}
    source_band = {s: bands[ns] for s, ns in source_sentences.items()}
    nt_of = target_sentences.__getitem__
    cooccurrence: Counter = Counter()
    for pair in corpus:
        targets = sorted(set(pair.target), key=nt_of)
        frequencies = [nt_of(t) for t in targets]
        for s in set(pair.source):
            low, high = source_band[s]
            start = bisect_left(frequencies, low)
            stop = bisect_right(frequencies, high, start)
            if start < stop:
                cooccurrence.update(zip(repeat(s, stop - start), targets[start:stop]))
    entries: dict[str, dict[str, float]] = {}
    for (s, t), count in cooccurrence.items():
        dice = 2 * count / (source_sentences[s] + target_sentences[t])
        if dice >= threshold:
            entries.setdefault(s, {})[t] = dice
    return TranslationLexicon(entries)


def load_lexicon(path) -> TranslationCounts:
    """The per-source target counts of a lexicon TSV written by :meth:`TranslationLexicon.save`.

    Any external file with ``source<TAB>target<TAB>score`` rows, scores in
    (0, 1] and no (source, target) pair twice is accepted.  In save order a
    repeated pair lies on adjacent lines; from the first row out of that
    order on, a set of the pairs read finds it instead.
    """
    lines = read_lines(path)
    sizes: dict[str, int] = {}
    get = sizes.get
    previous = ()  # sorts before every (source, target) pair
    pairs = None  # every pair read, once a row leaves save order
    for row, line in enumerate(lines):
        if line == "":
            continue
        source, target, text = split_row(line, row, "\t", 3)
        try:
            if not is_plain(text):
                raise ValueError
            score = float(text)
        except ValueError:
            raise MalformedRow(row, f"bad score {text!r}") from None
        if not 0.0 < score <= 1.0:
            raise MalformedRow(row, f"score {score} outside (0, 1]")
        pair = (source, target)
        if pairs is None:
            if pair > previous:
                previous = pair
            elif pair == previous:
                raise MalformedRow(row, f"duplicate entry {source!r} -> {target!r}")
            else:
                # Every earlier row was in strictly rising order, so unique.
                pairs = {tuple(earlier.split("\t")[:2]) for earlier in lines[:row] if earlier}
        if pairs is not None:
            if pair in pairs:
                raise MalformedRow(row, f"duplicate entry {source!r} -> {target!r}")
            pairs.add(pair)
        sizes[source] = get(source, 0) + 1
    return TranslationCounts(sizes)
