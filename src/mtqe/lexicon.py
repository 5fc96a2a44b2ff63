"""Translation lexicon induced from sentence-level co-occurrence.

The association between a source and a target word is the Dice coefficient
over sentence pairs: 2 * cooc / (sentences containing the source word +
sentences containing the target word), with presence counted once per pair.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

from .corpus import ParallelCorpus
from .defaults import DEFAULT_THRESHOLD
from .errors import EmptyCorpus, MalformedRow
from .fileio import atomic_write_lines, is_plain, load_cached, not_rising, split_row


class TranslationCounts:
    """Source token -> number of lexicon targets, all that feature f7 reads."""

    def __init__(self, sizes: dict[str, int]):
        self.sizes = sizes

    def translations_per_word(self, source_tokens) -> float:
        """Mean lexicon-entry count over the sentence's source tokens.

        Tokens absent from the lexicon contribute 0; an empty sentence
        scores 0.
        """
        if not source_tokens:
            return 0.0
        return sum(map(self.sizes.get, source_tokens, repeat(0))) / len(source_tokens)


class TranslationLexicon(TranslationCounts):
    """Source token -> {target token: association score}."""

    def __init__(self, entries: dict[str, dict[str, float]]):
        super().__init__({source: len(targets) for source, targets in entries.items()})
        self.entries = entries

    def save(self, path) -> None:
        """Write entries as a sorted TSV of source, target, score, a line at a time."""
        atomic_write_lines(path, (
            f"{source}\t{target}\t{targets[target]!r}"
            for source, targets in sorted(self.entries.items())
            for target in sorted(targets)
        ))


def build_lexicon(corpus: ParallelCorpus, threshold: float = DEFAULT_THRESHOLD) -> TranslationLexicon:
    """Induce a lexicon by keeping word pairs whose Dice score >= threshold.

    Each source word's co-occurrence counts are taken over the target sets
    of the pairs that hold it, one source word at a time, so only one
    word's counts are held at once.

    Args:
        corpus: sentence pairs, as a tuple of :func:`~mtqe.corpus.iter_parallel` gives them.
        threshold: cut-off in the open interval (0, 1).

    Raises:
        EmptyCorpus: when the corpus has no pairs.
        ValueError: when the threshold is outside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not corpus:
        raise EmptyCorpus("cannot induce a lexicon from an empty corpus")
    # The number of pairs holding each target word, and the target sets of
    # the pairs holding each source word: one set per pair, shared.
    target_sentences: Counter = Counter()
    target_sets: dict[str, list[set[str]]] = {}
    for pair in corpus:
        targets = set(pair.target)
        target_sentences.update(targets)
        for s in set(pair.source):
            target_sets.setdefault(s, []).append(targets)
    entries: dict[str, dict[str, float]] = {}
    for s, sets in target_sets.items():
        ns = len(sets)  # the pairs holding s
        cooccurrence = Counter(chain.from_iterable(sets))
        kept = {}
        for t, count in cooccurrence.items():
            dice = 2 * count / (ns + target_sentences[t])
            if dice >= threshold:
                kept[t] = dice
        if kept:
            entries[s] = kept
    return TranslationLexicon(entries)


def load_lexicon(path) -> TranslationCounts:
    """The per-source target counts of a lexicon TSV written by :meth:`TranslationLexicon.save`.

    Every line is a ``source<TAB>target<TAB>score`` row with a score in
    (0, 1], and the rows rise strictly in (source, target) order, as the
    writer sorts them, so a repeated pair lies on the line after its first.
    A file is parsed once per content: the model cache keeps the counts
    (see :func:`~mtqe.fileio.load_cached`).
    """
    return load_cached(path, "lexicon", _parse, _from_payload)


def _from_payload(payload) -> TranslationCounts | None:
    """The counts of a cached ``sizes`` dict, or None for any other shape."""
    return TranslationCounts(payload) if type(payload) is dict else None


def _parse(lines) -> tuple[TranslationCounts, dict[str, int]]:
    """The counts a lexicon file's ``lines`` give, checked, and their cache payload."""
    sizes: dict[str, int] = {}
    get = sizes.get
    previous = ()  # sorts before every (source, target) pair
    for row, line in enumerate(lines):
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
        if pair <= previous:
            entry = "entry {!r} -> {!r}".format
            raise not_rising(row, entry(*pair), entry(*previous))
        previous = pair
        sizes[source] = get(source, 0) + 1
    return TranslationCounts(sizes), sizes
