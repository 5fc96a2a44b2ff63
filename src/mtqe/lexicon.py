"""Translation lexicon induced from sentence-level co-occurrence.

The association between a source and a target word is the Dice coefficient
over sentence pairs: 2 * cooc / (sentences containing the source word +
sentences containing the target word), with presence counted once per pair.
"""

from __future__ import annotations

from collections import Counter

from .corpus import ParallelCorpus
from .errors import EmptyCorpus, MalformedRow
from .fileio import atomic_write_text, read_lines, split_row

DEFAULT_THRESHOLD = 0.2


class TranslationLexicon:
    """Source token -> {target token: association score}."""

    def __init__(self, entries: dict[str, dict[str, float]]):
        self.entries = entries

    def translations_per_word(self, source_tokens) -> float:
        """Mean lexicon-entry count over the sentence's source tokens.

        Tokens absent from the lexicon contribute 0; an empty sentence
        scores 0.
        """
        source_tokens = list(source_tokens)
        if not source_tokens:
            return 0.0
        total = sum(len(self.entries.get(token, ())) for token in source_tokens)
        return total / len(source_tokens)

    def save(self, path) -> None:
        """Write entries as a sorted TSV of source, target, score."""
        lines = []
        for source in sorted(self.entries):
            targets = self.entries[source]
            for target in sorted(targets):
                lines.append(f"{source}\t{target}\t{targets[target]!r}")
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def build_lexicon(corpus: ParallelCorpus, threshold: float = DEFAULT_THRESHOLD) -> TranslationLexicon:
    """Induce a lexicon by keeping word pairs whose Dice score >= threshold.

    Args:
        corpus: tokenized parallel corpus.
        threshold: cut-off in the open interval (0, 1).

    Raises:
        EmptyCorpus: when the corpus has no pairs.
        ValueError: when the threshold is outside (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not corpus.pairs:
        raise EmptyCorpus("cannot induce a lexicon from an empty corpus")
    cooccurrence: Counter = Counter()
    source_sentences: Counter = Counter()
    target_sentences: Counter = Counter()
    for pair in corpus.pairs:
        source_set = set(pair.source)
        target_set = set(pair.target)
        for s in source_set:
            source_sentences[s] += 1
        for t in target_set:
            target_sentences[t] += 1
        for s in source_set:
            for t in target_set:
                cooccurrence[(s, t)] += 1
    entries: dict[str, dict[str, float]] = {}
    for (s, t), count in cooccurrence.items():
        dice = 2 * count / (source_sentences[s] + target_sentences[t])
        if dice >= threshold:
            entries.setdefault(s, {})[t] = dice
    return TranslationLexicon(entries)


def load_lexicon(path) -> TranslationLexicon:
    """Load a lexicon TSV written by :meth:`TranslationLexicon.save`.

    Any external file with ``source<TAB>target<TAB>score`` rows and scores
    in (0, 1] is accepted.
    """
    entries: dict[str, dict[str, float]] = {}
    for row, line in enumerate(read_lines(path)):
        if line == "":
            continue
        source, target, text = split_row(line, row, "\t", 3)
        try:
            score = float(text)
        except ValueError:
            raise MalformedRow(row, f"bad score {text!r}") from None
        if not 0.0 < score <= 1.0:
            raise MalformedRow(row, f"score {score} outside (0, 1]")
        entries.setdefault(source, {})[target] = score
    return TranslationLexicon(entries)
