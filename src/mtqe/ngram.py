"""N-gram language model with add-one smoothing and frequency-quartile queries.

Each training sentence is padded with (order - 1) begin markers and one end
marker, and every window of length 1..order over the padded stream is
counted.  Conditional probabilities are Laplace estimates over the full
vocabulary (observed tokens plus the reserved UNK/BOS/END markers), so they
are strictly positive and sum to one for every context.
"""

from __future__ import annotations

import enum
import math
from collections import Counter

from .errors import CorruptModel, EmptyCorpus
from .fileio import atomic_write_text, header_int, read_model_lines

UNK = "<unk>"
BOS = "<s>"
END = "</s>"

_MAGIC = "mtqe-ngram-lm"
_FORMAT_VERSION = 1


class FreqClass(enum.Enum):
    """Corpus-frequency band of an n-gram relative to the type quartiles."""

    LOW = "Low"
    MID = "Mid"
    HIGH = "High"


def ngrams(tokens, n: int) -> list[tuple[str, ...]]:
    """All contiguous length-n windows of a token sequence, as tuples."""
    tokens = list(tokens)
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _nearest_rank(sorted_values: list[int], percentile: int) -> int:
    # Nearest-rank percentile: the value at rank ceil(p/100 * N), 1-based.
    rank = max(1, math.ceil(percentile * len(sorted_values) / 100))
    return sorted_values[rank - 1]


class NgramModel:
    """Counts, vocabulary, and type-frequency quartiles for orders 1..order.

    Immutable after training; every query is pure, so concurrent readers
    are safe.
    """

    def __init__(self, order, counts, quartiles):
        self.order = order
        self.counts = counts  # {gram tuple: occurrences}
        # {context tuple: number of counted grams extending it}; this equals
        # sum_w counts[ctx + (w,)], which is what exact Laplace
        # normalization requires (a context ending a padded sentence occurs
        # but never continues, so its raw count would overstate the total).
        context_totals: Counter = Counter()
        for gram, count in counts.items():
            context_totals[gram[:-1]] += count
        self.context_totals = dict(context_totals)
        # The observed unigram types plus the reserved markers.
        self.vocab = frozenset(gram[0] for gram in counts if len(gram) == 1) | {UNK, BOS, END}
        self.quartiles = quartiles  # {n: (q1, q3)}

    def cond_prob(self, word: str, context=()) -> float:
        """Add-one estimate of P(word | context).

        ``context`` may be any length up to order - 1; tokens outside the
        vocabulary (in the word or the context) are mapped to UNK.  The
        result is strictly inside (0, 1).
        """
        context = tuple(context)
        if len(context) > self.order - 1:
            raise ValueError(
                f"context length {len(context)} exceeds order-1 = {self.order - 1}"
            )
        if word not in self.vocab:
            word = UNK
        context = tuple(t if t in self.vocab else UNK for t in context)
        numerator = self.counts.get(context + (word,), 0) + 1
        denominator = self.context_totals.get(context, 0) + len(self.vocab)
        return numerator / denominator

    def sentence_log_prob(self, tokens) -> float:
        """Mean natural-log probability per scored position (always <= 0).

        Pads the sentence, sums ln cond_prob at the model's full order in
        position order, and divides by the number of scored positions (token
        count + 1, the end marker included).  An empty sentence scores the
        end marker alone.
        """
        # cond_prob's arithmetic, with OOV tokens mapped once per sentence:
        # each full-order window of the padded sentence is context + word.
        vocab = self.vocab
        padded = [BOS] * (self.order - 1)
        padded += [t if t in vocab else UNK for t in tokens]
        padded.append(END)
        counts = self.counts
        context_totals = self.context_totals
        size = len(vocab)
        log = math.log
        total = 0.0
        for gram in zip(*[padded[i:] for i in range(self.order)]):
            numerator = counts.get(gram, 0) + 1
            denominator = context_totals.get(gram[:-1], 0) + size
            total += log(numerator / denominator)
        return total / (len(padded) - self.order + 1)

    def freq_class(self, gram) -> FreqClass:
        """Low/Mid/High band of a gram's corpus frequency.

        Low means frequency <= Q1 of the distinct-type frequencies at that
        order (unseen grams are Low); High means frequency > Q3; the bands
        are mutually exclusive by construction.
        """
        gram = tuple(gram)
        if not 1 <= len(gram) <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}, got {len(gram)}")
        q1, q3 = self.quartiles[len(gram)]
        frequency = self.counts.get(gram, 0)
        if frequency <= q1:
            return FreqClass.LOW
        if frequency > q3:
            return FreqClass.HIGH
        return FreqClass.MID

    def band_counts(self, tokens, n: int) -> tuple[int, int]:
        """How many length-n windows of ``tokens`` are Low and how many High.

        The same tallies as :meth:`freq_class` over ``ngrams(tokens, n)``,
        made in one pass without building a FreqClass per gram.
        """
        if not 1 <= n <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}, got {n}")
        q1, q3 = self.quartiles[n]
        get = self.counts.get
        tokens = tuple(tokens)
        low = 0
        high = 0
        for gram in zip(*[tokens[i:] for i in range(n)]):
            frequency = get(gram, 0)
            if frequency <= q1:
                low += 1
            elif frequency > q3:
                high += 1
        return low, high

    def seen_fraction(self, grams) -> float:
        """Fraction of the given grams that occur in the corpus (0 for none given)."""
        grams = [tuple(g) for g in grams]
        if not grams:
            return 0.0
        seen = sum(1 for g in grams if g in self.counts)
        return seen / len(grams)

    def save(self, path) -> None:
        """Write the model as versioned, line-oriented UTF-8 text."""
        lines = [
            f"{_MAGIC}\t{_FORMAT_VERSION}",
            f"order\t{self.order}",
            f"vocab_size\t{len(self.vocab)}",
        ]
        for n in range(1, self.order + 1):
            q1, q3 = self.quartiles[n]
            lines.append(f"q1_{n}\t{q1}")
            lines.append(f"q3_{n}\t{q3}")
        grams = sorted(self.counts)
        lines.append(f"ngrams\t{len(grams)}")
        for gram in grams:
            lines.append(" ".join(gram) + f"\t{self.counts[gram]}")
        lines.append("end")
        atomic_write_text(path, "\n".join(lines) + "\n")


def train_lm(sentences, order: int = 3) -> NgramModel:
    """Count all 1..order grams over padded sentences and fix the quartiles.

    Args:
        sentences: sequence of token sequences for one corpus side.
        order: highest n-gram length (>= 1).

    Raises:
        EmptyCorpus: when no sentences are given.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    sentences = [list(s) for s in sentences]
    if not sentences:
        raise EmptyCorpus()
    counts: Counter = Counter()
    for sentence in sentences:
        padded = [BOS] * (order - 1) + sentence + [END]
        for n in range(1, order + 1):
            for i in range(len(padded) - n + 1):
                counts[tuple(padded[i : i + n])] += 1
    quartiles = {}
    for n in range(1, order + 1):
        frequencies = sorted(c for gram, c in counts.items() if len(gram) == n)
        quartiles[n] = (_nearest_rank(frequencies, 25), _nearest_rank(frequencies, 75))
    return NgramModel(order, dict(counts), quartiles)


def load_lm(path) -> NgramModel:
    """Load a model written by :meth:`NgramModel.save`.

    Queries on the loaded model are bit-identical to the original.  Raises
    VersionMismatch for files written by a newer format and CorruptModel
    for truncated or malformed files.
    """
    lines = read_model_lines(path, _MAGIC, _FORMAT_VERSION)
    order = header_int(lines, 1, "order")
    if order < 1:
        raise CorruptModel(f"order must be >= 1, got {order}")
    vocab_size = header_int(lines, 2, "vocab_size")
    quartiles = {}
    index = 3
    for n in range(1, order + 1):
        q1 = header_int(lines, index, f"q1_{n}")
        q3 = header_int(lines, index + 1, f"q3_{n}")
        quartiles[n] = (q1, q3)
        index += 2
    n_grams = header_int(lines, index, "ngrams")
    index += 1
    counts = {}
    for offset in range(n_grams):
        if index + offset >= len(lines):
            raise CorruptModel("n-gram section truncated")
        cells = lines[index + offset].split("\t")
        if len(cells) != 2:
            raise CorruptModel(f"bad n-gram line {lines[index + offset]!r}")
        gram = tuple(cells[0].split(" "))
        if not 1 <= len(gram) <= order or "" in gram:
            raise CorruptModel(f"bad n-gram {cells[0]!r}")
        try:
            count = int(cells[1])
        except ValueError:
            raise CorruptModel(f"non-integer count in {lines[index + offset]!r}") from None
        if count < 1:
            raise CorruptModel(f"count must be >= 1 in {lines[index + offset]!r}")
        counts[gram] = count
    index += n_grams
    if index >= len(lines) or lines[index] != "end":
        raise CorruptModel("missing end marker")
    model = NgramModel(order, counts, quartiles)
    if len(model.vocab) != vocab_size:
        raise CorruptModel(
            f"vocab_size header says {vocab_size}, file contains {len(model.vocab)} types"
        )
    return model
