"""N-gram language model with add-one smoothing and frequency-quartile queries.

Each training sentence is padded with (order - 1) begin markers and one end
marker, and every window of length 1..order over the padded stream is
counted.  Conditional probabilities are Laplace estimates over the full
vocabulary (observed tokens plus the reserved UNK/BOS/END markers), so they
are strictly positive and sum to one for every context.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice

from .errors import CorruptModel, EmptyCorpus
from .fileio import header_int, read_model_lines, write_model_lines

UNK = "<unk>"
BOS = "<s>"
END = "</s>"

_MAGIC = "mtqe-ngram-lm"
_FORMAT_VERSION = 1


def ngrams(tokens, n: int) -> list[tuple[str, ...]]:
    """All contiguous length-n windows of a token sequence, as tuples."""
    tokens = tuple(tokens)
    return list(zip(*[tokens[i:] for i in range(n)]))


def _nearest_rank(sorted_values: list[int], percentile: int) -> int:
    # Nearest-rank percentile: the value at rank ceil(p/100 * N), 1-based.
    rank = max(1, math.ceil(percentile * len(sorted_values) / 100))
    return sorted_values[rank - 1]


class NgramModel:
    """Counts for orders 1..order and the facts the queries read, derived from them.

    Immutable after construction; every query is pure, so concurrent
    readers are safe.
    """

    def __init__(self, order, counts):
        self.order = order
        self.counts = counts  # {gram tuple: occurrences}
        # One pass over the counts derives the rest.  context_totals maps each
        # full-order context to sum_w counts[ctx + (w,)], which is what exact
        # Laplace normalization requires (a context ending a padded sentence
        # occurs but never continues, so its raw count would overstate the
        # total).  frequencies[n] holds the count of every length-n type.
        context_totals: dict[tuple[str, ...], int] = {}
        get = context_totals.get
        frequencies: list[list[int]] = [[] for _ in range(order + 1)]
        append = [values.append for values in frequencies]
        words = [UNK, BOS, END]
        for gram, count in counts.items():
            n = len(gram)
            append[n](count)
            if n == order:
                context = gram[:-1]
                context_totals[context] = get(context, 0) + count
            if n == 1:
                words.append(gram[0])
        self.context_totals = context_totals
        # The observed unigram types plus the reserved markers.
        self.vocab = frozenset(words)
        # {n: (q1, q3)}, the nearest-rank quartiles of the length-n type
        # frequencies, for every order that has a gram.
        self.quartiles = {
            n: (_nearest_rank(values, 25), _nearest_rank(values, 75))
            for n, values in enumerate(map(sorted, frequencies))
            if values
        }

    def sentence_log_prob(self, tokens) -> float:
        """Mean natural-log probability per scored position (always <= 0).

        Pads the sentence (tokens outside the vocabulary become UNK), sums
        the natural log of the add-one estimate P(word | context) over its
        full-order windows in position order, and divides by the number of
        scored positions (token count + 1, the end marker included).  An
        empty sentence scores the end marker alone.
        """
        # Each full-order window of the padded sentence is context + word.
        vocab = self.vocab
        padded = [BOS] * (self.order - 1)
        padded += [t if t in vocab else UNK for t in tokens]
        padded.append(END)
        counts = self.counts
        context_totals = self.context_totals
        size = len(vocab)
        log = math.log
        total = 0.0
        for gram in ngrams(padded, self.order):
            numerator = counts.get(gram, 0) + 1
            denominator = context_totals.get(gram[:-1], 0) + size
            total += log(numerator / denominator)
        return total / (len(padded) - self.order + 1)

    def band_counts(self, tokens, n: int) -> tuple[int, int]:
        """How many length-n windows of ``tokens`` are Low and how many High.

        Low means corpus frequency <= Q1 of the distinct-type frequencies at
        that order (unseen grams are Low); High means frequency > Q3.  Q1 <=
        Q3, so the bands are disjoint, and a gram in neither is Mid.
        """
        if not 1 <= n <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}, got {n}")
        q1, q3 = self.quartiles[n]
        get = self.counts.get
        low = 0
        high = 0
        for gram in ngrams(tokens, n):
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
        lines = [f"order\t{self.order}", f"vocab_size\t{len(self.vocab)}"]
        for n in range(1, self.order + 1):
            q1, q3 = self.quartiles[n]
            lines.append(f"q1_{n}\t{q1}")
            lines.append(f"q3_{n}\t{q3}")
        grams = sorted(self.counts)
        lines.append(f"ngrams\t{len(grams)}")
        for gram in grams:
            lines.append(" ".join(gram) + f"\t{self.counts[gram]}")
        write_model_lines(path, _MAGIC, _FORMAT_VERSION, lines)


def train_lm(sentences, order: int = 3) -> NgramModel:
    """Count all 1..order grams over padded sentences.

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
            counts.update(ngrams(padded, n))
    return NgramModel(order, dict(counts))


def load_lm(path) -> NgramModel:
    """Load a model written by :meth:`NgramModel.save`.

    Queries on the loaded model are bit-identical to the original.  Raises
    VersionMismatch for files written by a newer format and CorruptModel
    for truncated or malformed files, a gram listed twice included, and
    for a ``vocab_size`` or quartile header line the counts do not give.
    """
    lines = read_model_lines(path, _MAGIC, _FORMAT_VERSION)
    order = header_int(lines, 0, "order")
    if order < 1:
        raise CorruptModel(f"order must be >= 1, got {order}")
    keys = ["vocab_size"] + [f"q{q}_{n}" for n in range(1, order + 1) for q in (1, 3)]
    header = {key: header_int(lines, index, key) for index, key in enumerate(keys, start=1)}
    index = 1 + len(keys)
    n_grams = header_int(lines, index, "ngrams")
    if n_grams < 0:
        raise CorruptModel(f"ngrams must be >= 0, got {n_grams}")
    index += 1
    counts = {}
    for line in islice(lines, index, index + n_grams):
        try:
            gram_text, text = line.split("\t")
        except ValueError:
            raise CorruptModel(f"bad n-gram line {line!r}") from None
        gram = tuple(gram_text.split(" "))
        if not 1 <= len(gram) <= order or "" in gram:
            raise CorruptModel(f"bad n-gram {gram_text!r}")
        # fileio.parse_int's rule for a count, inline, since it runs per gram.
        count = int(text) if text.isdigit() and text.isascii() else 0
        if count < 1:
            raise CorruptModel(f"count must be a positive integer in {line!r}")
        counts[gram] = count
    if len(lines) != index + n_grams:
        raise CorruptModel(
            f"header line 'ngrams' says {n_grams}, the file has {len(lines) - index} gram lines"
        )
    if len(counts) < n_grams:
        # A repeated gram overwrote an earlier count; name the first one.
        seen = set()
        for line in islice(lines, index, index + n_grams):
            text = line.split("\t")[0]
            if text in seen:
                raise CorruptModel(f"duplicate n-gram {text!r}")
            seen.add(text)
    model = NgramModel(order, counts)
    if len(model.quartiles) < order:
        raise CorruptModel(f"some n-gram length in 1..{order} has no gram")
    derived = [len(model.vocab)] + [q for n in range(1, order + 1) for q in model.quartiles[n]]
    for (key, value), expected in zip(header.items(), derived):
        if value != expected:
            raise CorruptModel(f"header line '{key}' says {value}, the counts give {expected}")
    return model
