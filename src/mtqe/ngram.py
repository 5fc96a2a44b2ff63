"""N-gram language model with add-one smoothing and frequency-quartile queries.

Each training sentence is padded with (order - 1) begin markers and one end
marker, and every window of length 1..order over the padded stream is
counted.  Conditional probabilities are Laplace estimates over the full
vocabulary (observed tokens plus the reserved UNK/BOS/END markers), so they
are strictly positive and sum to one for every context.  No counted gram
holds UNK, which only adds one to the vocabulary size.

A model answers two queries on a sentence: ``sentence_log_prob``, its mean
log-probability, and ``bands``, the frequency-band tallies of its 1..k
grams and its count of seen unigrams, from one id mapping of the sentence.

Grams are stored as integers, in one dict per gram length.  Each
vocabulary token has an id in 1..|V|, assigned in code-point order, and a
gram is its ids read as the digits of a number in base B = |V| + 1, first
token most significant: ``((id1 * B) + id2) * B + id3``.  A token outside
the vocabulary is digit 0; no counted gram holds it, so a window with such
a token is unseen in its length's dict.  The context of a full-order gram
is ``key // B``, and the empty context is 0.  No id is 0, so a length-n
gram lies in [B**(n-1), B**n), and sorting keys padded with zero digits to
``order`` digits gives token-tuple order, which is the order ``save``
writes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import chain, islice, repeat

from .errors import CorruptModel, EmptyCorpus
from .fileio import header_int, load_cached, read_model_lines, write_model_lines

UNK = "<unk>"
BOS = "<s>"
END = "</s>"

_MAGIC = "mtqe-ngram-lm"
_FORMAT_VERSION = 1
_LARGEST_COUNT = int(math.nextafter(math.inf, 0))  # the largest float; queries divide counts


def _nearest_rank(sorted_values: list[int], percentile: int) -> int:
    # Nearest-rank percentile: the value at rank ceil(p/100 * N), 1-based.
    rank = max(1, math.ceil(percentile * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def _quartiles(counts) -> dict[int, tuple[int, int]]:
    """``{n: (Q1, Q3)}``, the nearest-rank quartiles of each length's type frequencies."""
    return {
        n: (_nearest_rank(values, 25), _nearest_rank(values, 75))
        for n, values in enumerate((sorted(grams.values()) for grams in counts), start=1)
    }


def _vocabulary(tokens) -> dict[str, int]:
    """``{token: id}`` for the tokens and the reserved markers, ids 1.. in code-point order.

    The dict iterates in id order, which ``save`` relies on.
    """
    return {token: i for i, token in enumerate(sorted({*tokens, UNK, BOS, END}), start=1)}


def _window_keys(ids, longest: int, base: int):
    """Yield the packed keys of the length-1..longest windows of ``ids``, one list per length.

    The length-n keys extend each length-(n - 1) key by the id that follows
    its window.
    """
    keys = ids
    yield keys
    for n in range(2, longest + 1):
        keys = [key * base + word for key, word in zip(keys, islice(ids, n - 1, None))]
        yield keys


class NgramModel:
    """Packed gram counts for orders 1..order and the facts the queries read.

    ``vocab`` maps each token to its id, ``counts[n - 1]`` each packed
    length-n gram to its occurrences (every length has a gram), and
    ``quartiles[n]`` is the nearest-rank (Q1, Q3) of the length-n type
    frequencies, as :func:`_quartiles` gives them.  The constructor builds
    nothing that grows with the counts.

    Exact Laplace normalization divides by a context's total,
    sum_w counts[context + (w,)].  A context's occurrences are the
    windows of its (order - 1)-gram, and each of them continues unless it
    ends a padded sentence, which only ``</s>`` does.  So the total of a
    context is its own count, 0 for a context ending in ``</s>``, and for
    order 1, where the context is empty, the sum of the unigram counts.
    ``load_lm`` refuses a file whose counts break this rule.

    The queries are ``sentence_log_prob`` (f4/f5) and ``bands`` (f8-f14).
    Immutable after construction; every query is pure, so concurrent
    readers are safe.
    """

    def __init__(self, order, vocab, counts, quartiles):
        self.order = order
        self.vocab = vocab
        self.counts = counts
        self.quartiles = quartiles
        base = len(vocab) + 1
        self._base = base
        self._powers = [base**n for n in range(order + 1)]
        # The context of a sentence's first full-order window: order - 1
        # begin markers.
        self._begin = 0
        for _ in range(order - 1):
            self._begin = self._begin * base + vocab[BOS]
        # The context counts: the (order - 1)-gram dict, or for order 1 the
        # empty context 0 with every unigram's count.
        self._context_counts = {0: sum(counts[0].values())} if order == 1 else counts[-2]

    def sentence_log_prob(self, tokens) -> float:
        """Mean natural-log probability per scored position (always <= 0).

        Pads the sentence (a token outside the vocabulary is digit 0), sums
        the natural log of the add-one estimate P(word | context) over its
        full-order windows in position order, and divides by the number of
        scored positions (token count + 1, the end marker included).  An
        empty sentence scores the end marker alone.
        """
        vocab = self.vocab
        ids = list(map(vocab.get, tokens, repeat(0)))
        ids.append(vocab[END])
        end = ids[-1]
        base = self._base
        context_span = self._powers[self.order - 1]
        key = self._begin
        get_count = self.counts[-1].get
        get_total = self._context_counts.get
        size = len(vocab)
        log = math.log
        total = 0.0
        for word in ids:
            context = key % context_span
            key = context * base + word
            numerator = get_count(key, 0) + 1
            # A context ending in </s> never continues (see the class docstring).
            denominator = (get_total(context, 0) if context % base != end else 0) + size
            total += log(numerator / denominator)
        return total / len(ids)

    def bands(self, tokens, longest: int) -> tuple[list[tuple[int, int]], int]:
        """Low and High tallies of the length-1..longest windows, and the seen unigrams.

        Maps ``tokens`` to ids once (a token outside the vocabulary is digit
        0, so its windows are unseen) and returns ``([(low, high) per n],
        seen)``: for each length n, how many windows are Low (corpus
        frequency <= Q1 of the distinct length-n type frequencies; unseen
        grams are Low) and how many High (frequency > Q3), and how many
        tokens occur as corpus unigrams.  Q1 <= Q3, so the bands are
        disjoint, and a gram in neither is Mid.  A sentence shorter than n
        has no length-n window and tallies (0, 0).
        """
        if not 1 <= longest <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}, got {longest}")
        ids = list(map(self.vocab.get, tokens, repeat(0)))
        tallies = []
        for keys, grams, (q1, q3) in zip(
            _window_keys(ids, longest, self._base), self.counts, self.quartiles.values()
        ):
            get = grams.get
            low = 0
            high = 0
            for key in keys:
                frequency = get(key, 0)
                if frequency <= q1:
                    low += 1
                elif frequency > q3:
                    high += 1
            tallies.append((low, high))
        return tallies, sum(map(self.counts[0].__contains__, ids))

    def save(self, path) -> None:
        """Write the model as versioned, line-oriented UTF-8 text, a line at a time."""
        write_model_lines(path, _MAGIC, _FORMAT_VERSION, self._lines())

    def _lines(self):
        """Yield the header lines, then each gram's line in token-tuple order."""
        order = self.order
        yield f"order\t{order}"
        yield f"vocab_size\t{len(self.vocab)}"
        for n in range(1, order + 1):
            q1, q3 = self.quartiles[n]
            yield f"q1_{n}\t{q1}"
            yield f"q3_{n}\t{q3}"
        counts = self.counts
        yield f"ngrams\t{sum(map(len, counts))}"
        base = self._base
        powers = self._powers
        # A key below B**n has at most n digits; padding it with zero digits
        # to ``order`` digits sorts it in token-tuple order.
        bounds = powers[1:order]
        scales = powers[order - 1 :: -1]

        def padded(key):
            return key * scales[bisect_right(bounds, key)]

        words = ["", *self.vocab]
        for key in sorted(chain(*counts), key=padded):
            tokens = []
            rest = key
            while rest:
                rest, digit = divmod(rest, base)
                tokens.append(words[digit])
            tokens.reverse()
            yield " ".join(tokens) + f"\t{counts[len(tokens) - 1][key]}"


def train_lm(sentences, order: int = 3) -> NgramModel:
    """Count all 1..order grams over padded sentences.

    Args:
        sentences: sequence of token sequences for one corpus side.
        order: highest n-gram length (>= 1).

    Raises:
        EmptyCorpus: when no sentences are given.
        ValueError: when a token is one of the markers UNK, BOS and END.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not sentences:
        raise EmptyCorpus()
    tokens = set()
    for sentence in sentences:
        tokens.update(sentence)
    reserved = tokens.intersection((UNK, BOS, END))
    if reserved:
        raise ValueError(f"reserved token {min(reserved)!r} in the sentences")
    vocab = _vocabulary(tokens)
    base = len(vocab) + 1
    start = [vocab[BOS]] * (order - 1)
    end = vocab[END]
    by_length = [Counter() for _ in range(order)]
    for sentence in sentences:
        ids = start + list(map(vocab.__getitem__, sentence))
        ids.append(end)
        for grams, keys in zip(by_length, _window_keys(ids, order, base)):
            grams.update(keys)
    return NgramModel(order, vocab, by_length, _quartiles(by_length))


def load_lm(path) -> NgramModel:
    """Load a model written by :meth:`NgramModel.save`.

    Queries on the loaded model are bit-identical to the original.  Raises
    VersionMismatch for files written by a newer format and CorruptModel
    for truncated or malformed files, gram lines that do not rise strictly
    in token-tuple order, a gram holding UNK or a token with no unigram
    line, a ``vocab_size`` or quartile header line the counts do not give,
    and, last, counts that break the context rule of :class:`NgramModel`.
    A file is parsed once per content: the model cache keeps ``(order,
    vocab, counts, quartiles)`` (see :func:`~mtqe.fileio.load_cached`).
    """
    return load_cached(path, "lm", _parse, _from_payload)


def _from_payload(payload) -> NgramModel | None:
    """The model of a cached ``(order, vocab, counts, quartiles)``, or None for any other shape."""
    match payload:
        case (int() as order, dict() as vocab, list() as counts, dict() as quartiles) if (
            order == len(counts) == len(quartiles) >= 1
            and all(type(grams) is dict and grams for grams in counts)
        ):
            return NgramModel(order, vocab, counts, quartiles)
    return None


def _parse(lines) -> tuple[NgramModel, tuple]:
    """The model a language-model file's ``lines`` give, checked, and its cache payload."""
    lines = read_model_lines(lines, _MAGIC, _FORMAT_VERSION)
    order = header_int(lines, "order")
    if order < 1:
        raise CorruptModel(f"order must be >= 1, got {order}")
    # Read one key at a time, so a huge order fails at its first missing line.
    keys = chain(["vocab_size"], (f"q{q}_{n}" for n in range(1, order + 1) for q in (1, 3)))
    header = {key: header_int(lines, key) for key in keys}
    n_grams = header_int(lines, "ngrams")
    if n_grams < 0:
        raise CorruptModel(f"ngrams must be >= 0, got {n_grams}")
    # Ids are code-point ranks, so no gram can be packed before every
    # unigram line is read: the gram lines are held while they are parsed.
    lines = list(lines)
    if len(lines) != n_grams:
        raise CorruptModel(
            f"header line 'ngrams' says {n_grams}, the file has {len(lines)} gram lines"
        )
    # The unigram lines give the vocabulary, and with it every id; a
    # malformed line among them is rejected by the parse below.
    unigrams = {line.partition("\t")[0] for line in lines if " " not in line}
    vocab = _vocabulary(unigrams)
    # Only a token with a unigram line, and never UNK, may appear in a gram.
    ids = {token: vocab[token] for token in unigrams - {UNK}}
    base = len(vocab) + 1
    counts: list[dict[int, int]] = [{} for _ in range(order)]
    # A key padded with zero digits to ``order`` digits sorts in token-tuple
    # order, the order save writes, so the padded keys must rise strictly.
    # A gram length's padding factor is made at its first gram, so a huge
    # ``order`` header builds no factor for lengths the file does not hold.
    scales: dict[int, int] = {}
    previous, previous_text = 0, None  # below every padded key
    # The context rule of NgramModel, checked in the same pass: the
    # continuations of a context are the full-order lines right after its
    # own line, so the pass keeps only the open context, the total its line
    # gives and the sum so far.  The first context that breaks the rule is
    # raised after every other check, so no other fault's message changes.
    context, context_text, total, continued = -1, "", 0, 0  # -1: no context is open
    broken = None
    for line in lines:
        try:
            gram_text, text = line.split("\t")
        except ValueError:
            raise CorruptModel(f"bad n-gram line {line!r}") from None
        tokens = gram_text.split(" ")
        n = len(tokens)
        if n > order or "" in tokens:
            raise CorruptModel(f"bad n-gram {gram_text!r}")
        # fileio.parse_int's rule for a count, inline, since it runs per gram.
        try:
            count = int(text) if text.isdigit() and text.isascii() else 0
        except ValueError:  # more than the 4300 digits int() reads
            count = math.inf
        if count < 1:
            raise CorruptModel(f"count must be a positive integer in {line!r}")
        if count > _LARGEST_COUNT:
            raise CorruptModel(f"count too large for a float in {line!r}")
        key = 0
        try:
            for token in tokens:
                key = key * base + ids[token]
        except KeyError:
            fault = f"holds {UNK!r}" if UNK in tokens else "has a token with no unigram line"
            raise CorruptModel(f"n-gram {gram_text!r} {fault}") from None
        padded = key * (scales.get(n) or scales.setdefault(n, base ** (order - n)))
        if padded <= previous:
            if padded == previous:
                raise CorruptModel(f"duplicate n-gram {gram_text!r}")
            raise CorruptModel(f"n-gram {gram_text!r} out of order after n-gram {previous_text!r}")
        previous, previous_text = padded, gram_text
        counts[n - 1][key] = count
        if n == order and key // base == context:
            continued += count
        elif order > 1 and broken is None:
            if continued != total:  # the open context has all its continuations
                broken = _context_fault(context_text, total, continued)
            elif n == order - 1:
                context, context_text, continued = key, gram_text, 0
                total = 0 if tokens[-1] == END else count
            else:
                context, total, continued = -1, 0, 0
                if n == order:
                    context_text = gram_text.rpartition(" ")[0]
                    broken = (f"n-gram {gram_text!r} continues n-gram {context_text!r}, "
                              "which has no line")
    if order > 1 and broken is None and continued != total:
        broken = _context_fault(context_text, total, continued)
    if not all(counts):
        raise CorruptModel(f"some n-gram length in 1..{order} has no gram")
    quartiles = _quartiles(counts)
    derived = [len(vocab), *chain.from_iterable(quartiles.values())]
    for (key, value), expected in zip(header.items(), derived):
        if value != expected:
            raise CorruptModel(f"header line '{key}' says {value}, the counts give {expected}")
    if broken is not None:
        raise CorruptModel(broken)
    return NgramModel(order, vocab, counts, quartiles), (order, vocab, counts, quartiles)


def _context_fault(text: str, total: int, continued: int) -> str:
    """The message for context ``text``, whose continuations sum to ``continued``, not ``total``."""
    if text.rpartition(" ")[2] == END:
        return f"n-gram {text!r} ends in {END!r}, yet its continuations sum to {continued}"
    return f"n-gram {text!r} has count {total}, its continuations sum to {continued}"
