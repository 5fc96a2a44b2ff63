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

from .corpus import BOS, END, UNK
from .errors import CorruptModel, EmptyCorpus
from .fileio import header_int, load_cached, not_rising, read_model_lines, write_model_lines

_MAGIC = "mtqe-ngram-lm"
_FORMAT_VERSION = 1
_LARGEST_COUNT = int(math.nextafter(math.inf, 0))  # the largest float; queries divide counts
# What splits a model file: its lines, each gram line's gram from its
# count, and a gram's tokens.  No token may hold one.
_SEPARATORS = frozenset("\n\t ")


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
    sum_w counts[context + (w,)].  Every window of a gram shorter than
    ``order`` continues unless it ends a padded sentence, which only
    ``</s>`` does.  So the continuations of such a gram sum to its own
    count, or to 0 when it ends in ``</s>``: the total of a context is its
    (order - 1)-gram's count, and for order 1, where the context is empty,
    the sum of the unigram counts.  ``load_lm`` refuses a file whose counts
    break this rule at any length.

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
            yield f"{_text(key, base, words)}\t{counts[bisect_right(bounds, key)][key]}"


def _text(key: int, base: int, words) -> str:
    """Packed gram ``key`` as its line writes it, ``words[id]`` being the token of each id."""
    tokens = []
    while key:
        key, digit = divmod(key, base)
        tokens.append(words[digit])
    tokens.reverse()
    return " ".join(tokens)


def train_lm(sentences, order: int = 3) -> NgramModel:
    """Count all 1..order grams over padded sentences.

    Args:
        sentences: sequence of token sequences for one corpus side.
        order: highest n-gram length (>= 1).

    Raises:
        EmptyCorpus: when no sentences are given.
        ValueError: when a token is one of the markers UNK, BOS and END,
            or is one that no model file can hold: empty, or holding a
            space, a tab or a line feed.
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
    unfit = [token for token in tokens if not token or _SEPARATORS.intersection(token)]
    if unfit:
        raise ValueError(f"token {min(unfit)!r} is empty or holds a space, tab or line feed")
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
    counts that break the count rule of :class:`NgramModel`, naming the
    first faulty gram of the longest length that has one, at order >= 2 a
    ``<s>`` unigram count other than (order - 1) times the ``</s>`` count (a
    marker with no line counts 0), and, last, at any order, a file with no
    ``</s>`` line, which counts no sentence.
    A file is parsed once per content: the model cache keeps the ``(order,
    vocab, counts, quartiles)`` the parse returns, and the model is built
    from them, parsed or cached (see :func:`~mtqe.fileio.load_cached`).
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


def _parse(lines) -> tuple:
    """The payload ``(order, vocab, counts, quartiles)`` a model file's ``lines`` give, checked."""
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
    # Lists of str compare in code-point order, a prefix before its
    # extensions, and ids are code-point ranks: token lists compare in
    # token-tuple order, the order save writes, so they must rise strictly.
    previous = []  # below every gram's tokens
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
        if tokens <= previous:
            raise CorruptModel(not_rising(f"n-gram {gram_text!r}",
                                          f"n-gram {' '.join(previous)!r}"))
        previous = tokens
        counts[n - 1][key] = count
    if not all(counts):
        raise CorruptModel(f"some n-gram length in 1..{order} has no gram")
    quartiles = _quartiles(counts)
    derived = [len(vocab), *chain.from_iterable(quartiles.values())]
    for (key, value), expected in zip(header.items(), derived):
        if value != expected:
            raise CorruptModel(f"header line '{key}' says {value}, the counts give {expected}")
    # The count rule of NgramModel, at each length from order - 1 down to 1:
    # the counts of a gram's continuations, the one-longer grams whose
    # context (``key // base``) it is, sum to its count, or to 0 when it ends
    # in END.  Keys of one length rise in token-tuple order, so the least
    # faulty key is the first in the file.
    end = vocab[END]
    for grams, longer in zip(counts[-2::-1], counts[:0:-1]):
        sums = dict.fromkeys(grams, 0)
        for key, count in longer.items():
            context = key // base
            sums[context] = sums.get(context, 0) + count
        faulty = [key for key, total in sums.items()
                  if total != (0 if key % base == end else grams.get(key))]
        if faulty:
            key = min(faulty)
            words = ["", *vocab]
            text = _text(key, base, words)
            if key not in grams:
                first = _text(min(gram for gram in longer if gram // base == key), base, words)
                raise CorruptModel(f"n-gram {first!r} continues n-gram {text!r}, which has no line")
            if key % base == end:
                raise CorruptModel(
                    f"n-gram {text!r} ends in {END!r}, yet its continuations sum to {sums[key]}")
            raise CorruptModel(
                f"n-gram {text!r} has count {grams[key]}, its continuations sum to {sums[key]}")
    # Each sentence is begun by order - 1 BOS and ended by one END, which
    # continues no gram, so the rule above cannot reach its count.
    ends = counts[0].get(end, 0)
    begins = counts[0].get(vocab[BOS], 0)
    if order > 1 and begins != (order - 1) * ends:
        raise CorruptModel(
            f"n-gram {END!r} has count {ends}, yet n-gram {BOS!r} has count {begins}, "
            f"not {order - 1} times that")
    # train_lm counts at least one sentence, so at least one END.
    if not ends:
        raise CorruptModel(f"n-gram {END!r} has no line, so the model counts no sentence")
    return order, vocab, counts, quartiles
