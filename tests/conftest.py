import math
import os
import random
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st

from mtqe import workers
from mtqe.cli import main as cli_main
from mtqe.corpus import SOURCE, ParallelCorpus, SentencePair, is_punctuation_char
from mtqe.feature_csv import N_FEATURES
from mtqe.fileio import read_lines
from mtqe.lexicon import TranslationLexicon
from mtqe.ngram import BOS, END, UNK

EN_WORDS = [
    "the", "a", "boy", "girl", "house", "river", "runs", "walks", "sees",
    "small", "big", "red", "blue", "dog", "cat", "tree", "road", "bird",
    "sings", "water", "sun", "moon", "old", "new", "man", "woman", "child",
    "reads", "book", "fast", "slow", "happy", "green", "tall", "eats",
    "bread", "milk", "night", "day", "song",
]

HI_WORDS = [
    "लड़का", "लड़की", "घर", "नदी", "दौड़ता", "चलता", "देखता", "छोटा", "बड़ा",
    "लाल", "नीला", "कुत्ता", "बिल्ली", "पेड़", "सड़क", "चिड़िया", "गाती",
    "पानी", "सूरज", "चाँद", "पुराना", "नया", "आदमी", "औरत", "बच्चा",
    "पढ़ता", "किताब", "तेज़", "धीमा", "खुश", "हरा", "लंबा", "खाता",
    "रोटी", "दूध", "रात", "दिन", "गीत", "वह", "है",
]

# (share of pairs, source-length range, judgment-sum range); the judgment
# sums land in the four grade bands, so sentence length predicts the grade.
TOY_BANDS = [
    (0.20, (3, 5), (3, 10)),
    (0.35, (7, 9), (11, 20)),
    (0.25, (11, 13), (21, 30)),
    (0.20, (15, 18), (31, 40)),
]


def index_windows(tokens, n):
    """Length-n windows by index, the reference for ``ngrams``."""
    tokens = list(tokens)
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def reference_counts(sentences, order):
    """Every 1..order window of every padded sentence, counted one by one."""
    counts = {}
    for sentence in sentences:
        padded = [BOS] * (order - 1) + list(sentence) + [END]
        for n in range(1, order + 1):
            for gram in index_windows(padded, n):
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def reference_quartiles(counts, order):
    """Nearest-rank Q1 and Q3 of each order's type frequencies, one pass per order.

    The p-th percentile of N sorted values is the one at 1-based rank
    ceil(p * N / 100), here in integer arithmetic.
    """
    quartiles = {}
    for n in range(1, order + 1):
        frequencies = sorted(c for gram, c in counts.items() if len(gram) == n)
        ranks = (max(1, -(-p * len(frequencies) // 100)) for p in (25, 75))
        quartiles[n] = tuple(frequencies[rank - 1] for rank in ranks)
    return quartiles


def reference_context_totals(counts, order):
    """sum_w counts[ctx + (w,)] for every full-order context, summed in a Counter."""
    totals = Counter()
    for gram, count in counts.items():
        if len(gram) == order:
            totals[gram[:-1]] += count
    return dict(totals)


@dataclass(frozen=True)
class TupleLM:
    """An n-gram model keyed by token tuples, the layout the references read."""

    order: int
    vocab: frozenset
    counts: dict  # {gram tuple: occurrences}
    quartiles: dict  # {n: (q1, q3)}


def decode_lm(model):
    """``model`` as a TupleLM: every packed key read back as its token tuple.

    ``model.counts[n - 1]`` holds the length-n grams, each key the token
    ids in base len(vocab) + 1, first token most significant; the key 0 is
    the empty tuple.
    """
    words = {i: token for token, i in model.vocab.items()}
    base = len(model.vocab) + 1

    def decode(key):
        tokens = []
        while key:
            key, digit = divmod(key, base)
            tokens.append(words[digit])
        return tuple(reversed(tokens))

    return TupleLM(
        model.order,
        frozenset(model.vocab),
        {decode(key): count for grams in model.counts for key, count in grams.items()},
        dict(model.quartiles),
    )


def reference_lm(sentences, order):
    """The TupleLM of the reference counts and quartiles."""
    counts = reference_counts(sentences, order)
    vocab = frozenset({gram[0] for gram in counts if len(gram) == 1} | {UNK, BOS, END})
    return TupleLM(order, vocab, counts, reference_quartiles(counts, order))


def save_reference_lm(lm, path):
    """Write a TupleLM in the LM file format, grams in token-tuple order."""
    lines = ["mtqe-ngram-lm\t1", f"order\t{lm.order}", f"vocab_size\t{len(lm.vocab)}"]
    for n in range(1, lm.order + 1):
        lines += [f"q1_{n}\t{lm.quartiles[n][0]}", f"q3_{n}\t{lm.quartiles[n][1]}"]
    lines.append(f"ngrams\t{len(lm.counts)}")
    lines += [" ".join(gram) + f"\t{lm.counts[gram]}" for gram in sorted(lm.counts)]
    lines.append("end")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_order_fault(gram_lines, order):
    """The message for the first of a model's ``gram_lines`` out of token-tuple order, or None.

    The reference for ``load_lm``'s order check, by integer keys: each
    gram's ids (1.. in code-point order, as ``load_lm`` assigns them) are
    read as digits in base |V| + 1 and padded with zero digits to
    ``order`` digits, and the padded keys must rise strictly.
    """
    grams = [line.split("\t")[0] for line in gram_lines]
    vocab = sorted({gram for gram in grams if " " not in gram} | {UNK, BOS, END})
    ids = {token: i for i, token in enumerate(vocab, start=1)}
    base = len(ids) + 1
    previous, previous_gram = 0, None  # below every padded key
    for gram in grams:
        tokens = gram.split(" ")
        key = 0
        for token in tokens:
            key = key * base + ids[token]
        padded = key * base ** (order - len(tokens))
        if padded == previous:
            return f"duplicate n-gram {gram!r}"
        if padded < previous:
            return f"n-gram {gram!r} out of order after n-gram {previous_gram!r}"
        previous, previous_gram = padded, gram
    return None


def with_unk_grams(lm):
    """An order-3 TupleLM plus three grams no training run counts, its derived facts to match.

    The grams are ``<s> <s> <unk>``, ``<s> <unk>`` and ``<unk>``, 7 times
    each.  ``<unk>`` is in every vocabulary, so ``vocab_size`` matches too.
    """
    counts = {**lm.counts, (BOS, BOS, UNK): 7, (BOS, UNK): 7, (UNK,): 7}
    return TupleLM(lm.order, lm.vocab, counts, reference_quartiles(counts, lm.order))


def reference_cond_prob(lm, word, context=()):
    """Add-one P(word | context) of a TupleLM, its total summed from ``lm.counts``.

    Tokens outside the vocabulary map to UNK, in the word and the context.
    """
    vocab = lm.vocab
    context = tuple(t if t in vocab else UNK for t in context)
    word = word if word in vocab else UNK
    total = sum(lm.counts.get(context + (w,), 0) for w in vocab)
    return (lm.counts.get(context + (word,), 0) + 1) / (total + len(vocab))


def reference_sentence_log_prob(lm, sentence):
    """ln reference_cond_prob summed in position order over the padded sentence."""
    padded = [BOS] * (lm.order - 1) + list(sentence) + [END]
    total = 0.0
    positions = 0
    for i in range(lm.order - 1, len(padded)):
        total += math.log(reference_cond_prob(lm, padded[i], padded[i - lm.order + 1 : i]))
        positions += 1
    return total / positions


def reference_band_counts(lm, tokens, n):
    """Low (<= Q1) and High (> Q3) tallies, applied gram by gram."""
    q1, q3 = lm.quartiles[n]
    frequencies = [lm.counts.get(gram, 0) for gram in index_windows(tokens, n)]
    return sum(f <= q1 for f in frequencies), sum(f > q3 for f in frequencies)


def reference_seen_fraction(lm, tokens, n):
    """The share of the length-n windows that ``lm.counts`` holds (0 for none)."""
    grams = index_windows(tokens, n)
    return sum(gram in lm.counts for gram in grams) / len(grams) if grams else 0.0


def reference_low_high_pct(reference, tokens, n):
    """f8-f13's arithmetic on the tuple-keyed band tallies of the length-n windows."""
    windows = len(tokens) - n + 1
    if windows <= 0:
        return 0.0, 0.0
    low, high = reference_band_counts(reference, tokens, n)
    low_pct = 100.0 * low / windows
    return low_pct, (100.0 - low_pct if low + high == windows else 100.0 * high / windows)


def reference_punctuation(tokens):
    """f15/f16: tokens whose every character is in a Unicode P category or is a danda."""
    return sum(
        all(unicodedata.category(ch).startswith("P") or ch in "।॥" for ch in token)
        for token in tokens
    )


def reference_tokenize(text, side):
    """The tokens of ``text``, each chunk's punctuation peeled off by copying the chunk.

    The reference for ``tokenize``: a chunk loses its first character, then
    its last, one copy at a time, while that character is punctuation.
    """
    if side == SOURCE:
        text = text.lower()
    tokens = []
    for chunk in text.split():
        head = []
        while chunk and is_punctuation_char(chunk[0]):
            head.append(chunk[0])
            chunk = chunk[1:]
        tail = []
        while chunk and is_punctuation_char(chunk[-1]):
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tail.reverse()
        if chunk:
            head.append(chunk)
        tokens += head + tail
    return tokens


def reference_vector(src_lm, tgt_lm, sizes, source, target):
    """f1-f16 as the README defines them, on tuple-keyed models and lexicon counts."""
    n_src, n_tgt = len(source), len(target)
    uni, bi, tri = (reference_low_high_pct(src_lm, source, n) for n in (1, 2, 3))
    return [
        n_src,
        n_tgt,
        sum(len(token) for token in source) / n_src if n_src else 0.0,
        reference_sentence_log_prob(src_lm, source),
        reference_sentence_log_prob(tgt_lm, target),
        n_tgt / len(set(target)) if n_tgt else 0.0,
        sum(sizes.get(token, 0) for token in source) / n_src if n_src else 0.0,
        *uni,
        *bi,
        tri[1],
        tri[0],
        100.0 * reference_seen_fraction(src_lm, source, 1),
        reference_punctuation(source),
        reference_punctuation(target),
    ]


def reference_percentage(same, total):
    """``same`` of ``total`` as a percentage with two decimals, Fraction rounding half-even."""
    hundredths = round(Fraction(10000 * same, total))
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def reference_log_joint(model, x):
    """Every class's score with each term computed per row, in term order."""
    values = tuple(float(v) for v in x)
    scores = {}
    for y in model.classes:
        mean = model.means[y]
        var = model.variances[y]
        total = math.log(model.priors[y])
        for i in range(N_FEATURES):
            diff = values[i] - mean[i]
            total -= 0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(var[i])
            total -= (diff * diff) / (2.0 * var[i])
        scores[y] = total
    return scores


# Any text a cell may hold: no separator, no LF and no lone surrogate.
CELL_WORDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=" \t\n"),
                     min_size=1, max_size=4)
# Any word train_lm accepts: the markers <unk>, <s> and </s> are reserved.
TRAINING_WORDS = CELL_WORDS.filter(lambda word: word not in (UNK, BOS, END))


def model_cache(directory):
    """Point the model cache at ``directory`` while the context lasts."""
    return mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(directory)})


def cache_entries(directory):
    """The entries of the model cache under ``directory``, by name."""
    found = Path(directory) / "mtqe"
    return sorted(found.iterdir()) if found.exists() else []


@pytest.fixture(scope="session", autouse=True)
def isolated_model_cache(tmp_path_factory):
    """No test reads or fills the user's model cache: it lives in a temporary directory.

    The fixture is session-scoped, so hypothesis tests see no function-scoped one.
    """
    with model_cache(tmp_path_factory.mktemp("xdg-cache")):
        yield


# Tokens the file format allows: the reserved markers spelled as corpus
# tokens, control characters, and a token extending another.  "z" is not
# among them, so a query holding "z" holds a token outside the vocabulary.
SPECIAL_TOKENS = ["a", "b", "c", UNK, BOS, END, "\x00", "\x1f", "a\x00", "\r", "\x85"]
# train_lm rejects the markers, so a training corpus draws from the rest.
TRAINING_TOKENS = [token for token in SPECIAL_TOKENS if token not in (UNK, BOS, END)]


def read_lexicon_entries(path):
    """Every row of a lexicon TSV, scores included, as a TranslationLexicon."""
    entries = {}
    for line in read_lines(path):
        source, target, score = line.split("\t")
        entries.setdefault(source, {})[target] = float(score)
    return TranslationLexicon(entries)


def brute_force_lexicon(corpus, threshold):
    """Dice of every source-target word pair in every sentence pair, unpruned."""
    cooccurrence = Counter()
    source_sentences = Counter()
    target_sentences = Counter()
    for pair in corpus:
        source_set = set(pair.source)
        target_set = set(pair.target)
        for s in source_set:
            source_sentences[s] += 1
        for t in target_set:
            target_sentences[t] += 1
        for s in source_set:
            for t in target_set:
                cooccurrence[(s, t)] += 1
    entries = {}
    for (s, t), count in cooccurrence.items():
        dice = 2 * count / (source_sentences[s] + target_sentences[t])
        if dice >= threshold:
            entries.setdefault(s, {})[t] = dice
    return TranslationLexicon(entries)


def make_corpus(source_sentences, target_sentences):
    """Build a ParallelCorpus from already-tokenized sentences."""
    pairs = tuple(
        SentencePair(i, tuple(s), tuple(t))
        for i, (s, t) in enumerate(zip(source_sentences, target_sentences))
    )
    return ParallelCorpus(pairs)


def _spread_params(total, rng):
    # Ten cells, each 0..4, summing exactly to total.
    base, extra = divmod(total, 10)
    params = [base + 1] * extra + [base] * (10 - extra)
    rng.shuffle(params)
    return params


def write_toy_dataset(directory, n_pairs=200, seed=0):
    """Write src.txt, tgt.txt, and judgments.tsv for a synthetic corpus.

    Quality correlates with sentence length, so a classifier trained on the
    extracted features can recover the grades.
    """
    rng = random.Random(seed)
    allocation = []
    for band, (share, lengths, sums) in enumerate(TOY_BANDS):
        count = round(share * n_pairs)
        if band == len(TOY_BANDS) - 1:
            count = n_pairs - len(allocation)
        allocation.extend([(lengths, sums)] * count)
    rng.shuffle(allocation)

    src_lines = []
    tgt_lines = []
    judgment_rows = []
    for i, (lengths, sums) in enumerate(allocation):
        n_src = rng.randint(*lengths)
        source = rng.choices(EN_WORDS, k=n_src) + ["."]
        n_tgt = max(1, n_src + rng.randint(-1, 1))
        target = rng.choices(HI_WORDS, k=n_tgt) + ["।"]
        src_lines.append(" ".join(source))
        tgt_lines.append(" ".join(target))
        params = _spread_params(rng.randint(*sums), rng)
        judgment_rows.append("\t".join([str(i)] + [str(p) for p in params]))

    paths = {
        "src": directory / "src.txt",
        "tgt": directory / "tgt.txt",
        "judgments": directory / "judgments.tsv",
    }
    paths["src"].write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    paths["tgt"].write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    header = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])
    paths["judgments"].write_text(
        "\n".join([header] + judgment_rows) + "\n", encoding="utf-8"
    )
    return paths


def run_cli(*argv):
    """Invoke the CLI in-process, returning its exit code."""
    try:
        return cli_main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


@contextmanager
def forced_workers(n):
    """Make ``extract`` and ``predict`` split an input of at least ``n`` rows over ``n`` processes.

    While the context lasts, every row is worth a worker, and the host has
    ``n`` usable CPUs; the other conditions for a fork still hold.
    """
    with mock.patch.object(workers, "_ROWS_PER_WORKER", 1), \
            mock.patch.object(workers, "_usable_cpus", return_value=n):
        yield


def one_row_short_in_child():
    """run_in_workers, except that a forked worker's slice drops its last row.

    ``extract`` and ``predict`` import run_in_workers when they run, so the
    patch reaches both stages' work functions.
    """
    real = workers.run_in_workers

    def patched(stage, work, total):
        parent = os.getpid()

        def short(start, stop):
            rows = work(start, stop)
            return rows if os.getpid() == parent else rows[:-1]

        return real(stage, short, total)

    return mock.patch.object(workers, "run_in_workers", patched)


@contextmanager
def logged_opens(log):
    """Append the path of every file ``open`` opens to ``log``, in any process, while it lasts.

    A forked worker inherits the patch, and each entry is one short append,
    so the log holds the opens of the parent and of every worker.
    """
    real = open

    def logged(file, *args, **kwargs):
        with real(log, "a", encoding="utf-8") as handle:
            handle.write(f"{file}\n")
        return real(file, *args, **kwargs)

    with mock.patch("builtins.open", logged):
        yield


def run_toy_pipeline(data_dir, out_dir, n_pairs=200, seed=0):
    """Drive every CLI stage on a toy dataset; returns (paths, exit codes)."""
    data = write_toy_dataset(data_dir, n_pairs=n_pairs, seed=seed)
    out = {
        "src_lm": out_dir / "src.lm",
        "tgt_lm": out_dir / "tgt.lm",
        "lexicon": out_dir / "lexicon.tsv",
        "features": out_dir / "features.csv",
        "model": out_dir / "nb.model",
        "predictions": out_dir / "predictions.csv",
        "report": out_dir / "report.csv",
    }
    codes = [
        run_cli("build-lm", "--corpus", data["src"], "--side", "source",
                "--order", "3", "--out", out["src_lm"]),
        run_cli("build-lm", "--corpus", data["tgt"], "--side", "target",
                "--order", "3", "--out", out["tgt_lm"]),
        run_cli("build-lexicon", "--pairs-src", data["src"], "--pairs-tgt",
                data["tgt"], "--out", out["lexicon"]),
        run_cli("extract", "--pairs-src", data["src"], "--pairs-tgt", data["tgt"],
                "--src-lm", out["src_lm"], "--tgt-lm", out["tgt_lm"],
                "--lexicon", out["lexicon"], "--judgments", data["judgments"],
                "--out", out["features"]),
        run_cli("train", "--features", out["features"], "--out", out["model"]),
        run_cli("predict", "--model", out["model"], "--features", out["features"],
                "--out", out["predictions"]),
        run_cli("evaluate", "--human", out["features"], "--predicted",
                out["predictions"], "--out", out["report"]),
    ]
    return {**data, **out}, codes


@pytest.fixture
def toy_models(tmp_path):
    """Small trained models and a lexicon for feature tests."""
    from mtqe.lexicon import build_lexicon
    from mtqe.ngram import train_lm

    rng = random.Random(11)
    src_sents = [rng.choices(EN_WORDS[:20], k=rng.randint(2, 8)) + ["."] for _ in range(30)]
    tgt_sents = [rng.choices(HI_WORDS[:20], k=rng.randint(2, 8)) + ["।"] for _ in range(30)]
    corpus = make_corpus(src_sents, tgt_sents)
    return {
        "corpus": corpus,
        "src_lm": train_lm(src_sents, 3),
        "tgt_lm": train_lm(tgt_sents, 3),
        "lexicon": build_lexicon(corpus, 0.2),
    }
