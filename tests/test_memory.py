"""What a loaded model keeps, and what building a lexicon, file reads and writes and extract cost at peak.

tracemalloc counts the bytes still allocated after a load returns, so the
file text and the parse's scratch objects do not count there; its peak
counts everything held at once.  The corpus is generated from a fixed
seed, with a Zipfian word choice like real text.
"""

import random
import tracemalloc

import pytest

from mtqe.cli import main
from mtqe.corpus import SentencePair
from mtqe.fileio import atomic_write_lines
from mtqe.lexicon import TranslationLexicon, build_lexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

# Packed keys cost about 115 bytes per gram and per-source counts about 6
# bytes per lexicon row; tuple-keyed grams cost about 270 and scored
# entries about 135.
MAX_BYTES_PER_GRAM = 170
MAX_BYTES_PER_LEXICON_ROW = 40
# Reading the lexicon a block at a time peaks about 30 bytes per row on
# the 20k-row file below; holding the whole file as lines peaks about 110.
MAX_PEAK_BYTES_PER_LEXICON_ROW = 60
# Streaming extract holds a row and its CSV line per pair, about 800
# bytes; a held tokenized corpus adds about 1.6 KB more on this corpus
# (2.7 KB on the benchmark's).
MAX_EXTRACT_PEAK_BYTES_PER_PAIR = 1200
# Writing the 200k lines below (a 3.6 MB file) joins and encodes a chunk
# of lines at a time, about 0.2 MB at peak; joining them all at once peaks
# about twice the file, 7.1 MB.
MAX_WRITE_PEAK_BYTES = 1 << 20
# Counting one source word's targets at a time peaks about 1.4 KB per pair
# on the pairs below; counting every (source, target) tuple at once peaks
# about 3.4 KB.
MAX_LEXICON_BUILD_PEAK_BYTES_PER_PAIR = 2048
# Saving a model a chunk of lines at a time peaks about twice the lexicon
# file and 4.5 times the language-model file below (most of it the sorted
# gram keys); holding every line first peaks about 4.1 and 6.0 times.
MAX_LEXICON_SAVE_PEAK_PER_FILE_BYTE = 3
MAX_LM_SAVE_PEAK_PER_FILE_BYTE = 5


def _traced(call, *args):
    """``call(*args)``, the bytes still allocated after it, and the peak during it."""
    tracemalloc.start()
    try:
        result = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(1)
    words = [f"w{i}" for i in range(3000)]
    weights = [1 / (rank + 1) for rank in range(len(words))]
    return [rng.choices(words, weights, k=rng.randint(5, 20)) for _ in range(2500)]


@pytest.fixture(scope="module")
def pairs(corpus):
    """Each sentence paired with the next, so the two sides share words."""
    return tuple(
        SentencePair(i, tuple(s), tuple(corpus[(i + 1) % len(corpus)])) for i, s in enumerate(corpus)
    )


def test_lm_save_peak_per_file_byte(corpus, tmp_path):
    path = tmp_path / "m.lm"
    _, _, peak = _traced(train_lm(corpus, 3).save, path)
    assert peak / path.stat().st_size <= MAX_LM_SAVE_PEAK_PER_FILE_BYTE


def test_lexicon_build_peak_per_pair(pairs):
    _, _, peak = _traced(build_lexicon, pairs)
    assert peak / len(pairs) <= MAX_LEXICON_BUILD_PEAK_BYTES_PER_PAIR


def test_lexicon_save_peak_per_file_byte(pairs, tmp_path):
    path = tmp_path / "lexicon.tsv"
    _, _, peak = _traced(build_lexicon(pairs).save, path)
    assert peak / path.stat().st_size <= MAX_LEXICON_SAVE_PEAK_PER_FILE_BYTE


def test_lm_bytes_per_gram(corpus, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(corpus, 3).save(path)
    model, retained, _ = _traced(load_lm, path)
    grams = sum(map(len, model.counts))
    assert grams >= 20_000
    assert retained / grams <= MAX_BYTES_PER_GRAM


@pytest.fixture(scope="module")
def lexicon_file(corpus, tmp_path_factory):
    """A saved lexicon of at least 20k rows, and its row count."""
    rng = random.Random(2)
    sources = sorted({word for sentence in corpus for word in sentence})
    entries = {s: {f"t{j}": rng.uniform(0.2, 1.0) for j in range(rng.randint(4, 16))} for s in sources}
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tsv"
    TranslationLexicon(entries).save(path)
    rows = sum(map(len, entries.values()))
    assert rows >= 20_000
    return path, rows


def test_lexicon_bytes_per_row(lexicon_file):
    path, rows = lexicon_file
    lexicon, retained, _ = _traced(load_lexicon, path)
    assert sum(lexicon.sizes.values()) == rows
    assert retained / rows <= MAX_BYTES_PER_LEXICON_ROW


def test_lexicon_load_peak_per_row(lexicon_file):
    path, rows = lexicon_file
    _, _, peak = _traced(load_lexicon, path)
    assert peak / rows <= MAX_PEAK_BYTES_PER_LEXICON_ROW


def test_write_peak_is_bounded(tmp_path):
    lines = [f"w{i} w{i + 7}\t{i % 97}" for i in range(200_000)]
    _, _, peak = _traced(atomic_write_lines, tmp_path / "out.txt", lines)
    assert peak <= MAX_WRITE_PEAK_BYTES


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_extract_peak_grows_little_per_pair(corpus, tmp_path):
    # Models from the first 200 sentences, each paired with a reversed
    # copy; extract then reads N and 4N pairs drawn from the same words.
    train = [SentencePair(i, tuple(s), tuple(reversed(s))) for i, s in enumerate(corpus[:200])]
    train_lm([pair.source for pair in train], 3).save(tmp_path / "src.lm")
    train_lm([pair.target for pair in train], 3).save(tmp_path / "tgt.lm")
    build_lexicon(train).save(tmp_path / "lexicon.tsv")
    argv = [str(item) for item in (
        "extract", "--pairs-src", tmp_path / "src.txt", "--pairs-tgt", tmp_path / "tgt.txt",
        "--src-lm", tmp_path / "src.lm", "--tgt-lm", tmp_path / "tgt.lm",
        "--lexicon", tmp_path / "lexicon.tsv", "--out", tmp_path / "features.csv",
    )]
    peaks = {}
    n = 250
    for pairs in (n, 4 * n):
        sentences = corpus[200 : 200 + pairs]
        _write_lines(tmp_path / "src.txt", [" ".join(s) for s in sentences])
        _write_lines(tmp_path / "tgt.txt", [" ".join(reversed(s)) for s in sentences])
        code, _, peaks[pairs] = _traced(main, argv)
        assert code == 0
    assert (peaks[4 * n] - peaks[n]) / (3 * n) <= MAX_EXTRACT_PEAK_BYTES_PER_PAIR
