"""What a loaded model keeps, and what building a lexicon, file reads and writes and extract cost at peak.

tracemalloc counts the bytes still allocated after a load returns, so the
file text and the parse's scratch objects do not count there; its peak
counts everything held at once.  Each load is measured twice: cold, when
it parses the file and fills the model cache, and warm, when it reads the
cache entry.  The corpus is generated from a fixed seed, with a Zipfian
word choice like real text.
"""

import random
import tracemalloc

import pytest

from mtqe.cli import main
from mtqe.corpus import SentencePair
from mtqe.fileio import atomic_write_lines
from mtqe.lexicon import TranslationLexicon, build_lexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

from conftest import cache_entries, model_cache

# Packed keys cost about 75 bytes per gram and per-source counts about 6
# bytes per lexicon row; tuple-keyed grams cost about 270 and scored
# entries about 135.
MAX_BYTES_PER_GRAM = 120
MAX_BYTES_PER_LEXICON_ROW = 40
# Reading the lexicon a block at a time peaks about 30 bytes per row on
# the 20k-row file below; holding the whole file as lines peaks about 110.
MAX_PEAK_BYTES_PER_LEXICON_ROW = 60
# extract holds each pair's two decoded lines and its CSV line, and its
# peak grows about 720 bytes per pair here; a held tokenized corpus adds
# about 1.6 KB more on this corpus (2.7 KB on the benchmark's).
MAX_EXTRACT_PEAK_BYTES_PER_PAIR = 1200
# predict holds the line and the id,grade line of each row, and its peak
# grows about 420 bytes per row here; holding every parsed row first, as
# read_features returns them, peaks about 660.
MAX_PREDICT_PEAK_BYTES_PER_ROW = 450
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


def _cold_and_warm(load, path, cache):
    """``_traced(load, path)`` with an empty model cache, then with the entry it stored."""
    with model_cache(cache):
        cold = _traced(load, path)
        assert cache_entries(cache)
        return cold, _traced(load, path)


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
    for model, retained, _ in _cold_and_warm(load_lm, path, tmp_path / "xdg"):
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


def test_lexicon_bytes_per_row(lexicon_file, tmp_path):
    path, rows = lexicon_file
    for lexicon, retained, _ in _cold_and_warm(load_lexicon, path, tmp_path / "xdg"):
        assert sum(lexicon.sizes.values()) == rows
        assert retained / rows <= MAX_BYTES_PER_LEXICON_ROW


def test_lexicon_load_peak_per_row(lexicon_file, tmp_path):
    path, rows = lexicon_file
    for _, _, peak in _cold_and_warm(load_lexicon, path, tmp_path / "xdg"):
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
        if not peaks:
            # Both traced runs read the models from the cache: a cold load in
            # one and a warm one in the other would hide the growth per pair.
            assert main(argv) == 0
        code, _, peaks[pairs] = _traced(main, argv)
        assert code == 0
    assert (peaks[4 * n] - peaks[n]) / (3 * n) <= MAX_EXTRACT_PEAK_BYTES_PER_PAIR


def test_predict_peak_grows_little_per_row(corpus, tmp_path):
    # A model trained on the features of 200 judged pairs grades the
    # features of N and 4N more pairs, each a sentence and its reverse.
    header = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])
    train = [SentencePair(i, tuple(s), tuple(reversed(s))) for i, s in enumerate(corpus[:200])]
    train_lm([pair.source for pair in train], 3).save(tmp_path / "src.lm")
    train_lm([pair.target for pair in train], 3).save(tmp_path / "tgt.lm")
    build_lexicon(train).save(tmp_path / "lexicon.tsv")
    peaks = {}
    n = 250
    for start, pairs in ((0, 200), (200, n), (200, 4 * n)):
        sentences = corpus[start : start + pairs]
        _write_lines(tmp_path / "src.txt", [" ".join(s) for s in sentences])
        _write_lines(tmp_path / "tgt.txt", [" ".join(reversed(s)) for s in sentences])
        _write_lines(tmp_path / "j.tsv", [header] + [
            "\t".join([str(i)] + [str((i + j) % 5) for j in range(10)]) for i in range(pairs)
        ])
        assert main([str(item) for item in (
            "extract", "--pairs-src", tmp_path / "src.txt", "--pairs-tgt", tmp_path / "tgt.txt",
            "--src-lm", tmp_path / "src.lm", "--tgt-lm", tmp_path / "tgt.lm",
            "--lexicon", tmp_path / "lexicon.tsv", "--judgments", tmp_path / "j.tsv",
            "--out", tmp_path / "features.csv",
        )]) == 0
        if start == 0:
            assert main(["train", "--features", str(tmp_path / "features.csv"),
                         "--out", str(tmp_path / "nb.model")]) == 0
            continue
        code, _, peaks[pairs] = _traced(main, [
            "predict", "--model", str(tmp_path / "nb.model"),
            "--features", str(tmp_path / "features.csv"), "--out", str(tmp_path / "pred.csv"),
        ])
        assert code == 0
    assert (peaks[4 * n] - peaks[n]) / (3 * n) <= MAX_PREDICT_PEAK_BYTES_PER_ROW
