"""What a loaded model keeps: bytes retained per gram and per lexicon row.

tracemalloc counts the bytes still allocated after a load returns, so the
file text and the parse's scratch objects do not count.  The corpus is
generated from a fixed seed, with a Zipfian word choice like real text.
"""

import random
import tracemalloc

import pytest

from mtqe.lexicon import TranslationLexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

# Packed keys cost about 115 bytes per gram and per-source counts about 6
# bytes per lexicon row; tuple-keyed grams cost about 270 and scored
# entries about 135.
MAX_BYTES_PER_GRAM = 170
MAX_BYTES_PER_LEXICON_ROW = 40


def _retained(load, path):
    tracemalloc.start()
    try:
        loaded = load(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, retained


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(1)
    words = [f"w{i}" for i in range(3000)]
    weights = [1 / (rank + 1) for rank in range(len(words))]
    return [rng.choices(words, weights, k=rng.randint(5, 20)) for _ in range(2500)]


def test_lm_bytes_per_gram(corpus, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(corpus, 3).save(path)
    model, retained = _retained(load_lm, path)
    grams = sum(map(len, model.counts))
    assert grams >= 20_000
    assert retained / grams <= MAX_BYTES_PER_GRAM


def test_lexicon_bytes_per_row(corpus, tmp_path):
    rng = random.Random(2)
    sources = sorted({word for sentence in corpus for word in sentence})
    entries = {s: {f"t{j}": rng.uniform(0.2, 1.0) for j in range(rng.randint(4, 16))} for s in sources}
    path = tmp_path / "lexicon.tsv"
    TranslationLexicon(entries).save(path)
    rows = sum(map(len, entries.values()))
    lexicon, retained = _retained(load_lexicon, path)
    assert rows >= 20_000
    assert sum(lexicon.sizes.values()) == rows
    assert retained / rows <= MAX_BYTES_PER_LEXICON_ROW
