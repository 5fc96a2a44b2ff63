import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe.errors import CorruptModel, EmptyCorpus, VersionMismatch
from mtqe.ngram import (
    BOS,
    END,
    UNK,
    FreqClass,
    _nearest_rank,
    load_lm,
    ngrams,
    train_lm,
)

_sentences = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
    min_size=1,
    max_size=10,
)
# Query sentences: seen words, an unseen word and the reserved markers.
_queries = st.lists(st.sampled_from(["a", "b", "c", "z", BOS, END, UNK]), max_size=8)


def _reference_sentence_log_prob(model, sentence):
    """ln cond_prob summed in position order over the padded sentence."""
    padded = [BOS] * (model.order - 1) + list(sentence) + [END]
    total = 0.0
    positions = 0
    for i in range(model.order - 1, len(padded)):
        total += math.log(model.cond_prob(padded[i], padded[i - model.order + 1 : i]))
        positions += 1
    return total / positions


def _reference_band_counts(model, sentence, n):
    bands = [model.freq_class(gram) for gram in ngrams(sentence, n)]
    return bands.count(FreqClass.LOW), bands.count(FreqClass.HIGH)


class TestTraining:
    def test_unigram_counts_include_end_marker(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=1)
        expected = {("a",): 2, ("b",): 1, ("c",): 1, (END,): 2}
        assert model.counts == expected
        assert model.vocab == {"a", "b", "c", UNK, BOS, END}

    def test_order3_pads_with_bos(self):
        model = train_lm([["a", "b"]], order=3)
        assert model.counts[(BOS, BOS, "a")] == 1
        assert model.counts[(BOS, "a", "b")] == 1
        assert model.counts[("a", "b", END)] == 1
        assert model.counts[(BOS,)] == 2

    def test_degenerate_quartiles(self):
        model = train_lm([["x", "y"]], order=1)
        q1, q3 = model.quartiles[1]
        assert q1 == q3 == 1
        assert model.freq_class(("x",)) is FreqClass.LOW
        assert model.freq_class(("y",)) is not FreqClass.HIGH

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_lm([], order=2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            train_lm([["a"]], order=0)


class TestCondProb:
    def test_laplace_estimate(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=1)
        assert len(model.vocab) == 6
        assert model.cond_prob("a") == (2 + 1) / (6 + 6)

    def test_unseen_word_maps_to_unk(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=1)
        assert model.cond_prob("z") == (0 + 1) / (6 + 6)
        assert model.cond_prob("z") == model.cond_prob(UNK)

    def test_normalizes_over_vocab(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=1)
        assert sum(model.cond_prob(w) for w in model.vocab) == pytest.approx(1.0, abs=1e-9)

    def test_context_too_long(self):
        model = train_lm([["a", "b"]], order=2)
        with pytest.raises(ValueError):
            model.cond_prob("a", ("a", "b"))

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=3))
    def test_normalization_for_every_stored_context(self, sentences, order):
        model = train_lm(sentences, order)
        contexts = {()} | {g for g in model.counts if len(g) < order}
        for context in contexts:
            total = sum(model.cond_prob(w, context) for w in model.vocab)
            assert abs(total - 1.0) <= 1e-9

    def test_monotone_in_event_count(self):
        base = [["a", "b"], ["a", "c"], ["b", "c"]]
        before = train_lm(base, 2).cond_prob("b", ("a",))
        after = train_lm(base + [["a", "b"]], 2).cond_prob("b", ("a",))
        assert after >= before


class TestSentenceLogProb:
    def test_constant_chain_equals_log_p(self):
        # One one-token sentence: P(a) = P(END) = 2/6, so the mean is ln(1/3).
        model = train_lm([["a"]], order=1)
        assert model.cond_prob("a") == model.cond_prob(END) == pytest.approx(1 / 3)
        assert model.sentence_log_prob(["a"]) == math.log(model.cond_prob("a"))

    def test_matches_explicit_chain_rule_product(self):
        rng = random.Random(3)
        corpus = [[rng.choice("abcd") for _ in range(rng.randint(1, 6))] for _ in range(12)]
        model = train_lm(corpus, 3)
        for _ in range(25):
            sentence = [rng.choice("abcdz") for _ in range(rng.randint(0, 7))]
            padded = [BOS, BOS] + sentence + [END]
            product = 1.0
            positions = 0
            for i in range(2, len(padded)):
                product *= model.cond_prob(padded[i], tuple(padded[i - 2 : i]))
                positions += 1
            oracle = math.log(product) / positions
            assert model.sentence_log_prob(sentence) == pytest.approx(oracle, abs=1e-12)

    @given(_sentences, st.lists(st.sampled_from(["a", "b", "z"]), max_size=6))
    def test_always_finite_and_nonpositive(self, corpus, sentence):
        model = train_lm(corpus, 2)
        value = model.sentence_log_prob(sentence)
        assert math.isfinite(value)
        assert value <= 0.0

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=4), _queries)
    def test_equals_cond_prob_log_sum_bit_for_bit(self, corpus, order, sentence):
        model = train_lm(corpus, order)
        expected = _reference_sentence_log_prob(model, sentence)
        assert model.sentence_log_prob(sentence) == expected

    def test_empty_sentence_scores_end_alone(self):
        model = train_lm([["a", "b"]], order=3)
        expected = math.log(model.cond_prob(END, (BOS, BOS)))
        assert model.sentence_log_prob([]) == expected


class TestFreqClass:
    def test_nearest_rank_quartiles(self):
        assert _nearest_rank([1, 2, 4, 8], 25) == 1
        assert _nearest_rank([1, 2, 4, 8], 75) == 4

    def test_bands_on_skewed_counts(self):
        # Type frequencies {a:8, b:4, c:2, END:1} give Q1=1 and Q3=4.
        model = train_lm([["a"] * 8 + ["b"] * 4 + ["c"] * 2], order=1)
        assert model.quartiles[1] == (1, 4)
        assert model.freq_class(("a",)) is FreqClass.HIGH
        assert model.freq_class(("b",)) is FreqClass.MID
        assert model.freq_class(("c",)) is FreqClass.MID
        assert model.freq_class((END,)) is FreqClass.LOW

    def test_unseen_gram_is_low(self):
        model = train_lm([["a", "b"]], order=2)
        assert model.freq_class(("z", "q")) is FreqClass.LOW

    def test_gram_length_bounds(self):
        model = train_lm([["a", "b"]], order=2)
        with pytest.raises(ValueError):
            model.freq_class(())
        with pytest.raises(ValueError):
            model.freq_class(("a", "b", "c"))

    @settings(max_examples=60)
    @given(_sentences, _queries)
    def test_band_counts_equal_freq_class_tallies(self, corpus, sentence):
        model = train_lm(corpus, 3)
        for n in (1, 2, 3):
            expected = _reference_band_counts(model, sentence, n)
            assert model.band_counts(sentence, n) == expected
            assert model.band_counts(tuple(sentence), n) == expected

    def test_band_counts_gram_length_bounds(self):
        model = train_lm([["a", "b"]], order=2)
        for n in (0, 3):
            with pytest.raises(ValueError):
                model.band_counts(["a", "b", "c"], n)

    @settings(max_examples=40)
    @given(_sentences, st.integers(min_value=1, max_value=3))
    def test_quartiles_ordered_so_bands_are_disjoint(self, sentences, order):
        model = train_lm(sentences, order)
        for n in range(1, order + 1):
            q1, q3 = model.quartiles[n]
            assert q1 <= q3


class TestSeenFraction:
    def test_ratios(self):
        model = train_lm([["a", "b", "c"]], order=1)
        seen = [("a",), ("b",), ("c",)]
        assert model.seen_fraction(seen) == 1.0
        assert model.seen_fraction([("z",), ("q",)]) == 0.0
        assert model.seen_fraction(seen + [("z",)]) == 0.75
        assert model.seen_fraction([]) == 0.0


class TestNgramsHelper:
    def test_windows(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]
        assert ngrams(["a"], 2) == []
        assert ngrams([], 1) == []


class TestPersistence:
    def _random_model(self, seed=9, order=3):
        rng = random.Random(seed)
        corpus = [[rng.choice("abcdef") for _ in range(rng.randint(1, 7))] for _ in range(20)]
        return train_lm(corpus, order)

    def test_round_trip_is_bit_identical(self, tmp_path):
        model = self._random_model()
        path = tmp_path / "m.lm"
        model.save(path)
        loaded = load_lm(path)
        assert loaded.order == model.order
        assert loaded.counts == model.counts
        assert loaded.context_totals == model.context_totals
        assert loaded.vocab == model.vocab
        assert loaded.quartiles == model.quartiles
        rng = random.Random(1)
        for _ in range(200):
            sentence = [rng.choice("abcdefz") for _ in range(rng.randint(0, 6))]
            assert loaded.sentence_log_prob(sentence) == model.sentence_log_prob(sentence)

    def test_save_is_deterministic(self, tmp_path):
        model = self._random_model()
        model.save(tmp_path / "a.lm")
        model.save(tmp_path / "b.lm")
        assert (tmp_path / "a.lm").read_bytes() == (tmp_path / "b.lm").read_bytes()

    def test_truncated_file(self, tmp_path):
        model = self._random_model()
        path = tmp_path / "m.lm"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        (tmp_path / "cut.lm").write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_lm(tmp_path / "cut.lm")

    def test_future_version(self, tmp_path):
        model = self._random_model()
        path = tmp_path / "m.lm"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        bumped = text.replace("mtqe-ngram-lm\t1", "mtqe-ngram-lm\t99", 1)
        (tmp_path / "new.lm").write_text(bumped, encoding="utf-8")
        with pytest.raises(VersionMismatch):
            load_lm(tmp_path / "new.lm")

    def test_garbage_file(self, tmp_path):
        (tmp_path / "x.lm").write_text("not a model\n", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_lm(tmp_path / "x.lm")
