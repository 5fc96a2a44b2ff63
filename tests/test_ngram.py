import math
import random
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe import ngram
from mtqe.errors import CorruptModel, EmptyCorpus, VersionMismatch
from mtqe.fileio import read_lines
from mtqe.ngram import (
    BOS,
    END,
    UNK,
    _nearest_rank,
    load_lm,
    train_lm,
)

from conftest import (
    SPECIAL_TOKENS,
    TRAINING_TOKENS,
    TupleLM,
    decode_lm,
    index_windows,
    reference_band_counts,
    reference_cond_prob,
    reference_context_totals,
    reference_counts,
    reference_lm,
    reference_quartiles,
    reference_seen_fraction,
    reference_sentence_log_prob,
    save_reference_lm,
    with_unk_grams,
)

_sentences = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
    min_size=1,
    max_size=10,
)
# Query sentences: seen words, an unseen word and the reserved markers.
_queries = st.lists(st.sampled_from(["a", "b", "c", "z", BOS, END, UNK]), max_size=8)


def _check_bands(model, reference, tokens):
    """``model.bands`` at every length equals the per-length references."""
    tallies = [reference_band_counts(reference, tokens, n) for n in range(1, model.order + 1)]
    share = reference_seen_fraction(reference, tokens, 1).hex()
    for longest in range(1, model.order + 1):
        got, seen = model.bands(tokens, longest)
        assert got == tallies[:longest]
        assert (seen / len(tokens) if tokens else 0.0).hex() == share


def _laplace_totals(model, counts, tokens):
    """``(context, total)`` at each position ``model.sentence_log_prob(tokens)`` scores.

    The query's ``math.log`` records its argument, (count + 1) / (total +
    |V|), and the reference ``counts`` of the gram give the total back.
    """
    ratios = []
    with mock.patch.object(ngram, "math", SimpleNamespace(log=lambda x: ratios.append(x) or 0.0)):
        model.sentence_log_prob(tokens)
    padded = [BOS] * (model.order - 1) + list(tokens) + [END]
    grams = index_windows(padded, model.order)
    assert len(ratios) == len(grams)
    size = len(model.vocab)
    return [
        (gram[:-1], round((counts.get(gram, 0) + 1) / ratio) - size)
        for gram, ratio in zip(grams, ratios)
    ]


class TestTraining:
    def test_unigram_counts_include_end_marker(self):
        model = train_lm([["a", "b"], ["a", "c"]], order=1)
        expected = {("a",): 2, ("b",): 1, ("c",): 1, (END,): 2}
        assert decode_lm(model).counts == expected
        assert set(model.vocab) == {"a", "b", "c", UNK, BOS, END}

    def test_order3_pads_with_bos(self):
        counts = decode_lm(train_lm([["a", "b"]], order=3)).counts
        assert counts[(BOS, BOS, "a")] == 1
        assert counts[(BOS, "a", "b")] == 1
        assert counts[("a", "b", END)] == 1
        assert counts[(BOS,)] == 2

    @given(_sentences, st.integers(min_value=1, max_value=4))
    def test_ids_count_up_in_code_point_order(self, sentences, order):
        vocab = train_lm(sentences, order).vocab
        assert list(vocab.values()) == list(range(1, len(vocab) + 1))
        assert list(vocab) == sorted(vocab)

    def test_degenerate_quartiles(self):
        model = train_lm([["x", "y"]], order=1)
        q1, q3 = model.quartiles[1]
        assert q1 == q3 == 1
        assert model.bands(["x"], 1) == ([(1, 0)], 1)  # Low, and seen
        assert model.bands(["y"], 1)[0][0][1] == 0  # not High

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_lm([], order=2)

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=4))
    def test_counts_equal_index_loop_reference(self, sentences, order):
        assert decode_lm(train_lm(sentences, order)).counts == reference_counts(sentences, order)

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=4))
    def test_quartiles_equal_per_order_reference(self, sentences, order):
        model = decode_lm(train_lm(sentences, order))
        assert model.quartiles == reference_quartiles(model.counts, order)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            train_lm([["a"]], order=0)

    @pytest.mark.parametrize("marker", [UNK, BOS, END])
    def test_marker_token_is_rejected(self, marker):
        with pytest.raises(ValueError) as info:
            train_lm([["a", "b"], ["c", marker, "a"]], order=3)
        assert str(info.value) == f"reserved token {marker!r} in the sentences"


class TestCondProb:
    def test_laplace_estimate(self):
        model = decode_lm(train_lm([["a", "b"], ["a", "c"]], order=1))
        assert len(model.vocab) == 6
        assert reference_cond_prob(model, "a") == (2 + 1) / (6 + 6)

    def test_unseen_word_maps_to_unk(self):
        model = decode_lm(train_lm([["a", "b"], ["a", "c"]], order=1))
        assert reference_cond_prob(model, "z") == (0 + 1) / (6 + 6)
        assert reference_cond_prob(model, "z") == reference_cond_prob(model, UNK)

    def test_normalizes_over_vocab(self):
        model = decode_lm(train_lm([["a", "b"], ["a", "c"]], order=1))
        assert sum(reference_cond_prob(model, w) for w in model.vocab) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=3))
    def test_normalization_for_every_stored_context(self, sentences, order):
        model = decode_lm(train_lm(sentences, order))
        contexts = {()} | {g for g in model.counts if len(g) < order}
        for context in contexts:
            total = sum(reference_cond_prob(model, w, context) for w in model.vocab)
            assert abs(total - 1.0) <= 1e-9

    def test_monotone_in_event_count(self):
        base = [["a", "b"], ["a", "c"], ["b", "c"]]
        before = reference_cond_prob(decode_lm(train_lm(base, 2)), "b", ("a",))
        after = reference_cond_prob(decode_lm(train_lm(base + [["a", "b"]], 2)), "b", ("a",))
        assert after >= before


class TestSentenceLogProb:
    def test_constant_chain_equals_log_p(self):
        # One one-token sentence: P(a) = P(END) = 2/6, so the mean is ln(1/3).
        model = train_lm([["a"]], order=1)
        p = reference_cond_prob(decode_lm(model), "a")
        assert p == reference_cond_prob(decode_lm(model), END) == pytest.approx(1 / 3)
        assert model.sentence_log_prob(["a"]) == math.log(p)

    def test_matches_explicit_chain_rule_product(self):
        rng = random.Random(3)
        corpus = [[rng.choice("abcd") for _ in range(rng.randint(1, 6))] for _ in range(12)]
        model = train_lm(corpus, 3)
        decoded = decode_lm(model)
        for _ in range(25):
            sentence = [rng.choice("abcdz") for _ in range(rng.randint(0, 7))]
            padded = [BOS, BOS] + sentence + [END]
            product = 1.0
            positions = 0
            for i in range(2, len(padded)):
                product *= reference_cond_prob(decoded, padded[i], tuple(padded[i - 2 : i]))
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
        expected = reference_sentence_log_prob(decode_lm(model), sentence)
        assert model.sentence_log_prob(sentence) == expected

    @settings(max_examples=60, deadline=None)
    @given(_sentences, st.integers(min_value=1, max_value=5), _queries)
    def test_laplace_total_equals_counter_reference(self, sentences, order, query):
        # On a trained model, and on a cold and a warm load of its file.
        counts = reference_counts(sentences, order)
        totals = reference_context_totals(counts, order)
        trained = train_lm(sentences, order)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.lm"
            trained.save(path)
            models = [trained, load_lm(path), load_lm(path)]
        for model in models:
            for context, total in _laplace_totals(model, counts, query):
                assert total == totals.get(context, 0)
                if context[-1:] == (END,):
                    assert total == 0

    def test_empty_sentence_scores_end_alone(self):
        model = train_lm([["a", "b"]], order=3)
        expected = math.log(reference_cond_prob(decode_lm(model), END, (BOS, BOS)))
        assert model.sentence_log_prob([]) == expected


class TestFreqClass:
    def test_nearest_rank_quartiles(self):
        assert _nearest_rank([1, 2, 4, 8], 25) == 1
        assert _nearest_rank([1, 2, 4, 8], 75) == 4
        # Ranks ceil(1.25) = 2 and ceil(3.75) = 4, not 1 and 3.
        assert _nearest_rank([1, 2, 3, 4, 5], 25) == 2
        assert _nearest_rank([1, 2, 3, 4, 5], 75) == 4

    def test_bands_on_skewed_counts(self):
        # Type frequencies {a:8, b:4, c:2, END:1} give Q1=1 and Q3=4.
        model = train_lm([["a"] * 8 + ["b"] * 4 + ["c"] * 2], order=1)
        # The tally of one token: (1, 0) is Low, (0, 1) High, (0, 0) Mid.
        assert model.quartiles[1] == (1, 4)
        assert model.bands(["a"], 1) == ([(0, 1)], 1)
        assert model.bands(["b"], 1) == ([(0, 0)], 1)
        assert model.bands(["c"], 1) == ([(0, 0)], 1)
        assert model.bands([END], 1) == ([(1, 0)], 1)

    def test_unseen_gram_is_low(self):
        model = train_lm([["a", "b"]], order=2)
        assert model.bands(["z", "q"], 2) == ([(2, 0), (1, 0)], 0)

    @settings(max_examples=60)
    @given(_sentences, _queries)
    def test_band_counts_equal_freq_class_tallies(self, corpus, sentence):
        model = train_lm(corpus, 3)
        _check_bands(model, decode_lm(model), sentence)
        _check_bands(model, decode_lm(model), tuple(sentence))

    def test_band_counts_gram_length_bounds(self):
        model = train_lm([["a", "b"]], order=2)
        for n in (0, 3):
            with pytest.raises(ValueError):
                model.bands(["a", "b", "c"], n)

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
        seen = ["a", "b", "c"]
        assert model.bands(seen, 1)[1] == 3
        assert model.bands(["z", "q"], 1)[1] == 0
        assert model.bands(seen + ["z"], 1)[1] == 3
        assert model.bands([], 1) == ([(0, 0)], 0)

    def test_windows_longer_than_the_sentence(self):
        # Every gram occurs once but the unigram BOS (twice): Q1 = Q3 = 1 at each length.
        model = train_lm([["a", "b", "c"]], order=3)
        assert model.bands(["a", "b"], 3) == ([(2, 0), (1, 0), (0, 0)], 2)
        assert model.bands([], 3) == ([(0, 0), (0, 0), (0, 0)], 0)


_special_tokens = st.sampled_from(SPECIAL_TOKENS)
_special_sentences = st.lists(st.lists(st.sampled_from(TRAINING_TOKENS), max_size=6),
                              min_size=1, max_size=8)
_special_queries = st.lists(st.one_of(_special_tokens, st.just("z")), max_size=8)


class TestQueriesEqualReferences:
    """Every query, on a trained and on a loaded model, equals the tuple-keyed references."""

    @settings(max_examples=150, deadline=None)
    @given(_special_sentences, st.integers(min_value=1, max_value=5), _special_queries)
    def test_bit_for_bit(self, sentences, order, query):
        reference = reference_lm(sentences, order)
        trained = train_lm(sentences, order)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.lm"
            trained.save(path)
            loaded = load_lm(path)
        log_prob = reference_sentence_log_prob(reference, query).hex()
        for model in (trained, loaded):
            assert model.sentence_log_prob(query).hex() == log_prob
            _check_bands(model, reference, query)


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
        assert decode_lm(loaded) == decode_lm(model)
        assert loaded.vocab == model.vocab
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

    @pytest.mark.parametrize("n_grams", [-1, -10**6])
    def test_negative_gram_count(self, tmp_path, n_grams):
        model = self._random_model()
        path = tmp_path / "m.lm"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        text = text.replace(f"ngrams\t{sum(map(len, model.counts))}\n", f"ngrams\t{n_grams}\n")
        (tmp_path / "neg.lm").write_text(text, encoding="utf-8")
        with pytest.raises(CorruptModel, match="ngrams must be >= 0"):
            load_lm(tmp_path / "neg.lm")

    def test_order_without_grams_is_corrupt(self, tmp_path):
        # The quartile lines of an order with no gram follow from nothing.
        model = self._random_model()
        path = tmp_path / "m.lm"
        model.save(path)
        lines = read_lines(path)
        header = next(i for i, line in enumerate(lines) if line.startswith("ngrams\t"))
        kept = [line for line in lines[header + 1 : -1] if line.count(" ") < 2]
        lines[header:] = [f"ngrams\t{len(kept)}", *kept, "end"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel, match="has no gram"):
            load_lm(path)

    def test_gram_with_a_token_without_unigram_line_is_corrupt(self, tmp_path):
        path = tmp_path / "m.lm"
        train_lm([["a", "b"]], 2).save(path)
        lines = read_lines(path)
        index = lines.index("a b\t1")
        lines[index] = "a q\t1"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel, match="n-gram 'a q' has a token with no unigram line"):
            load_lm(path)

    def test_gram_holding_unk_is_corrupt(self, tmp_path):
        # Counted <unk> grams would score an unseen word as if seen in f4/f5,
        # while f8-f14 still count it unseen.
        path = tmp_path / "m.lm"
        save_reference_lm(with_unk_grams(reference_lm([["a", "b"], ["a"]], 3)), path)
        with pytest.raises(CorruptModel, match="n-gram '<s> <s> <unk>' holds '<unk>'"):
            load_lm(path)

    @pytest.mark.parametrize("digits", [310, 5000])
    def test_count_too_large_for_a_float_is_corrupt(self, tmp_path, digits):
        # The queries divide counts as floats; 5000 digits are also more
        # than int() reads.
        path = tmp_path / "m.lm"
        train_lm([["a", "b"]], 2).save(path)
        lines = read_lines(path)
        index = lines.index("a b\t1")
        lines[index] = "a b\t" + "9" * digits
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load_lm(path)
        assert str(info.value) == f"corrupt model file: count too large for a float in {lines[index]!r}"

    def test_garbage_file(self, tmp_path):
        (tmp_path / "x.lm").write_text("not a model\n", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_lm(tmp_path / "x.lm")


class TestDerivedHeaders:
    """``vocab_size`` and the quartile lines must be what the counts give."""

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=4), st.data())
    def test_edited_header_is_corrupt(self, sentences, order, data):
        keys = ["vocab_size"] + [f"q{q}_{n}" for n in range(1, order + 1) for q in (1, 3)]
        key = data.draw(st.sampled_from(keys), label="key")
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.lm"
            train_lm(sentences, order).save(path)
            lines = read_lines(path)
            index = next(i for i, line in enumerate(lines) if line.startswith(f"{key}\t"))
            value = int(lines[index].split("\t")[1])
            edited = data.draw(
                st.one_of(st.integers(0, 12), st.integers(min_value=0)).filter(lambda v: v != value),
                label="edited",
            )
            lines[index] = f"{key}\t{edited}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(CorruptModel, match=f"header line '{key}' says {edited},"):
                load_lm(path)

    @settings(max_examples=60)
    @given(_sentences, st.integers(min_value=1, max_value=4))
    def test_unedited_file_round_trips(self, sentences, order):
        model = train_lm(sentences, order)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.lm"
            model.save(path)
            loaded = load_lm(path)
        assert decode_lm(loaded) == decode_lm(model)
        assert loaded.vocab == model.vocab


def _first_broken_context(counts, order):
    """The first context, in token-tuple order, whose continuations do not sum to its total.

    A context's total is its own count, 0 when it ends in END or has no line.
    """
    sums = reference_context_totals(counts, order)
    contexts = {gram for gram in counts if len(gram) == order - 1} | set(sums)
    for context in sorted(contexts):
        total = 0 if context[-1] == END else counts.get(context, 0)
        if sums.get(context, 0) != total:
            return context
    return None


def _save_counts(counts, order, path):
    """Write ``counts`` as a model file whose header lines are what the counts give."""
    vocab = frozenset({gram[0] for gram in counts if len(gram) == 1} | {UNK, BOS, END})
    save_reference_lm(TupleLM(order, vocab, counts, reference_quartiles(counts, order)), path)


class TestContextRule:
    """A context's count is the sum of its continuations, and no gram continues END."""

    @settings(max_examples=100, deadline=None)
    @given(_sentences, st.integers(min_value=2, max_value=4), st.data())
    def test_broken_counts_are_corrupt(self, sentences, order, data):
        counts = reference_counts(sentences, order)
        contexts = sorted(gram for gram in counts if len(gram) == order - 1)
        # Below order 3 a context is a unigram, whose line no file may drop.
        edits = ["bump", "continue end"] + (["drop"] if order > 2 else [])
        edit = data.draw(st.sampled_from(edits), label="edit")
        if edit == "bump":
            grams = sorted(gram for gram in counts if len(gram) >= order - 1)
            gram = data.draw(st.sampled_from(grams), label="gram")
            counts[gram] += data.draw(st.integers(1, 3), label="by")
        elif edit == "drop":
            del counts[data.draw(st.sampled_from(contexts), label="context")]
        else:
            ended = [context for context in contexts if context[-1] == END]
            words = sorted(gram[0] for gram in counts if len(gram) == 1)
            gram = data.draw(st.sampled_from(ended), label="context") + (
                data.draw(st.sampled_from(words), label="word"),
            )
            counts[gram] = data.draw(st.integers(1, 3), label="count")
        broken = _first_broken_context(counts, order)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "m.lm"
            _save_counts(counts, order, path)
            if broken is None:  # an edit of a context ending in END breaks nothing
                assert decode_lm(load_lm(path)).counts == counts
                return
            with pytest.raises(CorruptModel) as info:
                load_lm(path)
        assert f"n-gram {' '.join(broken)!r}" in str(info.value)


class TestContextRuleMessages:
    """Hand-checked edits of the order-3 model of the one sentence ``a b``."""

    BASE = {("a",): 1, ("b",): 1, (BOS,): 2, (END,): 1, (BOS, BOS): 1, (BOS, "a"): 1,
            ("a", "b"): 1, ("b", END): 1, (BOS, BOS, "a"): 1, (BOS, "a", "b"): 1,
            ("a", "b", END): 1}

    @pytest.mark.parametrize("edit, message", [
        ({("a", "b"): 2}, "n-gram 'a b' has count 2, its continuations sum to 1"),
        ({("a", "b", END): 2}, "n-gram 'a b' has count 1, its continuations sum to 2"),
        ({("b", END, "a"): 1}, "n-gram 'b </s>' ends in '</s>', yet its continuations sum to 1"),
        ({("a", "b"): None},
         "n-gram 'a b </s>' continues n-gram 'a b', which has no line"),
    ], ids=["context count", "continuation count", "continues end", "no context line"])
    def test_message_names_the_context(self, tmp_path, edit, message):
        path = tmp_path / "m.lm"
        _save_counts(self.BASE, 3, path)
        assert decode_lm(load_lm(path)).counts == self.BASE
        counts = {**self.BASE, **edit}
        _save_counts({gram: count for gram, count in counts.items() if count}, 3, path)
        with pytest.raises(CorruptModel) as info:
            load_lm(path)
        assert str(info.value) == f"corrupt model file: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.__setitem__(1, "order\t3x"),
         "non-integer value in header line 'order'"),
        (lambda lines: lines.__setitem__(2, "vocab_size\t9"),
         "header line 'vocab_size' says 9, the counts give 5"),
        (lambda lines: lines.insert(-4, lines.pop(-4)),
         "n-gram 'a b' out of order after n-gram 'a b </s>'"),
    ], ids=["header", "derived header", "order"])
    def test_every_other_fault_comes_first(self, tmp_path, edit, message):
        path = tmp_path / "m.lm"
        _save_counts({**self.BASE, ("a", "b"): 2}, 3, path)
        lines = read_lines(path)
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load_lm(path)
        assert str(info.value) == f"corrupt model file: {message}"
