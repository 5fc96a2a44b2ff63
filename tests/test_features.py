import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtqe.corpus import SentencePair
from mtqe.errors import MalformedRow, MixedLabeling
from mtqe.feature_csv import FEATURE_COLUMNS, FeatureVector
from mtqe.features import extract_features, read_features, write_features
from mtqe.grading import Grade
from mtqe.lexicon import TranslationLexicon, build_lexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

from conftest import (
    SPECIAL_TOKENS,
    TRAINING_TOKENS,
    brute_force_lexicon,
    make_corpus,
    reference_lm,
    reference_vector,
)

_rng = random.Random(5)
_SRC_SENTS = [[_rng.choice("abcdef") for _ in range(_rng.randint(2, 7))] + ["."] for _ in range(25)]
_TGT_SENTS = [[_rng.choice(["क", "ख", "ग", "घ", "च"]) for _ in range(_rng.randint(2, 7))] + ["।"] for _ in range(25)]
SRC_LM = train_lm(_SRC_SENTS, 3)
TGT_LM = train_lm(_TGT_SENTS, 3)
LEXICON = build_lexicon(make_corpus(_SRC_SENTS, _TGT_SENTS), 0.2)


def _pair(source, target, pair_id=0):
    return SentencePair(pair_id, tuple(source), tuple(target))


def _extract(source, target):
    return extract_features(_pair(source, target), SRC_LM, TGT_LM, LEXICON)


def _check_invariants(fv: FeatureVector, source, target):
    assert fv.src_token_count == len(source)
    assert fv.tgt_token_count == len(target)
    assert 0 <= fv.src_punct_count <= fv.src_token_count
    assert 0 <= fv.tgt_punct_count <= fv.tgt_token_count
    percents = [
        fv.pct_low_freq_unigrams, fv.pct_high_freq_unigrams,
        fv.pct_low_freq_bigrams, fv.pct_high_freq_bigrams,
        fv.pct_high_freq_trigrams, fv.pct_low_freq_trigrams,
        fv.pct_unigrams_seen,
    ]
    for value in percents:
        assert 0.0 <= value <= 100.0
    assert fv.pct_low_freq_unigrams + fv.pct_high_freq_unigrams <= 100.0
    assert fv.pct_low_freq_bigrams + fv.pct_high_freq_bigrams <= 100.0
    assert fv.pct_low_freq_trigrams + fv.pct_high_freq_trigrams <= 100.0
    assert fv.src_lm_logprob <= 0.0
    assert fv.tgt_lm_logprob <= 0.0
    if fv.tgt_token_count > 0:
        assert fv.tgt_tokens_per_type >= 1.0
    else:
        assert fv.tgt_tokens_per_type == 0.0
    if fv.src_token_count > 0:
        assert fv.avg_src_token_len > 0.0
    else:
        assert fv.avg_src_token_len == 0.0
    for n, low, high in (
        (2, fv.pct_low_freq_bigrams, fv.pct_high_freq_bigrams),
        (3, fv.pct_low_freq_trigrams, fv.pct_high_freq_trigrams),
    ):
        if len(source) < n:
            assert low == 0.0 and high == 0.0


class TestExtract:
    def test_token_counts_and_mean_length(self):
        fv = _extract(["ab", "cde"], ["क"])
        assert fv.src_token_count == 2
        assert fv.avg_src_token_len == 2.5

    def test_target_tokens_per_type(self):
        fv = _extract(["a"], ["क", "क", "ख"])
        assert fv.tgt_token_count == 3
        assert fv.tgt_tokens_per_type == 1.5

    def test_punctuation_counts(self):
        fv = _extract(["hello", ",", "world", "."], ["क", "।"])
        assert fv.src_punct_count == 2
        assert fv.tgt_punct_count == 1

    def test_short_sentence_zeroes_ngram_percentages(self):
        fv = _extract(["a"], ["क"])
        assert fv.pct_low_freq_bigrams == 0.0
        assert fv.pct_high_freq_bigrams == 0.0
        assert fv.pct_high_freq_trigrams == 0.0
        assert fv.pct_low_freq_trigrams == 0.0

    def test_seen_unigram_percentage(self):
        src_lm = train_lm([["a", "b", "c"]], 3)
        fv = extract_features(_pair(["a", "b", "c", "z"], ["क"]), src_lm, TGT_LM, LEXICON)
        assert fv.pct_unigrams_seen == 75.0

    def test_translations_per_word_feature(self):
        lexicon = TranslationLexicon({"a": {"क": 0.9, "ख": 0.8}})
        fv = extract_features(_pair(["a", "b"], ["क"]), SRC_LM, TGT_LM, lexicon)
        assert fv.avg_translations_per_src_word == 1.0

    def test_empty_sides(self):
        fv = _extract([], [])
        _check_invariants(fv, [], [])
        assert fv.avg_src_token_len == 0.0
        assert fv.tgt_tokens_per_type == 0.0
        assert fv.pct_unigrams_seen == 0.0

    def test_requires_order_three_models(self):
        low_order = train_lm([["a", "b"]], 2)
        with pytest.raises(ValueError):
            extract_features(_pair(["a"], ["क"]), low_order, TGT_LM, LEXICON)
        with pytest.raises(ValueError):
            extract_features(_pair(["a"], ["क"]), SRC_LM, low_order, LEXICON)

    def test_pure_function(self):
        pair = _pair(["a", "b", "."], ["क", "ख", "।"])
        assert extract_features(pair, SRC_LM, TGT_LM, LEXICON) == extract_features(
            pair, SRC_LM, TGT_LM, LEXICON
        )


_src_tokens = st.lists(st.sampled_from(["a", "b", "f", "zz", ".", ","]), max_size=10)
_tgt_tokens = st.lists(st.sampled_from(["क", "ख", "ज", "।", "?"]), max_size=10)


class TestProperties:
    @settings(max_examples=80)
    @given(_src_tokens, _tgt_tokens)
    def test_invariants_hold(self, source, target):
        _check_invariants(_extract(source, target), source, target)

    @settings(max_examples=40)
    @given(_src_tokens, st.lists(st.sampled_from(["क", "ख", "ज", "।"]), min_size=2, max_size=8), st.randoms())
    def test_target_permutation_changes_only_lm_feature(self, source, target, rnd):
        shuffled = list(target)
        rnd.shuffle(shuffled)
        before = _extract(source, target)
        after = _extract(source, shuffled)
        assert after.tgt_token_count == before.tgt_token_count
        assert after.tgt_tokens_per_type == before.tgt_tokens_per_type
        assert after.tgt_punct_count == before.tgt_punct_count
        # Source-side features cannot move either.
        for name in (
            "src_token_count", "avg_src_token_len", "src_lm_logprob",
            "avg_translations_per_src_word", "pct_low_freq_unigrams",
            "pct_high_freq_unigrams", "pct_low_freq_bigrams",
            "pct_high_freq_bigrams", "pct_high_freq_trigrams",
            "pct_low_freq_trigrams", "pct_unigrams_seen", "src_punct_count",
        ):
            assert getattr(after, name) == getattr(before, name)

    @settings(max_examples=40)
    @given(_src_tokens, _tgt_tokens)
    def test_appending_punctuation_increments_counts(self, source, target):
        before = _extract(source, target)
        after = _extract(source + ["."], target)
        assert after.src_token_count == before.src_token_count + 1
        assert after.src_punct_count == before.src_punct_count + 1
        assert after.tgt_token_count == before.tgt_token_count
        assert after.tgt_punct_count == before.tgt_punct_count


_PUNCTUATION = [".", "।", "?!", "॥"]
_corpus_sentences = st.lists(st.sampled_from([*TRAINING_TOKENS, ".", "।"]), max_size=6)
_special_corpora = st.lists(st.tuples(_corpus_sentences, _corpus_sentences), min_size=1, max_size=8)
# "z" is outside every vocabulary, and "a." and ".a" hold a letter beside
# punctuation; sentences of 0-2 tokens have no trigram.
_query_tokens = st.sampled_from([*SPECIAL_TOKENS, "z", "a.", ".a", *_PUNCTUATION])
_sides = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(_PUNCTUATION), min_size=1, max_size=4),
    st.lists(_query_tokens, max_size=2),
    st.lists(_query_tokens, max_size=8),
)


class TestVectorEqualsReference:
    """All 16 features, from trained and from loaded models and lexicon, equal the references."""

    @settings(max_examples=100, deadline=None)
    @given(_special_corpora, st.integers(min_value=3, max_value=5), _sides, _sides)
    # Two Low unigrams and one High: the complement 100 - 200/3 is not 100/3 in float.
    @example([(["a", "a", "a", "b"], ["x"])], 3, ["z", "a", "c"], ["x"])
    def test_bit_for_bit(self, pairs, order, source, target):
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        corpus = make_corpus(sources, targets)
        sizes = {s: len(t) for s, t in brute_force_lexicon(corpus, 0.2).entries.items()}
        expected = reference_vector(
            reference_lm(sources, order), reference_lm(targets, order), sizes, source, target
        )
        trained = (train_lm(sources, order), train_lm(targets, order), build_lexicon(corpus, 0.2))
        with tempfile.TemporaryDirectory() as directory:
            paths = [Path(directory) / name for name in ("src.lm", "tgt.lm", "lexicon.tsv")]
            for artifact, path in zip(trained, paths):
                artifact.save(path)
            loaded = (load_lm(paths[0]), load_lm(paths[1]), load_lexicon(paths[2]))
        for src_lm, tgt_lm, lexicon in (trained, loaded):
            vector = extract_features(_pair(source, target), src_lm, tgt_lm, lexicon)
            assert [v.hex() for v in map(float, vector)] == [float(v).hex() for v in expected]


class TestFeatureFile:
    def _rows(self, labeled):
        vectors = [_extract(["a", "b", "."], ["क", "।"]), _extract(["f"], ["ख", "ख"])]
        grades = [Grade.GOOD, Grade.POOR] if labeled else [None, None]
        return [(i, v, g) for i, (v, g) in enumerate(zip(vectors, grades))]

    def test_round_trip_labeled(self, tmp_path):
        rows = self._rows(labeled=True)
        path = tmp_path / "f.csv"
        write_features(rows, path)
        loaded = read_features(path)
        assert [i for i, _, _ in loaded] == [0, 1]
        assert [g for _, _, g in loaded] == [Grade.GOOD, Grade.POOR]
        for (_, original, _), (_, reread, _) in zip(rows, loaded):
            for a, b in zip(map(float, original), map(float, reread)):
                assert abs(a - b) <= 1e-6

    def test_cells_match_per_index_reference(self, tmp_path):
        int_columns = (0, 1, 14, 15)  # f1, f2, f15, f16
        rows = self._rows(labeled=True)
        path = tmp_path / "f.csv"
        write_features(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for (row_id, vector, grade), line in zip(rows, lines[1:]):
            cells = [
                str(int(v)) if i in int_columns else f"{v:.6f}"
                for i, v in enumerate(map(float, vector))
            ]
            assert line == ",".join([str(row_id), *cells, grade.label])
        for (_, reread, _), line in zip(read_features(path), lines[1:]):
            cells = line.split(",")[1:17]
            expected = [
                int(cell) if i in int_columns else float(cell) for i, cell in enumerate(cells)
            ]
            assert tuple(reread) == tuple(expected)
            assert [type(v) for v in tuple(reread)] == [type(v) for v in expected]

    def test_round_trip_unlabeled_header(self, tmp_path):
        path = tmp_path / "f.csv"
        write_features(self._rows(labeled=False), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "id," + ",".join(FEATURE_COLUMNS)
        assert all(g is None for _, _, g in read_features(path))

    def test_falling_rows_rejected_before_writing(self, tmp_path):
        # Rows are written in the order given, and read_features would
        # refuse ids that fall, so the file is never written.
        with pytest.raises(MalformedRow) as info:
            write_features(reversed(self._rows(labeled=False)), tmp_path / "f.csv")
        assert str(info.value) == "malformed row 1: id 0 out of order after id 1"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field", ["src_token_count", "tgt_token_count", "src_punct_count", "tgt_punct_count"]
    )
    @pytest.mark.parametrize("value", [3.7, 3.0])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_float_count_rejected_before_writing(self, tmp_path, field, value, labeled):
        # A count cell is written as an integer, never truncated from a float.
        rows = self._rows(labeled)
        row_id, vector, grade = rows[1]
        rows[1] = (row_id, vector._replace(**{field: value}), grade)
        with pytest.raises(ValueError, match="'d'"):
            write_features(rows, tmp_path / "f.csv")
        assert list(tmp_path.iterdir()) == []

    def test_empty_file_is_header_only(self, tmp_path):
        path = tmp_path / "f.csv"
        write_features([], path)
        assert path.read_text(encoding="utf-8") == "id," + ",".join(FEATURE_COLUMNS) + "\n"
        assert read_features(path) == []

    def test_mixed_labeling_rejected(self, tmp_path):
        rows = self._rows(labeled=True)
        rows[1] = (rows[1][0], rows[1][1], None)
        with pytest.raises(MixedLabeling):
            write_features(rows, tmp_path / "f.csv")

    def test_repeated_id_rejected_before_writing(self, tmp_path):
        # read_features would refuse the file, so it is never written.
        rows = self._rows(labeled=True)
        rows.append((rows[1][0], rows[1][1], Grade.POOR))
        with pytest.raises(MalformedRow, match="duplicate id 1") as info:
            write_features(rows, tmp_path / "f.csv")
        assert str(info.value) == "malformed row 2: duplicate id 1"
        assert list(tmp_path.iterdir()) == []

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,oops\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_features(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        write_features(self._rows(labeled=True), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[3] = cell  # f3
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as info:
            read_features(path)
        assert str(info.value) == "malformed row 1: non-finite feature value"
