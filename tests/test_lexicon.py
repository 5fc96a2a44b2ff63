import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe.errors import EmptyCorpus, MalformedRow
from mtqe.lexicon import TranslationLexicon, build_lexicon, load_lexicon

from conftest import make_corpus

_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
_corpus_lists = st.lists(
    st.tuples(_tokens, st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=5)),
    min_size=1,
    max_size=8,
)


def _corpus(pair_lists):
    return make_corpus([s for s, _ in pair_lists], [t for _, t in pair_lists])


class TestBuildLexicon:
    def test_perfect_cooccurrence_scores_one(self):
        corpus = make_corpus([["a", "b"], ["a", "c"]], [["x", "y"], ["x", "z"]])
        lexicon = build_lexicon(corpus, 0.01)
        assert lexicon.entries["a"]["x"] == 1.0

    def test_never_cooccurring_pair_absent(self):
        corpus = make_corpus([["a", "b"], ["a", "c"]], [["x", "y"], ["x", "z"]])
        lexicon = build_lexicon(corpus, 0.01)
        assert "z" not in lexicon.entries.get("b", {})

    def test_threshold_bounds(self):
        corpus = make_corpus([["a"]], [["x"]])
        for bad in (0.0, 1.0, 1.0 + 1e-9, -0.5):
            with pytest.raises(ValueError):
                build_lexicon(corpus, bad)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_lexicon(make_corpus([], []), 0.2)

    def test_presence_counted_once_per_pair(self):
        # Repeating a word inside a sentence must not inflate its score.
        corpus = make_corpus([["a", "a", "a"], ["b"]], [["x"], ["y"]])
        lexicon = build_lexicon(corpus, 0.01)
        assert lexicon.entries["a"]["x"] == 1.0

    @settings(max_examples=50)
    @given(_corpus_lists)
    def test_scores_in_unit_interval_and_above_threshold(self, pair_lists):
        lexicon = build_lexicon(_corpus(pair_lists), 0.3)
        for targets in lexicon.entries.values():
            for score in targets.values():
                assert 0.3 <= score <= 1.0

    @settings(max_examples=50)
    @given(_corpus_lists)
    def test_duplicating_corpus_leaves_scores_unchanged(self, pair_lists):
        once = build_lexicon(_corpus(pair_lists), 0.05)
        twice = build_lexicon(_corpus(pair_lists + pair_lists), 0.05)
        assert once.entries == twice.entries

    @settings(max_examples=50)
    @given(_corpus_lists, _tokens)
    def test_raising_threshold_never_raises_coverage(self, pair_lists, sentence):
        corpus = _corpus(pair_lists)
        loose = build_lexicon(corpus, 0.1)
        tight = build_lexicon(corpus, 0.6)
        assert tight.translations_per_word(sentence) <= loose.translations_per_word(sentence)


class TestTranslationsPerWord:
    def test_hand_average(self):
        lexicon = TranslationLexicon({"a": {"x": 1.0}})
        assert lexicon.translations_per_word(["a", "b"]) == 0.5

    def test_empty_sentence(self):
        lexicon = TranslationLexicon({"a": {"x": 1.0}})
        assert lexicon.translations_per_word([]) == 0.0

    def test_all_tokens_absent(self):
        lexicon = TranslationLexicon({"a": {"x": 1.0}})
        assert lexicon.translations_per_word(["q", "r"]) == 0.0


class TestLexiconFile:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(
            [["a", "b"], ["a", "c"], ["b", "c"]],
            [["x", "y"], ["x", "z"], ["y", "z"]],
        )
        lexicon = build_lexicon(corpus, 0.2)
        path = tmp_path / "lex.tsv"
        lexicon.save(path)
        loaded = load_lexicon(path)
        assert loaded.entries == lexicon.entries

    def test_empty_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        TranslationLexicon({}).save(path)
        assert load_lexicon(path).entries == {}

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_lexicon(path)
        path.write_text("a\tx\tnotafloat\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_lexicon(path)
        path.write_text("a\tx\t1.5\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_lexicon(path)
