import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe.errors import EmptyCorpus, InvalidEncoding, MalformedRow
from mtqe.lexicon import TranslationLexicon, build_lexicon, load_lexicon

from conftest import brute_force_lexicon, make_corpus, read_lexicon_entries

_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
_corpus_lists = st.lists(
    st.tuples(_tokens, st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=5)),
    min_size=1,
    max_size=8,
)

# Wider corpora: more words, so document frequencies spread.
_wide_corpus_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcdefghijkl"), max_size=7),
        st.lists(st.sampled_from("mnopqrstuvwx"), max_size=7),
    ),
    min_size=1,
    max_size=30,
)
# Thresholds anywhere in (0, 1), plus Dice values 2c / (ns + nt) and their
# float neighbours, so that scores land exactly on the cut-off.
_dice_values = st.tuples(st.integers(1, 40), st.integers(1, 40)).map(
    lambda p: 2 * min(p) / (p[0] + p[1])
)
_thresholds = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    _dice_values.filter(lambda v: v < 1.0),
    _dice_values.map(lambda v: math.nextafter(v, 0.0)),
    _dice_values.filter(lambda v: v < 1.0).map(lambda v: math.nextafter(v, 1.0)),
)


def _corpus(pair_lists):
    return make_corpus([s for s, _ in pair_lists], [t for _, t in pair_lists])


def _hex_entries(lexicon):
    return {
        (s, t): score.hex()
        for s, targets in lexicon.entries.items()
        for t, score in targets.items()
    }


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


class TestDiceBand:
    """Dice scores at and near the threshold, against the brute-force reference."""

    @settings(max_examples=200)
    @given(_wide_corpus_lists, _thresholds)
    def test_equals_brute_force_reference(self, pair_lists, threshold):
        corpus = _corpus(pair_lists)
        expected = _hex_entries(brute_force_lexicon(corpus, threshold))
        assert _hex_entries(build_lexicon(corpus, threshold)) == expected

    @pytest.mark.parametrize(
        "sources, targets",
        [([["a"]] + [["b"]] * 8, [["x"]] * 9), ([["a"]] * 9, [["x"]] + [["y"]] * 8)],
        ids=["ns=1,nt=9", "ns=9,nt=1"],
    )
    def test_score_on_the_threshold_is_kept(self, sources, targets):
        # 2 * 1 / (1 + 9) is exactly the float 0.2, so the pair passes.  An
        # exact-rational test would drop it: the float 0.2 lies just above 1/5.
        corpus = make_corpus(sources, targets)
        lexicon = build_lexicon(corpus, 0.2)
        assert lexicon.entries["a"]["x"] == 0.2
        assert _hex_entries(lexicon) == _hex_entries(brute_force_lexicon(corpus, 0.2))

    @pytest.mark.parametrize(
        "threshold, expected",
        [
            (0.999, {"a": {"z": 1.0, "x": 2000 / 2001}}),
            (math.nextafter(1.0, 0.0), {"a": {"z": 1.0}}),
        ],
        ids=["0.999", "below-one"],
    )
    def test_threshold_near_one(self, threshold, expected):
        # a and z always co-occur (Dice 1); a and x miss by one pair (2000/2001).
        corpus = make_corpus([["a"]] * 1000 + [["b"]], [["x", "z"]] * 1000 + [["x"]])
        lexicon = build_lexicon(corpus, threshold)
        assert lexicon.entries == expected
        assert _hex_entries(lexicon) == _hex_entries(brute_force_lexicon(corpus, threshold))


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
        assert read_lexicon_entries(path).entries == lexicon.entries
        assert load_lexicon(path).sizes == {s: len(t) for s, t in lexicon.entries.items()}

    def test_empty_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        TranslationLexicon({}).save(path)
        assert read_lexicon_entries(path).entries == {}
        assert load_lexicon(path).sizes == {}

    @settings(max_examples=50, deadline=None)
    @given(_wide_corpus_lists, st.randoms(use_true_random=False))
    def test_shuffled_rows_are_refused_at_the_first_fall(self, pair_lists, rng):
        lexicon = build_lexicon(_corpus(pair_lists), 0.1)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "lex.tsv"
            lexicon.save(path)
            lines = path.read_text(encoding="utf-8").splitlines()
            rng.shuffle(lines)
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            pairs = [tuple(line.split("\t")[:2]) for line in lines]
            # The first row whose pair is not above the previous row's.
            fall = next((row for row in range(1, len(pairs)) if pairs[row] <= pairs[row - 1]), None)
            if fall is None:
                assert load_lexicon(path).sizes == {s: len(t) for s, t in lexicon.entries.items()}
            else:
                with pytest.raises(MalformedRow) as info:
                    load_lexicon(path)
                entry = "entry {!r} -> {!r}".format
                assert str(info.value) == (
                    f"malformed row {fall}: {entry(*pairs[fall])} "
                    f"out of order after {entry(*pairs[fall - 1])}"
                )

    @pytest.mark.parametrize(
        "rows, row, message",
        [
            (["a\tx\t0.5", "b\ty\t0.5", "a\tx\t0.25"], 2,
             "entry 'a' -> 'x' out of order after entry 'b' -> 'y'"),
            (["b\ty\t0.5", "a\tx\t0.5", "c\tz\t0.5", "a\tx\t0.5"], 1,
             "entry 'a' -> 'x' out of order after entry 'b' -> 'y'"),
            (["a\tx\t0.5", "a\ty\t0.5", "b\tx\t0.5", "a\ty\t1.0"], 3,
             "entry 'a' -> 'y' out of order after entry 'b' -> 'x'"),
        ],
        ids=["leaves-order-at-repeat", "out-of-order-earlier", "same-source"],
    )
    def test_non_adjacent_repeat_is_located(self, tmp_path, rows, row, message):
        # Rows rise in (source, target) order, so a repeat that is not on
        # the next line is refused at the first row out of that order.
        path = tmp_path / "lex.tsv"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(MalformedRow) as info:
            load_lexicon(path)
        assert str(info.value) == f"malformed row {row}: {message}"

    @settings(max_examples=50, deadline=None)
    @given(_wide_corpus_lists, st.lists(st.sampled_from("abcdefghijklz"), max_size=8))
    def test_loaded_counts_give_the_built_lexicons_f7(self, pair_lists, sentence):
        lexicon = build_lexicon(_corpus(pair_lists), 0.1)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "lex.tsv"
            lexicon.save(path)
            loaded = load_lexicon(path)
        total = sum(len(lexicon.entries.get(token, {})) for token in sentence)
        expected = (total / len(sentence) if sentence else 0.0).hex()
        assert lexicon.translations_per_word(sentence).hex() == expected
        assert loaded.translations_per_word(sentence).hex() == expected

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

    def test_first_faulty_row_is_reported(self, tmp_path):
        # The file is read a block at a time, so a bad row comes before
        # invalid UTF-8 on a later line, and the other way round.
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"a\tx\t0.5\nb\ty\nc\tz\t0.5\xff\n")
        with pytest.raises(MalformedRow) as info:
            load_lexicon(path)
        assert str(info.value) == "malformed row 1: expected 3 cells, got 2"
        path.write_bytes(b"a\tx\t0.5\nb\ty\t0.5\xff\nc\tz\n")
        with pytest.raises(InvalidEncoding) as info:
            load_lexicon(path)
        assert str(info.value) == f"invalid UTF-8 at {path}:2"
