import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtqe.corpus import (
    SOURCE,
    TARGET,
    CorpusStats,
    HumanJudgment,
    is_punctuation_char,
    is_punctuation_token,
    load_judgments,
    load_parallel,
    stats_from_sentences,
    tokenize,
)
from mtqe.errors import (
    InvalidEncoding,
    LineCountMismatch,
    MalformedRow,
    OutOfRangeScore,
)

from conftest import make_corpus

_CHARS = list("abcXY zq.?!,()-'।॥") + ["लड़", "का", "दौ"]
_text = st.text(alphabet=st.sampled_from("".join(_CHARS)), max_size=40)


class TestTokenize:
    def test_source_lowercases_and_detaches_punctuation(self):
        assert tokenize("The boy ran.", SOURCE) == ["the", "boy", "ran", "."]

    def test_target_splits_danda_and_keeps_case(self):
        assert tokenize("लड़का दौड़ा।", TARGET) == ["लड़का", "दौड़ा", "।"]

    def test_empty_input(self):
        assert tokenize("", SOURCE) == []
        assert tokenize("   ", TARGET) == []

    def test_leading_trailing_and_internal_punctuation(self):
        assert tokenize("\"Don't go!\"", SOURCE) == ['"', "don't", "go", "!", '"']
        assert tokenize("well-known", SOURCE) == ["well-known"]
        assert tokenize("...", TARGET) == [".", ".", "."]

    def test_double_danda(self):
        assert tokenize("गीत॥", TARGET) == ["गीत", "॥"]

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            tokenize("x", "middle")

    @given(_text, st.sampled_from([SOURCE, TARGET]))
    def test_idempotent_and_whitespace_free(self, text, side):
        tokens = tokenize(text, side)
        assert tokenize(" ".join(tokens), side) == tokens
        for token in tokens:
            assert token != ""
            assert not any(ch.isspace() for ch in token)


class TestPunctuationTokens:
    def test_classification(self):
        assert is_punctuation_token(".")
        assert is_punctuation_token("।")
        assert is_punctuation_token("!?")
        assert not is_punctuation_token("a.")
        assert not is_punctuation_token("")

    def test_char_rule_on_every_code_point(self):
        # The early exit for letters and digits is checked against the
        # category rule on the unicodedata tables this interpreter ships.
        extra = frozenset("।॥")
        category = unicodedata.category
        wrong = [
            ch
            for ch in map(chr, range(0x110000))
            if is_punctuation_char(ch) != (ch in extra or category(ch).startswith("P"))
        ]
        assert wrong == []


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadParallel:
    def test_two_line_files(self, tmp_path):
        _write(tmp_path / "s.txt", ["The boy ran.", "A dog."])
        _write(tmp_path / "t.txt", ["लड़का दौड़ा।", "कुत्ता।"])
        corpus = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert [p.id for p in corpus.pairs] == [0, 1]
        assert corpus.pairs[0].source == ("the", "boy", "ran", ".")
        assert corpus.pairs[0].target == ("लड़का", "दौड़ा", "।")

    def test_line_count_mismatch(self, tmp_path):
        _write(tmp_path / "s.txt", ["a", "b", "c"])
        _write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(LineCountMismatch) as info:
            load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert (info.value.n_source, info.value.n_target) == (3, 2)

    def test_empty_files(self, tmp_path):
        (tmp_path / "s.txt").write_text("", encoding="utf-8")
        (tmp_path / "t.txt").write_text("", encoding="utf-8")
        corpus = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert len(corpus) == 0

    def test_invalid_encoding_reports_line(self, tmp_path):
        (tmp_path / "s.txt").write_bytes(b"fine\ncaf\xe9\n")
        _write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(InvalidEncoding) as info:
            load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert info.value.line_no == 2

    def test_round_trip_of_tokenized_content(self, tmp_path):
        _write(tmp_path / "s.txt", ["The  boy   ran.", "A (small) dog!"])
        _write(tmp_path / "t.txt", ["लड़का दौड़ा।", "छोटा कुत्ता।"])
        first = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        _write(tmp_path / "s2.txt", [" ".join(p.source) for p in first])
        _write(tmp_path / "t2.txt", [" ".join(p.target) for p in first])
        second = load_parallel(tmp_path / "s2.txt", tmp_path / "t2.txt")
        assert [p.source for p in second] == [p.source for p in first]
        assert [p.target for p in second] == [p.target for p in first]


_HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])


class TestLoadJudgments:
    def test_full_marks_row(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0"] + ["4"] * 10)])
        (judgment,) = load_judgments(tmp_path / "j.tsv")
        assert judgment.sentence_id == 0
        assert judgment.params == (4,) * 10

    def test_out_of_range_score(self, tmp_path):
        rows = [
            "\t".join(["0"] + ["4"] * 10),
            "\t".join(["1", "2", "5"] + ["2"] * 8),
        ]
        _write(tmp_path / "j.tsv", [_HEADER] + rows)
        with pytest.raises(OutOfRangeScore) as info:
            load_judgments(tmp_path / "j.tsv")
        assert (info.value.row, info.value.col, info.value.value) == (1, 2, 5)

    def test_short_row(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0"] + ["3"] * 9)])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert info.value.row == 0

    def test_duplicate_id(self, tmp_path):
        rows = ["\t".join([i] + ["3"] * 10) for i in ("0", "1", "0")]
        _write(tmp_path / "j.tsv", [_HEADER] + rows)
        with pytest.raises(MalformedRow, match="duplicate id 0") as info:
            load_judgments(tmp_path / "j.tsv")
        assert info.value.row == 2

    def test_non_integer_cell(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0", "x"] + ["3"] * 9)])
        with pytest.raises(MalformedRow):
            load_judgments(tmp_path / "j.tsv")

    def test_bad_header(self, tmp_path):
        _write(tmp_path / "j.tsv", ["id,p1", "0\t1"])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert info.value.row is None

    def test_judgment_type_validates(self):
        with pytest.raises(ValueError):
            HumanJudgment(0, (1,) * 9)
        with pytest.raises(ValueError):
            HumanJudgment(0, (1,) * 9 + (5,))


class TestCorpusStats:
    def test_hand_counted(self):
        corpus = make_corpus([["a", "b"], ["a", "c"]], [["x"], ["y"]])
        stats = stats_from_sentences(pair.source for pair in corpus)
        assert (stats.sentences, stats.words, stats.unique_words) == (2, 4, 3)

    def test_empty_corpus(self):
        corpus = make_corpus([], [])
        assert stats_from_sentences(pair.target for pair in corpus) == CorpusStats(0, 0, 0)

    def test_reporting_format(self):
        # Shape check only: the published training corpus is not distributed.
        stats = CorpusStats(3300, 55014, 8956)
        assert stats.unique_words <= stats.words
        assert str(stats) == "sentences=3300 words=55014 unique_words=8956"

    @given(
        st.lists(
            st.lists(st.sampled_from("abcde"), max_size=6),
            max_size=8,
        )
    )
    def test_unique_never_exceeds_words(self, sentences):
        stats = stats_from_sentences(sentences)
        assert stats.unique_words <= stats.words
        flat = [token for sentence in sentences for token in sentence]
        if len(set(flat)) == len(flat):
            assert stats.unique_words == stats.words
        else:
            assert stats.unique_words < stats.words
