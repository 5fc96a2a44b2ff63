import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtqe.corpus import (
    SOURCE,
    TARGET,
    HumanJudgment,
    is_punctuation_char,
    is_punctuation_token,
    load_judgments,
    load_parallel,
    tokenize,
)
from mtqe.errors import (
    InvalidEncoding,
    LineCountMismatch,
    MalformedRow,
    OutOfRangeScore,
)

from conftest import run_cli

_CHARS = list("abcXY zq.?!,()-'।॥") + ["लड़", "का", "दौ"]
_text = st.text(alphabet=st.sampled_from("".join(_CHARS)), max_size=40)
# Any punctuation, math symbols and digits, so all-punctuation runs are common.
_symbols = st.text(st.characters(whitelist_categories=("P", "Sm", "Nd")))


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

    @given(st.one_of(_text, _symbols, st.text()))
    def test_token_rule_equals_per_character_definition(self, token):
        extra = frozenset("।॥")
        expected = bool(token) and all(
            ch in extra or unicodedata.category(ch).startswith("P") for ch in token
        )
        assert is_punctuation_token(token) == expected

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
        assert str(info.value) == (
            "parallel files are not line-aligned: 3 source lines vs 2 target lines"
        )

    def test_empty_files(self, tmp_path):
        (tmp_path / "s.txt").write_text("", encoding="utf-8")
        (tmp_path / "t.txt").write_text("", encoding="utf-8")
        corpus = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert corpus.pairs == ()

    def test_invalid_encoding_reports_line(self, tmp_path):
        (tmp_path / "s.txt").write_bytes(b"fine\ncaf\xe9\n")
        _write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(InvalidEncoding) as info:
            load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
        assert str(info.value) == f"invalid UTF-8 at {tmp_path / 's.txt'}:2"

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
        assert (info.value.col, info.value.value) == (2, 5)
        assert str(info.value) == "judgment parameter p2 in row 1 is 5, outside 0..4"

    def test_short_row(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0"] + ["3"] * 9)])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert str(info.value).startswith("malformed row 0: ")

    def test_duplicate_id(self, tmp_path):
        rows = ["\t".join([i] + ["3"] * 10) for i in ("0", "1", "0")]
        _write(tmp_path / "j.tsv", [_HEADER] + rows)
        with pytest.raises(MalformedRow, match="duplicate id 0") as info:
            load_judgments(tmp_path / "j.tsv")
        assert str(info.value) == "malformed row 2: duplicate id 0"

    def test_non_integer_cell(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0", "x"] + ["3"] * 9)])
        with pytest.raises(MalformedRow):
            load_judgments(tmp_path / "j.tsv")

    def test_bad_header(self, tmp_path):
        _write(tmp_path / "j.tsv", ["id,p1", "0\t1"])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert str(info.value).startswith("malformed header: ")

    def test_judgment_type_validates(self):
        with pytest.raises(ValueError):
            HumanJudgment(0, (1,) * 9)
        with pytest.raises(ValueError):
            HumanJudgment(0, (1,) * 9 + (5,))
        with pytest.raises(OutOfRangeScore) as info:
            HumanJudgment(0, (1,) * 9 + (5,))
        assert (info.value.col, info.value.value) == (10, 5)
        assert "row" not in str(info.value)


class TestCorpusStats:
    """The counts line `build-lm` prints for the side it trained on."""

    def _build_lm_stdout(self, tmp_path, capsys, text):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        code = run_cli("build-lm", "--corpus", corpus, "--side", SOURCE,
                       "--out", tmp_path / "c.lm")
        assert code == 0
        return capsys.readouterr().out

    def test_hand_counted(self, tmp_path, capsys):
        out = self._build_lm_stdout(tmp_path, capsys, "a b\na c\n")
        assert out == "sentences=2 words=4 unique_words=3\n"

    def test_reporting_format(self, tmp_path, capsys):
        # Counts are of tokens after tokenization: case folded, punctuation
        # peeled into tokens of its own, runs of spaces collapsed.
        out = self._build_lm_stdout(tmp_path, capsys, "Hello, world.\nhello  world\n")
        assert out == "sentences=2 words=6 unique_words=4\n"
