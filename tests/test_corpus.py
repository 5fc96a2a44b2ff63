import tempfile
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe.corpus import (
    SOURCE,
    TARGET,
    is_punctuation_char,
    is_punctuation_token,
    iter_corpus,
    iter_parallel,
    load_judgments,
    tokenize,
)
from mtqe.errors import (
    InvalidEncoding,
    LineCountMismatch,
    MalformedRow,
    OutOfRangeScore,
    QEError,
    ReservedToken,
)
from mtqe.fileio import parse_int, read_table
from mtqe.grading import HumanJudgment

from conftest import reference_tokenize, run_cli

_CHARS = list("abcXY zq.?!,()-'।॥") + ["लड़", "का", "दौ"]
_text = st.text(alphabet=st.sampled_from("".join(_CHARS)), max_size=40)
# Any punctuation, math symbols and digits, so all-punctuation runs are common.
_symbols = st.text(st.characters(whitelist_categories=("P", "Sm", "Nd")))
# Runs of punctuation on both sides of words, and the characters of the
# CLI's byte-identity property: "\x00" is not whitespace, "İ" lowercases
# to two code points and "\U0001d49c" lies above U+FFFF.
_peel_text = st.text(alphabet="ab .!?-'।\t\x00\U0001d49cİ", max_size=40)


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

    @given(st.one_of(_peel_text, _text, _symbols, st.text()), st.sampled_from([SOURCE, TARGET]))
    def test_equals_chunk_copying_reference(self, text, side):
        assert tokenize(text, side) == reference_tokenize(text, side)

    def test_long_punctuation_run_takes_linear_time(self):
        # Peeling a run by copying the chunk at each character is quadratic:
        # about 25 s of CPU for this one on a 2-core Xeon under CPython 3.11,
        # against under 1 s peeled by index.
        run = "!" * (1 << 20)
        start = time.process_time()
        tokens = tokenize("a" + run, TARGET)
        elapsed = time.process_time() - start
        assert tokens == ["a", *run]
        assert elapsed < 4.5


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
        corpus = tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        assert [p.id for p in corpus] == [0, 1]
        assert corpus[0].source == ("the", "boy", "ran", ".")
        assert corpus[0].target == ("लड़का", "दौड़ा", "।")

    def test_line_count_mismatch(self, tmp_path):
        _write(tmp_path / "s.txt", ["a", "b", "c"])
        _write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(LineCountMismatch) as info:
            tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        assert str(info.value) == (
            "parallel files are not line-aligned: 3 source lines vs 2 target lines"
        )

    def test_empty_files(self, tmp_path):
        (tmp_path / "s.txt").write_text("", encoding="utf-8")
        (tmp_path / "t.txt").write_text("", encoding="utf-8")
        corpus = tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        assert corpus == ()

    def test_invalid_encoding_reports_line(self, tmp_path):
        (tmp_path / "s.txt").write_bytes(b"fine\ncaf\xe9\n")
        _write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(InvalidEncoding) as info:
            tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        assert str(info.value) == f"invalid UTF-8 at {tmp_path / 's.txt'}:2"

    def test_round_trip_of_tokenized_content(self, tmp_path):
        _write(tmp_path / "s.txt", ["The  boy   ran.", "A (small) dog!"])
        _write(tmp_path / "t.txt", ["लड़का दौड़ा।", "छोटा कुत्ता।"])
        first = tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        _write(tmp_path / "s2.txt", [" ".join(p.source) for p in first])
        _write(tmp_path / "t2.txt", [" ".join(p.target) for p in first])
        second = tuple(iter_parallel(tmp_path / "s2.txt", tmp_path / "t2.txt"))
        assert [p.source for p in second] == [p.source for p in first]
        assert [p.target for p in second] == [p.target for p in first]


_HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])


# Cells other than "0" to "4": look-alikes that are valid integers ("-0",
# "00"), ones int() reads but parse_int refuses ("+1", " 1", the
# Arabic-Indic one), out-of-range scores, an empty cell and more digits
# than int() reads.
_ODD_CELLS = ["-0", "00", "04", "+1", " 1", "1 ", "\u0661", "5", "-1", "", "x", "1" * 5000]
# A judgment row's ten cells: "0" to "4", with up to two of them odd.
_judgment_cells = st.tuples(
    st.lists(st.sampled_from("01234"), min_size=10, max_size=10),
    st.dictionaries(st.integers(0, 9), st.sampled_from(_ODD_CELLS), max_size=2),
).map(lambda drawn: [drawn[1].get(col, cell) for col, cell in enumerate(drawn[0])])


def _outcome(load, path):
    """What ``load(path)`` returns, or the type and message of the error it raises."""
    try:
        return load(path)
    except QEError as exc:
        return type(exc), str(exc)


def _reference_load_judgments(path):
    """load_judgments as it read every cell: one parse_int call and range check per cell."""
    judgments = []
    for row, sentence_id, _, cells in read_table(path, "\t", (_HEADER,)):
        try:
            params = [parse_int(cell) for cell in cells[1:]]
        except ValueError:
            raise MalformedRow(row, "non-integer cell") from None
        except OverflowError as exc:
            raise MalformedRow(row, str(exc)) from None
        for col, value in enumerate(params, start=1):
            if not 0 <= value <= 4:
                raise OutOfRangeScore(row, col, value)
        judgments.append(HumanJudgment(sentence_id, tuple(params)))
    return judgments


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
        assert str(info.value) == "judgment parameter p2 in row 1 is 5, outside 0..4"
        # The tenth parameter is checked as well.
        _write(tmp_path / "j10.tsv", [_HEADER, "\t".join(["0"] + ["1"] * 9 + ["5"])])
        with pytest.raises(OutOfRangeScore) as info:
            load_judgments(tmp_path / "j10.tsv")
        assert str(info.value) == "judgment parameter p10 in row 0 is 5, outside 0..4"

    def test_short_row(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0"] + ["3"] * 9)])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert str(info.value).startswith("malformed row 0: ")

    def test_duplicate_id(self, tmp_path):
        # Ids rise row by row, so an earlier id that comes back is out of order.
        cases = {("0", "1", "1"): "duplicate id 1", ("0", "1", "0"): "id 0 out of order after id 1"}
        for ids, message in cases.items():
            rows = ["\t".join([i] + ["3"] * 10) for i in ids]
            _write(tmp_path / "j.tsv", [_HEADER] + rows)
            with pytest.raises(MalformedRow) as info:
                load_judgments(tmp_path / "j.tsv")
            assert str(info.value) == f"malformed row 2: {message}"

    def test_non_integer_cell(self, tmp_path):
        _write(tmp_path / "j.tsv", [_HEADER, "\t".join(["0", "x"] + ["3"] * 9)])
        with pytest.raises(MalformedRow):
            load_judgments(tmp_path / "j.tsv")

    def test_bad_header(self, tmp_path):
        _write(tmp_path / "j.tsv", ["id,p1", "0\t1"])
        with pytest.raises(MalformedRow) as info:
            load_judgments(tmp_path / "j.tsv")
        assert str(info.value).startswith("malformed header: ")

    @settings(max_examples=200)
    @given(rows=st.lists(_judgment_cells, max_size=4))
    def test_equals_the_per_cell_reference(self, rows):
        # load_judgments reads the cells "0" to "4" through a table and
        # every other cell one at a time, as the reference reads them all.
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "j.tsv"
            _write(path, [_HEADER] + ["\t".join([str(i), *cells]) for i, cells in enumerate(rows)])
            assert _outcome(load_judgments, path) == _outcome(_reference_load_judgments, path)


class TestReservedMarkers:
    """A corpus token may not be one of the language model's markers."""

    @pytest.mark.parametrize(
        "side, line, token",
        [
            (SOURCE, "<unk> opens the line", "<unk>"),
            (SOURCE, "Shouted <UNK> here", "<unk>"),  # lowercased into the marker
            (SOURCE, "a line that ends </s>", "</s>"),
            (TARGET, "लड़का <s> दौड़ा।", "<s>"),  # mid-sentence
            (TARGET, "quoted (</s>).", "</s>"),  # peeled off its punctuation
        ],
    )
    def test_marker_names_path_and_line(self, tmp_path, side, line, token):
        path = tmp_path / "c.txt"
        _write(path, ["a fine line", line, "<unk>"])
        with pytest.raises(ReservedToken) as info:
            list(iter_corpus(path, side))
        assert str(info.value) == f"reserved token {token!r} at {path}:2"

    def test_first_faulty_line_is_reported(self, tmp_path):
        # The file is read a block at a time, so a marker comes before
        # invalid UTF-8 on a later line, and the other way round.
        path = tmp_path / "c.txt"
        path.write_bytes(b"fine\na <s> b\ncaf\xe9\n")
        with pytest.raises(ReservedToken, match=":2$"):
            list(iter_corpus(path, TARGET))
        path.write_bytes(b"fine\ncaf\xe9\na <s> b\n")
        with pytest.raises(InvalidEncoding, match=":2$"):
            list(iter_corpus(path, TARGET))

    def test_look_alikes_are_ordinary_tokens(self, tmp_path):
        path = tmp_path / "c.txt"
        _write(path, ["<UNK> <unknown> a<s> < s > </S>"])
        expected = ("<UNK>", "<unknown>", "a<s>", "<", "s", ">", "</S>")
        assert list(iter_corpus(path, TARGET)) == [expected]

    @pytest.mark.parametrize("bad", ["s.txt", "t.txt"])
    def test_load_parallel_checks_both_sides(self, tmp_path, bad):
        _write(tmp_path / "s.txt", ["a b", "c d"])
        _write(tmp_path / "t.txt", ["x y", "z w"])
        _write(tmp_path / bad, ["a b", "c <unk> d"])
        with pytest.raises(ReservedToken) as info:
            tuple(iter_parallel(tmp_path / "s.txt", tmp_path / "t.txt"))
        assert str(info.value) == f"reserved token '<unk>' at {tmp_path / bad}:2"

    @given(st.lists(st.text(alphabet="<>/sunkSUNK .(", max_size=12), max_size=4),
           st.sampled_from([SOURCE, TARGET]))
    def test_rejects_exactly_the_lines_whose_tokens_hold_a_marker(self, lines, side):
        sentences = [tuple(tokenize(line, side)) for line in lines]
        bad = [i for i, tokens in enumerate(sentences, start=1)
               if {"<unk>", "<s>", "</s>"}.intersection(tokens)]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "c.txt"
            _write(path, lines)
            if bad:
                with pytest.raises(ReservedToken, match=f":{bad[0]}$"):
                    list(iter_corpus(path, side))
            else:
                assert list(iter_corpus(path, side)) == sentences


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
