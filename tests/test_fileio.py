"""One file codec, one contract: every reader reports bad input the same way."""

import os
import re
import stat
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe import fileio
from mtqe.bayes import NaiveBayesModel, load_model
from mtqe.cli import _read_grade_file
from mtqe.corpus import iter_parallel, load_judgments
from mtqe.errors import (
    CorruptModel,
    InvalidEncoding,
    MalformedRow,
    OutOfRangeScore,
    VersionMismatch,
)
from mtqe.feature_csv import N_FEATURES, FeatureVector, read_features, write_features
from mtqe.fileio import atomic_write_lines, iter_lines, parse_int, read_lines
from mtqe.grading import Grade
from mtqe.lexicon import TranslationLexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

from conftest import (
    CELL_WORDS,
    TRAINING_WORDS,
    decode_lm,
    read_lexicon_entries,
    run_cli,
    run_toy_pipeline,
    save_reference_lm,
    with_unk_grams,
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every file of a finished toy pipeline run."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "data").mkdir()
    (root / "out").mkdir()
    paths, codes = run_toy_pipeline(root / "data", root / "out", n_pairs=30, seed=4)
    assert codes == [0] * len(codes)
    return paths


def _extract(paths, out, **swap):
    files = {key: paths[key] for key in ("src", "tgt", "src_lm", "tgt_lm", "lexicon", "judgments")}
    files.update(swap)
    return ["extract", "--pairs-src", files["src"], "--pairs-tgt", files["tgt"],
            "--src-lm", files["src_lm"], "--tgt-lm", files["tgt_lm"],
            "--lexicon", files["lexicon"], "--judgments", files["judgments"], "--out", out]


# name: (artifact, library reader, CLI argv reading the file, short-row spec)
# The short-row spec is (line index, cell separator) of a data line whose
# last cell gets dropped; the parallel corpus has no cells, so it has none.
READERS = {
    "parallel": (
        "src",
        lambda path, paths: tuple(iter_parallel(path, paths["tgt"])),
        lambda path, paths, out: ["build-lexicon", "--pairs-src", path,
                                  "--pairs-tgt", paths["tgt"], "--out", out],
        None,
    ),
    "judgments": (
        "judgments",
        lambda path, paths: load_judgments(path),
        lambda path, paths, out: _extract(paths, out, judgments=path),
        (2, "\t"),
    ),
    "features": (
        "features",
        lambda path, paths: read_features(path),
        lambda path, paths, out: ["train", "--features", path, "--out", out],
        (2, ","),
    ),
    "lexicon": (
        "lexicon",
        lambda path, paths: load_lexicon(path),
        lambda path, paths, out: _extract(paths, out, lexicon=path),
        (1, "\t"),
    ),
    "lm": (
        "src_lm",
        lambda path, paths: load_lm(path),
        lambda path, paths, out: _extract(paths, out, src_lm=path),
        (11, "\t"),  # the second n-gram line of an order-3 model
    ),
    "model": (
        "model",
        lambda path, paths: load_model(path),
        lambda path, paths, out: ["predict", "--model", path,
                                  "--features", paths["features"], "--out", out],
        (5, " "),  # the first class's means line
    ),
    "grades": (
        "predictions",
        lambda path, paths: _read_grade_file(path),
        lambda path, paths, out: ["evaluate", "--human", paths["features"],
                                  "--predicted", path, "--out", out],
        (2, ","),
    ),
}


def _rewrite_line(source, target, index, change):
    lines = source.read_bytes().split(b"\n")
    lines[index] = change(lines[index])
    target.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_names_path_and_line(name, artifacts, tmp_path, capsys):
    artifact, read, argv, _ = READERS[name]
    bad = tmp_path / f"bad-{artifacts[artifact].name}"
    _rewrite_line(artifacts[artifact], bad, 1, lambda line: line + b"\xff")
    with pytest.raises(InvalidEncoding) as info:
        read(bad, artifacts)
    assert str(info.value) == f"invalid UTF-8 at {bad}:2"
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert f"invalid UTF-8 at {bad}:2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(n for n, spec in READERS.items() if spec[3]))
def test_short_row_is_located(name, artifacts, tmp_path):
    # The row loses its last cell, and then all of it: no reader skips a
    # blank line.
    artifact, read, argv, (index, sep) = READERS[name]
    bad = tmp_path / f"short-{artifacts[artifact].name}"
    for change in (lambda line: line.rsplit(sep.encode(), 1)[0], lambda line: b""):
        _rewrite_line(artifacts[artifact], bad, index, change)
        with pytest.raises((MalformedRow, CorruptModel)) as info:
            read(bad, artifacts)
        if isinstance(info.value, MalformedRow):
            header_lines = 0 if name == "lexicon" else 1
            assert str(info.value).startswith(f"malformed row {index - header_lines}: ")
        else:
            key = read_lines(bad)[index].split("\t")[0]
            assert key in str(info.value)
        assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["judgments", "features", "grades"])
def test_table_reports_its_first_faulty_line(name, artifacts, tmp_path, capsys):
    # A table is read forward like a corpus file: a short row 0 is
    # reported, not the invalid UTF-8 two lines further on.
    artifact, read, argv, (_, sep) = READERS[name]
    bad = tmp_path / f"faults-{artifacts[artifact].name}"
    _rewrite_line(artifacts[artifact], bad, 1, lambda line: line.rsplit(sep.encode(), 1)[0])
    _rewrite_line(bad, bad, 3, lambda line: line + b"\xff")
    with pytest.raises(MalformedRow, match="^malformed row 0: "):
        read(bad, artifacts)
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert "malformed row 0: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["lm", "model"])
def test_crlf_model_is_corrupt(name, artifacts, tmp_path):
    artifact, read, _, _ = READERS[name]
    crlf = tmp_path / "crlf"
    crlf.write_bytes(artifacts[artifact].read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(CorruptModel):
        read(crlf, artifacts)


def test_repeated_lexicon_entry_is_located(artifacts, tmp_path, capsys):
    lines = read_lines(artifacts["lexicon"])
    source, target, _ = lines[0].split("\t")
    bad = tmp_path / "repeated-lexicon.tsv"
    lines.insert(1, f"{source}\t{target}\t1.0")
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as info:
        load_lexicon(bad)
    assert str(info.value) == f"malformed row 1: duplicate entry {source!r} -> {target!r}"
    capsys.readouterr()
    assert run_cli(*_extract(artifacts, tmp_path / "out", lexicon=bad)) == 2
    assert "malformed row 1: duplicate entry" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _gram_lines(path):
    """The lines of a language model, the index of its ``ngrams`` line and that count."""
    lines = read_lines(path)
    header = next(i for i, line in enumerate(lines) if line.startswith("ngrams\t"))
    return lines, header, int(lines[header].split("\t")[1])


def _first_gram(lines, header, n):
    """The index of the first length-``n`` gram line after the ``ngrams`` line."""
    return next(i for i in range(header + 1, len(lines)) if lines[i].count(" ") == n - 1)


def _assert_corrupt_lm(artifacts, tmp_path, capsys, lines, message):
    """``load_lm`` and ``extract`` both reject ``lines`` with ``message``."""
    bad = tmp_path / "bad.lm"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptModel) as info:
        load_lm(bad)
    assert str(info.value) == f"corrupt model file: {message}"
    capsys.readouterr()
    assert run_cli(*_extract(artifacts, tmp_path / "out", src_lm=bad)) == 2
    assert f"corrupt model file: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repeated_gram_is_corrupt(artifacts, tmp_path, capsys, n):
    # The first length-n gram comes again on the next line; the header
    # counts the repeated line, so only the repetition is wrong.
    lines, header, n_grams = _gram_lines(artifacts["src_lm"])
    first = _first_gram(lines, header, n)
    gram, count = lines[first].split("\t")
    lines[header] = f"ngrams\t{n_grams + 1}"
    lines.insert(first + 1, f"{gram}\t{int(count) + 1}")
    _assert_corrupt_lm(artifacts, tmp_path, capsys, lines, f"duplicate n-gram {gram!r}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_repeated_gram_far_from_its_line_is_out_of_order(artifacts, tmp_path, capsys, n):
    # The first length-n gram comes back just before the closing line,
    # below the last gram line, which the rising check reports first.
    lines, header, n_grams = _gram_lines(artifacts["src_lm"])
    first = _first_gram(lines, header, n)
    assert first < len(lines) - 2  # not the last gram line
    gram, count = lines[first].split("\t")
    last = lines[-2].split("\t")[0]
    lines[header] = f"ngrams\t{n_grams + 1}"
    lines.insert(-1, f"{gram}\t{int(count) + 1}")
    message = f"n-gram {gram!r} out of order after n-gram {last!r}"
    _assert_corrupt_lm(artifacts, tmp_path, capsys, lines, message)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_swapped_gram_lines_are_out_of_order(artifacts, tmp_path, capsys, n):
    # The first length-n gram line trades places with the next gram line;
    # the header still matches the counts, so only the order is wrong.
    lines, header, _ = _gram_lines(artifacts["src_lm"])
    first = _first_gram(lines, header, n)
    assert first < len(lines) - 2  # a gram line follows it
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    earlier, later = (lines[i].split("\t")[0] for i in (first + 1, first))
    message = f"n-gram {earlier!r} out of order after n-gram {later!r}"
    _assert_corrupt_lm(artifacts, tmp_path, capsys, lines, message)


def test_gram_with_unknown_token_is_corrupt(artifacts, tmp_path, capsys):
    # The last token of a trigram becomes one no unigram line lists; the
    # header lines still match the counts.
    lines = read_lines(artifacts["src_lm"])
    index = next(i for i, line in enumerate(lines) if line.count(" ") == 2)
    gram, count = lines[index].split("\t")
    gram = gram.rsplit(" ", 1)[0] + " neverseen"
    lines[index] = f"{gram}\t{count}"
    bad = tmp_path / "unknown-token.lm"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptModel) as info:
        load_lm(bad)
    assert f"n-gram {gram!r} has a token with no unigram line" in str(info.value)
    capsys.readouterr()
    assert run_cli(*_extract(artifacts, tmp_path / "out", src_lm=bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"corrupt model file: n-gram {gram!r}" in captured.err
    assert not (tmp_path / "out").exists()


def test_gram_holding_unk_stops_extract(artifacts, tmp_path, capsys):
    bad = tmp_path / "unk.lm"
    save_reference_lm(with_unk_grams(decode_lm(load_lm(artifacts["src_lm"]))), bad)
    capsys.readouterr()
    assert run_cli(*_extract(artifacts, tmp_path / "out", src_lm=bad)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "corrupt model file: n-gram '<s> <s> <unk>' holds '<unk>'" in captured.err
    assert not (tmp_path / "out").exists()


def test_huge_lm_order_fails_before_allocating(artifacts, tmp_path, capsys):
    # Four lines claiming order 100000: the quartile header lines are
    # checked one at a time, so the first missing one stops the load.
    bad = tmp_path / "huge-order.lm"
    bad.write_text("mtqe-ngram-lm\t1\norder\t100000\nvocab_size\t5\nend\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(CorruptModel, match="missing header line 'q1_1'"):
            load_lm(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    capsys.readouterr()
    assert run_cli(*_extract(artifacts, tmp_path / "out", src_lm=bad)) == 2
    assert "missing header line 'q1_1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _signed(version):
    return lambda lines: [lines[0].split("\t")[0] + f"\t{version}", *lines[1:]]


# A model file ends at its "end" line and has a format version of at least 1.
ENVELOPE_EDITS = {
    "line after end": lambda lines: lines + ["garbage"],
    "class after end": lambda lines: lines + ["class\tPoor"],
    "version 0": _signed(0),
    "version -3": _signed(-3),
}


@pytest.mark.parametrize("edit", sorted(ENVELOPE_EDITS))
@pytest.mark.parametrize("name", ["lm", "model"])
def test_model_envelope_is_enforced(name, edit, artifacts, tmp_path, capsys):
    artifact, read, argv, _ = READERS[name]
    bad = tmp_path / f"edited-{artifacts[artifact].name}"
    lines = ENVELOPE_EDITS[edit](read_lines(artifacts[artifact]))
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises((CorruptModel, VersionMismatch)):
        read(bad, artifacts)
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert "model file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The last line must be "end", and the loader must read every line before it.
BODY_EDITS = {
    "no end line": lambda lines: lines[:-1] + ["fin"],
    "unread line before end": lambda lines: lines[:-1] + ["class\tPoor", "end"],
}


@pytest.mark.parametrize("edit", sorted(BODY_EDITS))
@pytest.mark.parametrize("name", ["lm", "model"])
def test_model_body_ends_at_end(name, edit, artifacts, tmp_path):
    artifact, read, _, _ = READERS[name]
    bad = tmp_path / f"edited-{artifacts[artifact].name}"
    lines = BODY_EDITS[edit](read_lines(artifacts[artifact]))
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptModel):
        read(bad, artifacts)


def _model_refused_with(detail, name, bad, artifacts, tmp_path, capsys):
    # The library loader and the CLI stage reading ``bad`` both give ``detail``.
    _, read, argv, _ = READERS[name]
    message = f"corrupt model file: {detail}"
    with pytest.raises(CorruptModel) as info:
        read(bad, artifacts)
    assert str(info.value) == message
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _header(key, value):
    return lambda lines: [f"{key}\t{value}" if line.startswith(f"{key}\t") else line
                          for line in lines]


def _class_blocks(*order):
    # The toy model's four class blocks, lines 3..18, in the given order.
    def edit(lines):
        blocks = [lines[3 + 4 * i : 7 + 4 * i] for i in range(4)]
        return [*lines[:3], *(line for i in order for line in blocks[i]), *lines[19:]]
    return edit


# case: (reader, edit, detail of the message)
HEADER_FAULTS = {
    "lm order 0": ("lm", _header("order", 0), "order must be >= 1, got 0"),
    "lm order -1": ("lm", _header("order", -1), "order must be >= 1, got -1"),
    "model classes 0": ("model", _header("classes", 0), "class count 0 outside 1..4"),
    "model classes 5": ("model", _header("classes", 5), "class count 5 outside 1..4"),
    "model repeated class": ("model", _class_blocks(0, 0, 2, 3), "duplicate class"),
    "model swapped classes": (
        "model", _class_blocks(1, 0, 2, 3), "classes are not in ascending grade order"
    ),
}


@pytest.mark.parametrize("case", sorted(HEADER_FAULTS))
def test_model_header_fault_is_named(case, artifacts, tmp_path, capsys):
    name, edit, detail = HEADER_FAULTS[case]
    artifact = READERS[name][0]
    bad = tmp_path / f"edited-{artifacts[artifact].name}"
    bad.write_text("\n".join(edit(read_lines(artifacts[artifact]))) + "\n", encoding="utf-8")
    _model_refused_with(detail, name, bad, artifacts, tmp_path, capsys)


def _bad_byte_on_line_21(lines):
    lines[20] += b"\xff"  # a gram line
    return lines


# reader: (header line index, its key, a non-integer value for it, an edit
# making a later fault, and that fault's message)
DOUBLE_FAULTS = {
    "lm": (1, "order", "three", _bad_byte_on_line_21, "invalid UTF-8 at {}:21"),
    "model": (2, "classes", "two", lambda lines: lines[:-1],
              "corrupt model file: the last line must be 'end', got 'variances\\t"),
}


@pytest.mark.parametrize("name", sorted(DOUBLE_FAULTS))
def test_model_faults_come_in_line_order(name, artifacts, tmp_path, capsys):
    # A model file is read forward, so a bad header line is reported
    # before a fault further on: invalid UTF-8 or a missing "end" line.
    index, key, word, later_fault, later = DOUBLE_FAULTS[name]
    artifact, read, _, _ = READERS[name]
    lines = later_fault(artifacts[artifact].read_bytes().split(b"\n")[:-1])
    bad = tmp_path / f"faults-{artifacts[artifact].name}"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises((CorruptModel, InvalidEncoding)) as info:
        read(bad, artifacts)
    assert str(info.value).startswith(later.format(bad))
    lines[index] = f"{key}\t{word}".encode()
    bad.write_bytes(b"\n".join(lines) + b"\n")
    detail = f"non-integer value in header line '{key}'"
    _model_refused_with(detail, name, bad, artifacts, tmp_path, capsys)


def _load_judgment_row(cells):
    # One judgment row of the given eleven cells, through the file reader.
    lines = ["\t".join(["id"] + [f"p{i}" for i in range(1, 11)]), "\t".join(cells)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "judgments.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load_judgments(path)


@given(st.text(alphabet="-+_ 0123456789٣²\t", max_size=6))
def test_parse_int_takes_exactly_the_integer_grammar(text):
    # The judgment reader parses each score cell by the same rule; a tab
    # splits the cell, so such a text makes the row too wide instead.
    cells = ["0", text] + ["0"] * 9
    if re.fullmatch(r"-?[0-9]+", text):
        assert parse_int(text) == int(text)
        if 0 <= int(text) <= 4:
            assert _load_judgment_row(cells)[0].params == (int(text),) + (0,) * 9
        else:
            with pytest.raises(OutOfRangeScore, match="p1 in row 0"):
                _load_judgment_row(cells)
    else:
        with pytest.raises(ValueError):
            parse_int(text)
        message = "expected 11 cells" if "\t" in text else "non-integer cell"
        with pytest.raises(MalformedRow, match=f"^malformed row 0: {message}"):
            _load_judgment_row(cells)


# Forms int() and float() read as the number they spell but no writer
# emits: surrounding whitespace, a "_" separator and a non-ASCII digit
# (like " 24", "2_4" and "٣").
LENIENT = {
    " 24": lambda cell: f" {cell} ",
    "2_4": lambda cell: f"0_{cell}",
    "٣": lambda cell: cell[:-1] + chr(ord("٠") + int(cell[-1])),
}

# case: (reader, line index, cell separator, cell index, location in the message)
NUMERIC_CELLS = {
    "judgment id": ("judgments", 1, "\t", 0, "row 0"),
    "judgment score": ("judgments", 1, "\t", 1, "row 0"),
    "feature id": ("features", 1, ",", 0, "row 0"),
    "feature count": ("features", 1, ",", 1, "row 0"),
    "feature value": ("features", 1, ",", 3, "row 0"),
    "lexicon score": ("lexicon", 0, "\t", 2, "row 0"),
    "grade id": ("grades", 1, ",", 0, "row 0"),
    "lm version": ("lm", 0, "\t", 1, "format version"),
    "lm header": ("lm", 1, "\t", 1, "'order'"),
    "lm count": ("lm", 10, "\t", 1, "count"),
    "model version": ("model", 0, "\t", 1, "format version"),
    "model header": ("model", 2, "\t", 1, "'classes'"),
    "model float": ("model", 1, "\t", 1, "'variance_floor'"),
}


FLOAT_CELLS = {"feature value", "lexicon score", "model float"}

# Numbers too large for a float, which a feature count, a classifier
# parameter and a language-model count must fit.  The gram line of "lm
# count" is a unigram counted above Q3, so no quartile header line moves.
TOO_LARGE = {
    "feature count": lambda cell: "1" + "0" * 400,
    "model float": lambda cell: "0x1p+2000",
    "lm count": lambda cell: "1" + "0" * 400,
}


@pytest.mark.parametrize(
    "case, form",
    [(case, form) for case in sorted(NUMERIC_CELLS) for form in sorted(LENIENT)]
    # int() also takes a "+" sign; an integer matches -?[0-9]+.
    + [(case, "+24") for case in sorted(NUMERIC_CELLS.keys() - FLOAT_CELLS)]
    + [(case, "too large") for case in sorted(TOO_LARGE)],
)
def test_lenient_number_is_located(case, form, artifacts, tmp_path, capsys):
    name, index, sep, position, where = NUMERIC_CELLS[case]
    artifact, read, argv, _ = READERS[name]
    bad = tmp_path / f"lenient-{artifacts[artifact].name}"
    edit = TOO_LARGE[case] if form == "too large" else LENIENT.get(form, lambda cell: f"+{cell}")

    def change(line):
        cells = line.decode("utf-8").split(sep)
        cells[position] = edit(cells[position])
        return sep.join(cells).encode("utf-8")

    _rewrite_line(artifacts[artifact], bad, index, change)
    with pytest.raises((MalformedRow, CorruptModel)) as info:
        read(bad, artifacts)
    assert where in str(info.value)
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The message for an integer cell of more digits than int() reads (4300 by
# default), each cell that fileio.parse_int reads.
TOO_MANY_DIGITS = {
    "judgment id": "malformed row 0: too many digits",
    "judgment score": "malformed row 0: too many digits",
    "feature id": "malformed row 0: too many digits",
    "feature count": "malformed row 0: too many digits",
    "grade id": "malformed row 0: too many digits",
    "lm version": "corrupt model file: too many digits in format version",
    "lm header": "corrupt model file: too many digits in header line 'order'",
    "model version": "corrupt model file: too many digits in format version",
    "model header": "corrupt model file: too many digits in header line 'classes'",
}


@pytest.mark.parametrize("case", sorted(TOO_MANY_DIGITS))
def test_integer_with_too_many_digits_is_located(case, artifacts, tmp_path, capsys):
    name, index, sep, position, _ = NUMERIC_CELLS[case]
    artifact, read, argv, _ = READERS[name]
    bad = tmp_path / f"long-{artifacts[artifact].name}"

    def change(line):
        cells = line.decode("utf-8").split(sep)
        cells[position] = "1" * 5000
        return sep.join(cells).encode("utf-8")

    _rewrite_line(artifacts[artifact], bad, index, change)
    message = TOO_MANY_DIGITS[case]
    with pytest.raises((MalformedRow, CorruptModel)) as info:
        read(bad, artifacts)
    assert str(info.value) == message
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("space", ["\v", "\f", "\r"], ids=repr)
def test_hex_float_with_trailing_whitespace_is_corrupt(space, artifacts, tmp_path):
    # float.fromhex() takes surrounding ASCII whitespace; the means line
    # splits on spaces, so only the other whitespace characters reach it.
    bad = tmp_path / "spaced.model"
    _rewrite_line(artifacts["model"], bad, 5, lambda line: line + space.encode())
    with pytest.raises(CorruptModel, match="bad float in 'means' line"):
        load_model(bad)


def _repeat_first_id(source, target, sep=","):
    # Data row 1 takes row 0's id, so the ids read 0, 0, 2, ...
    lines = read_lines(source)
    cells = lines[2].split(sep)
    cells[0] = lines[1].split(sep)[0]
    lines[2] = sep.join(cells)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def _refused_with(message, name, bad, artifacts, tmp_path, capsys):
    # The library reader and the CLI stage reading ``bad`` both give ``message``.
    _, read, argv, _ = READERS[name]
    with pytest.raises(MalformedRow) as info:
        read(bad, artifacts)
    assert str(info.value) == message
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["features", "grades", "judgments"])
def test_repeated_id_is_located(name, artifacts, tmp_path, capsys):
    artifact, _, _, (_, sep) = READERS[name]
    bad = tmp_path / f"repeated-{artifacts[artifact].name}"
    _repeat_first_id(artifacts[artifact], bad, sep)
    _refused_with("malformed row 1: duplicate id 0", name, bad, artifacts, tmp_path, capsys)


@pytest.mark.parametrize("name", ["judgments", "features", "grades", "lexicon"])
def test_falling_key_is_located(name, artifacts, tmp_path, capsys):
    # Data rows 1 and 2 swap places, so row 2's key is below row 1's.
    artifact, _, _, (_, sep) = READERS[name]
    lines = read_lines(artifacts[artifact])
    first = 0 if name == "lexicon" else 1  # the line of data row 0
    lines[first + 1], lines[first + 2] = lines[first + 2], lines[first + 1]
    bad = tmp_path / f"swapped-{artifacts[artifact].name}"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    swapped = lines[first + 1 : first + 3]
    if name == "lexicon":
        keys = ["entry {!r} -> {!r}".format(*line.split(sep)[:2]) for line in swapped]
    else:
        keys = [f"id {line.split(sep)[0]}" for line in swapped]
    message = f"malformed row 2: {keys[1]} out of order after {keys[0]}"
    _refused_with(message, name, bad, artifacts, tmp_path, capsys)


def test_evaluate_rejects_ids_repeated_in_both_files(artifacts, tmp_path, capsys):
    # Both files list the same ids, so only the repetition is wrong.
    human = _repeat_first_id(artifacts["features"], tmp_path / "human.csv")
    predicted = _repeat_first_id(artifacts["predictions"], tmp_path / "predicted.csv")
    capsys.readouterr()
    assert run_cli("evaluate", "--human", human, "--predicted", predicted,
                   "--out", tmp_path / "report.csv") == 2
    captured = capsys.readouterr()
    assert "malformed row 1: duplicate id 0" in captured.err
    assert "agreement" not in captured.out
    assert not (tmp_path / "report.csv").exists()


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_new_output_takes_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_lines(tmp_path / "out.txt", ["x"])
    finally:
        os.umask(old)
    assert _mode(tmp_path / "out.txt") == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o664, 0o600], ids=oct)
def test_rewritten_output_keeps_its_mode(tmp_path, mode):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    os.chmod(path, mode)
    old = os.umask(0o077)
    try:
        atomic_write_lines(path, ["new"])
    finally:
        os.umask(old)
    assert _mode(path) == mode
    assert path.read_text(encoding="utf-8") == "new\n"


def test_output_is_fsynced_before_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        if os.path.samestat(info, os.stat(tmp_path)):
            events.append(("fsync", "directory"))
        else:
            events.append(("fsync", info.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    text = "line\n" * 1000
    atomic_write_lines(tmp_path / "out.txt", text.splitlines())
    assert events == [("fsync", len(text)), ("replace", "out.txt"), ("fsync", "directory")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


# The block reader: tiny blocks put multi-byte characters, CR and LF
# across block edges.

# One- to four-byte UTF-8 characters, CR and LF.
_blob_text = st.text(alphabet="ab\xe9\u0915\U0001F600\r\n", max_size=30)
# Bytes no UTF-8 text holds at that point: a stray continuation byte, a
# byte never used, a cut-short sequence, a surrogate and a code point past
# U+10FFFF.
_bad_bytes = st.sampled_from([b"\x80", b"\xff", b"\xe0\xa4", b"\xc3", b"\xed\xa0\x80",
                              b"\xf4\x90\x80\x80"])


def _lines_of(blob, block):
    """What ``iter_lines`` yields for ``blob``, and the InvalidEncoding it raised, if any."""
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "blob.txt"
        path.write_bytes(blob)
        with mock.patch.object(fileio, "_BLOCK_BYTES", block):
            try:
                lines.extend(iter_lines(path))
            except InvalidEncoding as exc:
                return lines, str(exc).removeprefix(f"invalid UTF-8 at {path}:")
    return lines, None


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@settings(max_examples=60)
@given(text=_blob_text)
def test_iter_lines_splits_valid_text_on_lf_only(block, text):
    expected = text.split("\n")
    if expected[-1] == "":
        expected.pop()
    assert _lines_of(text.encode("utf-8"), block) == (expected, None)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@settings(max_examples=60)
@given(text=_blob_text, bad=_bad_bytes, data=st.data())
def test_iter_lines_locates_the_first_invalid_byte(block, text, bad, data):
    valid = text.encode("utf-8")
    at = data.draw(st.integers(0, len(valid)))
    blob = valid[:at] + bad + valid[at:]
    with pytest.raises(UnicodeDecodeError) as info:
        blob.decode("utf-8")
    first_bad = info.value.start
    # Every line before the bad one is yielded first, so corpus errors come
    # in line order whatever the block size.
    before = blob[:first_bad].decode("utf-8").split("\n")[:-1]
    assert _lines_of(blob, block) == (before, str(blob.count(b"\n", 0, first_bad) + 1))


# Round trips: every format with a writer rewrites what it reads byte for byte.

def _rewrites_same_bytes(write, read, value):
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory) / "first", Path(directory) / "second"
        write(value, first)
        write(read(first), second)
        assert second.read_bytes() == first.read_bytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=40)
@given(st.lists(st.lists(TRAINING_WORDS, max_size=6), min_size=1, max_size=6),
       st.integers(1, 4))
def test_lm_round_trip(sentences, order):
    _rewrites_same_bytes(lambda model, path: model.save(path), load_lm,
                         train_lm(sentences, order))


@settings(max_examples=40)
@given(st.dictionaries(CELL_WORDS,
                       st.dictionaries(CELL_WORDS, st.floats(0.0, 1.0, exclude_min=True))))
def test_lexicon_round_trip(entries):
    # load_lexicon keeps only the per-source counts, so the full reader
    # rewrites the file, and the counts must be the file's.
    lexicon = TranslationLexicon(entries)
    _rewrites_same_bytes(lambda lexicon, path: lexicon.save(path), read_lexicon_entries, lexicon)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "lexicon.tsv"
        lexicon.save(path)
        assert load_lexicon(path).sizes == {s: len(t) for s, t in entries.items() if t}


_vectors = st.builds(
    lambda values: FeatureVector(*values),
    st.tuples(*(st.integers(0, 10**9) if i in (0, 1, 14, 15) else _finite
                for i in range(N_FEATURES))),
)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63), _vectors), max_size=5,
                unique_by=lambda row: row[0]),
       st.one_of(st.none(), st.sampled_from(Grade)))
def test_feature_csv_round_trip(rows, grade):
    # grade None writes an unlabeled file, and no rows a header-only one;
    # ids rise row by row.
    rows = sorted(rows, key=lambda row: row[0])
    _rewrites_same_bytes(write_features, read_features,
                         [(row_id, vector, grade) for row_id, vector in rows])


@settings(max_examples=60)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6),
       st.one_of(st.none(), st.sampled_from(Grade)))
def test_writer_refuses_what_the_reader_refuses(ids, grade):
    # Ids from a narrow range repeat and fall often.  The file the rows
    # would make is built by hand; the writer raises what the reader raises
    # on it, writing nothing, or writes exactly its bytes.
    vector = FeatureVector(*[1] * N_FEATURES)
    with tempfile.TemporaryDirectory() as directory:
        written, by_hand = Path(directory) / "written.csv", Path(directory) / "by-hand.csv"
        write_features([(0, vector, grade)], by_hand)
        header, row = read_lines(by_hand)
        lines = [header, *(f"{i}{row[1:]}" for i in ids)]  # row[1:] follows the id 0
        by_hand.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        try:
            read_features(by_hand)
        except MalformedRow as exc:
            with pytest.raises(MalformedRow) as info:
                write_features([(i, vector, grade) for i in ids], written)
            assert str(info.value) == str(exc)
            assert not written.exists()
        else:
            write_features([(i, vector, grade) for i in ids], written)
            assert written.read_bytes() == by_hand.read_bytes()


@settings(max_examples=40)
@given(st.sets(st.sampled_from(Grade), min_size=1), st.data())
def test_nb_model_round_trip(classes, data):
    classes = sorted(classes)
    priors = {y: data.draw(st.floats(0.0, 1.0, exclude_min=True)) for y in classes}
    means = {y: data.draw(st.tuples(*[_finite] * N_FEATURES)) for y in classes}
    variances = {y: data.draw(st.tuples(*[_positive] * N_FEATURES)) for y in classes}
    model = NaiveBayesModel(classes, priors, means, variances, data.draw(_positive))
    _rewrites_same_bytes(lambda model, path: model.save(path), load_model, model)
