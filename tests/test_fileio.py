"""One file codec, one contract: every reader reports bad input the same way."""

import os
import stat

import pytest

from mtqe.bayes import load_model
from mtqe.cli import _read_grade_file
from mtqe.corpus import load_judgments, load_parallel
from mtqe.errors import CorruptModel, InvalidEncoding, MalformedRow
from mtqe.features import read_features
from mtqe.fileio import atomic_write_text, read_lines
from mtqe.lexicon import load_lexicon
from mtqe.ngram import load_lm

from conftest import run_cli, run_toy_pipeline


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
        lambda path, paths: load_parallel(path, paths["tgt"]),
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
    assert (info.value.path, info.value.line_no) == (bad, 2)
    capsys.readouterr()
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert f"invalid UTF-8 at {bad}:2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(n for n, spec in READERS.items() if spec[3]))
def test_short_row_is_located(name, artifacts, tmp_path):
    artifact, read, argv, (index, sep) = READERS[name]
    bad = tmp_path / f"short-{artifacts[artifact].name}"
    _rewrite_line(artifacts[artifact], bad, index,
                  lambda line: line.rsplit(sep.encode(), 1)[0])
    with pytest.raises((MalformedRow, CorruptModel)) as info:
        read(bad, artifacts)
    if isinstance(info.value, MalformedRow):
        header_lines = 0 if name == "lexicon" else 1
        assert info.value.row == index - header_lines
    else:
        key = read_lines(bad)[index].split("\t")[0]
        assert key in str(info.value)
    assert run_cli(*argv(bad, artifacts, tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["lm", "model"])
def test_crlf_model_is_corrupt(name, artifacts, tmp_path):
    artifact, read, _, _ = READERS[name]
    crlf = tmp_path / "crlf"
    crlf.write_bytes(artifacts[artifact].read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(CorruptModel):
        read(crlf, artifacts)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_new_output_takes_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "x\n")
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
        atomic_write_text(path, "new\n")
    finally:
        os.umask(old)
    assert _mode(path) == mode
    assert path.read_text(encoding="utf-8") == "new\n"


def test_output_is_fsynced_before_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    text = "line\n" * 1000
    atomic_write_text(tmp_path / "out.txt", text)
    assert events == [("fsync", len(text)), ("replace", "out.txt")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
