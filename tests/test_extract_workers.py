"""``extract`` scores its pairs in one process per usable CPU, with the bytes and errors of one.

The parent reads and checks every corpus line, holds each pair's two
lines and raises every input error before it forks.  Worker k of n is a
forked child that tokenizes and scores slice k of the held pairs and
sends their feature CSV lines back down a pipe; the parent scores slice 0.
These tests force a worker count with ``conftest.forced_workers`` and
check that:

- the features file has the same bytes at any worker count, and when the
  inputs are pipes;
- every step of the README's error order gives the same exit code and
  stderr at 2 and 3 workers as at 1, forks no worker, and leaves no
  features file, no child process and no open pipe;
- a language model below order 3 is refused before the corpus is read;
- each input file is opened once, by the parent;
- a worker that fails, is killed or sends the wrong number of rows makes
  ``extract`` exit 1 with no features file;
- a second thread or no ``os.fork`` keeps ``extract`` in one process, and
  so does a corpus under two workers' rows.
"""

import os
import signal
import subprocess
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtqe.features
import mtqe.workers
from mtqe.corpus import SOURCE, iter_corpus
from mtqe.ngram import train_lm

from conftest import (
    forced_workers, logged_opens, one_row_short_in_child, run_cli, run_toy_pipeline,
)

HEADER = "\t".join(["id"] + [f"p{i}" for i in range(1, 11)])
N_LINES = 8
# A worker's slice holds this line at 2 workers (pairs 4-7) and at 3 (5-7).
FAULT = 5


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Both language models and the lexicon of a 40-pair toy corpus."""
    paths, codes = run_toy_pipeline(tmp_path_factory.mktemp("data"),
                                    tmp_path_factory.mktemp("models"), n_pairs=40)
    assert codes == [0] * 7
    return paths


def extract(models, src, tgt, out, judgments=None, src_lm=None):
    labels = [] if judgments is None else ["--judgments", judgments]
    return run_cli("extract", "--pairs-src", src, "--pairs-tgt", tgt,
                   "--src-lm", src_lm or models["src_lm"], "--tgt-lm", models["tgt_lm"],
                   "--lexicon", models["lexicon"], *labels, "--out", out)


def judgment_rows(ids):
    return [HEADER] + ["\t".join([str(i)] + [str((i + j) % 5) for j in range(10)]) for i in ids]


def write_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def open_fds():
    """The descriptors this process has open, where ``/proc/self/fd`` lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Words for random corpora: punctuation to peel, and "<" outside any marker,
# so the parent sometimes tokenizes a line for the marker check.
WORDS = ["the", "Dog", "runs", "घर", "नदी", ".", "।", "!", "(", "a<b", "<x", "<<", "x>", ""]


@settings(max_examples=20, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(*[st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)] * 2),
        min_size=1, max_size=9,
    ),
    labeled=st.booleans(),
)
def test_same_bytes_at_any_worker_count(models, pairs, labeled):
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        (work / "s.txt").write_text("".join(s + "\n" for s, _ in pairs), encoding="utf-8")
        (work / "t.txt").write_text("".join(t + "\n" for _, t in pairs), encoding="utf-8")
        judgments = None
        if labeled:
            judgments = work / "j.tsv"
            judgments.write_text("\n".join(judgment_rows(range(len(pairs)))) + "\n")
        written = {}
        for n in (1, 2, 3, 5):
            out = work / f"features-{n}.csv"
            with forced_workers(n), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert extract(models, work / "s.txt", work / "t.txt", out, judgments) == 0
            # One worker per pair at most: a one-pair corpus forks nothing.
            assert fork.call_count == min(n, len(pairs)) - 1
            written[n] = out.read_bytes()
        assert written[2] == written[3] == written[5] == written[1]


def _valid(models):
    """N_LINES source and target lines, and the judgments of every pair."""
    src = models["src"].read_bytes().splitlines()[:N_LINES]
    tgt = models["tgt"].read_bytes().splitlines()[:N_LINES]
    return src, tgt, judgment_rows(range(N_LINES))


def _set(lines, index, line):
    return lines[:index] + [line] + lines[index + 1:]


# Each step of the README's error order for extract, as (source lines,
# target lines, judgment rows or None) made from valid inputs; the fault
# sits on line FAULT, in a worker's slice.
FAULTS = {
    "invalid UTF-8 in the source": lambda s, t, j: (_set(s, FAULT, b"the \xff dog"), t, j),
    "invalid UTF-8 in the target": lambda s, t, j: (s, _set(t, FAULT, b"\xe0\xa4 x"), j),
    "reserved token in the source": lambda s, t, j: (_set(s, FAULT, b"the <UNK> dog"), t, j),
    "reserved token in the target": lambda s, t, j: (s, _set(t, FAULT, b"(</s>)"), j),
    "source longer": lambda s, t, j: (s + [b"one", b"two"], t, j),
    "target longer": lambda s, t, j: (s, t + [b"one"], j),
    "judgment id with no pair": lambda s, t, j: (s, t, j + judgment_rows([N_LINES + 3])[1:]),
    "judgments short": lambda s, t, j: (s, t, j[:-2]),
    "empty corpus": lambda s, t, j: ([], [], None),
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_errors_match_one_process(models, tmp_path, capsys, fault, workers):
    src, tgt, judgments = FAULTS[fault](*_valid(models))
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    labels = None
    if judgments is not None:
        labels = tmp_path / "j.tsv"
        labels.write_text("\n".join(judgments) + "\n")
    out = tmp_path / "features.csv"
    with forced_workers(1):
        expected = extract(models, tmp_path / "s.txt", tmp_path / "t.txt", out, labels)
    expected_err = capsys.readouterr().err
    assert expected == 2 and expected_err.startswith("error: ")
    before = open_fds()
    with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert extract(models, tmp_path / "s.txt", tmp_path / "t.txt", out, labels) == expected
    assert capsys.readouterr().err == expected_err
    # The parent raises every input error before it forks.
    assert fork.call_count == 0
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_low_order_model_fails_at_the_first_pair(models, tmp_path, capsys, workers):
    low = tmp_path / "low.lm"
    train_lm(list(iter_corpus(models["src"], SOURCE)), 2).save(low)
    src, tgt, _ = _valid(models)
    write_lines(tmp_path / "s.txt", _set(src, FAULT, b"<s>"))
    write_lines(tmp_path / "t.txt", tgt)
    with forced_workers(workers):
        code = extract(models, tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "f.csv",
                       src_lm=low)
    assert code == 2
    assert capsys.readouterr().err == "error: language models must have order >= 3\n"
    assert_no_child_left()


# Corpora whose own fault comes before any pair is scored; the model's
# order is checked before the corpus is read, so its error comes first.
LOW_ORDER_CASES = {
    "empty corpus": lambda s, t: ([], []),
    "bad line 0": lambda s, t: (_set(s, 0, b"the \xff dog"), t),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(LOW_ORDER_CASES))
def test_low_order_model_fails_before_the_corpus_is_read(models, tmp_path, capsys, case, workers):
    low = tmp_path / "low.lm"
    train_lm(list(iter_corpus(models["src"], SOURCE)), 2).save(low)
    src, tgt, _ = _valid(models)
    src, tgt = LOW_ORDER_CASES[case](src, tgt)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = extract(models, tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "f.csv",
                       src_lm=low)
    assert code == 2
    assert capsys.readouterr().err == "error: language models must have order >= 3\n"
    assert fork.call_count == 0
    assert not (tmp_path / "f.csv").exists()


def _in_child(action):
    """extract_features, except that in a forked child it calls ``action`` first."""
    parent, real = os.getpid(), mtqe.features.extract_features

    def patched(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    return mock.patch.object(mtqe.features, "extract_features", patched)


FAILED_WORKERS = {
    "exits 3": (lambda: _in_child(lambda: os._exit(3)), "exited with code 3"),
    "killed": (lambda: _in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)),
               f"exited with code -{int(signal.SIGKILL)}"),
    "sends one row short": (one_row_short_in_child, "sent 3 rows, expected 4"),
}


@pytest.mark.parametrize("failure", sorted(FAILED_WORKERS))
def test_a_failed_worker_is_an_internal_error(models, tmp_path, capsys, failure):
    patch, message = FAILED_WORKERS[failure]
    src, tgt, _ = _valid(models)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    out = tmp_path / "features.csv"
    before = open_fds()
    with forced_workers(2), patch():
        assert extract(models, tmp_path / "s.txt", tmp_path / "t.txt", out) == 1
    assert capsys.readouterr().err == f"internal error: RuntimeError('extract worker 1 {message}')\n"
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


def test_an_interrupted_parent_kills_and_reaps_its_workers(models, tmp_path):
    parent, real = os.getpid(), mtqe.features.extract_features

    def interrupted(pair, *models_):
        if os.getpid() == parent and pair.id > 0:
            raise KeyboardInterrupt
        return real(pair, *models_)

    src, tgt, _ = _valid(models)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    out = tmp_path / "features.csv"
    before = open_fds()
    with forced_workers(3), mock.patch.object(mtqe.features, "extract_features", interrupted):
        with pytest.raises(KeyboardInterrupt):
            extract(models, tmp_path / "s.txt", tmp_path / "t.txt", out)
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


def _no_fork():
    return mock.patch.object(os, "fork", side_effect=AssertionError("extract forked"))


def _expected_features(models, tmp_path):
    src, tgt, _ = _valid(models)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    with forced_workers(1):
        assert extract(models, tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "one.csv") == 0
    return (tmp_path / "one.csv").read_bytes()


def _piped(path, fifo):
    """A process that writes the bytes of ``path`` into the named pipe ``fifo``, made here."""
    os.mkfifo(fifo)
    # A process, not a thread, writes the pipe, so extract runs no second thread.
    return subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', path, fifo])


@pytest.mark.parametrize("workers", [2, 3])
def test_pipes_are_split_like_files(models, tmp_path, workers):
    src, tgt, judgments = _valid(models)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    (tmp_path / "j.tsv").write_text("\n".join(judgments) + "\n")
    files = [tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "j.tsv"]
    with forced_workers(1):
        assert extract(models, *files[:2], tmp_path / "one.csv", files[2]) == 0
    fifos = [tmp_path / f"fifo-{path.name}" for path in files]
    writers = [_piped(path, fifo) for path, fifo in zip(files, fifos)]
    try:
        with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert extract(models, *fifos[:2], tmp_path / "f.csv", fifos[2]) == 0
    finally:
        for writer in writers:
            writer.kill()
            writer.wait(timeout=10)
    assert fork.call_count == workers - 1
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_each_input_is_opened_once(models, tmp_path):
    src, tgt, judgments = _valid(models)
    write_lines(tmp_path / "s.txt", src)
    write_lines(tmp_path / "t.txt", tgt)
    (tmp_path / "j.tsv").write_text("\n".join(judgments) + "\n")
    inputs = [tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "j.tsv",
              models["src_lm"], models["tgt_lm"], models["lexicon"]]
    log = tmp_path / "opens.log"
    with forced_workers(3), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            logged_opens(log):
        assert extract(models, *inputs[:2], tmp_path / "f.csv", inputs[2]) == 0
    assert fork.call_count == 2
    opened = log.read_text(encoding="utf-8").splitlines()
    assert {str(path): opened.count(str(path)) for path in inputs} == {
        str(path): 1 for path in inputs
    }


def test_a_second_thread_keeps_one_process(models, tmp_path):
    expected = _expected_features(models, tmp_path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with forced_workers(2), _no_fork():
            assert extract(models, tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "f.csv") == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (tmp_path / "f.csv").read_bytes() == expected


def test_no_fork_in_the_os_keeps_one_process(models, tmp_path, monkeypatch):
    expected = _expected_features(models, tmp_path)
    monkeypatch.delattr(os, "fork")
    with forced_workers(2):
        assert extract(models, tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "f.csv") == 0
    assert (tmp_path / "f.csv").read_bytes() == expected


def test_a_small_corpus_never_forks(models, tmp_path):
    # The toy corpus has 40 pairs: under two workers' rows, as the
    # benchmark's one-pair inputs are.
    assert len(models["src"].read_bytes().splitlines()) < 2 * mtqe.workers._ROWS_PER_WORKER
    with _no_fork():
        assert extract(models, models["src"], models["tgt"], tmp_path / "f.csv",
                       models["judgments"]) == 0


def test_worker_count(monkeypatch):
    rows = mtqe.workers._ROWS_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
    assert mtqe.workers._usable_cpus() == 4
    assert mtqe.workers._worker_count(3 * rows) == 3  # one per _ROWS_PER_WORKER rows
    assert mtqe.workers._worker_count(100 * rows) == 4  # one per usable CPU
    assert mtqe.workers._worker_count(2 * rows - 1) == 1
    assert mtqe.workers._worker_count(0) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert mtqe.workers._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mtqe.workers._usable_cpus() == 1
