"""``predict`` grades its rows in one process per usable CPU, with the bytes and errors of one.

The parent reads every row of the feature CSV, checks its width and id
and holds its line.  Worker k of n parses, checks and grades slice k of
the held rows and sends back an ``id,grade`` line per row, or None for a
row with a bad cell or one that every class scores -inf.  The parent
raises the fault of the first None row, and a fault that ended the read
only when no held row has one, so ``predict`` reports the first faulty row
in file order, as one process that reads, parses and grades each row in
turn does.  These tests force a worker count with
``conftest.forced_workers`` and check that:

- the predictions file has the same bytes at any worker count, and when
  the feature CSV is a pipe;
- a fault, or up to three faults in rows of any slices, gives the stderr
  of that one process, with exit code 2, at 1, 2 and 3 workers, and leaves
  no predictions file, no child process and no open pipe;
- each input file is opened once, by the parent;
- a worker that fails, is killed or sends the wrong number of rows makes
  ``predict`` exit 1 with no predictions file, and an interrupted parent
  kills and reaps its workers;
- a second thread or no ``os.fork`` keeps ``predict`` in one process, and
  so does a small input in both ``extract`` and ``predict``, whose worker
  count follows the rows they hold.
"""

import contextlib
import io
import math
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

import mtqe.bayes
import mtqe.workers
from mtqe.bayes import load_model
from mtqe.errors import MalformedRow, QEError
from mtqe.feature_csv import FEATURE_HEADERS, N_FEATURES, parse_row
from mtqe.fileio import read_table

from conftest import (
    forced_workers, logged_opens, one_row_short_in_child, run_cli, run_toy_pipeline,
)

# The fault names below call rows 5 and 7 a worker's and row 6 the
# parent's, and the rows of one process, its slice, its shard.  Each case
# runs on the toy's 40 rows, where rows 5-7 lie in the parent's slice, and
# on its first 10, where they lie in workers' slices: worker 1's at 2
# workers, and worker 1's (row 5) and worker 2's (rows 6-7) at 3.  So every
# row is parsed by the parent in one file and by a worker in the other.
WORKER_ROW, LATER_WORKER_ROW, PARENT_ROW = 5, 7, 6


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The model and the labeled feature CSV of a 40-pair toy pipeline."""
    paths, codes = run_toy_pipeline(tmp_path_factory.mktemp("data"),
                                    tmp_path_factory.mktemp("models"), n_pairs=40)
    assert codes == [0] * 7
    return paths


def predict(model, features, out):
    return run_cli("predict", "--model", model, "--features", features, "--out", out)


def open_fds():
    """The descriptors this process has open, where ``/proc/self/fd`` lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _row(row_id, values, grade):
    cells = [str(row_id)]
    for i, value in enumerate(values):
        cells.append(str(int(value)) if i in (0, 1, 14, 15) else f"{value:.6f}")
    return ",".join(cells + ([grade] if grade else []))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(1, 3),
                  st.lists(st.floats(-40, 40), min_size=N_FEATURES, max_size=N_FEATURES)),
        max_size=9,
    ),
    labeled=st.booleans(),
)
def test_same_bytes_at_any_worker_count(toy, rows, labeled):
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        features = work / "features.csv"
        lines, row_id = [FEATURE_HEADERS[labeled]], -1
        for gap, values in rows:
            row_id += gap
            lines.append(_row(row_id, values, "Good" if labeled else None))
        features.write_text("".join(line + "\n" for line in lines))
        written = {}
        for n in (1, 2, 3, 5):
            out = work / f"pred-{n}.csv"
            with forced_workers(n), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert predict(toy["model"], features, out) == 0
            assert fork.call_count == max(1, min(n, len(rows))) - 1  # one worker per row at most
            written[n] = out.read_bytes()
        assert written[2] == written[3] == written[5] == written[1]
        assert written[1].count(b"\n") == len(rows) + 1


def _cell(lines, row, column, cell):
    """``lines`` with the cell ``column`` (0 is the id) of data row ``row`` set to ``cell``."""
    cells = lines[1 + row].split(b",")
    cells[column] = cell
    return lines[:1 + row] + [b",".join(cells)] + lines[2 + row:]


def _line(lines, row, line):
    return lines[:1 + row] + [line] + lines[2 + row:]


def _bad(row):
    return lambda lines: _cell(lines, row, 3, b"x")


def _infinite(row):  # every class's (f3 - mean) ** 2 overflows, so every class scores -inf
    return lambda lines: _cell(lines, row, 3, b"1e200")


def _short(row):
    return lambda lines: _line(lines, row, lines[1 + row].rsplit(b",", 1)[0])


def _utf8(row):
    return lambda lines: _line(lines, row, lines[1 + row] + b"\xff")


def _both(first, second):
    return lambda lines: second(first(lines))


# Each fault, as a function of the feature CSV's lines.  The first faulty
# row in file order is the one reported, whichever process parses it.
FAULTS = {
    "bad cell in a worker's row before a later short row":
        _both(_bad(WORKER_ROW), _short(LATER_WORKER_ROW)),
    "bad cell in a worker's row before a parent's bad cell":
        _both(_bad(WORKER_ROW), _bad(PARENT_ROW)),
    "bad cell in the parent's row before a worker's":
        _both(_bad(PARENT_ROW), _bad(LATER_WORKER_ROW)),
    "short row before a worker's bad cell": _both(_short(4), _bad(WORKER_ROW)),
    "-inf row in a worker's shard before its bad cell":
        _both(_infinite(WORKER_ROW), _bad(LATER_WORKER_ROW)),
    "-inf row in a worker's shard before a parent's bad cell":
        _both(_infinite(WORKER_ROW), _bad(PARENT_ROW)),
    "-inf row in a worker's shard before a short row":
        _both(_infinite(WORKER_ROW), _short(LATER_WORKER_ROW)),
    "-inf rows in two shards": _both(_infinite(WORKER_ROW), _infinite(PARENT_ROW)),
    "-inf row in the parent's shard before a worker's":
        _both(_infinite(PARENT_ROW), _infinite(LATER_WORKER_ROW)),
    "-inf row in a worker's shard": _infinite(WORKER_ROW),
    "invalid UTF-8": _utf8(WORKER_ROW),
    "invalid UTF-8 after a worker's bad cell": _both(_bad(WORKER_ROW), _utf8(LATER_WORKER_ROW)),
    "invalid UTF-8 before a worker's bad cell": _both(_utf8(4), _bad(LATER_WORKER_ROW)),
    "invalid UTF-8 just after a worker's bad cell": _both(_bad(WORKER_ROW), _utf8(PARENT_ROW)),
    "invalid UTF-8 just before a worker's bad cell": _both(_utf8(4), _bad(WORKER_ROW)),
    "invalid UTF-8 in the header": lambda lines: [lines[0] + b"\xff"] + lines[1:],
    "bad header": lambda lines: [b"id,grade"] + lines[1:],
    "empty file": lambda lines: [],
    "id out of order in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 0, b"2"),
    "bad id in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 0, b"+5"),
    "non-finite cell in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 4, b"inf"),
    "count too large in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 1, b"9" * 400),
    "unknown grade in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 17, b"Fine"),
    "space in a worker's row": lambda lines: _cell(lines, WORKER_ROW, 5, b" 1.0"),
}


def _one_process_error(toy, features):
    """The fault of the first faulty row: one process reads, parses and grades each row in turn."""
    model = load_model(toy["model"])
    try:
        for row, _, line in read_table(features, ",", FEATURE_HEADERS):
            _, vector, _ = parse_row(row, line)
            scores, grade = model.predict(vector)
            if scores[grade] == -math.inf:
                return MalformedRow(row, "no class gives the features a finite score")
    except QEError as exc:
        return exc
    return None


def _rows_held(features):
    """The rows of ``features`` that pass the read before its first fault of width, id or bytes."""
    held = 0
    try:
        for _ in read_table(features, ",", FEATURE_HEADERS):
            held += 1
    except QEError:
        pass
    return held


def _forks(workers, features):
    """The workers ``predict`` forks at ``forced_workers(workers)``: one per held row at most."""
    return max(0, min(workers, _rows_held(features)) - 1)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_errors_match_one_process(toy, tmp_path, capsys, fault, workers):
    lines = toy["features"].read_bytes().splitlines()
    for n_rows in (40, 10):
        features = tmp_path / f"features-{n_rows}.csv"
        faulty = FAULTS[fault](lines[:1 + n_rows])
        features.write_bytes(b"".join(line + b"\n" for line in faulty))
        out = tmp_path / "pred.csv"
        with forced_workers(1):
            expected = predict(toy["model"], features, out)
        expected_err = capsys.readouterr().err
        assert expected == 2 and expected_err == f"error: {_one_process_error(toy, features)}\n"
        before = open_fds()
        with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert predict(toy["model"], features, out) == expected
        assert capsys.readouterr().err == expected_err
        # The held rows are graded, in as many workers as they warrant, before any fault is raised.
        assert fork.call_count == _forks(workers, features)
        assert not out.exists()
        assert_no_child_left()
        assert open_fds() == before


def test_a_worker_s_earlier_fault_wins(toy, tmp_path, capsys):
    # The read stops at the short row 7, and the rows before it are
    # graded first, so row 5's bad cell, the first faulty row, is reported
    # in any slice.
    features = tmp_path / "features.csv"
    lines = FAULTS["bad cell in a worker's row before a later short row"](
        toy["features"].read_bytes().splitlines())
    features.write_bytes(b"".join(line + b"\n" for line in lines))
    with forced_workers(2):
        assert predict(toy["model"], features, tmp_path / "pred.csv") == 2
    assert capsys.readouterr().err == (
        "error: malformed row 5: could not convert string to float: 'x'\n"
    )


def _id_out_of_order(row):
    """Row ``row`` takes the previous row's id; row 0 takes row 1's, so row 1 is out of order."""
    def fault(lines):
        source = row if row else 2  # the data row before ``row``, or row 1
        return _cell(lines, row, 0, lines[source].split(b",", 1)[0])
    return fault


INJECTED = {"bad cell": _bad, "-inf cell": _infinite, "short row": _short,
            "bad UTF-8": _utf8, "id out of order": _id_out_of_order}


@settings(max_examples=12, deadline=None)
@given(faults=st.lists(st.tuples(st.integers(0, 39), st.sampled_from(sorted(INJECTED))),
                       min_size=1, max_size=3, unique_by=lambda fault: fault[0]))
def test_the_first_faulty_row_is_reported(toy, faults):
    lines = toy["features"].read_bytes().splitlines()
    for row, kind in faults:
        lines = INJECTED[kind](row)(lines)
    with tempfile.TemporaryDirectory() as directory:
        features, out = Path(directory) / "features.csv", Path(directory) / "pred.csv"
        features.write_bytes(b"".join(line + b"\n" for line in lines))
        expected_err = f"error: {_one_process_error(toy, features)}\n"
        for workers in (1, 2, 3):
            before, err = open_fds(), io.StringIO()
            with forced_workers(workers), contextlib.redirect_stderr(err), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert predict(toy["model"], features, out) == 2
            assert err.getvalue() == expected_err
            assert fork.call_count == _forks(workers, features)
            assert os.listdir(directory) == ["features.csv"]  # no predictions or temp file
            assert_no_child_left()
            assert open_fds() == before


def _in_child(action):
    """NaiveBayesModel.predict, except that in a forked child it calls ``action`` first."""
    parent, real = os.getpid(), mtqe.bayes.NaiveBayesModel.predict

    def patched(self, x):
        if os.getpid() != parent:
            action()
        return real(self, x)

    return mock.patch.object(mtqe.bayes.NaiveBayesModel, "predict", patched)


FAILED_WORKERS = {
    "exits 3": (lambda: _in_child(lambda: os._exit(3)), "exited with code 3"),
    "killed": (lambda: _in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)),
               f"exited with code -{int(signal.SIGKILL)}"),
    "sends one row short": (one_row_short_in_child, "sent 19 rows, expected 20"),
}


@pytest.mark.parametrize("failure", sorted(FAILED_WORKERS))
def test_a_failed_worker_is_an_internal_error(toy, tmp_path, capsys, failure):
    patch, message = FAILED_WORKERS[failure]
    out = tmp_path / "pred.csv"
    before = open_fds()
    with forced_workers(2), patch():
        assert predict(toy["model"], toy["features"], out) == 1
    assert capsys.readouterr().err == f"internal error: RuntimeError('predict worker 1 {message}')\n"
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


def test_an_interrupted_parent_kills_and_reaps_its_workers(toy, tmp_path):
    parent, real = os.getpid(), mtqe.bayes.NaiveBayesModel.predict
    graded = []

    def interrupted(self, x):
        if os.getpid() == parent:
            graded.append(x)
            if len(graded) > 1:
                raise KeyboardInterrupt
        return real(self, x)

    out = tmp_path / "pred.csv"
    before = open_fds()
    with forced_workers(3), mock.patch.object(mtqe.bayes.NaiveBayesModel, "predict", interrupted):
        with pytest.raises(KeyboardInterrupt):
            predict(toy["model"], toy["features"], out)
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


def _no_fork():
    return mock.patch.object(os, "fork", side_effect=AssertionError("forked"))


def _expected_predictions(toy, tmp_path):
    with forced_workers(1):
        assert predict(toy["model"], toy["features"], tmp_path / "one.csv") == 0
    return (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pipe_is_split_like_a_file(toy, tmp_path, workers):
    expected = _expected_predictions(toy, tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A process, not a thread, writes the pipe, so predict runs no second thread.
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', toy["features"], fifo])
    try:
        with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert predict(toy["model"], fifo, tmp_path / "pred.csv") == 0
    finally:
        writer.kill()
        writer.wait(timeout=10)
    assert fork.call_count == workers - 1
    assert (tmp_path / "pred.csv").read_bytes() == expected


def test_each_input_is_opened_once(toy, tmp_path):
    log = tmp_path / "opens.log"
    with forced_workers(3), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            logged_opens(log):
        assert predict(toy["model"], toy["features"], tmp_path / "pred.csv") == 0
    assert fork.call_count == 2
    opened = log.read_text(encoding="utf-8").splitlines()
    assert (opened.count(str(toy["model"])), opened.count(str(toy["features"]))) == (1, 1)


def test_a_second_thread_keeps_one_process(toy, tmp_path):
    expected = _expected_predictions(toy, tmp_path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with forced_workers(2), _no_fork():
            assert predict(toy["model"], toy["features"], tmp_path / "pred.csv") == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (tmp_path / "pred.csv").read_bytes() == expected


def test_no_fork_in_the_os_keeps_one_process(toy, tmp_path, monkeypatch):
    expected = _expected_predictions(toy, tmp_path)
    monkeypatch.delattr(os, "fork")
    with forced_workers(2):
        assert predict(toy["model"], toy["features"], tmp_path / "pred.csv") == 0
    assert (tmp_path / "pred.csv").read_bytes() == expected


def test_small_inputs_never_fork(toy, tmp_path):
    # The toy inputs have 40 rows, and the digest test's 200: under two
    # workers' rows, as the benchmark's one-pair inputs are, so neither
    # stage that may fork does.
    assert 200 < 2 * mtqe.workers._ROWS_PER_WORKER
    with _no_fork():
        assert run_cli("extract", "--pairs-src", toy["src"], "--pairs-tgt", toy["tgt"],
                       "--src-lm", toy["src_lm"], "--tgt-lm", toy["tgt_lm"],
                       "--lexicon", toy["lexicon"], "--judgments", toy["judgments"],
                       "--out", tmp_path / "features.csv") == 0
        assert predict(toy["model"], tmp_path / "features.csv", tmp_path / "pred.csv") == 0


def test_worker_count_follows_the_rows_held(toy, tmp_path):
    # 40 pairs for extract and 40 feature rows for predict, whatever the file sizes.
    with mock.patch.object(mtqe.workers, "_worker_count", wraps=mtqe.workers._worker_count) as count:
        assert run_cli("extract", "--pairs-src", toy["src"], "--pairs-tgt", toy["tgt"],
                       "--src-lm", toy["src_lm"], "--tgt-lm", toy["tgt_lm"],
                       "--lexicon", toy["lexicon"], "--out", tmp_path / "features.csv") == 0
        assert predict(toy["model"], toy["features"], tmp_path / "pred.csv") == 0
    assert count.call_args_list == [mock.call(40), mock.call(40)]
