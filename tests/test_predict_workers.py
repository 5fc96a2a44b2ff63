"""``predict`` grades its rows in one process per usable CPU, with the bytes and errors of one.

Every process reads every row of the feature CSV and checks its width and
id; worker k of n parses, checks and grades only the rows whose index is
k mod n, and sends its ``id,grade`` lines, or the first fault of its
rows, back down a pipe.  The parent raises the fault one process would
meet first.  These tests force a worker count with
``conftest.forced_workers`` and check that:

- the predictions file has the same bytes at any worker count;
- a fault, or two faults in rows that different processes parse, gives
  the same exit code and stderr at 2 and 3 workers as at 1, and leaves no
  predictions file, no child process and no open pipe;
- a worker that fails, is killed or sends the wrong number of rows makes
  ``predict`` exit 1 with no predictions file, and an interrupted parent
  kills and reaps its workers;
- a pipe for the feature CSV, a second thread, or no ``os.fork`` keeps
  ``predict`` in one process, and so does a small input in both
  ``extract`` and ``predict``.
"""

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
import mtqe.feature_csv
import mtqe.workers
from mtqe.bayes import load_model
from mtqe.errors import MalformedRow, QEError
from mtqe.feature_csv import FEATURE_HEADERS, N_FEATURES, read_features

from conftest import forced_workers, run_cli, run_toy_pipeline

# Rows 5 and 7 are a worker's at 2 workers and at 3; row 6 is the parent's at both.
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
        for n in (1, 2, 3, 5):  # 5 workers leave some shards empty
            out = work / f"pred-{n}.csv"
            with forced_workers(n), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                assert predict(toy["model"], features, out) == 0
            assert fork.call_count == n - 1  # the CSV is never under n bytes
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


# Each fault, as a function of the feature CSV's lines.  Every row before
# the first fault is read, so which fault one process reports depends on
# the row, not on which process parses it.
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
    """The error predict raised as one process: it read every row, then graded them in turn."""
    model = load_model(toy["model"])
    try:
        rows = read_features(features)
    except QEError as exc:
        return exc
    for row, (_, vector, _) in enumerate(rows):
        scores, grade = model.predict(vector)
        if scores[grade] == -math.inf:
            return MalformedRow(row, "no class gives the features a finite score")
    return None


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_errors_match_one_process(toy, tmp_path, capsys, fault, workers):
    features = tmp_path / "features.csv"
    lines = FAULTS[fault](toy["features"].read_bytes().splitlines())
    features.write_bytes(b"".join(line + b"\n" for line in lines))
    out = tmp_path / "pred.csv"
    with forced_workers(1):
        expected = predict(toy["model"], features, out)
    expected_err = capsys.readouterr().err
    assert expected == 2 and expected_err == f"error: {_one_process_error(toy, features)}\n"
    before = open_fds()
    with forced_workers(workers), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert predict(toy["model"], features, out) == expected
    assert capsys.readouterr().err == expected_err
    # An empty file is under one byte per worker, so it is read in one process.
    assert fork.call_count == (0 if fault == "empty file" else workers - 1)
    assert not out.exists()
    assert_no_child_left()
    assert open_fds() == before


def test_a_worker_s_earlier_fault_wins(toy, tmp_path, capsys):
    # The parent never parses row 5's cells, but meets the short row 7;
    # the worker's bad cell in row 5 is what one process reports.
    features = tmp_path / "features.csv"
    lines = FAULTS["bad cell in a worker's row before a later short row"](
        toy["features"].read_bytes().splitlines())
    features.write_bytes(b"".join(line + b"\n" for line in lines))
    with forced_workers(2):
        assert predict(toy["model"], features, tmp_path / "pred.csv") == 2
    assert capsys.readouterr().err == (
        "error: malformed row 5: could not convert string to float: 'x'\n"
    )


def _in_child(action):
    """NaiveBayesModel.predict, except that in a forked child it calls ``action`` first."""
    parent, real = os.getpid(), mtqe.bayes.NaiveBayesModel.predict

    def patched(self, x):
        if os.getpid() != parent:
            action()
        return real(self, x)

    return mock.patch.object(mtqe.bayes.NaiveBayesModel, "predict", patched)


def _one_row_short_in_child():
    """iter_features, except that in a forked child it drops the last row the child owns."""
    parent, real = os.getpid(), mtqe.feature_csv.iter_features

    def patched(*args):
        rows = list(real(*args))
        if os.getpid() != parent:
            rows[max(i for i, row in enumerate(rows) if row is not None)] = None
        return iter(rows)

    return mock.patch.object(mtqe.feature_csv, "iter_features", patched)


FAILED_WORKERS = {
    "exits 3": (lambda: _in_child(lambda: os._exit(3)), "exited with code 3"),
    "killed": (lambda: _in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)),
               f"exited with code -{int(signal.SIGKILL)}"),
    "sends one row short": (_one_row_short_in_child, "sent 19 rows, expected 20"),
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


def test_a_pipe_is_read_in_one_process(toy, tmp_path):
    expected = _expected_predictions(toy, tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A process, not a thread, writes the pipe, so predict runs no second thread.
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', toy["features"], fifo])
    try:
        with forced_workers(2), _no_fork():
            assert predict(toy["model"], fifo, tmp_path / "pred.csv") == 0
    finally:
        writer.kill()
        writer.wait(timeout=10)
    assert (tmp_path / "pred.csv").read_bytes() == expected


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
    # The toy inputs are a few KiB: under 64 KiB, as the benchmark's one-pair
    # inputs are, so neither stage that may fork does.
    assert os.path.getsize(toy["src"]) < mtqe.workers._BYTES_PER_WORKER
    assert os.path.getsize(toy["features"]) < mtqe.workers._BYTES_PER_WORKER
    with _no_fork():
        assert run_cli("extract", "--pairs-src", toy["src"], "--pairs-tgt", toy["tgt"],
                       "--src-lm", toy["src_lm"], "--tgt-lm", toy["tgt_lm"],
                       "--lexicon", toy["lexicon"], "--judgments", toy["judgments"],
                       "--out", tmp_path / "features.csv") == 0
        assert predict(toy["model"], tmp_path / "features.csv", tmp_path / "pred.csv") == 0


def test_worker_count_follows_the_features_file(tmp_path, monkeypatch):
    features = tmp_path / "features.csv"
    features.write_bytes(b"x\n" * (5 * mtqe.workers._BYTES_PER_WORKER // 2))  # five blocks of 64 KiB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert mtqe.workers._worker_count(features) == 3  # one per usable CPU
    features.write_bytes(b"x\n" * (mtqe.workers._BYTES_PER_WORKER // 2 - 1))  # under 64 KiB
    assert mtqe.workers._worker_count(features) == 1
