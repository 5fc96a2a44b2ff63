"""Per-row work split over one process per usable CPU.

``extract`` scores each sentence pair on its own and ``predict`` grades
each feature row on its own, so each splits its rows into shards: with n
processes, shard k holds the rows whose index is k mod n.  The stage forks
a worker for each shard k >= 1 once its models are loaded, so the workers
share them copy-on-write.  A worker reads the input files again, does its
shard's work, and sends the result back down a pipe as one marshal dump.
The parent does shard 0, which holds row 0, itself, and every process
reads and checks every line, so the stage raises every input error with
the message and at the point a single process gives.

Only ``extract`` and ``predict`` import this module, so no other stage
pays for it.
"""

import marshal
import os

# Bytes of input per process: an input smaller than this is read in one
# process, so a small input (one pair, say) never pays for a fork.
_BYTES_PER_WORKER = 1 << 16


def run_in_workers(stage: str, work, *paths) -> list:
    """``[work((k, n)) for k in range(n)]``, run in n processes, one per usable CPU.

    ``work(shard)`` reads the input files ``paths`` itself and returns a
    value marshal can dump; n follows from the first path's size (see
    :func:`_worker_count`).  Worker k of 1..n-1 is a forked child that runs
    ``work((k, n))`` and sends its result back; this process runs
    ``work((0, n))``.  A worker that fails or is killed raises RuntimeError
    naming ``stage``.  On any exception every worker still running is
    killed, and every worker is reaped and every pipe closed before this
    returns or raises.
    """
    workers = _worker_count(*paths)
    children = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_worker(work, (k, workers), write_fd, [read_fd, *(fd for _, fd in children)])
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [work((0, workers))]
        for k, (pid, read_fd) in enumerate(list(children), 1):
            data = _read_to_end(read_fd)
            status = os.waitpid(pid, 0)[1]
            children.remove((pid, read_fd))
            os.close(read_fd)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"{stage} worker {k} exited with code {code}")
            results.append(marshal.loads(data))
            del data  # the dump, which the parent need not hold beside the next one
    finally:
        if children:  # an exception left workers unreaped
            from signal import SIGKILL

            for pid, read_fd in children:
                os.close(read_fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return results


def interleave(stage: str, shards, total: int) -> list:
    """The ``total`` rows of ``shards``, the rows of each shard k of n, in row order.

    Shard k holds rows k, k + n, k + 2n and so on, so row i is
    ``shards[i % n][i // n]``.  A worker's shard of the wrong length raises
    RuntimeError naming ``stage``.
    """
    n = len(shards)
    rows = [None] * total
    for k, shard in enumerate(shards):
        expected = len(range(k, total, n))
        if len(shard) != expected:
            raise RuntimeError(f"{stage} worker {k} sent {len(shard)} rows, expected {expected}")
        rows[k::n] = shard
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(path, *more_paths) -> int:
    """The number of processes that share the rows of the input files.

    It is one per usable CPU, at most one per ``_BYTES_PER_WORKER`` bytes
    of ``path``, and at least one.  It is one wherever a fork is unsafe:
    without ``os.fork``, when an input path is not a regular file (a pipe
    can be read only once, and every process reads every file), and when
    the process runs a second thread.
    """
    if not (hasattr(os, "fork") and all(map(os.path.isfile, (path, *more_paths)))):
        return 1
    workers = min(_usable_cpus(), os.path.getsize(path) // _BYTES_PER_WORKER)
    if workers > 1:
        import threading  # only a run that may fork pays for it

        if threading.active_count() > 1:  # a fork copies no thread but may copy a held lock
            return 1
    return max(1, workers)


def _run_worker(work, shard, write_fd, inherited_fds) -> None:
    """In a forked child: send ``work(shard)`` down ``write_fd`` as a marshal dump, then exit.

    It never returns.  It prints nothing: it exits 0 once every byte is
    written and 1 on any failure, which the parent reports.
    """
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        data = memoryview(marshal.dumps(work(shard)))
        while data:
            data = data[os.write(write_fd, data):]
        status = 0
    finally:
        os._exit(status)


def _read_to_end(fd) -> bytes:
    """Every byte read from ``fd`` until its writers close it."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
