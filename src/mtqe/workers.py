"""Per-row work split over one process per usable CPU.

``extract`` scores each sentence pair on its own and ``predict`` grades
each feature row on its own.  Each stage reads and checks all its input
itself and raises every input error before it forks, so a worker opens
no input file: it inherits the loaded models and the held rows
copy-on-write, computes its contiguous slice of them and sends the result
back down a pipe.  Only ``extract`` and ``predict`` import this module,
so no other stage pays for it.
"""

import marshal
import os

# Rows per process: fewer rows than twice this are computed in one
# process, so a small input (one pair, say) never pays for a fork.
_ROWS_PER_WORKER = 1 << 9


def run_in_workers(stage: str, work, total: int) -> list:
    """``work(0, total)``, computed in n processes, one per usable CPU.

    ``work(start, stop)`` returns a list of one value marshal can dump for
    each row in ``range(start, stop)``, and n follows from ``total`` (see
    :func:`_worker_count`).  Slice k of n holds rows ``total * k // n`` up
    to ``total * (k + 1) // n``.  Worker k of 1..n-1 is a forked child that
    computes slice k and sends its list back as one marshal dump; this
    process computes slice 0, then joins the lists in slice order.  A
    worker that fails, is killed or sends a list of the wrong length raises
    RuntimeError naming ``stage``.  On any exception every worker still
    running is killed, and every worker is reaped and every pipe closed
    before this returns or raises.
    """
    workers = _worker_count(total)
    bounds = [total * k // workers for k in range(workers + 1)]
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
                _run_worker(work, bounds[k : k + 2], write_fd,
                            [read_fd, *(fd for _, fd in children)])
            os.close(write_fd)
            children.append((pid, read_fd))
        rows = work(0, bounds[1])
        for k, (pid, read_fd) in enumerate(list(children), 1):
            data = _read_to_end(read_fd)
            status = os.waitpid(pid, 0)[1]
            children.remove((pid, read_fd))
            os.close(read_fd)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"{stage} worker {k} exited with code {code}")
            part = marshal.loads(data)
            del data  # the dump, which the parent need not hold beside the rows
            expected = bounds[k + 1] - bounds[k]
            if len(part) != expected:
                raise RuntimeError(f"{stage} worker {k} sent {len(part)} rows, expected {expected}")
            rows += part
    finally:
        if children:  # an exception left workers unreaped
            from signal import SIGKILL

            for pid, read_fd in children:
                os.close(read_fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(total: int) -> int:
    """The number of processes that share ``total`` rows.

    It is one per usable CPU, at most one per ``_ROWS_PER_WORKER`` rows,
    and at least one.  It is one wherever a fork is unsafe: without
    ``os.fork``, and when the process runs a second thread.
    """
    if not hasattr(os, "fork"):
        return 1
    workers = min(_usable_cpus(), total // _ROWS_PER_WORKER)
    if workers > 1:
        import threading  # only a run that may fork pays for it

        if threading.active_count() > 1:  # a fork copies no thread but may copy a held lock
            return 1
    return max(1, workers)


def _run_worker(work, bounds, write_fd, inherited_fds) -> None:
    """In a forked child: send ``work(*bounds)`` down ``write_fd`` as a marshal dump, then exit.

    It never returns.  It prints nothing: it exits 0 once every byte is
    written and 1 on any failure, which the parent reports.
    """
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        data = memoryview(marshal.dumps(work(*bounds)))
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
