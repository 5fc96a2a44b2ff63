"""``extract``'s sentence pairs, scored in one process per usable CPU.

Each pair's features depend on that pair alone, so the pairs split into
shards: with n processes, shard k holds the pairs whose id is k mod n.
The parent forks a worker for each shard k >= 1 once the models are
loaded, so the workers share the models copy-on-write.  A worker reads
both corpus files again, scores its shard, and sends its feature vectors
back down a pipe as one marshal dump.  The parent scores shard 0, which
holds pair 0, and reads and checks every line, so it raises every input
error itself, with the message and at the point a single process gives.

Only ``extract`` imports this module, so no other stage pays for it.
"""

import marshal
import os

from .feature_csv import FeatureVector

# Bytes of source text per process: a corpus smaller than this is scored
# in one process, so a small input (one pair, say) never pays for a fork.
_BYTES_PER_WORKER = 1 << 16


def score_in_workers(score, source_path, target_path) -> list[FeatureVector]:
    """Every pair's feature vector, in id order, from one process per usable CPU.

    ``score(shard)`` reads the two corpus files and returns their pair
    count and the vectors of the pairs ``shard=(k, n)`` owns, those with
    ``id % n == k``.  Worker k of 1..n-1 is a forked child that runs
    ``score((k, n))``; this process runs ``score((0, n))``.  A worker that
    fails, is killed or sends the wrong number of vectors raises
    RuntimeError.  On any exception every worker still running is killed,
    and every worker is reaped and every pipe closed before this returns
    or raises.
    """
    workers = _worker_count(source_path, target_path)
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
                _run_worker(score, (k, workers), write_fd, [read_fd, *(fd for _, fd in children)])
            os.close(write_fd)
            children.append((pid, read_fd))
        n_pairs, own = score((0, workers))
        shards = [own]
        for k, (pid, read_fd) in enumerate(list(children), 1):
            data = _read_to_end(read_fd)
            status = os.waitpid(pid, 0)[1]
            children.remove((pid, read_fd))
            os.close(read_fd)
            shards.append(_worker_vectors(k, status, data, len(range(k, n_pairs, workers))))
    finally:
        if children:  # an exception left workers unreaped
            from signal import SIGKILL

            for pid, read_fd in children:
                os.close(read_fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return [shards[i % workers][i // workers] for i in range(n_pairs)]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(source_path, target_path) -> int:
    """The number of processes that score the pairs of two corpus files.

    It is one per usable CPU, at most one per ``_BYTES_PER_WORKER`` bytes
    of source text, and at least one.  It is one wherever a fork is
    unsafe: without ``os.fork``, when a corpus path is not a regular file
    (a pipe can be read only once, and every process reads both files),
    and when the process runs a second thread.
    """
    if not (hasattr(os, "fork") and os.path.isfile(source_path) and os.path.isfile(target_path)):
        return 1
    workers = min(_usable_cpus(), os.path.getsize(source_path) // _BYTES_PER_WORKER)
    if workers > 1:
        import threading  # only a run that may fork pays for it

        if threading.active_count() > 1:  # a fork copies no thread but may copy a held lock
            return 1
    return max(1, workers)


def _run_worker(score, shard, write_fd, inherited_fds) -> None:
    """In a forked child: send ``score(shard)``'s vectors down ``write_fd``, then exit.

    It never returns.  It prints nothing: it exits 0 once every byte is
    written and 1 on any failure, which the parent reports.
    """
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        _, vectors = score(shard)
        data = memoryview(marshal.dumps([tuple(vector) for vector in vectors]))
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


def _worker_vectors(k, status, data, expected) -> list[FeatureVector]:
    """Worker ``k``'s ``expected`` vectors from the bytes it sent; RuntimeError if it failed."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"extract worker {k} exited with code {code}")
    rows = marshal.loads(data)
    if len(rows) != expected:
        raise RuntimeError(f"extract worker {k} sent {len(rows)} rows, expected {expected}")
    return [FeatureVector(*row) for row in rows]
