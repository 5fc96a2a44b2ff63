"""The mtqe file format in one place: how every file is read and written.

Every file is UTF-8 text split on LF alone, read forward a block at a
time, each line decoded once its LF arrives, so the first faulty line is
the one reported.  Every line written ends with one LF.  Tabular files
split a line into cells on one separator; a table opens with a header
line naming its columns, and each data row's first cell is an integer
id.  The rows of every keyed file rise strictly by key, so one
comparison with the previous row finds a repeat.  Model files open with a ``magic<TAB>version`` signature, then
``key<TAB>value`` header lines read by name in turn, and close with an
``end`` line.  Every number read from a file is plain ASCII: an integer
matches ``-?[0-9]+``, and a float cell has no whitespace and no ``_``
before ``float()`` reads it.  Outputs are written atomically and durably,
so a failed run or a crash never leaves a partial file behind.

A language model or lexicon file is parsed once per content: what its
loader parsed is kept in the model cache, ``$XDG_CACHE_HOME/mtqe`` (or
``~/.cache/mtqe``), and read back when a file of the same bytes is
loaded again (see :func:`load_cached`).  The cache holds at most 256 MiB:
past that, the least recently used entries are deleted.
"""

import marshal
import math
import os
import stat
import sys
from itertools import chain, islice

from .errors import CorruptModel, InvalidEncoding, MalformedRow, VersionMismatch


# Bytes read, and lines joined and encoded, at a time.  A block (or a
# line longer than one) and a chunk's text are the most of a file a
# reader or a writer holds beyond its own data.
_BLOCK_BYTES = 1 << 16
_CHUNK_LINES = 4096


def iter_lines(path):
    """Yield the lines of a UTF-8, LF-terminated text file, read a block at a time.

    Only LF ends a line; a trailing LF ends the last line rather than
    starting an empty one.  0x0A never occurs inside a multi-byte UTF-8
    sequence, so the text up to a block's last LF decodes at once, and a
    line longer than a block is held as bytes until its LF.  Invalid UTF-8
    raises InvalidEncoding naming ``path`` and the 1-based line, after
    yielding every line before it: the count of LF bytes before the bad
    byte, plus one, the line a per-line decode finds.
    """
    with open(path, "rb") as handle:
        yield from _decode_lines(_blocks(handle), path)


def _blocks(handle, digest=None):
    """Yield the blocks of ``handle`` to its end, each added to ``digest`` first if given."""
    while block := handle.read(_BLOCK_BYTES):
        if digest is not None:
            digest.update(block)
        yield block


def _decode_lines(blocks, path):
    """The lines of the text in ``blocks``, as :func:`iter_lines` yields them for ``path``."""
    pieces = []  # the bytes read since the last LF, as they were read
    line_no = 0  # the lines yielded so far
    try:
        for block in blocks:
            end = block.rfind(b"\n") + 1  # 0 when the block holds no LF
            if not end:
                pieces.append(block)
                continue
            pieces.append(block[:end])
            lines = b"".join(pieces).decode("utf-8").split("\n")
            pieces = [block[end:]]
            lines.pop()  # the empty text after the last LF
            line_no += len(lines)
            yield from lines
        if last := b"".join(pieces).decode("utf-8"):
            yield last
    except UnicodeDecodeError as exc:
        # Everything before the first bad byte decodes.
        lines = exc.object[: exc.start].decode("utf-8").split("\n")
        yield from lines[:-1]
        raise InvalidEncoding(line_no + len(lines), path) from exc


def read_lines(path) -> list[str]:
    """The lines :func:`iter_lines` yields, as a list."""
    return list(iter_lines(path))


def parse_int(text: str) -> int:
    """``text`` as an integer if it matches ``-?[0-9]+``; ValueError otherwise.

    ``int()`` alone also takes surrounding whitespace, ``_`` separators, a
    ``+`` sign and non-ASCII digits, none of which a writer here emits.
    More digits than ``int()`` reads raise ``OverflowError("too many digits")``.
    """
    if (text.isdigit() or text[:1] == "-" and text[1:].isdigit()) and text.isascii():
        try:
            return int(text)
        except ValueError:  # the text is digits, so only the digit limit is left
            raise OverflowError("too many digits") from None
    raise ValueError(f"invalid integer {text!r}")


def is_plain(text: str) -> bool:
    """True when ``text`` is ASCII with no whitespace and no ``_``.

    A float cell must be plain before ``float()`` or ``float.fromhex()``
    reads it, since both take surrounding whitespace and ``float()`` also
    takes ``_`` separators and non-ASCII digits.  On plain text, ``int()``
    differs from :func:`parse_int` only in taking a ``+`` sign.
    """
    return text.isascii() and text.isprintable() and " " not in text and "_" not in text


def split_row(line: str, row: int, sep: str, width: int) -> list[str]:
    """Split data row ``row`` (0-based) into exactly ``width`` cells."""
    cells = line.split(sep)
    if len(cells) != width:
        raise MalformedRow(row, f"expected {width} cells, got {len(cells)}")
    return cells


def not_rising(key: str, previous: str) -> str:
    """The fault of a row or line whose key is not above the previous one's.

    Both keys are named as a message shows them, like ``id 3``.
    """
    if key == previous:
        return f"duplicate {key}"
    return f"{key} out of order after {previous}"


def read_table(path, sep: str, headers):
    """Data rows of a table whose header line is one of ``headers``, read forward.

    Yields ``(row, row_id, line)`` for each data row: ``row`` counted from
    0, and ``row_id`` the first of the line's cells, as many as the header
    has, as an integer.  The line is not split, so the reader of its cells
    splits it once: its width is its count of ``sep`` plus one, and its id
    the text before the first ``sep``.  A missing or unknown header raises
    ``MalformedRow(None, ...)`` quoting the header found; a row of the
    wrong width, then a bad id cell or one not above the previous row's id,
    raises MalformedRow for that row.
    """
    lines = iter_lines(path)
    header = next(lines, None)
    if header not in headers:
        found = "an empty file" if header is None else repr(header)
        raise MalformedRow(None, f"expected {' or '.join(map(repr, headers))}, got {found}")
    width = header.count(sep) + 1
    previous = -math.inf  # below every id
    for row, line in enumerate(lines):
        if line.count(sep) + 1 != width:
            split_row(line, row, sep, width)  # which raises the width's MalformedRow
        try:
            row_id = parse_int(line.partition(sep)[0])
        except (ValueError, OverflowError) as exc:
            raise MalformedRow(row, str(exc)) from None
        if row_id <= previous:
            raise MalformedRow(row, not_rising(f"id {row_id}", f"id {previous}"))
        previous = row_id
        yield row, row_id, line


def read_model_lines(lines, magic: str, version: int):
    """Yield the lines between a model file's signature and its closing ``end``.

    ``lines`` is an iterator over the file's lines, as :func:`iter_lines`
    yields them.  Raises CorruptModel for an empty file, a missing
    signature or a last line other than ``end``, and VersionMismatch for a
    format version outside 1..``version``, each before any line after it
    is read.
    """
    first = next(lines, None)
    if first is None:
        raise CorruptModel("empty file")
    cells = first.split("\t")
    if len(cells) != 2 or cells[0] != magic:
        raise CorruptModel("missing model signature")
    try:
        found = parse_int(cells[1])
    except ValueError:
        raise CorruptModel("non-integer format version") from None
    except OverflowError as exc:
        raise CorruptModel(f"{exc} in format version") from None
    if not 1 <= found <= version:
        raise VersionMismatch(found, version)
    held = next(lines, first)  # a file of one line ends at its signature
    for line in lines:
        yield held  # once the next line is read, so the last one is held back
        held = line
    if held != "end":
        raise CorruptModel(f"the last line must be 'end', got {held!r}")


def write_model_lines(path, magic: str, version: int, lines) -> None:
    """Write ``lines`` between a ``magic<TAB>version`` signature and ``end``."""
    atomic_write_lines(path, chain([f"{magic}\t{version}"], lines, ["end"]))


def header_value(lines, key: str) -> str:
    """The value of the next of ``lines``, which must read ``key<TAB>value``."""
    line = next(lines, None)
    if line is None:
        raise CorruptModel(f"missing header line '{key}'")
    cells = line.split("\t")
    if len(cells) != 2 or cells[0] != key:
        raise CorruptModel(f"expected header line '{key}', got {line!r}")
    return cells[1]


def header_int(lines, key: str) -> int:
    """:func:`header_value` parsed as an integer."""
    try:
        return parse_int(header_value(lines, key))
    except ValueError:
        raise CorruptModel(f"non-integer value in header line '{key}'") from None
    except OverflowError as exc:
        raise CorruptModel(f"{exc} in header line '{key}'") from None


def atomic_write_lines(path, lines) -> None:
    """Write each of ``lines`` with one LF to ``path``, atomically and durably.

    The text is encoded and written a chunk of lines at a time, through
    :func:`_write_atomically`.
    """
    lines = iter(lines)
    # The empty item ends a chunk's last line; no lines, no text.
    _write_atomically(path, (
        "\n".join(chain(chunk, [""])).encode("utf-8")
        for chunk in iter(lambda: list(islice(lines, _CHUNK_LINES)), [])
    ))


def _write_atomically(path, blocks) -> None:
    """Write the byte ``blocks`` to ``path``, atomically and durably.

    The bytes go to a temp file, which is fsynced and renamed over
    ``path``; the directory is fsynced after the rename, so the rename
    itself is durable too.

    A new file gets mode ``0o666`` less the umask, like any file the
    process creates; an existing file keeps its mode.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL never reuses a name; the kernel applies the umask to 0o666.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                handle.write(block)
            handle.flush()
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# The model cache.  An entry holds what a loader parsed from one model
# file: a header line naming the cache, the loader kind and the versions
# that fix the payload's layout, then the sha256 of the payload, then the
# payload, a marshal dump.  Bump the payload version whenever a loader's
# payload changes shape or meaning, so no entry of the old layout is read,
# and whenever a loader starts refusing files it used to accept, so no entry
# a laxer parse stored is served.  Version 2 is never used: caches may hold
# ``v2`` entries of another layout.
_CACHE_MAGIC = "mtqe-model-cache"
_PAYLOAD_VERSION = 6
_CACHE_TAG = f"v{_PAYLOAD_VERSION}-{sys.implementation.cache_tag}-m{marshal.version}"
_CHECKSUM_BYTES = 32  # a sha256 digest
# The most the cache directory holds.  After each store the least recently
# used entries past this size are deleted, and an entry larger than it is
# never stored.  An entry is about as large as its model file (1.5 MB for a
# language model of 200k gram lines), so this holds about 170 such models.
_CACHE_BYTES = 256 << 20


def _cache_directory():
    """``$XDG_CACHE_HOME/mtqe``, or ``~/.cache/mtqe`` if that is unset or relative.

    None when neither is an absolute path, so no relative cache is made.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "mtqe") if os.path.isabs(base) else None


def _private(directory) -> bool:
    """True when ``directory`` is a directory of this user that no other user can write.

    Any other directory could hold entries planted by someone else, and
    marshal is not safe against crafted data, so such a cache is not used.
    """
    try:
        info = os.stat(directory)
    except OSError:
        return False
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def load_cached(path, kind: str, parse, build):
    """The model of the file at ``path``, parsed once per file content.

    ``parse(lines)`` checks every line of the file, as :func:`iter_lines`
    yields them, and returns the model's payload; ``build(payload)`` makes
    every model, parsed or cached, from its payload, and returns None for a
    payload of the wrong shape.  The file is opened once.  A regular file is
    hashed, and the ``kind`` entry keyed by that digest and the payload's
    versions gives the payload.  On a miss the file is parsed from the same
    handle, and only once the parse succeeds and ``build`` takes its payload
    is the payload stored, under the digest of the bytes the parse read.  A
    damaged, unreadable or misshapen entry is a miss, and a failed store costs
    the next load a parse, nothing more.  Any other file, a pipe say, is
    parsed uncached, since it cannot be read twice.  A cache directory that
    another user owns or can write is neither read nor written.
    """
    with open(path, "rb") as handle:
        directory = _cache_directory()
        if directory is None or not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            return build(parse(_decode_lines(_blocks(handle), path)))
        from hashlib import sha256  # only here: the import costs every stage a few ms

        header = f"{_CACHE_MAGIC}\t{kind}\t{_CACHE_TAG}\n".encode("ascii")
        prefix = os.path.join(directory, f"{kind}-{_CACHE_TAG}-")
        digest = sha256()
        for _ in _blocks(handle, digest):
            pass
        entry = prefix + digest.hexdigest()
        payload = None  # the entry's, if it is intact
        if _private(directory):
            start = len(header) + _CHECKSUM_BYTES
            try:
                with open(entry, "rb") as cached:
                    data = memoryview(cached.read())
                if (data[: len(header)] == header
                        and sha256(data[start:]).digest() == data[len(header) : start]):
                    payload = marshal.loads(data[start:])
            except (OSError, EOFError, ValueError, TypeError):  # unreadable, or bad marshal data
                pass
        model = None if payload is None else build(payload)
        if model is not None:
            try:
                os.utime(entry)  # its mtime is its last use, which eviction goes by
            except OSError:
                pass
            return model
        handle.seek(0)
        digest = sha256()
        payload = parse(_decode_lines(_blocks(handle, digest), path))
    model = build(payload)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if model is not None and _private(directory):
            data = marshal.dumps(payload)
            blocks = [header, sha256(data).digest(), data]
            if sum(map(len, blocks)) <= _CACHE_BYTES:
                _write_atomically(prefix + digest.hexdigest(), blocks)
                _evict(directory)
    except OSError:  # no home, a read-only one, a full disk: the next load parses
        pass
    return model


def _evict(directory) -> None:
    """Delete the least recently used files in ``directory`` past :data:`_CACHE_BYTES` in all.

    Every regular file counts, so a temp file a crashed store left behind
    is deleted in its turn.  A file that vanishes meanwhile, deleted by
    another process's eviction, is passed over.
    """
    files = []
    with os.scandir(directory) as found:
        for item in found:
            try:
                info = item.stat(follow_symlinks=False)
            except OSError:
                continue
            if stat.S_ISREG(info.st_mode):
                files.append((info.st_mtime_ns, info.st_size, item.path))
    total = 0  # the bytes of this file and of every more recently used one
    for _, size, path in sorted(files, reverse=True):
        total += size
        if total > _CACHE_BYTES:
            try:
                os.unlink(path)
            except OSError:
                pass
