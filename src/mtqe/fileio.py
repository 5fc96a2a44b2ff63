"""The mtqe file format in one place: how every file is read and written.

Every file is UTF-8 text split on LF alone.  Tabular files split a line
into cells on one separator; model files open with a ``magic<TAB>version``
signature followed by ``key<TAB>value`` header lines.  Outputs are written
atomically and durably, so a failed run or a crash never leaves a partial
file behind.
"""

import os
import stat

from .errors import CorruptModel, InvalidEncoding, MalformedRow, VersionMismatch


def read_lines(path) -> list[str]:
    """Read a UTF-8, LF-terminated text file as a list of lines.

    Invalid UTF-8 raises InvalidEncoding naming ``path`` and the 1-based
    line.  The blob is decoded once; on failure the line is the count of
    LF bytes before the bad byte, plus one (0x0A never occurs inside a
    multi-byte UTF-8 sequence, so this is the line a per-line decode finds).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(blob.count(b"\n", 0, exc.start) + 1, path) from exc
    del blob  # peak memory is then the text plus its lines, not the bytes too
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def split_row(line: str, row: int, sep: str, width: int) -> list[str]:
    """Split data row ``row`` (0-based) into exactly ``width`` cells."""
    cells = line.split(sep)
    if len(cells) != width:
        raise MalformedRow(row, f"expected {width} cells, got {len(cells)}")
    return cells


def read_model_lines(path, magic: str, version: int) -> list[str]:
    """Lines of a model file whose ``magic<TAB>version`` signature checks out.

    Raises CorruptModel for an empty file or a missing signature and
    VersionMismatch for a file written by a format newer than ``version``.
    """
    lines = read_lines(path)
    if not lines:
        raise CorruptModel("empty file")
    first = lines[0].split("\t")
    if len(first) != 2 or first[0] != magic:
        raise CorruptModel("missing model signature")
    try:
        found = int(first[1])
    except ValueError:
        raise CorruptModel("non-integer format version") from None
    if found > version:
        raise VersionMismatch(found, version)
    return lines


def header_value(lines, index: int, key: str) -> str:
    """The value of the ``key<TAB>value`` line at ``lines[index]``."""
    if index >= len(lines):
        raise CorruptModel(f"missing header line '{key}'")
    cells = lines[index].split("\t")
    if len(cells) != 2 or cells[0] != key:
        raise CorruptModel(f"expected header line '{key}', got {lines[index]!r}")
    return cells[1]


def header_int(lines, index: int, key: str) -> int:
    """:func:`header_value` parsed as an integer."""
    try:
        return int(header_value(lines, index, key))
    except ValueError:
        raise CorruptModel(f"non-integer value in header line '{key}'") from None


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file, fsync and atomic rename.

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
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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
