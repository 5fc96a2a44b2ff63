"""The mtqe file format in one place: how every file is read and written.

Every file is UTF-8 text split on LF alone, read forward and decoded a
block at a time, so the first faulty line is the one reported.  Every
line written ends with one LF.  Tabular files split a line into cells on
one separator; a table opens with a header line naming its columns, and
each data row's first cell is an integer id.  The rows of every keyed
file rise strictly by key, so one comparison with the previous row finds
a repeat.  Model files open with a ``magic<TAB>version`` signature, then
``key<TAB>value`` header lines read by name in turn, and close with an
``end`` line.  Every number read from a file is plain ASCII: an integer
matches ``-?[0-9]+``, and a float cell has no whitespace and no ``_``
before ``float()`` reads it.  Outputs are written atomically and durably,
so a failed run or a crash never leaves a partial file behind.
"""

import codecs
import math
import os
import stat
from itertools import chain, islice

from .errors import CorruptModel, InvalidEncoding, MalformedRow, VersionMismatch


# Bytes read and decoded, and lines joined and encoded, at a time.  A
# block's or a chunk's text is the most of a file a reader or a writer
# holds beyond its own data.
_BLOCK_BYTES = 1 << 16
_CHUNK_LINES = 4096


def iter_lines(path):
    """Yield the lines of a UTF-8, LF-terminated text file, one block at a time.

    Only LF ends a line; a trailing LF ends the last line rather than
    starting an empty one.  Invalid UTF-8 raises InvalidEncoding naming
    ``path`` and the 1-based line, after yielding every line before it:
    the line is the count of LF bytes before the bad byte, plus one (0x0A
    never occurs inside a multi-byte UTF-8 sequence, so this is the line a
    per-line decode finds).
    """
    pending = b""  # the start of a character split by a block edge
    tail = ""  # the text after the last LF read so far
    line_no = 0  # the lines yielded so far
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_BLOCK_BYTES)
            data = pending + block
            try:
                text, used = codecs.utf_8_decode(data, "strict", not block)
            except UnicodeDecodeError as exc:
                # Everything before the first bad byte decodes.
                lines = (tail + data[: exc.start].decode("utf-8")).split("\n")
                yield from lines[:-1]
                raise InvalidEncoding(line_no + len(lines), path) from exc
            pending = data[used:]
            lines = (tail + text).split("\n")
            tail = lines.pop()
            line_no += len(lines)
            yield from lines
            if not block:
                break
    if tail:
        yield tail


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


def not_rising(row: int, key: str, previous: str) -> MalformedRow:
    """The error for data row ``row``, whose key is not above the previous row's.

    Both keys are named as a message shows them, like ``id 3``.
    """
    if key == previous:
        return MalformedRow(row, f"duplicate {key}")
    return MalformedRow(row, f"{key} out of order after {previous}")


def read_table(path, sep: str, headers):
    """Data rows of a table whose header line is one of ``headers``, read forward.

    Yields ``(row, row_id, line, cells)`` for each data row: ``row``
    counted from 0, ``cells`` the line split on ``sep`` into exactly as
    many cells as the header has, and ``row_id`` the first cell as an
    integer.  A missing or unknown header raises ``MalformedRow(None,
    ...)`` quoting the header found; a row of the wrong width, then a bad
    id cell or one not above the previous row's id, raises MalformedRow
    for that row.
    """
    lines = iter_lines(path)
    header = next(lines, None)
    if header not in headers:
        found = "an empty file" if header is None else repr(header)
        raise MalformedRow(None, f"expected {' or '.join(map(repr, headers))}, got {found}")
    width = header.count(sep) + 1
    previous = -math.inf  # below every id
    for row, line in enumerate(lines):
        cells = split_row(line, row, sep, width)
        try:
            row_id = parse_int(cells[0])
        except (ValueError, OverflowError) as exc:
            raise MalformedRow(row, str(exc)) from None
        if row_id <= previous:
            raise not_rising(row, f"id {row_id}", f"id {previous}")
        previous = row_id
        yield row, row_id, line, cells


def read_model_lines(path, magic: str, version: int):
    """Yield the lines between a model file's signature and its closing ``end``.

    Raises CorruptModel for an empty file, a missing signature or a last
    line other than ``end``, and VersionMismatch for a format version
    outside 1..``version``, each before any line after it is read.
    """
    lines = iter_lines(path)
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

    The text goes to a temp file a chunk of lines at a time, is fsynced,
    and is renamed over ``path``; the directory is fsynced after the
    rename, so the rename itself is durable too.

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
            lines = iter(lines)
            # The empty item ends a chunk's last line; no lines, no text.
            while chunk := list(islice(lines, _CHUNK_LINES)):
                handle.write("\n".join(chain(chunk, [""])))
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
