"""Exception types raised by the pipeline's contract checks.

Everything derives from :class:`QEError`, which the command line maps to
exit code 2.  OS-level failures (missing files, unwritable paths) are left
as the builtin ``OSError`` and handled the same way at the CLI boundary.
"""


class QEError(Exception):
    """Base class for contract violations."""


class LineCountMismatch(QEError):
    """The two sides of a parallel corpus have different line counts."""

    def __init__(self, n_source: int, n_target: int):
        super().__init__(
            f"parallel files are not line-aligned: "
            f"{n_source} source lines vs {n_target} target lines"
        )


class InvalidEncoding(QEError):
    """A line of an input file is not valid UTF-8."""

    def __init__(self, line_no: int, path):
        super().__init__(f"invalid UTF-8 at {path}:{line_no}")


class MalformedRow(QEError):
    """A data row of a tabular file does not match the expected layout.

    ``row`` is the 0-based index of the data row (the header does not
    count); ``None`` means the header itself was bad.
    """

    def __init__(self, row, detail: str):
        where = "header" if row is None else f"row {row}"
        super().__init__(f"malformed {where}: {detail}")


class OutOfRangeScore(QEError, ValueError):
    """A judgment parameter falls outside the 0..4 scale.

    ``row`` is the 0-based data-row index, ``col`` the 1-based parameter
    number (1..10).
    """

    def __init__(self, row: int, col: int, value: int):
        super().__init__(f"judgment parameter p{col} in row {row} is {value}, outside 0..4")


class ReservedToken(QEError):
    """A corpus line holds a token the language model reserves as a marker."""

    def __init__(self, token: str, line_no: int, path):
        super().__init__(f"reserved token {token!r} at {path}:{line_no}")


class EmptyCorpus(QEError):
    """An operation that needs at least one sentence received none."""

    def __init__(self, detail: str = "corpus contains no sentences"):
        super().__init__(detail)


class EmptyTrainingSet(QEError):
    """Classifier training received no labeled rows."""

    def __init__(self):
        super().__init__("training requires at least one labeled row")


class LengthMismatch(QEError):
    """Two sequences that must align item-by-item do not."""


class MixedLabeling(QEError):
    """A feature file may not mix labeled and unlabeled rows."""

    def __init__(self):
        super().__init__("labeled and unlabeled rows may not be mixed in one file")


class VersionMismatch(QEError):
    """A model file's format version is outside 1..the supported version."""

    def __init__(self, found: int, supported: int):
        super().__init__(
            f"model file has format version {found}, this build supports {supported}"
        )


class CorruptModel(QEError):
    """A model file is truncated or otherwise unparseable."""

    def __init__(self, detail: str):
        super().__init__(f"corrupt model file: {detail}")
