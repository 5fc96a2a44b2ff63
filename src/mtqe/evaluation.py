"""Comparison of human and classifier grades.

Human and predicted grades are tallied once, into the 4x4 confusion
matrix; the per-grade histograms are its row and column sums and the
positional same-grade agreement is its diagonal.  Percentages are kept at
full precision internally and rendered to two decimals with
round-half-even.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LengthMismatch
from .grading import Grade


class AgreementReport(NamedTuple):
    """Positional same-grade count out of a total."""

    same: int
    total: int


class ConfusionMatrix(NamedTuple):
    """(human grade, predicted grade) -> count, all 16 cells present."""

    cells: dict[tuple[Grade, Grade], int]

    def human_histogram(self) -> dict[Grade, int]:
        """Per-grade row sums: how often the human gave each grade."""
        return {g: sum(self.cells[(g, p)] for p in Grade) for g in Grade}

    def predicted_histogram(self) -> dict[Grade, int]:
        """Per-grade column sums: how often the classifier gave each grade."""
        return {p: sum(self.cells[(g, p)] for g in Grade) for p in Grade}

    def agreement(self) -> AgreementReport:
        """The diagonal out of the matrix sum; ValueError when the matrix is empty."""
        total = sum(self.cells.values())
        if not total:
            raise ValueError("agreement needs at least one graded position")
        return AgreementReport(sum(self.cells[(g, g)] for g in Grade), total)


def confusion(human, predicted) -> ConfusionMatrix:
    """Cross-tabulate human (rows) against predicted (columns) grades."""
    human = list(human)
    predicted = list(predicted)
    if len(human) != len(predicted):
        raise LengthMismatch(f"sequences do not align: {len(human)} vs {len(predicted)} items")
    cells = {(h, p): 0 for h in Grade for p in Grade}
    for pair in zip(human, predicted):
        cells[pair] += 1
    return ConfusionMatrix(cells)


def agreement(human, predicted) -> AgreementReport:
    """Count positions where both sequences carry the identical grade."""
    return confusion(human, predicted).agreement()


def _report_percentage(report: AgreementReport) -> str:
    # Exact hundredths of a percent, rounded half-even in integers, so an
    # exact tie such as 0.025% goes to even where its float would not.
    hundredths, remainder = divmod(10000 * report.same, report.total)
    if 2 * remainder > report.total or 2 * remainder == report.total and hundredths % 2:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def render_report_csv(
    human_hist: dict[Grade, int],
    predicted_hist: dict[Grade, int],
    report: AgreementReport,
) -> list[str]:
    """The report file's lines: a row per grade, then the agreement footer."""
    lines = ["grade,human_count,predicted_count"]
    for grade in Grade:
        lines.append(
            f"{grade.label},{human_hist[grade]},{predicted_hist[grade]}"
        )
    lines.append("same,total,percentage")
    lines.append(f"{report.same},{report.total},{_report_percentage(report)}")
    return lines


def render_report_text(matrix: ConfusionMatrix, report: AgreementReport) -> str:
    human_hist = matrix.human_histogram()
    predicted_hist = matrix.predicted_histogram()
    width = max(len(g.label) for g in Grade)
    lines = ["grade counts (human vs predicted)"]
    for grade in Grade:
        lines.append(
            f"  {grade.label:<{width}}  human={human_hist[grade]:<6d}"
            f" predicted={predicted_hist[grade]}"
        )
    lines.append("")
    lines.append("confusion matrix (rows human, columns predicted)")
    header = "  " + " " * width + "  " + "  ".join(f"{g.label:>9}" for g in Grade)
    lines.append(header)
    for h in Grade:
        row = "  ".join(f"{matrix.cells[(h, p)]:>9d}" for p in Grade)
        lines.append(f"  {h.label:<{width}}  {row}")
    lines.append("")
    lines.append(
        f"agreement: {report.same} of {report.total}"
        f" ({_report_percentage(report)}%)"
    )
    return "\n".join(lines) + "\n"
