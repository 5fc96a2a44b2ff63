"""Quality grades and the judgment-to-grade mapping."""

from __future__ import annotations

import enum
from bisect import bisect_left

from .corpus import JUDGMENT_MAX, JUDGMENT_PARAMS, HumanJudgment


class Grade(enum.IntEnum):
    """Four-level quality label; the integer value doubles as the rank."""

    POOR = 1
    AVERAGE = 2
    GOOD = 3
    EXCELLENT = 4

    @property
    def label(self) -> str:
        """The exact string used in all file formats."""
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Grade":
        try:
            return _GRADES[label]
        except KeyError:
            raise ValueError(f"unknown grade label {label!r}") from None


_LABELS = {grade: grade.name.capitalize() for grade in Grade}
_GRADES = {label: grade for grade, label in _LABELS.items()}
# The top parameter sum of Poor, Average and Good: a quarter, a half and
# three quarters of the largest sum, 40.
_TOP_SUMS = tuple(JUDGMENT_PARAMS * JUDGMENT_MAX * q // 4 for q in (1, 2, 3))


def judgment_grade(judgment: HumanJudgment) -> Grade:
    """Grade the sum of the ten 0..4 parameters.

    Bands are upper-inclusive: sums 0-10 are Poor, 11-20 Average, 21-30
    Good and 31-40 Excellent.
    """
    return Grade(bisect_left(_TOP_SUMS, sum(judgment.params)) + 1)
