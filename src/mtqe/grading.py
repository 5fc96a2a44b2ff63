"""Quality grades and the judgment-to-grade mapping."""

from __future__ import annotations

import enum

from .corpus import JUDGMENT_MAX, JUDGMENT_PARAMS, HumanJudgment

MAX_JUDGMENT_TOTAL = JUDGMENT_PARAMS * JUDGMENT_MAX  # 40


class Grade(enum.IntEnum):
    """Four-level quality label; the integer value doubles as the rank."""

    POOR = 1
    AVERAGE = 2
    GOOD = 3
    EXCELLENT = 4

    @property
    def label(self) -> str:
        """The exact string used in all file formats."""
        return self.name.capitalize()

    @classmethod
    def from_label(cls, label: str) -> "Grade":
        for grade in cls:
            if grade.label == label:
                return grade
        raise ValueError(f"unknown grade label {label!r}")


def aggregate_judgment(judgment: HumanJudgment) -> float:
    """Collapse the ten 0..4 parameters into a score in [0, 1]."""
    return sum(judgment.params) / MAX_JUDGMENT_TOTAL


def score_to_grade(score: float) -> Grade:
    """Map a [0, 1] quality score to a grade.

    Intervals are lower-exclusive and upper-inclusive: Poor up to 0.25,
    Average up to 0.50, Good up to 0.75, Excellent above.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    if score <= 0.25:
        return Grade.POOR
    if score <= 0.50:
        return Grade.AVERAGE
    if score <= 0.75:
        return Grade.GOOD
    return Grade.EXCELLENT


def judgment_grade(judgment: HumanJudgment) -> Grade:
    """Aggregate a judgment and grade it in one step."""
    return score_to_grade(aggregate_judgment(judgment))
