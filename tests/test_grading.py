import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtqe.corpus import HumanJudgment
from mtqe.grading import (
    Grade,
    aggregate_judgment,
    judgment_grade,
    score_to_grade,
)


def _judgment(params):
    return HumanJudgment(0, tuple(params))


class TestAggregate:
    def test_extremes_and_midpoint(self):
        assert aggregate_judgment(_judgment([4] * 10)) == 1.0
        assert aggregate_judgment(_judgment([0] * 10)) == 0.0
        assert aggregate_judgment(_judgment([2] * 10)) == 0.5


class TestScoreToGrade:
    def test_interval_assignments(self):
        assert score_to_grade(0.6) is Grade.GOOD
        assert score_to_grade(0.250) is Grade.POOR
        assert score_to_grade(1.0) is Grade.EXCELLENT
        assert score_to_grade(0.2505) is Grade.AVERAGE

    def test_boundaries_are_upper_inclusive(self):
        assert score_to_grade(0.0) is Grade.POOR
        assert score_to_grade(0.25) is Grade.POOR
        assert score_to_grade(0.50) is Grade.AVERAGE
        assert score_to_grade(0.75) is Grade.GOOD

    def test_rejects_out_of_range(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                score_to_grade(bad)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone(self, s1, s2):
        lo, hi = sorted((s1, s2))
        assert score_to_grade(lo) <= score_to_grade(hi)


class TestGradeToRank:
    def test_defined_order(self):
        assert int(Grade.POOR) == 1
        assert int(Grade.AVERAGE) == 2
        assert int(Grade.GOOD) == 3
        assert int(Grade.EXCELLENT) == 4

    def test_strictly_monotone(self):
        ranks = [int(g) for g in Grade]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == 4


class TestPartition:
    def test_all_41_sums(self):
        # Every reachable parameter total maps to exactly one grade band.
        for total in range(0, 41):
            base, extra = divmod(total, 10)
            params = [base + 1] * extra + [base] * (10 - extra)
            grade = judgment_grade(_judgment(params))
            if total <= 10:
                assert grade is Grade.POOR
            elif total <= 20:
                assert grade is Grade.AVERAGE
            elif total <= 30:
                assert grade is Grade.GOOD
            else:
                assert grade is Grade.EXCELLENT

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=10, max_size=10),
           st.integers(min_value=0, max_value=9))
    def test_raising_one_parameter_never_lowers_grade(self, params, index):
        if params[index] == 4:
            params[index] = 3
        bumped = list(params)
        bumped[index] += 1
        assert judgment_grade(_judgment(params)) <= judgment_grade(_judgment(bumped))


class TestLabels:
    def test_exact_ascii_labels(self):
        assert [g.label for g in Grade] == ["Poor", "Average", "Good", "Excellent"]
        assert Grade.from_label("Average") is Grade.AVERAGE

    def test_label_parsing_is_strict(self):
        with pytest.raises(ValueError):
            Grade.from_label("average")
        with pytest.raises(ValueError):
            Grade.from_label("Great")
