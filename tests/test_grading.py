import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtqe.corpus import HumanJudgment
from mtqe.grading import Grade, judgment_grade


def _judgment(params):
    return HumanJudgment(0, tuple(params))


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

    @pytest.mark.parametrize("grade", list(Grade))
    def test_label_round_trip(self, grade):
        assert Grade.from_label(grade.label) is grade
        assert grade.label == grade.name.capitalize()

    @given(st.text(max_size=12))
    def test_unknown_label_raises(self, label):
        if label in ("Poor", "Average", "Good", "Excellent"):
            assert Grade.from_label(label).label == label
        else:
            with pytest.raises(ValueError):
                Grade.from_label(label)

    def test_label_parsing_is_strict(self):
        with pytest.raises(ValueError):
            Grade.from_label("average")
        with pytest.raises(ValueError):
            Grade.from_label("Great")
