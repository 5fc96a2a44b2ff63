from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mtqe.errors import LengthMismatch
from mtqe.evaluation import (
    AgreementReport,
    agreement,
    confusion,
    render_report_csv,
    render_report_text,
)
from mtqe.grading import Grade

from conftest import reference_percentage

# Transcribed per-engine grade counts; each column totals the 1300-sentence
# test corpus.
CLASSIFIER_COLUMNS = {
    "bing": {Grade.EXCELLENT: 24, Grade.GOOD: 228, Grade.AVERAGE: 1019, Grade.POOR: 29},
    "google": {Grade.EXCELLENT: 23, Grade.GOOD: 221, Grade.AVERAGE: 1008, Grade.POOR: 48},
    "babylon": {Grade.EXCELLENT: 12, Grade.GOOD: 200, Grade.AVERAGE: 1025, Grade.POOR: 63},
}
HUMAN_COLUMNS = {
    "bing": {Grade.EXCELLENT: 96, Grade.GOOD: 231, Grade.AVERAGE: 956, Grade.POOR: 17},
    "google": {Grade.EXCELLENT: 92, Grade.GOOD: 194, Grade.AVERAGE: 1002, Grade.POOR: 12},
    "babylon": {Grade.EXCELLENT: 7, Grade.GOOD: 234, Grade.AVERAGE: 1006, Grade.POOR: 53},
}

_grades = st.lists(st.sampled_from(list(Grade)), min_size=1, max_size=60)


def _expand(column):
    grades = []
    for grade, count in column.items():
        grades.extend([grade] * count)
    return grades


def _tally(grades):
    """Per-grade counts, every grade present: the reference histogram."""
    return {g: grades.count(g) for g in Grade}


def _histograms(human, predicted):
    """Both histograms of the report CSV, read off the confusion matrix."""
    matrix = confusion(human, predicted)
    return matrix.human_histogram(), matrix.predicted_histogram()


class TestHistogram:
    """The confusion matrix's row and column sums are the grade histograms."""

    def test_transcribed_columns_total_1300(self):
        for column in list(CLASSIFIER_COLUMNS.values()) + list(HUMAN_COLUMNS.values()):
            grades = _expand(column)
            for hist in _histograms(grades, grades[::-1]):
                assert sum(hist.values()) == 1300
                for grade in Grade:
                    assert hist[grade] == column[grade]

    def test_empty_input(self):
        for hist in _histograms([], []):
            assert sum(hist.values()) == 0
            assert all(count == 0 for count in hist.values())

    @given(_grades, _grades)
    def test_additivity(self, first, second):
        combined = confusion(first + second, second + first)
        a, b = confusion(first, first), confusion(second, second)
        for grade in Grade:
            assert combined.human_histogram()[grade] == (
                a.human_histogram()[grade] + b.human_histogram()[grade]
            )
            assert combined.predicted_histogram()[grade] == (
                a.predicted_histogram()[grade] + b.predicted_histogram()[grade]
            )


class TestAgreement:
    def test_identical_sequences(self):
        grades = [Grade.GOOD, Grade.POOR, Grade.AVERAGE]
        report = agreement(grades, grades)
        assert report.same == report.total == 3
        assert Fraction(100 * report.same, report.total) == 100

    def test_published_arithmetic(self):
        human = [Grade.POOR] * 1300
        for same, expected in ((756, "58.15"), (711, "54.69")):
            predicted = [Grade.POOR] * same + [Grade.GOOD] * (1300 - same)
            report = agreement(human, predicted)
            assert report.same == same
            footer = render_report_csv(*_histograms(human, predicted), report)
            assert footer[-1] == f"{same},1300,{expected}"

    def test_rounds_half_even_not_truncated(self):
        # 771/1300 is 59.3077 percent; two-decimal rendering rounds up.
        human = [Grade.POOR] * 1300
        predicted = [Grade.POOR] * 771 + [Grade.GOOD] * 529
        report = agreement(human, predicted)
        footer = render_report_csv(*_histograms(human, predicted), report)
        assert footer[-1] == "771,1300,59.31"

    @pytest.mark.parametrize("same, total, expected", [
        (1, 4000, "0.02"), (3, 4000, "0.08"), (203, 20000, "1.02"),
    ])
    def test_exact_ties_round_half_even_in_report(self, same, total, expected):
        # 0.025, 0.075 and 1.015 are exact ties, which go to even; the
        # floats of the first and last lie just above and just below the
        # tie, so rounding the float would give 0.03 and 1.01.
        human = [Grade.POOR] * total
        predicted = [Grade.POOR] * same + [Grade.GOOD] * (total - same)
        report = agreement(human, predicted)
        matrix = confusion(human, predicted)
        footer = render_report_csv(*_histograms(human, predicted), report)
        assert footer[-1] == f"{same},{total},{expected}"
        assert f"({expected}%)" in render_report_text(matrix, report)

    def test_fully_disjoint(self):
        report = agreement([Grade.POOR] * 4, [Grade.GOOD] * 4)
        assert report.same == 0
        assert report.total == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            agreement([Grade.POOR], [Grade.POOR, Grade.GOOD])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agreement([], [])

    @given(_grades, _grades)
    def test_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert agreement(a, b) == agreement(b, a)


class TestConfusion:
    def test_identical_sequences_are_diagonal(self):
        grades = [Grade.GOOD, Grade.GOOD, Grade.POOR]
        matrix = confusion(grades, grades)
        for h in Grade:
            for p in Grade:
                if h is not p:
                    assert matrix.cells[(h, p)] == 0
        assert sum(matrix.cells[(g, g)] for g in Grade) == 3

    @given(_grades, _grades)
    @example([Grade.POOR] * 32, [Grade.POOR] + [Grade.GOOD] * 31)  # 3.125% rounds to 3.12
    def test_trace_and_marginals(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if n == 0:
            return
        matrix = confusion(a, b)
        report = agreement(a, b)
        diagonal = sum(matrix.cells[(g, g)] for g in Grade)
        total = sum(matrix.cells.values())
        assert diagonal == report.same == sum(1 for h, p in zip(a, b) if h == p)
        assert total == report.total == n
        assert matrix.agreement() == report
        assert matrix.human_histogram() == _tally(a)
        assert matrix.predicted_histogram() == _tally(b)
        # decimal's half-even rounding; the quotient of two such small
        # integers is exact to far more digits than a tie needs.
        percentage = (Decimal(100 * diagonal) / total).quantize(Decimal("0.01"), ROUND_HALF_EVEN)
        assert render_report_text(matrix, report).endswith(
            f"agreement: {diagonal} of {total} ({percentage}%)\n"
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match=r"^sequences do not align: 1 vs 0 items$"):
            confusion([Grade.POOR], [])


# (same, total) with same <= total; the second kind is an exact tie, a
# percentage of an odd number of thousandths: same / total = odd / 20000.
_agreement_counts = st.one_of(
    st.integers(min_value=1, max_value=10**40).flatmap(
        lambda total: st.tuples(st.integers(0, total), st.just(total))
    ),
    st.builds(lambda odd, scale: (odd * scale, 20000 * scale),
              st.integers(0, 9999).map(lambda i: 2 * i + 1), st.integers(1, 10**12)),
)


class TestReportRendering:
    @given(_agreement_counts)
    @example((1, 4000))  # 0.025%, a tie, goes down to even: 0.02
    @example((3, 4000))  # 0.075%, a tie, goes up to even: 0.08
    @example((1, 8))  # 12.5% is exact
    @example((10**40 - 1, 10**40))  # 99.99999...% rounds up to 100.00
    def test_percentage_is_half_even_fraction_reference(self, case):
        same, total = case
        report = AgreementReport(same, total)
        expected = reference_percentage(same, total)
        assert render_report_csv(_tally([]), _tally([]), report)[-1] == f"{same},{total},{expected}"

    def test_csv_layout(self):
        human = [Grade.POOR, Grade.GOOD, Grade.GOOD]
        predicted = [Grade.POOR, Grade.GOOD, Grade.AVERAGE]
        lines = render_report_csv(_tally(human), _tally(predicted), agreement(human, predicted))
        assert lines[0] == "grade,human_count,predicted_count"
        assert lines[1] == "Poor,1,1"
        assert lines[2] == "Average,0,1"
        assert lines[3] == "Good,2,1"
        assert lines[4] == "Excellent,0,0"
        assert lines[5] == "same,total,percentage"
        assert lines[6] == "2,3,66.67"
