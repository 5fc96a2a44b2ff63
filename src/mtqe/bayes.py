"""Gaussian Naive Bayes over the 16 feature dimensions.

The joint log score of a class y and a feature vector x is
ln P(y) + sum_i ln N(x_i; mean_{y,i}, var_{y,i}).  All arithmetic stays in
log space so the 16-term product cannot underflow.  Every variance and
its double are finite and > 0, so the score of finite features is never
NaN: it is finite, or -inf when a feature's distance from a class mean
squares beyond the float range.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .defaults import ABSOLUTE_VARIANCE_FLOOR
from .errors import CorruptModel, EmptyTrainingSet
from .feature_csv import FEATURE_COLUMNS, N_FEATURES
from .fileio import (
    header_int, header_value, is_plain, iter_lines, read_model_lines, write_model_lines,
)
from .grading import Grade

# The effective variance floor is the larger of these two terms:
# RELATIVE_VARIANCE_FLOOR times the largest pooled per-feature variance,
# and the absolute floor passed to train_nb, ABSOLUTE_VARIANCE_FLOOR by
# default.
RELATIVE_VARIANCE_FLOOR = 1e-9
# The largest variance whose double, each Gaussian term's divisor, is finite.
_MAX_VARIANCE = sys.float_info.max / 2

_MAGIC = "mtqe-nb-model"
_FORMAT_VERSION = 1
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class Posterior(NamedTuple):
    """Per-class joint log scores and the tie-broken argmax."""

    log_joint: dict[Grade, float]
    predicted: Grade


def _as_values(x) -> tuple[float, ...]:
    values = tuple(map(float, x))
    if len(values) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} feature values, got {len(values)}")
    return values


def _check_variance(name, value):
    if not value > 0.0:
        raise ValueError(f"{name} {value} must be > 0")
    if value > _MAX_VARIANCE:
        raise ValueError(f"{name} {value} must be <= {_MAX_VARIANCE}")


class NaiveBayesModel:
    """Class priors plus per-class, per-feature Gaussian parameters.

    Immutable after training; predictions are pure functions of the input.
    The constructor raises ValueError unless there is a class and the
    classes ascend strictly, every prior is in (0, 1], every class has 16
    finite means and 16 variances, and every variance and the floor are in
    (0, half the largest float]: a larger one's double, each Gaussian
    term's divisor, is infinite and would score inf / inf = nan.
    """

    def __init__(self, classes, priors, means, variances, variance_floor):
        self.classes = tuple(classes)  # ascending grade order, ties go to the first
        self.priors = priors  # {Grade: P(y)}
        self.means = means  # {Grade: 16 floats}
        self.variances = variances  # {Grade: 16 floats}, >= variance_floor from train_nb
        self.variance_floor = variance_floor
        if not self.classes:  # load_model refuses this first, as a header fault
            raise ValueError(f"class count 0 outside 1..{len(Grade)}")
        _check_variance("variance floor", variance_floor)
        for low, high in zip(self.classes, self.classes[1:]):
            if high <= low:
                raise ValueError("duplicate class" if high == low
                                 else "classes are not in ascending grade order")
        for y in self.classes:
            if not 0.0 < priors[y] <= 1.0:
                raise ValueError(f"prior {priors[y]} outside (0, 1]")
            for name, values in (("means", means[y]), ("variances", variances[y])):
                if len(values) != N_FEATURES:
                    raise ValueError(f"class {y.label} has {len(values)} {name}, "
                                     f"expected {N_FEATURES}")
            for m in means[y]:
                if not math.isfinite(m):
                    raise ValueError(f"mean {m} is not finite")
            for v in variances[y]:
                _check_variance("variance", v)
        # Per class: ln P(y), the means, each feature's normalizing term
        # 0.5 ln(2 pi) + 0.5 ln var and its 2 var, computed once so that
        # log_joint does only the per-row arithmetic, in the same order.
        self._terms = tuple(
            (
                y,
                math.log(priors[y]),
                means[y],
                tuple(_HALF_LOG_TWO_PI + 0.5 * math.log(v) for v in variances[y]),
                tuple(2.0 * v for v in variances[y]),
            )
            for y in self.classes
        )

    def log_joint(self, x) -> dict[Grade, float]:
        """ln P(y) + sum of Gaussian log densities, for every class."""
        values = _as_values(x)
        scores: dict[Grade, float] = {}
        for y, total, mean, norms, twice_vars in self._terms:
            for value, m, norm, twice_var in zip(values, mean, norms, twice_vars):
                diff = value - m
                total -= norm
                total -= (diff * diff) / twice_var
            scores[y] = total
        return scores

    def predict(self, x) -> Posterior:
        """Argmax of log_joint; exact ties resolve to the lowest grade."""
        scores = self.log_joint(x)
        return Posterior(scores, max(self.classes, key=scores.__getitem__))

    def save(self, path) -> None:
        """Write the model as versioned UTF-8 text with hex floats."""
        lines = [f"variance_floor\t{self.variance_floor.hex()}", f"classes\t{len(self.classes)}"]
        for y in self.classes:
            lines.append(f"class\t{y.label}")
            lines.append(f"prior\t{self.priors[y].hex()}")
            lines.append("means\t" + " ".join(v.hex() for v in self.means[y]))
            lines.append("variances\t" + " ".join(v.hex() for v in self.variances[y]))
        write_model_lines(path, _MAGIC, _FORMAT_VERSION, lines)


def _population_moments(vectors, index):
    try:
        mean = math.fsum(v[index] for v in vectors) / len(vectors)
        var = math.fsum((v[index] - mean) ** 2 for v in vectors) / len(vectors)
    except OverflowError:  # a sum or a square beyond the float range
        column = FEATURE_COLUMNS[index]
        raise ValueError(f"feature {column} is too large for a float variance") from None
    return mean, var


def train_nb(rows, variance_floor: float = ABSOLUTE_VARIANCE_FLOOR) -> NaiveBayesModel:
    """Fit priors and per-class Gaussians from (features, grade) rows.

    Priors are class relative frequencies; means are sample means and
    variances population variances, clamped to the effective floor
    (RELATIVE_VARIANCE_FLOOR times the largest pooled feature variance, but
    never below ``variance_floor``).  Classes absent from the rows are
    omitted.  Sums use fsum, so row order cannot change the model.

    Raises:
        ValueError: unless ``variance_floor`` is > 0 and finite, and when
            :class:`NaiveBayesModel` refuses the fitted parameters (a floor
            or a variance whose double is infinite).
        EmptyTrainingSet: when no rows are given.
    """
    # A NaN or a floor <= 0 would vanish inside max() below.
    if not 0.0 < variance_floor < math.inf:
        raise ValueError(f"variance_floor must be > 0 and finite, got {variance_floor}")
    data = [(_as_values(x), y) for x, y in rows]
    if not data:
        raise EmptyTrainingSet()
    all_vectors = [values for values, _ in data]
    pooled_max = max(
        _population_moments(all_vectors, i)[1] for i in range(N_FEATURES)
    )
    floor = max(RELATIVE_VARIANCE_FLOOR * pooled_max, variance_floor)
    by_class: dict[Grade, list[tuple[float, ...]]] = {}
    for values, y in data:
        by_class.setdefault(y, []).append(values)
    classes = tuple(sorted(by_class))
    priors = {y: len(by_class[y]) / len(data) for y in classes}
    means = {}
    variances = {}
    for y in classes:
        vectors = by_class[y]
        moments = [_population_moments(vectors, i) for i in range(N_FEATURES)]
        means[y] = tuple(m for m, _ in moments)
        variances[y] = tuple(max(v, floor) for _, v in moments)
    return NaiveBayesModel(classes, priors, means, variances, floor)


def _hex_floats(lines, key) -> tuple[float, ...]:
    parts = header_value(lines, key).split(" ")
    try:
        if not all(map(is_plain, parts)):
            raise ValueError
        return tuple(map(float.fromhex, parts))
    except (ValueError, OverflowError):
        raise CorruptModel(f"bad float in '{key}' line") from None


def _hex_float(lines, key) -> float:
    values = _hex_floats(lines, key)
    if len(values) != 1:
        raise CorruptModel(f"'{key}' line carries {len(values)} values, expected 1")
    return values[0]


def load_model(path) -> NaiveBayesModel:
    """Load a model written by :meth:`NaiveBayesModel.save`.

    The round trip preserves every parameter bit-for-bit, so predictions
    match the saved model exactly.  Raises CorruptModel for a malformed
    file and, once the whole file has been read, with the constructor's
    message for parameters :class:`NaiveBayesModel` refuses.
    """
    lines = read_model_lines(iter_lines(path), _MAGIC, _FORMAT_VERSION)
    variance_floor = _hex_float(lines, "variance_floor")
    n_classes = header_int(lines, "classes")
    if not 1 <= n_classes <= len(Grade):
        raise CorruptModel(f"class count {n_classes} outside 1..{len(Grade)}")
    classes = []
    priors = {}
    means = {}
    variances = {}
    for _ in range(n_classes):
        label = header_value(lines, "class")
        try:
            grade = Grade.from_label(label)
        except ValueError:
            raise CorruptModel(f"unknown class label {label!r}") from None
        classes.append(grade)
        priors[grade] = _hex_float(lines, "prior")
        means[grade] = _hex_floats(lines, "means")
        variances[grade] = _hex_floats(lines, "variances")
    # Read to the end first, so a line after "end" is reported as such.
    if rest := list(lines):
        raise CorruptModel(f"line {rest[0]!r} follows the last class")
    try:
        return NaiveBayesModel(classes, priors, means, variances, variance_floor)
    except ValueError as exc:
        raise CorruptModel(str(exc)) from None
