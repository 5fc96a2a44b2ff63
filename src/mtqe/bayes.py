"""Gaussian Naive Bayes over the 16 feature dimensions.

The joint log score of a class y and a feature vector x is
ln P(y) + sum_i ln N(x_i; mean_{y,i}, var_{y,i}).  All arithmetic stays in
log space so the 16-term product cannot underflow; variances are clamped
to a floor so every score is finite.
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


class NaiveBayesModel:
    """Class priors plus per-class, per-feature Gaussian parameters.

    Immutable after training; predictions are pure functions of the input.
    """

    def __init__(self, classes, priors, means, variances, variance_floor):
        self.classes = tuple(classes)  # ascending grade order, ties go to the first
        self.priors = priors  # {Grade: P(y)}
        self.means = means  # {Grade: 16 floats}
        self.variances = variances  # {Grade: 16 floats, all >= variance_floor}
        self.variance_floor = variance_floor
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
        ValueError: unless ``variance_floor`` is > 0 with a finite double.
        EmptyTrainingSet: when no rows are given.
    """
    if not 0.0 < variance_floor < math.inf:
        raise ValueError(f"variance_floor must be > 0 and finite, got {variance_floor}")
    if variance_floor > _MAX_VARIANCE:
        raise ValueError(f"variance_floor must be <= {_MAX_VARIANCE}, got {variance_floor}")
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


def _hex_floats(lines, key, n_values):
    parts = header_value(lines, key).split(" ")
    if len(parts) != n_values:
        raise CorruptModel(f"'{key}' line carries {len(parts)} values, expected {n_values}")
    try:
        if not all(map(is_plain, parts)):
            raise ValueError
        values = tuple(float.fromhex(p) for p in parts)
    except (ValueError, OverflowError):
        raise CorruptModel(f"bad float in '{key}' line") from None
    if not all(map(math.isfinite, values)):
        raise CorruptModel(f"non-finite value in '{key}' line")
    return values


def load_model(path) -> NaiveBayesModel:
    """Load a model written by :meth:`NaiveBayesModel.save`.

    The round trip preserves every parameter bit-for-bit, so predictions
    match the saved model exactly.  Raises CorruptModel for a malformed
    file and for parameters no training run writes: a prior outside
    (0, 1], a variance or variance floor <= 0 or with an infinite double
    (which would score inf / inf = nan), or a non-finite value.
    """
    lines = read_model_lines(iter_lines(path), _MAGIC, _FORMAT_VERSION)
    (variance_floor,) = _hex_floats(lines, "variance_floor", 1)
    if variance_floor <= 0.0:
        raise CorruptModel(f"variance floor {variance_floor} must be > 0")
    if variance_floor > _MAX_VARIANCE:
        raise CorruptModel(f"variance floor {variance_floor} must be <= {_MAX_VARIANCE}")
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
        if classes and grade <= classes[-1]:
            if grade == classes[-1]:
                raise CorruptModel("duplicate class")
            raise CorruptModel("classes are not in ascending grade order")
        (prior,) = _hex_floats(lines, "prior", 1)
        if not 0.0 < prior <= 1.0:
            raise CorruptModel(f"prior {prior} outside (0, 1]")
        priors[grade] = prior
        means[grade] = _hex_floats(lines, "means", N_FEATURES)
        variances[grade] = _hex_floats(lines, "variances", N_FEATURES)
        if min(variances[grade]) <= 0.0:
            raise CorruptModel(f"variance {min(variances[grade])} must be > 0")
        if max(variances[grade]) > _MAX_VARIANCE:
            raise CorruptModel(f"variance {max(variances[grade])} must be <= {_MAX_VARIANCE}")
        classes.append(grade)
    # Read to the end first, so a line after "end" is reported as such.
    if rest := list(lines):
        raise CorruptModel(f"line {rest[0]!r} follows the last class")
    return NaiveBayesModel(tuple(classes), priors, means, variances, variance_floor)
