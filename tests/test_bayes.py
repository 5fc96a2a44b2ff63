import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe.bayes import NaiveBayesModel, load_model, train_nb
from mtqe.errors import CorruptModel, EmptyTrainingSet, VersionMismatch
from mtqe.feature_csv import N_FEATURES
from mtqe.grading import Grade

from conftest import reference_log_joint


def _random_vector(rng, center=0.0, spread=4.0):
    return tuple(rng.gauss(center, spread) for _ in range(N_FEATURES))


def _random_rows(rng, n=24):
    rows = []
    grades = list(Grade)
    for i in range(n):
        grade = grades[i % len(grades)]
        rows.append((_random_vector(rng, center=3.0 * int(grade)), grade))
    return rows


def _uniform_model(classes, means_by_class, variance=1.0, floor=1e-12):
    priors = {y: 1.0 / len(classes) for y in classes}
    means = {y: tuple(means_by_class[y]) for y in classes}
    variances = {y: (variance,) * N_FEATURES for y in classes}
    return NaiveBayesModel(tuple(classes), priors, means, variances, floor)


class TestTraining:
    def test_single_class_degenerate(self):
        rng = random.Random(0)
        rows = [(_random_vector(rng), Grade.GOOD) for _ in range(5)]
        model = train_nb(rows)
        assert model.classes == (Grade.GOOD,)
        assert model.priors[Grade.GOOD] == 1.0
        assert model.predict(_random_vector(rng)).predicted is Grade.GOOD

    def test_relative_frequency_priors(self):
        rng = random.Random(1)
        rows = [(_random_vector(rng), Grade.GOOD) for _ in range(3)]
        rows.append((_random_vector(rng), Grade.POOR))
        model = train_nb(rows)
        assert model.priors[Grade.GOOD] == 0.75
        assert model.priors[Grade.POOR] == 0.25
        assert model.classes == (Grade.POOR, Grade.GOOD)

    def test_moments_match_direct_sample_statistics(self):
        rng = random.Random(2)
        rows = [(_random_vector(rng), Grade.POOR) for _ in range(3)]
        rows += [(_random_vector(rng, center=5.0), Grade.GOOD) for _ in range(3)]
        model = train_nb(rows)
        for grade in (Grade.POOR, Grade.GOOD):
            vectors = [v for v, g in rows if g is grade]
            for i in range(N_FEATURES):
                column = [v[i] for v in vectors]
                assert model.means[grade][i] == pytest.approx(statistics.mean(column), abs=1e-12)
                assert model.variances[grade][i] == pytest.approx(
                    statistics.pvariance(column), abs=1e-12
                )

    def test_zero_variance_is_floored(self):
        rows = [((1.0,) * N_FEATURES, Grade.POOR), ((1.0,) * N_FEATURES, Grade.POOR)]
        model = train_nb(rows, variance_floor=1e-12)
        assert model.variance_floor == 1e-12
        assert all(v == 1e-12 for v in model.variances[Grade.POOR])
        assert math.isfinite(model.log_joint((2.0,) * N_FEATURES)[Grade.POOR])

    def test_relative_floor_scales_with_pooled_variance(self):
        rows = [((0.0,) * N_FEATURES, Grade.POOR), ((2000.0,) * N_FEATURES, Grade.GOOD)]
        model = train_nb(rows, variance_floor=1e-12)
        assert model.variance_floor == pytest.approx(1e-9 * 1e6, rel=1e-12)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_nb([])

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            train_nb([((0.0,) * N_FEATURES, Grade.POOR)], variance_floor=0.0)

    @pytest.mark.parametrize(
        "column",
        # a square beyond the float range, a sum beyond it, and a difference
        # from the mean beyond it
        [(1e200, 0.0), (1e308, 1e308), (1.7e308, -1.7e308, -1.7e308)],
    )
    def test_feature_too_large_for_a_float_variance(self, column):
        rows = [((0.0, 0.0, value) + (0.0,) * 13, Grade.POOR) for value in column]
        with pytest.raises(ValueError, match="^feature f3 is too large for a float variance$"):
            train_nb(rows)

    def test_row_permutation_leaves_model_identical(self):
        rng = random.Random(3)
        rows = _random_rows(rng)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a = train_nb(rows)
        b = train_nb(shuffled)
        assert a.classes == b.classes
        assert a.priors == b.priors
        assert a.means == b.means
        assert a.variances == b.variances
        assert a.variance_floor == b.variance_floor

    def test_duplicating_rows_leaves_model_identical(self):
        rng = random.Random(4)
        rows = _random_rows(rng)
        a = train_nb(rows)
        b = train_nb(rows + rows)
        assert a.priors == b.priors
        assert a.means == b.means
        assert a.variances == b.variances

    def test_priors_sum_to_one(self):
        rng = random.Random(5)
        for n in (3, 7, 10, 23):
            rows = _random_rows(rng, n=n)
            model = train_nb(rows)
            assert abs(math.fsum(model.priors.values()) - 1.0) <= 1e-12


def _oracle_rows():
    # Tight class centers and bounded variances so the explicit density
    # product stays inside double range.
    rows = []
    grades = [Grade.POOR] * 5 + [Grade.AVERAGE] * 5 + [Grade.GOOD] * 5 + [Grade.EXCELLENT] * 5
    for r, grade in enumerate(grades):
        center = float(int(grade))
        rows.append((tuple(center + 0.8 * ((r + i) % 5 - 2) for i in range(N_FEATURES)), grade))
    return rows


def _bits(scores):
    return {y: value.hex() for y, value in scores.items()}


class TestLogJoint:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.floats(-1e6, 1e6), min_size=N_FEATURES, max_size=N_FEATURES),
    )
    def test_equals_per_row_formula_bit_for_bit(self, seed, x):
        model = train_nb(_random_rows(random.Random(seed)))
        assert _bits(model.log_joint(x)) == _bits(reference_log_joint(model, x))

    def test_loaded_model_equals_per_row_formula_bit_for_bit(self, tmp_path):
        rng = random.Random(12)
        # One class of identical rows has every variance at the floor.
        rows = [row for row in _random_rows(rng) if row[1] is not Grade.EXCELLENT]
        rows += [((5.0,) * N_FEATURES, Grade.EXCELLENT)] * 3
        model = train_nb(rows)
        model.save(tmp_path / "nb.model")
        loaded = load_model(tmp_path / "nb.model")
        assert min(model.variances[Grade.EXCELLENT]) == model.variance_floor
        for _ in range(200):
            x = _random_vector(rng, center=6.0, spread=8.0)
            expected = _bits(reference_log_joint(model, x))
            assert _bits(model.log_joint(x)) == expected
            assert _bits(loaded.log_joint(x)) == expected

    def test_matches_term_by_term_product(self):
        rng = random.Random(6)
        model = train_nb(_oracle_rows())
        for _ in range(30):
            x = tuple(rng.uniform(-2.0, 6.0) for _ in range(N_FEATURES))
            scores = model.log_joint(x)
            for y in model.classes:
                product = model.priors[y]
                for i in range(N_FEATURES):
                    mean = model.means[y][i]
                    var = model.variances[y][i]
                    density = math.exp(-((x[i] - mean) ** 2) / (2.0 * var))
                    density /= math.sqrt(2.0 * math.pi * var)
                    product *= density
                assert math.exp(scores[y]) == pytest.approx(product, rel=1e-9)

    def test_class_mean_maximizes_shared_variance_score(self):
        means = {Grade.POOR: (0.0,) * N_FEATURES, Grade.GOOD: (10.0,) * N_FEATURES}
        model = _uniform_model([Grade.POOR, Grade.GOOD], means)
        assert model.predict(means[Grade.POOR]).predicted is Grade.POOR
        assert model.predict(means[Grade.GOOD]).predicted is Grade.GOOD

    def test_constant_shift_leaves_argmax_unchanged(self):
        rng = random.Random(7)
        model = train_nb(_random_rows(rng, n=16))
        x = _random_vector(rng, center=4.0)
        scores = model.log_joint(x)
        shifted = {y: s + 123.456 for y, s in scores.items()}
        assert max(scores, key=scores.get) == max(shifted, key=shifted.get)


class TestPredict:
    def test_separated_means_on_one_feature(self):
        base = (5.0,) * (N_FEATURES - 1)
        means = {Grade.POOR: (0.0,) + base, Grade.GOOD: (10.0,) + base}
        model = _uniform_model([Grade.POOR, Grade.GOOD], means)
        x = (1.0,) + base
        assert model.predict(x).predicted is Grade.POOR

    def test_exact_tie_resolves_to_lowest_grade(self):
        means = {g: (0.0,) * N_FEATURES for g in (Grade.POOR, Grade.GOOD, Grade.EXCELLENT)}
        model = _uniform_model([Grade.POOR, Grade.GOOD, Grade.EXCELLENT], means)
        posterior = model.predict((1.0,) * N_FEATURES)
        scores = set(posterior.log_joint.values())
        assert len(scores) == 1
        assert posterior.predicted is Grade.POOR

    def test_synthetic_clusters_learned(self):
        rng = random.Random(8)
        train, test = [], []
        for c, grade in enumerate(Grade):
            for _ in range(50):
                train.append((_random_vector(rng, center=12.0 * c, spread=1.0), grade))
                test.append((_random_vector(rng, center=12.0 * c, spread=1.0), grade))
        model = train_nb(train)
        hits = sum(1 for x, g in test if model.predict(x).predicted is g)
        assert hits / len(test) >= 0.99


class TestPersistence:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        rng = random.Random(9)
        model = train_nb(_random_rows(rng, n=30))
        path = tmp_path / "nb.model"
        model.save(path)
        loaded = load_model(path)
        assert loaded.classes == model.classes
        assert loaded.priors == model.priors
        assert loaded.means == model.means
        assert loaded.variances == model.variances
        for _ in range(100):
            x = _random_vector(rng, center=rng.uniform(-5.0, 15.0))
            assert loaded.log_joint(x) == model.log_joint(x)
            assert loaded.predict(x).predicted is model.predict(x).predicted

    def test_truncated_file(self, tmp_path):
        rng = random.Random(10)
        model = train_nb(_random_rows(rng))
        path = tmp_path / "nb.model"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        (tmp_path / "cut.model").write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(tmp_path / "cut.model")

    def test_future_version(self, tmp_path):
        rng = random.Random(11)
        model = train_nb(_random_rows(rng))
        path = tmp_path / "nb.model"
        model.save(path)
        text = path.read_text(encoding="utf-8")
        (tmp_path / "new.model").write_text(
            text.replace("mtqe-nb-model\t1", "mtqe-nb-model\t2", 1), encoding="utf-8"
        )
        with pytest.raises(VersionMismatch):
            load_model(tmp_path / "new.model")

    def test_garbage_file(self, tmp_path):
        (tmp_path / "x.model").write_text("nope\n", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(tmp_path / "x.model")

    def test_unknown_class_label_is_corrupt(self, tmp_path):
        path = tmp_path / "nb.model"
        train_nb(_random_rows(random.Random(13))).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("class\t"))
        lines[index] = "class\tBad"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel) as info:
            load_model(path)
        assert str(info.value) == "corrupt model file: unknown class label 'Bad'"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("prior", "0x0.0p+0"),
            ("prior", "-0x1.0p-1"),
            ("prior", "0x1.8p+0"),
            ("prior", "nan"),
            ("variance_floor", "0x0.0p+0"),
            ("variance_floor", "-0x1.0p-40"),
            ("variances", "0x0.0p+0"),
            ("variances", "-0x1.0p+0"),
            ("variances", "nan"),
            ("means", "inf"),
        ],
    )
    def test_impossible_parameters_are_corrupt(self, tmp_path, key, value):
        rng = random.Random(12)
        path = tmp_path / "nb.model"
        train_nb(_random_rows(rng)).save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(key + "\t"))
        values = lines[index].split("\t")[1].split(" ")
        values[-1] = value
        lines[index] = key + "\t" + " ".join(values)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)
