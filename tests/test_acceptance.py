"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import math
import random
import time
from contextlib import contextmanager

from mtqe.bayes import load_model, train_nb
from mtqe.corpus import SOURCE, TARGET, HumanJudgment, read_lines, tokenize
from mtqe.evaluation import agreement, confusion
from mtqe.features import FeatureVector, N_FEATURES, extract_features, read_features
from mtqe.grading import Grade, judgment_grade
from mtqe.lexicon import build_lexicon
from mtqe.ngram import load_lm, train_lm

from conftest import (
    EN_WORDS, decode_lm, make_corpus, reference_cond_prob, run_cli, run_toy_pipeline,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _labeled_fixture():
    # Class centers one unit apart and bounded per-feature variances keep the
    # literal 16-term product well inside double range for nearby queries.
    rows = []
    grades = [Grade.POOR] * 6 + [Grade.AVERAGE] * 5 + [Grade.GOOD] * 5 + [Grade.EXCELLENT] * 4
    for r, grade in enumerate(grades):
        center = float(int(grade))
        values = tuple(center + 0.8 * ((r + i) % 5 - 2) for i in range(N_FEATURES))
        rows.append((values, grade))
    return rows


def test_criterion_1_joint_probability_oracle():
    with criterion(1, "log-joint matches the term-by-term product within 1e-9"):
        start = time.perf_counter()
        rng = random.Random(100)
        model = train_nb(_labeled_fixture())
        for _ in range(100):
            x = tuple(rng.uniform(-2.0, 6.0) for _ in range(N_FEATURES))
            scores = model.log_joint(x)
            for grade in model.classes:
                product = model.priors[grade]
                for i in range(N_FEATURES):
                    mean = model.means[grade][i]
                    var = model.variances[grade][i]
                    term = math.exp(-((x[i] - mean) ** 2) / (2.0 * var))
                    term /= math.sqrt(2.0 * math.pi * var)
                    product *= term
                assert product > 0.0
                assert abs(math.exp(scores[grade]) - product) <= 1e-9 * product
        assert time.perf_counter() - start < 1.0


def test_criterion_2_language_model_normalization():
    with criterion(2, "conditional probabilities sum to 1 for every context, orders 1..3"):
        start = time.perf_counter()
        rng = random.Random(200)
        sentences = [
            rng.choices(EN_WORDS[:25], k=rng.randint(2, 10)) for _ in range(50)
        ]
        for order in (1, 2, 3):
            model = decode_lm(train_lm(sentences, order))
            contexts = {()} | {gram for gram in model.counts if len(gram) < order}
            for context in contexts:
                total = math.fsum(reference_cond_prob(model, w, context) for w in model.vocab)
                assert abs(total - 1.0) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_3_grade_partition_over_all_sums():
    with criterion(3, "judgment sums 0-10/11-20/21-30/31-40 map to the four grades"):
        start = time.perf_counter()
        expected = (
            [Grade.POOR] * 11 + [Grade.AVERAGE] * 10 + [Grade.GOOD] * 10 + [Grade.EXCELLENT] * 10
        )
        for total in range(41):
            base, extra = divmod(total, 10)
            params = tuple([base + 1] * extra + [base] * (10 - extra))
            assert sum(params) == total
            assert judgment_grade(HumanJudgment(0, params)) is expected[total]
        assert time.perf_counter() - start < 1.0


def test_criterion_4_agreement_arithmetic(tmp_path):
    with criterion(4, "agreement fixtures render 58.15, 54.69, and 59.31 percent"):
        cases = [(756, 58.15), (711, 54.69), (771, 59.31)]
        for same, expected in cases:
            human = ["id,grade"] + [f"{i},Poor" for i in range(1300)]
            predicted = ["id,grade"] + [
                f"{i},{'Poor' if i < same else 'Excellent'}" for i in range(1300)
            ]
            human_path = tmp_path / f"human-{same}.csv"
            predicted_path = tmp_path / f"pred-{same}.csv"
            report_path = tmp_path / f"report-{same}.csv"
            human_path.write_text("\n".join(human) + "\n", encoding="utf-8")
            predicted_path.write_text("\n".join(predicted) + "\n", encoding="utf-8")
            assert run_cli("evaluate", "--human", human_path, "--predicted",
                           predicted_path, "--out", report_path) == 0
            footer = read_lines(report_path)[-1].split(",")
            assert footer[0] == str(same) and footer[1] == "1300"
            assert abs(float(footer[2]) - expected) <= 0.005


def test_criterion_5_histogram_columns_total_1300():
    with criterion(5, "all six transcribed grade columns total 1300"):
        columns = [
            # classifier results per engine
            {Grade.EXCELLENT: 24, Grade.GOOD: 228, Grade.AVERAGE: 1019, Grade.POOR: 29},
            {Grade.EXCELLENT: 23, Grade.GOOD: 221, Grade.AVERAGE: 1008, Grade.POOR: 48},
            {Grade.EXCELLENT: 12, Grade.GOOD: 200, Grade.AVERAGE: 1025, Grade.POOR: 63},
            # human results per engine
            {Grade.EXCELLENT: 96, Grade.GOOD: 231, Grade.AVERAGE: 956, Grade.POOR: 17},
            {Grade.EXCELLENT: 92, Grade.GOOD: 194, Grade.AVERAGE: 1002, Grade.POOR: 12},
            {Grade.EXCELLENT: 7, Grade.GOOD: 234, Grade.AVERAGE: 1006, Grade.POOR: 53},
        ]
        for column in columns:
            grades = [g for grade, n in column.items() for g in [grade] * n]
            hist = confusion(grades, grades).human_histogram()
            assert sum(hist.values()) == 1300
            assert hist == {g: column[g] for g in Grade}


def test_criterion_6_synthetic_classification():
    with criterion(6, "6-sigma clusters learned at >= 0.99; label shuffle drops to <= 0.35"):
        start = time.perf_counter()
        rng = random.Random(600)

        def draw(label_index):
            return tuple(rng.gauss(6.0 * label_index, 1.0) for _ in range(N_FEATURES))

        train_rows, test_rows = [], []
        for index, grade in enumerate(Grade):
            for _ in range(200):
                train_rows.append((draw(index), grade))
            for _ in range(200):
                test_rows.append((draw(index), grade))
        model = train_nb(train_rows)
        hits = sum(1 for x, g in test_rows if model.predict(x).predicted is g)
        accuracy = hits / len(test_rows)
        assert accuracy >= 0.99

        labels = [g for _, g in train_rows]
        rng.shuffle(labels)
        shuffled = train_nb([(x, g) for (x, _), g in zip(train_rows, labels)])
        hits = sum(1 for x, g in test_rows if shuffled.predict(x).predicted is g)
        assert hits / len(test_rows) <= 0.35
        assert time.perf_counter() - start < 5.0


def _pipeline_grades(paths):
    human = [(i, g) for i, _, g in read_features(paths["features"])]
    predicted = []
    for line in read_lines(paths["predictions"])[1:]:
        row_id, label = line.split(",")
        predicted.append((int(row_id), Grade.from_label(label)))
    assert [i for i, _ in human] == [i for i, _ in predicted]
    return [g for _, g in human], [g for _, g in predicted]


def test_criterion_7_end_to_end_beats_majority_baseline(tmp_path):
    with criterion(7, "toy pipeline exits 0 throughout and beats the majority baseline"):
        start = time.perf_counter()
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "out"
        data_dir.mkdir()
        out_dir.mkdir()
        paths, codes = run_toy_pipeline(data_dir, out_dir, n_pairs=200, seed=0)
        assert codes == [0] * 7
        human, predicted = _pipeline_grades(paths)
        report = agreement(human, predicted)
        majority = max(human.count(g) for g in Grade)
        assert report.total == len(human)
        assert report.same > majority  # agreement above the majority baseline
        footer = read_lines(paths["report"])[-1].split(",")
        assert int(footer[0]) == report.same and int(footer[1]) == report.total
        assert time.perf_counter() - start < 10.0


def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion(8, "reruns are byte-identical; model round-trips preserve predictions"):
        snapshots = []
        for name in ("first", "second"):
            data_dir = tmp_path / f"data-{name}"
            out_dir = tmp_path / f"out-{name}"
            data_dir.mkdir()
            out_dir.mkdir()
            paths, codes = run_toy_pipeline(data_dir, out_dir, n_pairs=200, seed=0)
            assert codes == [0] * 7
            snapshots.append({key: path.read_bytes() for key, path in paths.items()})
        assert snapshots[0] == snapshots[1]

        rng = random.Random(800)
        data_dir = tmp_path / "data-first"
        sentences = [tokenize(line, SOURCE) for line in read_lines(data_dir / "src.txt")]
        lm = train_lm(sentences, 3)
        lm_path = tmp_path / "roundtrip.lm"
        lm.save(lm_path)
        lm_loaded = load_lm(lm_path)
        vocabulary = sorted(lm.vocab) + ["neverseen"]
        decoded, decoded_loaded = decode_lm(lm), decode_lm(lm_loaded)
        for _ in range(1000):
            sentence = [rng.choice(vocabulary) for _ in range(rng.randint(0, 8))]
            assert lm_loaded.sentence_log_prob(sentence) == lm.sentence_log_prob(sentence)
            word = rng.choice(vocabulary)
            context = tuple(rng.choice(vocabulary) for _ in range(2))
            assert reference_cond_prob(decoded_loaded, word, context) == reference_cond_prob(decoded, word, context)

        rows = read_features(tmp_path / "out-first" / "features.csv")
        nb = train_nb([(vector, grade) for _, vector, grade in rows])
        nb_path = tmp_path / "roundtrip.model"
        nb.save(nb_path)
        nb_loaded = load_model(nb_path)
        for _ in range(1000):
            x = tuple(rng.uniform(-5.0, 30.0) for _ in range(N_FEATURES))
            assert nb_loaded.log_joint(x) == nb.log_joint(x)
            assert nb_loaded.predict(x).predicted is nb.predict(x).predicted


def test_criterion_9_feature_invariants_over_random_pairs():
    with criterion(9, "feature invariants hold over 1000 random sentence pairs"):
        rng = random.Random(900)
        source_vocab = EN_WORDS[:15] + [".", ",", "!"]
        target_vocab = ["क", "ख", "ग", "घ", "च", "छ", "।", "?"]
        corpus_src = [rng.choices(source_vocab, k=rng.randint(1, 8)) for _ in range(30)]
        corpus_tgt = [rng.choices(target_vocab, k=rng.randint(1, 8)) for _ in range(30)]
        src_lm = train_lm(corpus_src, 3)
        tgt_lm = train_lm(corpus_tgt, 3)
        lexicon = build_lexicon(make_corpus(corpus_src, corpus_tgt), 0.2)

        from mtqe.corpus import SentencePair

        for trial in range(1000):
            # Force the degenerate lengths into the sample.
            n_src = trial % 4 if trial < 8 else rng.randint(0, 14)
            n_tgt = (trial // 4) % 4 if trial < 8 else rng.randint(0, 14)
            source = rng.choices(source_vocab + ["unseenword"], k=n_src)
            target = rng.choices(target_vocab + ["अनदेखा"], k=n_tgt)
            fv = extract_features(
                SentencePair(0, tuple(source), tuple(target)), src_lm, tgt_lm, lexicon
            )
            assert isinstance(fv, FeatureVector)
            assert fv.src_token_count == len(source) >= 0
            assert fv.tgt_token_count == len(target) >= 0
            assert 0 <= fv.src_punct_count <= fv.src_token_count
            assert 0 <= fv.tgt_punct_count <= fv.tgt_token_count
            for value in (
                fv.pct_low_freq_unigrams, fv.pct_high_freq_unigrams,
                fv.pct_low_freq_bigrams, fv.pct_high_freq_bigrams,
                fv.pct_high_freq_trigrams, fv.pct_low_freq_trigrams,
                fv.pct_unigrams_seen,
            ):
                assert 0.0 <= value <= 100.0
            assert fv.pct_low_freq_unigrams + fv.pct_high_freq_unigrams <= 100.0
            assert fv.pct_low_freq_bigrams + fv.pct_high_freq_bigrams <= 100.0
            assert fv.pct_low_freq_trigrams + fv.pct_high_freq_trigrams <= 100.0
            assert fv.src_lm_logprob <= 0.0 and math.isfinite(fv.src_lm_logprob)
            assert fv.tgt_lm_logprob <= 0.0 and math.isfinite(fv.tgt_lm_logprob)
            if fv.tgt_token_count > 0:
                assert fv.tgt_tokens_per_type >= 1.0
            else:
                assert fv.tgt_tokens_per_type == 0.0
            if fv.src_token_count > 0:
                assert fv.avg_src_token_len > 0.0
            else:
                assert fv.avg_src_token_len == 0.0
            if len(source) < 2:
                assert fv.pct_low_freq_bigrams == fv.pct_high_freq_bigrams == 0.0
            if len(source) < 3:
                assert fv.pct_low_freq_trigrams == fv.pct_high_freq_trigrams == 0.0
            assert fv.avg_translations_per_src_word >= 0.0
