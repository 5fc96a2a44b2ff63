import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtqe
from mtqe.bayes import ABSOLUTE_VARIANCE_FLOOR, RELATIVE_VARIANCE_FLOOR, NaiveBayesModel
from mtqe.corpus import BOS, END, SOURCE, TARGET, iter_parallel, tokenize
from mtqe.features import read_features
from mtqe.fileio import read_lines
from mtqe.grading import Grade
from mtqe.lexicon import DEFAULT_THRESHOLD, load_lexicon
from mtqe.ngram import load_lm

from conftest import (
    brute_force_lexicon,
    cache_entries,
    decode_lm,
    make_corpus,
    model_cache,
    read_lexicon_entries,
    reference_lm,
    reference_log_joint,
    reference_vector,
    run_cli,
    save_reference_lm,
    run_toy_pipeline,
    write_toy_dataset,
)


@pytest.fixture
def small_data(tmp_path):
    return write_toy_dataset(tmp_path, n_pairs=20, seed=1)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestBuildLm:
    def test_success_writes_model_and_prints_stats(self, tmp_path, small_data, capsys):
        out = tmp_path / "src.lm"
        code = run_cli("build-lm", "--corpus", small_data["src"], "--side", "source",
                       "--out", out)
        assert code == 0
        assert out.exists()
        assert load_lm(out).order == 3
        # The toy corpus is lowercase and separates every token by one space.
        words = " ".join(read_lines(small_data["src"])).split(" ")
        assert len(set(words)) < len(words)
        assert capsys.readouterr().out == (
            f"sentences=20 words={len(words)} unique_words={len(set(words))}\n"
        )

    def test_missing_file_names_path(self, tmp_path, capsys):
        code = run_cli("build-lm", "--corpus", tmp_path / "absent.txt",
                       "--side", "source", "--out", tmp_path / "x.lm")
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_order_out_of_range(self, tmp_path, small_data, capsys):
        # extract takes no model below order 3, so build-lm writes none.
        for order in ("2", "7"):
            code = run_cli("build-lm", "--corpus", small_data["src"], "--side", "source",
                           "--order", order, "--out", tmp_path / "x.lm")
            assert code == 2
            assert f"invalid choice: {order} (choose from 3, 4, 5)" in capsys.readouterr().err
            assert not (tmp_path / "x.lm").exists()


class TestBuildLexicon:
    @pytest.mark.parametrize(
        "flags, threshold",
        [((), "0.2"), (("--threshold", "0.35"), "0.35")],
        ids=["default", "explicit"],
    )
    def test_prints_entries_and_threshold(self, tmp_path, small_data, capsys, flags, threshold):
        out = tmp_path / "lex.tsv"
        code = run_cli("build-lexicon", "--pairs-src", small_data["src"],
                       "--pairs-tgt", small_data["tgt"], *flags, "--out", out)
        assert code == 0
        entries = sum(len(targets) for targets in read_lexicon_entries(out).entries.values())
        assert sum(load_lexicon(out).sizes.values()) == entries
        assert capsys.readouterr().out == f"lexicon entries={entries} threshold={threshold}\n"


class TestExtract:
    def _models(self, tmp_path, data):
        paths = {
            "src_lm": tmp_path / "src.lm",
            "tgt_lm": tmp_path / "tgt.lm",
            "lexicon": tmp_path / "lex.tsv",
        }
        assert run_cli("build-lm", "--corpus", data["src"], "--side", "source",
                       "--out", paths["src_lm"]) == 0
        assert run_cli("build-lm", "--corpus", data["tgt"], "--side", "target",
                       "--out", paths["tgt_lm"]) == 0
        assert run_cli("build-lexicon", "--pairs-src", data["src"],
                       "--pairs-tgt", data["tgt"], "--out", paths["lexicon"]) == 0
        return paths

    def test_unlabeled_and_labeled_extraction(self, tmp_path, small_data):
        models = self._models(tmp_path, small_data)
        plain = tmp_path / "plain.csv"
        labeled = tmp_path / "labeled.csv"
        base = ["extract", "--pairs-src", small_data["src"], "--pairs-tgt", small_data["tgt"],
                "--src-lm", models["src_lm"], "--tgt-lm", models["tgt_lm"],
                "--lexicon", models["lexicon"]]
        assert run_cli(*base, "--out", plain) == 0
        assert plain.read_text(encoding="utf-8").splitlines()[0].endswith(",f16")
        assert run_cli(*base, "--judgments", small_data["judgments"], "--out", labeled) == 0
        rows = read_features(labeled)
        assert len(rows) == 20
        assert all(isinstance(g, Grade) for _, _, g in rows)

    def test_incomplete_judgments(self, tmp_path, small_data, capsys):
        models = self._models(tmp_path, small_data)
        judgments = small_data["judgments"].read_text(encoding="utf-8").splitlines()
        _write_lines(tmp_path / "short.tsv", judgments[:-1])
        code = run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--judgments", tmp_path / "short.tsv", "--out", tmp_path / "f.csv")
        assert code == 2
        assert capsys.readouterr().err == "error: judgments cover 19 of 20 sentence pairs\n"

    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    def test_empty_corpus_writes_nothing(self, tmp_path, small_data, capsys, labeled):
        # Like build-lm and build-lexicon, extract refuses a corpus with no
        # pairs; a header-only judgment file covers it, so only that is wrong.
        models = self._models(tmp_path, small_data)
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        judgments = small_data["judgments"].read_text(encoding="utf-8").splitlines()
        _write_lines(tmp_path / "header.tsv", judgments[:1])
        flags = ["--judgments", tmp_path / "header.tsv"] if labeled else []
        out = tmp_path / "f.csv"
        capsys.readouterr()
        code = run_cli("extract", "--pairs-src", empty, "--pairs-tgt", empty,
                       "--src-lm", models["src_lm"], "--tgt-lm", models["tgt_lm"],
                       "--lexicon", models["lexicon"], *flags, "--out", out)
        assert code == 2
        assert capsys.readouterr() == ("", "error: corpus contains no sentences\n")
        assert not out.exists()

    @pytest.mark.parametrize("stray_id", [99999, 20, -1])
    def test_judgment_id_outside_corpus(self, tmp_path, small_data, capsys, stray_id):
        models = self._models(tmp_path, small_data)
        judgments = small_data["judgments"].read_text(encoding="utf-8").splitlines()
        _write_lines(tmp_path / "extra.tsv", judgments + [f"{stray_id}" + "\t2" * 10])
        out = tmp_path / "f.csv"
        code = run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--judgments", tmp_path / "extra.tsv", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        # Ids rise row by row, so -1 after ids 0..19 is out of order first.
        expected = f"judgment id {stray_id} " if stray_id > 0 else "id -1 out of order after id 19"
        assert expected in err
        assert "row 20" in err
        assert not out.exists()

    def test_unigram_count_its_continuations_do_not_give(self, tmp_path, small_data, capsys):
        # A word counted above Q3 and raised by one keeps every quartile
        # header line, so only the count rule finds the edit.
        models = self._models(tmp_path, small_data)
        model = decode_lm(load_lm(models["src_lm"]))
        (word,), count = next(
            (gram, count) for gram, count in sorted(model.counts.items())
            if len(gram) == 1 and gram[0] not in (BOS, END) and count > model.quartiles[1][1]
        )
        lines = read_lines(models["src_lm"])
        lines[lines.index(f"{word}\t{count}")] = f"{word}\t{count + 1}"
        _write_lines(models["src_lm"], lines)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        code = run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--out", out / "f.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: corrupt model file: n-gram {word!r} has count {count + 1}, "
            f"its continuations sum to {count}\n"
        )
        assert os.listdir(out) == []

    def test_end_count_the_begin_count_does_not_give(self, tmp_path, small_data, capsys):
        # </s> counts the sentences and continues no gram, so only its tie
        # to the <s> count finds the edit; raising a count above Q3 keeps
        # every quartile header line.
        models = self._models(tmp_path, small_data)
        model = decode_lm(load_lm(models["src_lm"]))
        count = model.counts[(END,)]
        assert count > model.quartiles[1][1]
        lines = read_lines(models["src_lm"])
        lines[lines.index(f"{END}\t{count}")] = f"{END}\t{count + 1}"
        _write_lines(models["src_lm"], lines)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        code = run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--out", out / "f.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: corrupt model file: n-gram '</s>' has count {count + 1}, "
            f"yet n-gram '<s>' has count {model.counts[(BOS,)]}, not 2 times that\n"
        )
        assert os.listdir(out) == []

    def test_a_model_that_counts_no_sentence(self, tmp_path, small_data, capsys):
        # Every count and header line agrees, and 0 <s> is 2 times 0 </s>.
        models = self._models(tmp_path, small_data)
        _write_lines(models["src_lm"], [
            "mtqe-ngram-lm\t1", "order\t3", "vocab_size\t4",
            *(f"q{q}_{n}\t1" for n in (1, 2, 3) for q in (1, 3)),
            "ngrams\t3", "a\t1", "a a\t1", "a a a\t1", "end",
        ])
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        code = run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--out", out / "f.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: corrupt model file: "
            "n-gram '</s>' has no line, so the model counts no sentence\n"
        )
        assert os.listdir(out) == []


class TestReservedMarkers:
    """Every stage that reads a corpus rejects a marker token at its line."""

    @pytest.mark.parametrize("side, marker, token", [
        ("src", "<UNK>", "<unk>"), ("tgt", "</s>", "</s>"),
    ])
    @pytest.mark.parametrize("stage", ["build-lm", "build-lexicon", "extract"])
    def test_marker_exits_2_naming_path_and_line(
        self, tmp_path, small_data, capsys, stage, side, marker, token
    ):
        models = TestExtract()._models(tmp_path, small_data)
        bad = tmp_path / f"bad_{side}.txt"
        lines = read_lines(small_data[side])
        lines[2] = f"{lines[2]} {marker} {lines[2]}"
        _write_lines(bad, lines)
        data = dict(small_data, **{side: bad})
        out = tmp_path / "out"
        argv = {
            "build-lm": ["--corpus", bad, "--side", {"src": "source", "tgt": "target"}[side]],
            "build-lexicon": ["--pairs-src", data["src"], "--pairs-tgt", data["tgt"]],
            "extract": ["--pairs-src", data["src"], "--pairs-tgt", data["tgt"],
                        "--src-lm", models["src_lm"], "--tgt-lm", models["tgt_lm"],
                        "--lexicon", models["lexicon"]],
        }[stage]
        capsys.readouterr()
        assert run_cli(stage, *argv, "--out", out) == 2
        assert capsys.readouterr().err == f"error: reserved token {token!r} at {bad}:3\n"
        assert not out.exists()


# The order-3 model of the sentence "a b", but for the count of "a b": its
# one continuation, "a b </s>", sums to 1.
INCONSISTENT_LM = "".join(f"{line}\n" for line in [
    "mtqe-ngram-lm\t1", "order\t3", "vocab_size\t5",
    *(f"q{q}_{n}\t1" for n in (1, 2, 3) for q in (1, 3)),
    "ngrams\t11", "</s>\t1", "<s>\t2", "<s> <s>\t1", "<s> <s> a\t1", "<s> a\t1",
    "<s> a b\t1", "a\t1", "a b\t2", "a b </s>\t1", "b\t1", "b </s>\t1", "end",
])


class TestErrorPrecedence:
    """Which error extract reports first when its inputs have two faults.

    extract loads both models, the lexicon and the judgments, then reads
    the two corpus files in step, one line of each at a time.  So a model,
    lexicon or judgment-file error comes before any corpus error; corpus
    errors come in line order, the source side's first on one line; a
    longer side is read and checked to its end before the line counts are
    compared; and the judgment ids are checked against the pair count last.
    """

    @pytest.fixture
    def setup(self, tmp_path, small_data):
        models = TestExtract()._models(tmp_path, small_data)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        return dict(small_data, **models, out_dir=out_dir)

    def _extract(self, capsys, files, **swap):
        files = dict(files, **swap)
        capsys.readouterr()
        code = run_cli("extract", "--pairs-src", files["src"], "--pairs-tgt", files["tgt"],
                       "--src-lm", files["src_lm"], "--tgt-lm", files["tgt_lm"],
                       "--lexicon", files["lexicon"], "--judgments", files["judgments"],
                       "--out", files["out_dir"] / "f.csv")
        # Nothing is written before every check has passed: no output and
        # no temp file.
        assert sorted(os.listdir(files["out_dir"])) == []
        return code, capsys.readouterr().err

    def _edited(self, tmp_path, files, key, edit):
        lines = read_lines(files[key])
        edit(lines)
        path = tmp_path / f"edited-{key}.txt"
        _write_lines(path, lines)
        return path

    def test_short_target_leaves_no_file(self, tmp_path, setup, capsys):
        # The judgments name pair 19, which a 19-line target lacks; the
        # line counts are compared first.
        short = self._edited(tmp_path, setup, "tgt", lambda lines: lines.pop())
        code, err = self._extract(capsys, setup, tgt=short)
        assert code == 2
        assert err == "error: parallel files are not line-aligned: 20 source lines vs 19 target lines\n"

    @pytest.mark.parametrize("longer, shorter", [("src", "tgt"), ("tgt", "src")])
    def test_reserved_token_past_the_shorter_side_comes_first(
        self, tmp_path, setup, capsys, longer, shorter
    ):
        extra = self._edited(tmp_path, setup, longer, lambda lines: lines.extend(["ok", "a <s> b"]))
        code, err = self._extract(capsys, setup, **{longer: extra})
        assert code == 2
        assert err == f"error: reserved token '<s>' at {extra}:22\n"
        # Without the marker, the line counts are compared.
        extra = self._edited(tmp_path, setup, longer, lambda lines: lines.extend(["ok", "a b"]))
        counts = {longer: 22, shorter: 20}
        _, err = self._extract(capsys, setup, **{longer: extra})
        assert err == ("error: parallel files are not line-aligned: "
                       f"{counts['src']} source lines vs {counts['tgt']} target lines\n")

    def test_corpus_errors_come_in_line_order(self, tmp_path, setup, capsys):
        def marker_at(index):
            def edit(lines):
                lines[index] += " </s>"
            return edit

        late_src = self._edited(tmp_path, setup, "src", marker_at(5))
        early_tgt = self._edited(tmp_path, setup, "tgt", marker_at(2))
        _, err = self._extract(capsys, setup, src=late_src, tgt=early_tgt)
        assert err == f"error: reserved token '</s>' at {early_tgt}:3\n"
        same_line_tgt = self._edited(tmp_path, setup, "tgt", marker_at(5))
        _, err = self._extract(capsys, setup, src=late_src, tgt=same_line_tgt)
        assert err == f"error: reserved token '</s>' at {late_src}:6\n"

    @pytest.mark.parametrize("key, text, message", [
        ("src_lm", "", "corrupt model file: empty file"),
        ("tgt_lm", "", "corrupt model file: empty file"),
        ("src_lm", INCONSISTENT_LM,
         "corrupt model file: n-gram 'a b' has count 2, its continuations sum to 1"),
        ("lexicon", "a\tb\n", "malformed row 0: expected 3 cells, got 2"),
        ("judgments", "id\n", "malformed header: expected "
         f"{chr(9).join(['id'] + [f'p{i}' for i in range(1, 11)])!r}, got 'id'"),
    ], ids=["src_lm", "tgt_lm", "inconsistent src_lm", "lexicon", "judgments"])
    def test_file_errors_come_before_corpus_errors(
        self, tmp_path, setup, capsys, key, text, message
    ):
        bad = tmp_path / f"bad-{key}"
        bad.write_text(text, encoding="utf-8")
        short = self._edited(tmp_path, setup, "tgt", lambda lines: lines.pop())
        code, err = self._extract(capsys, setup, tgt=short, **{key: bad})
        assert code == 2
        assert err == f"error: {message}\n"

    def test_judgment_messages_keep_their_bytes(self, tmp_path, setup, capsys):
        judgments = read_lines(setup["judgments"])
        stray = tmp_path / "stray.tsv"
        _write_lines(stray, judgments + ["20" + "\t2" * 10])
        _, err = self._extract(capsys, setup, judgments=stray)
        assert err == ("error: malformed row 20: judgment id 20 is not a sentence pair id; "
                       "the corpus has 20 pairs\n")
        partial = tmp_path / "partial.tsv"
        _write_lines(partial, judgments[:1] + judgments[2:])
        _, err = self._extract(capsys, setup, judgments=partial)
        assert err == "error: judgments cover 19 of 20 sentence pairs\n"


class TestTrainPredictEvaluate:
    def test_end_to_end(self, tmp_path):
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "out"
        data_dir.mkdir()
        out_dir.mkdir()
        paths, codes = run_toy_pipeline(data_dir, out_dir, n_pairs=40, seed=2)
        assert codes == [0] * 7
        predictions = paths["predictions"].read_text(encoding="utf-8").splitlines()
        assert predictions[0] == "id,grade"
        assert len(predictions) == 41
        report = paths["report"].read_text(encoding="utf-8").splitlines()
        assert report[0] == "grade,human_count,predicted_count"
        assert report[5] == "same,total,percentage"

    def test_training_requires_labels(self, tmp_path, small_data, capsys):
        models = TestExtract()._models(tmp_path, small_data)
        plain = tmp_path / "plain.csv"
        assert run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--out", plain) == 0
        assert run_cli("train", "--features", plain, "--out", tmp_path / "nb.model") == 2
        assert "labeled" in capsys.readouterr().err

    def test_single_class_model_predicts_that_class(self, tmp_path, small_data):
        models = TestExtract()._models(tmp_path, small_data)
        labeled = tmp_path / "labeled.csv"
        assert run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--judgments", small_data["judgments"], "--out", labeled) == 0
        # Rewrite every grade to Good: a degenerate one-class training file.
        lines = labeled.read_text(encoding="utf-8").splitlines()
        forced = [lines[0]] + [",".join(l.split(",")[:-1] + ["Good"]) for l in lines[1:]]
        one_class = tmp_path / "one.csv"
        _write_lines(one_class, forced)
        model_path = tmp_path / "nb.model"
        predictions = tmp_path / "pred.csv"
        assert run_cli("train", "--features", one_class, "--out", model_path) == 0
        assert run_cli("predict", "--model", model_path, "--features", labeled,
                       "--out", predictions) == 0
        rows = predictions.read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.endswith(",Good") for row in rows)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_training_rejects_non_finite_features(self, tmp_path, small_data, cell, capsys):
        models = TestExtract()._models(tmp_path, small_data)
        labeled = tmp_path / "labeled.csv"
        assert run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--judgments", small_data["judgments"], "--out", labeled) == 0
        lines = labeled.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[3] = cell  # f3 of row 0
        _write_lines(labeled, [lines[0], ",".join(cells)] + lines[2:])
        model_path = tmp_path / "nb.model"
        assert run_cli("train", "--features", labeled, "--out", model_path) == 2
        assert "row 0" in capsys.readouterr().err
        assert not model_path.exists()

    def _labeled(self, tmp_path, data):
        models = TestExtract()._models(tmp_path, data)
        labeled = tmp_path / "labeled.csv"
        assert run_cli("extract", "--pairs-src", data["src"], "--pairs-tgt", data["tgt"],
                       "--src-lm", models["src_lm"], "--tgt-lm", models["tgt_lm"],
                       "--lexicon", models["lexicon"], "--judgments", data["judgments"],
                       "--out", labeled) == 0
        return labeled

    @staticmethod
    def _with_f3(source, target, row, cell):
        """A copy of the feature CSV ``source`` whose data row ``row`` has f3 ``cell``."""
        lines = read_lines(source)
        cells = lines[1 + row].split(",")
        cells[3] = cell
        lines[1 + row] = ",".join(cells)
        _write_lines(target, lines)
        return target

    def test_training_rejects_a_feature_too_large_for_a_variance(self, tmp_path, small_data, capsys):
        # 1e200 is finite, but its square is not.
        ordinary = self._labeled(tmp_path, small_data)
        labeled = self._with_f3(ordinary, tmp_path / "big.csv", 0, "1e200")
        model_path = tmp_path / "nb.model"
        capsys.readouterr()
        assert run_cli("train", "--features", labeled, "--out", model_path) == 2
        assert capsys.readouterr().err == "error: feature f3 is too large for a float variance\n"
        assert not model_path.exists()

    def test_predict_refuses_a_row_no_class_can_score(self, tmp_path, small_data, capsys):
        labeled = self._labeled(tmp_path, small_data)
        model_path = tmp_path / "nb.model"
        assert run_cli("train", "--features", labeled, "--out", model_path) == 0
        # Every class's (f3 - mean) ** 2 overflows, so every class scores -inf.
        unseen = self._with_f3(labeled, tmp_path / "unseen.csv", 1, "1e200")
        predictions = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run_cli("predict", "--model", model_path, "--features", unseen,
                       "--out", predictions) == 2
        assert capsys.readouterr().err == (
            "error: malformed row 1: no class gives the features a finite score\n"
        )
        assert not predictions.exists()

    def test_predict_decides_a_row_some_classes_score(self, tmp_path, small_data):
        # Good's f3 mean is 1e200: row 0 lies at it and Poor scores it -inf,
        # while Good scores every other row -inf.
        means = {Grade.POOR: (0.0,) * 16, Grade.GOOD: (0.0, 0.0, 1e200) + (0.0,) * 13}
        model = NaiveBayesModel((Grade.POOR, Grade.GOOD), {Grade.POOR: 0.5, Grade.GOOD: 0.5},
                                means, {y: (1.0,) * 16 for y in means}, 1e-12)
        model_path = tmp_path / "nb.model"
        model.save(model_path)
        ordinary = self._labeled(tmp_path, small_data)
        features = self._with_f3(ordinary, tmp_path / "big.csv", 0, "1e200")
        predictions = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", model_path, "--features", features,
                       "--out", predictions) == 0
        grades = [line.split(",")[1] for line in read_lines(predictions)[1:]]
        assert grades == ["Good"] + ["Poor"] * 19

    @pytest.mark.parametrize("floor", ["inf", "nan"])
    def test_training_rejects_non_finite_variance_floor(self, tmp_path, small_data, floor, capsys):
        models = TestExtract()._models(tmp_path, small_data)
        labeled = tmp_path / "labeled.csv"
        assert run_cli("extract", "--pairs-src", small_data["src"], "--pairs-tgt",
                       small_data["tgt"], "--src-lm", models["src_lm"],
                       "--tgt-lm", models["tgt_lm"], "--lexicon", models["lexicon"],
                       "--judgments", small_data["judgments"], "--out", labeled) == 0
        model_path = tmp_path / "nb.model"
        assert run_cli("train", "--features", labeled, "--variance-floor", floor,
                       "--out", model_path) == 2
        assert f"variance_floor must be > 0 and finite, got {floor}" in capsys.readouterr().err
        assert not model_path.exists()

    def test_training_rejects_a_floor_whose_double_overflows(self, tmp_path, small_data, capsys):
        # Each Gaussian term divides by twice a variance, which must be finite.
        labeled = self._labeled(tmp_path, small_data)
        model_path = tmp_path / "nb.model"
        capsys.readouterr()
        assert run_cli("train", "--features", labeled, "--variance-floor", "1e308",
                       "--out", model_path) == 2
        assert capsys.readouterr().err == (
            "error: variance floor 1e+308 must be <= 8.988465674311579e+307\n"
        )
        assert not model_path.exists()

    @pytest.mark.parametrize("where", ["variance floor", "variance"])
    def test_predict_refuses_a_variance_whose_double_overflows(self, tmp_path, small_data,
                                                               capsys, where):
        # With an f3 variance of 1e308, f3 = 1e200 would score inf / inf = nan.
        # The model refuses such a variance, so its file is written by hand.
        floor = 1e308 if where == "variance floor" else 1.0
        variances = tuple(max(floor, v) for v in (1.0, 1.0, 1e308) + (1.0,) * 13)
        model_path = tmp_path / "nb.model"
        model_path.write_text("".join(f"{line}\n" for line in (
            "mtqe-nb-model\t1", f"variance_floor\t{floor.hex()}", "classes\t1", "class\tPoor",
            f"prior\t{(1.0).hex()}", "means\t" + " ".join([(0.0).hex()] * 16),
            "variances\t" + " ".join(v.hex() for v in variances), "end",
        )), encoding="utf-8")
        features = self._with_f3(self._labeled(tmp_path, small_data), tmp_path / "big.csv", 0,
                                 "1e200")
        predictions = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run_cli("predict", "--model", model_path, "--features", features,
                       "--out", predictions) == 2
        assert capsys.readouterr().err == (
            f"error: corrupt model file: {where} 1e+308 must be <= 8.988465674311579e+307\n"
        )
        assert not predictions.exists()

    def test_evaluate_reads_only_id_and_grade(self, tmp_path, small_data, capsys):
        models = TestExtract()._models(tmp_path, small_data)
        base = ["extract", "--pairs-src", small_data["src"], "--pairs-tgt", small_data["tgt"],
                "--src-lm", models["src_lm"], "--tgt-lm", models["tgt_lm"],
                "--lexicon", models["lexicon"]]
        labeled, plain = tmp_path / "labeled.csv", tmp_path / "plain.csv"
        assert run_cli(*base, "--judgments", small_data["judgments"], "--out", labeled) == 0
        assert run_cli(*base, "--out", plain) == 0
        # The feature cells are for train and predict to check, not evaluate.
        lines = labeled.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[3] = "nan"
        _write_lines(labeled, [lines[0], ",".join(cells)] + lines[2:])
        capsys.readouterr()
        assert run_cli("evaluate", "--human", labeled, "--predicted", labeled,
                       "--out", tmp_path / "r.csv") == 0
        assert "agreement: 20 of 20" in capsys.readouterr().out
        # An unlabeled feature CSV has no grade column, so its header is refused.
        header = plain.read_text(encoding="utf-8").splitlines()[0]
        out = tmp_path / "x.csv"
        assert run_cli("evaluate", "--human", plain, "--predicted", labeled, "--out", out) == 2
        err = capsys.readouterr().err
        assert "malformed header: expected 'id,grade' or " in err
        assert f"got {header!r}" in err
        assert not out.exists()

    def test_evaluate_id_mismatch(self, tmp_path, capsys):
        _write_lines(tmp_path / "a.csv", ["id,grade", "0,Good", "1,Poor"])
        _write_lines(tmp_path / "b.csv", ["id,grade", "0,Good"])
        code = run_cli("evaluate", "--human", tmp_path / "a.csv",
                       "--predicted", tmp_path / "b.csv", "--out", tmp_path / "r.csv")
        assert code == 2
        assert capsys.readouterr().err == "error: grade files do not cover the same sentence ids\n"

    @pytest.mark.parametrize("bad", ["human", "predicted"])
    def test_evaluate_unknown_grade_label(self, tmp_path, capsys, bad):
        files = {"human": ["id,grade", "0,Good", "1,Poor"],
                 "predicted": ["id,grade", "0,Good", "1,Poor"]}
        files[bad][2] = "1,Bad"
        for name, lines in files.items():
            _write_lines(tmp_path / f"{name}.csv", lines)
        out = tmp_path / "r.csv"
        assert run_cli("evaluate", "--human", tmp_path / "human.csv",
                       "--predicted", tmp_path / "predicted.csv", "--out", out) == 2
        assert capsys.readouterr().err == "error: malformed row 1: unknown grade label 'Bad'\n"
        assert not out.exists()

    def test_evaluate_published_fixture(self, tmp_path):
        human = ["id,grade"] + [f"{i},Poor" for i in range(1300)]
        predicted = ["id,grade"] + [
            f"{i},{'Poor' if i < 756 else 'Good'}" for i in range(1300)
        ]
        _write_lines(tmp_path / "human.csv", human)
        _write_lines(tmp_path / "pred.csv", predicted)
        out = tmp_path / "report.csv"
        assert run_cli("evaluate", "--human", tmp_path / "human.csv",
                       "--predicted", tmp_path / "pred.csv", "--out", out) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "756,1300,58.15"


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        results = []
        for name in ("one", "two"):
            data_dir = tmp_path / f"data-{name}"
            out_dir = tmp_path / f"out-{name}"
            data_dir.mkdir()
            out_dir.mkdir()
            paths, codes = run_toy_pipeline(data_dir, out_dir, n_pairs=30, seed=3)
            assert codes == [0] * 7
            results.append({k: p.read_bytes() for k, p in paths.items()})
        assert results[0] == results[1]


def _run_module(*argv):
    """Run ``python -m mtqe`` on the same mtqe sources as this test process."""
    src = os.path.dirname(os.path.dirname(mtqe.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "mtqe", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        assert "build-lm" in proc.stdout


class TestWriteStageBytes:
    """The write stages' files equal the saves of reference-built artifacts."""

    def test_language_models(self, tmp_path):
        data = write_toy_dataset(tmp_path)
        for side, key in ((SOURCE, "src"), (TARGET, "tgt")):
            out = tmp_path / f"{key}.lm"
            proc = _run_module("build-lm", "--corpus", data[key], "--side", side, "--out", out)
            assert proc.returncode == 0, proc.stderr
            sentences = [tokenize(line, side) for line in read_lines(data[key])]
            save_reference_lm(reference_lm(sentences, 3), tmp_path / f"reference-{key}.lm")
            assert out.read_bytes() == (tmp_path / f"reference-{key}.lm").read_bytes()

    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 0.05, 0.5, 0.9])
    def test_lexicon(self, tmp_path, threshold):
        data = write_toy_dataset(tmp_path)
        out = tmp_path / "lexicon.tsv"
        proc = _run_module("build-lexicon", "--pairs-src", data["src"], "--pairs-tgt",
                           data["tgt"], "--threshold", threshold, "--out", out)
        assert proc.returncode == 0, proc.stderr
        corpus = tuple(iter_parallel(data["src"], data["tgt"]))
        brute_force_lexicon(corpus, threshold).save(tmp_path / "reference.tsv")
        assert out.read_bytes() == (tmp_path / "reference.tsv").read_bytes()


# Space-separated words and single punctuation characters.  Each is one
# token; only "İ" changes on the source side, where it lowercases to two
# code points.  "\x00" is not whitespace, so "\x00" and "a\x00" stay
# whole, and "𝒜" (U+1D49C, above U+FFFF) comes after every other word in
# code-point order, so it takes the last vocabulary id.  "e", "q" and "W"
# occur only in the graded corpus, so they are outside the models.
_ODD_WORDS = ["\x00", "a\x00", "\U0001d49c", "İ"]
_model_source = st.lists(st.sampled_from(["a", "b", "c", ".", "?", *_ODD_WORDS]), max_size=5)
_model_target = st.lists(st.sampled_from(["x", "y", "Z", "।", "!", *_ODD_WORDS]), max_size=5)
_punctuation_only = st.lists(st.sampled_from([".", "?", "।", "!"]), min_size=1, max_size=3)
_graded_source = st.one_of(
    _punctuation_only,
    st.lists(st.sampled_from(["a", "b", "e", "q", ".", "?", *_ODD_WORDS]), max_size=5),
)
_graded_target = st.one_of(
    _punctuation_only,
    st.lists(st.sampled_from(["x", "Z", "W", "।", "!", *_ODD_WORDS]), max_size=5),
)
_judgment_params = st.lists(st.integers(0, 4), min_size=10, max_size=10)
_INT_COLUMNS = (0, 1, 14, 15)  # f1, f2, f15, f16


def _grade_of(params):
    # The judgment total out of 40, in the README's four bands of a quarter each.
    total = sum(params)
    if total <= 10:
        return Grade.POOR
    if total <= 20:
        return Grade.AVERAGE
    if total <= 30:
        return Grade.GOOD
    return Grade.EXCELLENT


def _reference_model(rows):
    """Gaussian NB fitted to ``(values, grade)`` rows with fsum means and variances."""

    def moments(vectors, i):
        mean = math.fsum(v[i] for v in vectors) / len(vectors)
        return mean, math.fsum((v[i] - mean) ** 2 for v in vectors) / len(vectors)

    vectors = [values for values, _ in rows]
    pooled = max(moments(vectors, i)[1] for i in range(16))
    floor = max(RELATIVE_VARIANCE_FLOOR * pooled, ABSOLUTE_VARIANCE_FLOOR)
    model = SimpleNamespace(classes=sorted({grade for _, grade in rows}),
                            priors={}, means={}, variances={})
    for grade in model.classes:
        members = [values for values, y in rows if y is grade]
        model.priors[grade] = len(members) / len(rows)
        model.means[grade] = [moments(members, i)[0] for i in range(16)]
        model.variances[grade] = [max(moments(members, i)[1], floor) for i in range(16)]
    return model


class TestCliBytesEqualReference:
    """build-lm, build-lexicon, extract, train and predict write the reference's bytes."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(_model_source, _model_target), min_size=1, max_size=6),
        st.lists(st.tuples(_graded_source, _graded_target, _judgment_params),
                 min_size=1, max_size=6),
    )
    # One pair judged Poor and Excellent: both classes fit the same vector,
    # so every score ties and both rows go to Poor.
    @example([(["a"], ["x"])], [(["a"], ["x"], [0] * 10), (["a"], ["x"], [4] * 10)])
    def test_feature_and_grade_files(self, model_pairs, graded):
        # Reference features, then the labeled CSV, the model fitted to the
        # values that CSV holds, and each row's argmax with ties going to
        # the lowest grade.  The source words are tokenized as the CLI
        # does, which lowercases them.
        def source_tokens(words):
            return tokenize(" ".join(words), SOURCE)

        model_sources = [source_tokens(source) for source, _ in model_pairs]
        src_lm = reference_lm(model_sources, 3)
        tgt_lm = reference_lm([target for _, target in model_pairs], 3)
        corpus = make_corpus(model_sources, [target for _, target in model_pairs])
        lexicon = brute_force_lexicon(corpus, DEFAULT_THRESHOLD)
        sizes = {s: len(t) for s, t in lexicon.entries.items()}
        feature_lines = ["id," + ",".join(f"f{i}" for i in range(1, 17)) + ",grade"]
        rows = []
        for pair_id, (source, target, params) in enumerate(graded):
            vector = reference_vector(src_lm, tgt_lm, sizes, source_tokens(source), target)
            cells = [str(v) if i in _INT_COLUMNS else f"{v:.6f}" for i, v in enumerate(vector)]
            grade = _grade_of(params)
            feature_lines.append(",".join([str(pair_id), *cells, grade.label]))
            rows.append(([float(cell) for cell in cells], grade))
        model = _reference_model(rows)
        grade_lines = ["id,grade"]
        for pair_id, (values, _) in enumerate(rows):
            scores = reference_log_joint(model, values)
            grade_lines.append(f"{pair_id},{max(model.classes, key=scores.__getitem__).label}")

        # An empty model cache, so the first extract parses the models and
        # the second reads them from the cache.
        with tempfile.TemporaryDirectory() as directory, model_cache(Path(directory) / "xdg"):
            path = Path(directory)
            _write_lines(path / "model-src.txt", [" ".join(s) for s, _ in model_pairs])
            _write_lines(path / "model-tgt.txt", [" ".join(t) for _, t in model_pairs])
            _write_lines(path / "src.txt", [" ".join(s) for s, _, _ in graded])
            _write_lines(path / "tgt.txt", [" ".join(t) for _, t, _ in graded])
            _write_lines(path / "judgments.tsv",
                         ["\t".join(["id"] + [f"p{i}" for i in range(1, 11)])]
                         + ["\t".join(map(str, [i, *p])) for i, (_, _, p) in enumerate(graded)])
            for argv in (
                ["build-lm", "--corpus", path / "model-src.txt", "--side", "source",
                 "--out", path / "src.lm"],
                ["build-lm", "--corpus", path / "model-tgt.txt", "--side", "target",
                 "--out", path / "tgt.lm"],
                ["build-lexicon", "--pairs-src", path / "model-src.txt",
                 "--pairs-tgt", path / "model-tgt.txt", "--out", path / "lexicon.tsv"],
                *(["extract", "--pairs-src", path / "src.txt", "--pairs-tgt", path / "tgt.txt",
                   "--src-lm", path / "src.lm", "--tgt-lm", path / "tgt.lm",
                   "--lexicon", path / "lexicon.tsv", "--judgments", path / "judgments.tsv",
                   "--out", path / f"features-{run}.csv"] for run in ("cold", "warm")),
                ["train", "--features", path / "features-warm.csv", "--out", path / "nb.model"],
                ["predict", "--model", path / "nb.model", "--features", path / "features-warm.csv",
                 "--out", path / "grades.csv"],
            ):
                assert run_cli(*argv) == 0
            assert cache_entries(path / "xdg")
            features = [(path / f"features-{run}.csv").read_text(encoding="utf-8")
                        for run in ("cold", "warm")]
            grades = (path / "grades.csv").read_text(encoding="utf-8")
        assert features == ["".join(line + "\n" for line in feature_lines)] * 2
        assert grades == "".join(line + "\n" for line in grade_lines)
