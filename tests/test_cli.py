import os
import subprocess
import sys

import pytest

import mtqe
from mtqe.corpus import SOURCE, TARGET, load_parallel, tokenize
from mtqe.features import read_features
from mtqe.fileio import read_lines
from mtqe.grading import Grade
from mtqe.lexicon import DEFAULT_THRESHOLD, load_lexicon
from mtqe.ngram import load_lm

from conftest import (
    brute_force_lexicon,
    read_lexicon_entries,
    reference_lm,
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
            assert "3..5" in capsys.readouterr().err
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
        assert f"judgment id {stray_id} " in err
        assert "row 20" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 0.05])
    def test_lexicon(self, tmp_path, threshold):
        data = write_toy_dataset(tmp_path)
        out = tmp_path / "lexicon.tsv"
        proc = _run_module("build-lexicon", "--pairs-src", data["src"], "--pairs-tgt",
                           data["tgt"], "--threshold", threshold, "--out", out)
        assert proc.returncode == 0, proc.stderr
        corpus = load_parallel(data["src"], data["tgt"])
        brute_force_lexicon(corpus, threshold).save(tmp_path / "reference.tsv")
        assert out.read_bytes() == (tmp_path / "reference.tsv").read_bytes()
