"""Command-line front end wiring the pipeline stages together.

Each subcommand reads and writes plain files, so every stage of the
pipeline leaves an inspectable artifact: language models, the lexicon,
feature CSVs, the classifier model, predicted grades, and the evaluation
report.  All runs are deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

from .bayes import ABSOLUTE_VARIANCE_FLOOR, load_model, train_nb
from .corpus import SIDES, load_judgments, load_parallel, read_corpus
from .errors import LengthMismatch, MalformedRow, QEError
from .evaluation import confusion, render_report_csv, render_report_text
from .features import FEATURE_HEADERS, extract_features, read_features, write_features
from .fileio import atomic_write_lines, check_new_id, parse_int, read_table
from .grading import Grade, judgment_grade
from .lexicon import DEFAULT_THRESHOLD, build_lexicon, load_lexicon
from .ngram import load_lm, train_lm

MIN_ORDER = 3  # extract needs the trigram frequency bands
MAX_ORDER = 5


def _order_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be an integer, got {text!r}")
    if not MIN_ORDER <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"order must be in {MIN_ORDER}..{MAX_ORDER}, got {value}"
        )
    return value


def _cmd_build_lm(args) -> int:
    sentences = read_corpus(args.corpus, args.side)
    model = train_lm(sentences, args.order)
    model.save(args.out)
    words = sum(map(len, sentences))
    types = len(set(chain.from_iterable(sentences)))
    print(f"sentences={len(sentences)} words={words} unique_words={types}")
    return 0


def _cmd_build_lexicon(args) -> int:
    corpus = load_parallel(args.pairs_src, args.pairs_tgt)
    lexicon = build_lexicon(corpus, args.threshold)
    lexicon.save(args.out)
    print(f"lexicon entries={sum(lexicon.sizes.values())} threshold={args.threshold}")
    return 0


def _cmd_extract(args) -> int:
    corpus = load_parallel(args.pairs_src, args.pairs_tgt)
    src_lm = load_lm(args.src_lm)
    tgt_lm = load_lm(args.tgt_lm)
    lexicon = load_lexicon(args.lexicon)
    grades = [None] * len(corpus)  # by pair id; None leaves the rows unlabelled
    if args.judgments is not None:
        judgments = load_judgments(args.judgments)
        for row, judgment in enumerate(judgments):
            if not 0 <= judgment.sentence_id < len(corpus):
                raise MalformedRow(
                    row,
                    f"judgment id {judgment.sentence_id} is not a sentence pair id; "
                    f"the corpus has {len(corpus)} pairs",
                )
            grades[judgment.sentence_id] = judgment_grade(judgment)
        # Every id is in range and unique, so the count is the coverage.
        covered = len(judgments)
        if covered != len(corpus):
            raise LengthMismatch(f"judgments cover {covered} of {len(corpus)} sentence pairs")
    rows = [
        (pair.id, extract_features(pair, src_lm, tgt_lm, lexicon), grade)
        for pair, grade in zip(corpus, grades)
    ]
    write_features(rows, args.out)
    print(f"features rows={len(rows)} labeled={args.judgments is not None}")
    return 0


def _cmd_train(args) -> int:
    rows = read_features(args.features)
    if any(grade is None for _, _, grade in rows):
        raise ValueError("training requires a labeled feature file (grade column)")
    model = train_nb(
        [(vector, grade) for _, vector, grade in rows],
        variance_floor=args.variance_floor,
    )
    model.save(args.out)
    print(f"trained on {len(rows)} rows, classes={[g.label for g in model.classes]}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    rows = read_features(args.features)
    lines = ["id,grade"]
    for row_id, vector, _ in sorted(rows, key=lambda row: row[0]):
        lines.append(f"{row_id},{model.predict(vector).predicted.label}")
    atomic_write_lines(args.out, lines)
    print(f"predicted {len(rows)} rows")
    return 0


def _read_grade_file(path) -> list[tuple[int, Grade]]:
    """``(id, grade)`` rows, by id, of an ``id,grade`` or labeled feature CSV.

    A row's first cell is its id and its last cell its grade; no id twice.
    """
    rows = []
    seen = set()
    for row, _, cells in read_table(path, ",", ("id,grade", FEATURE_HEADERS[1])):
        try:
            row_id, grade = parse_int(cells[0]), Grade.from_label(cells[-1])
        except ValueError as exc:
            raise MalformedRow(row, str(exc)) from None
        check_new_id(row_id, row, seen)
        rows.append((row_id, grade))
    return sorted(rows, key=lambda row: row[0])


def _cmd_evaluate(args) -> int:
    human_rows = _read_grade_file(args.human)
    predicted_rows = _read_grade_file(args.predicted)
    if [i for i, _ in human_rows] != [i for i, _ in predicted_rows]:
        raise LengthMismatch("grade files do not cover the same sentence ids")
    human = [grade for _, grade in human_rows]
    predicted = [grade for _, grade in predicted_rows]
    matrix = confusion(human, predicted)
    report = matrix.agreement()
    table = render_report_csv(matrix.human_histogram(), matrix.predicted_histogram(), report)
    atomic_write_lines(args.out, table.splitlines())
    print(render_report_text(matrix, report), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtqe",
        description="Grade machine-translation output without reference translations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-lm", help="train an n-gram language model from one corpus side")
    p.add_argument("--corpus", required=True, help="text file, one sentence per line")
    p.add_argument("--side", required=True, choices=SIDES, help="tokenization side")
    p.add_argument("--order", type=_order_flag, default=3, help="n-gram order, 3..5 (default 3)")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_build_lm)

    p = commands.add_parser("build-lexicon", help="induce a translation lexicon from a parallel corpus")
    p.add_argument("--pairs-src", required=True, help="source-side text file")
    p.add_argument("--pairs-tgt", required=True, help="target-side text file")
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"association cut-off in (0, 1) (default {DEFAULT_THRESHOLD})",
    )
    p.add_argument("--out", required=True, help="lexicon TSV to write")
    p.set_defaults(func=_cmd_build_lexicon)

    p = commands.add_parser("extract", help="compute the 16 features for every sentence pair")
    p.add_argument("--pairs-src", required=True, help="source-side text file")
    p.add_argument("--pairs-tgt", required=True, help="target-side text file")
    p.add_argument("--src-lm", required=True, help="source language model file")
    p.add_argument("--tgt-lm", required=True, help="target language model file")
    p.add_argument("--lexicon", required=True, help="lexicon TSV")
    p.add_argument("--judgments", default=None, help="optional judgment TSV; labels every row")
    p.add_argument("--out", required=True, help="feature CSV to write")
    p.set_defaults(func=_cmd_extract)

    p = commands.add_parser("train", help="fit the Gaussian Naive Bayes grader")
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument(
        "--variance-floor",
        type=float,
        default=ABSOLUTE_VARIANCE_FLOOR,
        help=f"absolute variance floor (default {ABSOLUTE_VARIANCE_FLOOR})",
    )
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("predict", help="grade feature rows with a trained model")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--features", required=True, help="feature CSV (grade column ignored)")
    p.add_argument("--out", required=True, help="id,grade CSV to write")
    p.set_defaults(func=_cmd_predict)

    p = commands.add_parser("evaluate", help="compare two grade files")
    p.add_argument("--human", required=True, help="id,grade CSV or labeled feature CSV")
    p.add_argument("--predicted", required=True, help="id,grade CSV or labeled feature CSV")
    p.add_argument("--out", required=True, help="report CSV to write")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QEError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal fault guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
