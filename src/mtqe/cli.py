"""Command-line front end wiring the pipeline stages together.

Each subcommand reads and writes plain files, so every stage of the
pipeline leaves an inspectable artifact: language models, the lexicon,
feature CSVs, the classifier model, predicted grades, and the evaluation
report.  All runs are deterministic given identical inputs and flags, at
any CPU count.

Each stage imports the modules it runs when it starts, and the parser
needs only :mod:`mtqe.defaults`.  Every stage runs in a fresh process,
which compiles each module it imports from source where no bytecode is
cached, so a stage pays for no module it does not run.

``extract`` scores its sentence pairs and ``predict`` grades its feature
rows on every usable CPU, through :mod:`mtqe.workers`.  Each first reads
and checks every input line itself, in the order one process reads them,
so every error comes from the parent with the message one process gives.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain

from .defaults import ABSOLUTE_VARIANCE_FLOOR, DEFAULT_THRESHOLD, SIDES
from .errors import EmptyCorpus, LengthMismatch, MalformedRow, QEError


def _cmd_build_lm(args) -> int:
    from .corpus import iter_corpus
    from .ngram import train_lm

    sentences = list(iter_corpus(args.corpus, args.side))
    model = train_lm(sentences, args.order)
    model.save(args.out)
    words = sum(map(len, sentences))
    # The vocabulary is the corpus tokens plus the three markers, which no
    # corpus token may be.
    types = len(model.vocab) - 3
    print(f"sentences={len(sentences)} words={words} unique_words={types}")
    return 0


def _cmd_build_lexicon(args) -> int:
    from .corpus import iter_parallel
    from .lexicon import build_lexicon

    corpus = tuple(iter_parallel(args.pairs_src, args.pairs_tgt))
    lexicon = build_lexicon(corpus, args.threshold)
    lexicon.save(args.out)
    print(f"lexicon entries={sum(lexicon.sizes.values())} threshold={args.threshold}")
    return 0


def _cmd_extract(args) -> int:
    from .corpus import iter_parallel_lines, load_judgments, sentence_pair
    from .feature_csv import FEATURE_HEADERS, feature_line
    from .features import extract_features
    from .fileio import atomic_write_lines
    from .grading import judgment_grade
    from .lexicon import load_lexicon
    from .ngram import load_lm
    from .workers import run_in_workers

    src_lm = load_lm(args.src_lm)
    tgt_lm = load_lm(args.tgt_lm)
    lexicon = load_lexicon(args.lexicon)
    # Grades by pair id, in judgment row order; none leaves the rows unlabelled.
    grades = {}
    if args.judgments is not None:
        grades = {j.sentence_id: judgment_grade(j) for j in load_judgments(args.judgments)}
    # The bigram and trigram frequency bands need order 3, which build-lm never goes below.
    if src_lm.order < 3 or tgt_lm.order < 3:
        raise ValueError("language models must have order >= 3")
    pairs = list(iter_parallel_lines(args.pairs_src, args.pairs_tgt))
    if args.judgments is not None:
        for row, sentence_id in enumerate(grades):
            if not 0 <= sentence_id < len(pairs):
                raise MalformedRow(
                    row,
                    f"judgment id {sentence_id} is not a sentence pair id; "
                    f"the corpus has {len(pairs)} pairs",
                )
        # Every id is in range and unique, so the count is the coverage:
        # every line is labeled.
        if len(grades) != len(pairs):
            raise LengthMismatch(f"judgments cover {len(grades)} of {len(pairs)} sentence pairs")
    if not pairs:
        raise EmptyCorpus()

    def score(pair_id):
        """The feature CSV line of pair ``pair_id``."""
        pair = sentence_pair(pair_id, *pairs[pair_id])
        vector = extract_features(pair, src_lm, tgt_lm, lexicon)
        return feature_line(pair_id, vector, grades.get(pair_id))

    lines = run_in_workers("extract", score, len(pairs))
    atomic_write_lines(args.out, chain([FEATURE_HEADERS[args.judgments is not None]], lines))
    print(f"features rows={len(pairs)} labeled={args.judgments is not None}")
    return 0


def _cmd_train(args) -> int:
    from .bayes import train_nb
    from .feature_csv import read_features

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
    from .bayes import load_model
    from .feature_csv import FEATURE_HEADERS, parse_row
    from .fileio import atomic_write_lines, read_table
    from .workers import run_in_workers

    model = load_model(args.model)
    held = []  # the line of each data row, its width and id checked

    def grade(row):
        """The ``id,grade`` line of held row ``row``.

        None stands in for a row with a bad cell and for one that every
        class scores -inf.
        """
        try:
            row_id, vector, _ = parse_row(row, held[row])
        except MalformedRow:
            return None
        scores, grade = model.predict(vector)
        # The best score, so every class gives -inf.
        return None if scores[grade] == -math.inf else f"{row_id},{grade.label}"

    def graded():
        """The ``id,grade`` line of every held row, or the fault of the first faulty one."""
        lines = run_in_workers("predict", grade, len(held))
        if None in lines:
            row = lines.index(None)
            parse_row(row, held[row])  # which raises the row's bad cell, if it has one
            raise MalformedRow(row, "no class gives the features a finite score")
        return lines

    try:
        for _, _, line in read_table(args.features, ",", FEATURE_HEADERS):
            held.append(line)
    except (QEError, OSError):
        graded()  # a faulty row before the one that ended the read is met first
        raise
    lines = graded()
    atomic_write_lines(args.out, chain(["id,grade"], lines))
    print(f"predicted {len(lines)} rows")
    return 0


def _read_grade_file(path):
    """``{id: grade}`` of an ``id,grade`` or labeled feature CSV: each row's first and last cell."""
    from .feature_csv import FEATURE_HEADERS
    from .fileio import read_table
    from .grading import Grade

    grades = {}
    for row, row_id, line in read_table(path, ",", ("id,grade", FEATURE_HEADERS[1])):
        try:
            grades[row_id] = Grade.from_label(line.rpartition(",")[2])
        except ValueError as exc:
            raise MalformedRow(row, str(exc)) from None
    return grades


def _cmd_evaluate(args) -> int:
    from .evaluation import confusion, render_report_csv, render_report_text
    from .fileio import atomic_write_lines

    human = _read_grade_file(args.human)
    predicted = _read_grade_file(args.predicted)
    if human.keys() != predicted.keys():
        raise LengthMismatch("grade files do not cover the same sentence ids")
    matrix = confusion(human.values(), map(predicted.__getitem__, human))
    report = matrix.agreement()
    lines = render_report_csv(matrix.human_histogram(), matrix.predicted_histogram(), report)
    atomic_write_lines(args.out, lines)
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
    # extract needs the trigram frequency bands
    p.add_argument("--order", type=int, choices=range(3, 6), default=3,
                   help="n-gram order, 3..5 (default 3)")
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
    p.add_argument("--features", required=True, help="feature CSV (a grade column is checked, not used)")
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
