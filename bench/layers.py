"""Per-module attribution for the benchmark's ``--trace 1`` run.

The layers are the mtqe modules.  One in-process pass calls their public
functions in the order the CLI subcommands do (build-lm, build-lexicon,
extract, train, predict, evaluate) and times every call from outside.  A
second pass repeats feature extraction with timing proxies in place of the
two language models and the lexicon, so n-gram and lexicon query time
separate from the self time of ``extract_features``.  The proxies slow
extraction down; their cost is reported as ``features.trace_overhead_s``.
These figures are for attribution only, never for end-to-end claims.

On the grade workloads the write-path layers (LM training, lexicon
induction, classifier training) run on the ``train`` corpus that built the
grade models; every other layer runs on the workload's own input.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from time import perf_counter

CLI_STAGES = ("build-lm", "build-lexicon", "extract", "train", "predict", "evaluate")


class Clock:
    """Busy time and call count accumulated by one or more proxies."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0


class Timed:
    """Stands in for a model object and times each method call made on it."""

    def __init__(self, target, clock: Clock):
        self._target = target
        self._clock = clock

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if callable(value):
            method = value
            clock = self._clock

            def value(*args, **kwargs):
                clock.calls += 1
                start = perf_counter()
                try:
                    return method(*args, **kwargs)
                finally:
                    clock.seconds += perf_counter() - start

        self.__dict__[name] = value  # later lookups skip __getattr__
        return value


def _nearest_rank(sorted_values, fraction: float) -> float:
    return sorted_values[max(1, math.ceil(fraction * len(sorted_values))) - 1]


def cli_metrics(passes) -> dict[str, tuple[float, str]]:
    """Wall time (summed) and peak RSS of each subcommand's first pass."""
    out = {}
    for name in CLI_STAGES:
        runs = next(
            [s for s in run.stages if s.name == name]
            for run in passes
            if any(s.name == name for s in run.stages)
        )
        out[f"cli.{name}.wall_s"] = (sum(s.wall_s for s in runs), "s")
        out[f"cli.{name}.rss_mb"] = (max(s.rss_mb for s in runs), "MB")
    return out


def per_layer(p, cli_passes, work: str) -> tuple[dict, list[str]]:
    """Per-layer metrics and a list of mismatches against the CLI's artifacts."""
    from mtqe.bayes import load_model, train_nb
    from mtqe.corpus import (
        SOURCE, TARGET, ParallelCorpus, SentencePair, load_judgments, read_lines, tokenize,
    )
    from mtqe.evaluation import agreement, confusion, render_report_csv, render_report_text
    from mtqe.features import extract_features, read_features, write_features
    from mtqe.grading import judgment_grade
    from mtqe.lexicon import build_lexicon, load_lexicon
    from mtqe.ngram import load_lm, train_lm

    acc: dict[str, float] = defaultdict(float)

    def timed(key, fn, *args):
        start = perf_counter()
        result = fn(*args)
        acc[key] += perf_counter() - start
        return result

    def load_corpus(files, layer):
        src_lines = timed(f"{layer}.read_s", read_lines, files.src)
        tgt_lines = timed(f"{layer}.read_s", read_lines, files.tgt)
        start = perf_counter()
        sources = [tuple(tokenize(line, SOURCE)) for line in src_lines]
        targets = [tuple(tokenize(line, TARGET)) for line in tgt_lines]
        acc[f"{layer}.tokenize_s"] += perf_counter() - start
        return ParallelCorpus(
            tuple(SentencePair(i, s, t) for i, (s, t) in enumerate(zip(sources, targets)))
        )

    paths = {
        name: os.path.join(work, name)
        for name in ("src.lm", "tgt.lm", "lexicon.tsv", "nb.model", "features.csv")
    }
    grades = p.workload.grades
    train_corpus = load_corpus(p.train_files, "prep" if grades else "corpus")
    corpus = load_corpus(p.full, "corpus") if grades else train_corpus

    # build-lm, build-lexicon
    for key, sentences in (
        ("src.lm", [pair.source for pair in train_corpus]),
        ("tgt.lm", [pair.target for pair in train_corpus]),
    ):
        model = timed("ngram.train_s", train_lm, sentences, 3)
        timed("ngram.save_s", model.save, paths[key])
    lexicon = timed("lexicon.build_s", build_lexicon, train_corpus)
    timed("lexicon.save_s", lexicon.save, paths["lexicon.tsv"])
    increments = sum(len(set(pair.source)) * len(set(pair.target)) for pair in train_corpus)
    entries = sum(len(targets) for targets in lexicon.entries.values())

    # extract
    src_lm = timed("ngram.load_s", load_lm, paths["src.lm"])
    tgt_lm = timed("ngram.load_s", load_lm, paths["tgt.lm"])
    lexicon = timed("lexicon.load_s", load_lexicon, paths["lexicon.tsv"])
    judgments = timed("corpus.load_judgments_s", load_judgments, p.full.judgments)
    grade_of = {j.sentence_id: judgment_grade(j) for j in judgments}
    pair_s = []
    rows = []
    start = perf_counter()
    for pair in corpus:
        t0 = perf_counter()
        vector = extract_features(pair, src_lm, tgt_lm, lexicon)
        pair_s.append(perf_counter() - t0)
        rows.append((pair.id, vector, grade_of[pair.id]))
    acc["features.extract_s"] = perf_counter() - start
    timed("features.write_s", write_features, rows, paths["features.csv"])

    # train reads the feature file back, as the CLI does; the grade
    # workloads train on the prepared corpus's feature file
    if grades:
        train_rows = timed("prep.read_s", read_features, p.train_files.features)
    else:
        train_rows = timed("features.read_s", read_features, paths["features.csv"])
    model = timed("bayes.train_s", train_nb, [(v, g) for _, v, g in train_rows])
    timed("bayes.save_s", model.save, paths["nb.model"])

    # predict
    model = timed("bayes.load_s", load_model, paths["nb.model"])
    read_rows = timed("features.read_s", read_features, paths["features.csv"])
    predicted = []
    start = perf_counter()
    for i, (_, vector, _) in enumerate(read_rows):
        t0 = perf_counter()
        predicted.append(model.predict(vector).predicted)
        pair_s[i] += perf_counter() - t0
    acc["bayes.predict_s"] = perf_counter() - start

    # evaluate
    human = [grade for _, _, grade in read_rows]
    start = perf_counter()
    report = agreement(human, predicted)
    matrix = confusion(human, predicted)
    render_report_csv(matrix.human_histogram(), matrix.predicted_histogram(), report)
    render_report_text(matrix, report)
    acc["evaluation.s"] = perf_counter() - start

    # extract again, through the timing proxies
    ngram_clock, lexicon_clock = Clock(), Clock()
    src_proxy, tgt_proxy = Timed(src_lm, ngram_clock), Timed(tgt_lm, ngram_clock)
    lexicon_proxy = Timed(lexicon, lexicon_clock)
    start = perf_counter()
    for pair in corpus:
        extract_features(pair, src_proxy, tgt_proxy, lexicon_proxy)
    traced_s = perf_counter() - start

    tokens = {"source": 0, "target": 0}
    oov = {"source": 0, "target": 0}
    for pair in corpus:
        for side, sentence, lm in (("source", pair.source, src_lm), ("target", pair.target, tgt_lm)):
            tokens[side] += len(sentence)
            oov[side] += sum(1 for token in sentence if token not in lm.vocab)
    pair_s.sort()

    metrics = {key: (value, unit) for key, value, unit in (
        ("corpus.read_s", acc["corpus.read_s"], "s"),
        ("corpus.tokenize_s", acc["corpus.tokenize_s"], "s"),
        ("corpus.tokens", tokens["source"] + tokens["target"], "count"),
        ("corpus.load_judgments_s", acc["corpus.load_judgments_s"], "s"),
        ("ngram.train_s", acc["ngram.train_s"], "s"),
        ("ngram.save_s", acc["ngram.save_s"], "s"),
        ("ngram.model_bytes", os.path.getsize(paths["src.lm"]) + os.path.getsize(paths["tgt.lm"]), "bytes"),
        ("ngram.load_s", acc["ngram.load_s"], "s"),
        ("ngram.query_s", ngram_clock.seconds, "s"),
        ("ngram.query_calls", ngram_clock.calls, "count"),
        ("ngram.types", len(src_lm.vocab) + len(tgt_lm.vocab), "count"),
        ("ngram.oov_rate.source", oov["source"] / max(tokens["source"], 1), "ratio"),
        ("ngram.oov_rate.target", oov["target"] / max(tokens["target"], 1), "ratio"),
        ("lexicon.build_s", acc["lexicon.build_s"], "s"),
        ("lexicon.cooc_increments", increments, "count"),
        ("lexicon.entries", entries, "count"),
        ("lexicon.kept_ratio", entries / increments, "ratio"),
        ("lexicon.save_s", acc["lexicon.save_s"], "s"),
        ("lexicon.load_s", acc["lexicon.load_s"], "s"),
        ("lexicon.query_s", lexicon_clock.seconds, "s"),
        ("features.extract_s", acc["features.extract_s"], "s"),
        ("features.extract_traced_s", traced_s, "s"),
        ("features.trace_overhead_s", traced_s - acc["features.extract_s"], "s"),
        ("features.extract_self_s", traced_s - ngram_clock.seconds - lexicon_clock.seconds, "s"),
        ("features.pair_p50_us", 1e6 * _nearest_rank(pair_s, 0.50), "us"),
        ("features.pair_p99_us", 1e6 * _nearest_rank(pair_s, 0.99), "us"),
        ("features.write_s", acc["features.write_s"], "s"),
        ("features.read_s", acc["features.read_s"], "s"),
        ("features.csv_bytes", os.path.getsize(paths["features.csv"]), "bytes"),
        ("bayes.train_s", acc["bayes.train_s"], "s"),
        ("bayes.save_s", acc["bayes.save_s"], "s"),
        ("bayes.load_s", acc["bayes.load_s"], "s"),
        ("bayes.predict_s", acc["bayes.predict_s"], "s"),
        ("bayes.predict_us_per_row", 1e6 * acc["bayes.predict_s"] / len(read_rows), "us"),
        ("evaluation.s", acc["evaluation.s"], "s"),
    )}
    metrics.update(cli_metrics(cli_passes))

    # The in-process pass must have done the CLI's work: same bytes out.
    mismatches = []
    same_bytes = [
        (paths["src.lm"], p.train_files.src_lm),
        (paths["tgt.lm"], p.train_files.tgt_lm),
        (paths["lexicon.tsv"], p.train_files.lexicon),
        (paths["nb.model"], p.train_files.nb),
        (paths["features.csv"], p.full.features),
    ]
    for mine, theirs in same_bytes:
        with open(mine, "rb") as a, open(theirs, "rb") as b:
            if a.read() != b.read():
                mismatches.append(f"in-process {os.path.basename(mine)} differs from the CLI's")
    return metrics, mismatches
