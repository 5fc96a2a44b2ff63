"""The mtqe benchmark: seeded inputs, one CLI process per stage, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload grade --seed 1 --seconds 30 --trace 0

Workloads, metrics and checks are described in bench/README.md.

* ``train``: build-lm x2, build-lexicon, extract --judgments, train on a
  judged corpus (the write path).
* ``grade``: extract --judgments, predict, evaluate on unseen pairs of
  normal length, with models built from the ``train`` corpus of the same
  seed during preparation, which is not timed (the read path).
* ``grade-short``: the same stages on twice as many pairs of 1-6 tokens,
  where per-pair fixed costs take the larger share.

With ``--trace 0`` each round runs the workload's stage sequence twice, each
stage as a fresh ``python -m mtqe`` process timed from outside with
``os.wait4``: once on a one-pair input (set-up cost) and once on the full
input.  Rounds repeat until ``--seconds`` have passed.  With ``--trace 1``
one CLI pass gives the per-stage figures, and an in-process pass over the
library's public functions splits the time by module (see layers.py).

Every stage's exit status and outputs are checked; a stage that exits
non-zero or writes a wrong artifact counts as a failed operation.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402

# One round (set-up pass plus full pass) of every workload takes 4-7 s on
# the reference host, so a 30-second run averages over several rounds.
TRAIN_PAIRS = 3000
NORMAL_LENGTHS = (5, 30)
SHORT_LENGTHS = (1, 6)
STAGE_TIMEOUT_S = 120.0
KB_PER_MB = 1024.0


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    lengths: tuple[int, int]
    grades: bool  # grade with prepared models instead of training them


WORKLOADS = {
    "train": Workload("train", TRAIN_PAIRS, NORMAL_LENGTHS, False),
    "grade": Workload("grade", 6000, NORMAL_LENGTHS, True),
    "grade-short": Workload("grade-short", 12_000, SHORT_LENGTHS, True),
}


# ---------------------------------------------------------------------------
# Locating the program


def find_source(root: str) -> str:
    """The checkout's ``src`` directory; exits 2 when mtqe is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mtqe", "__main__.py")):
        print(f"error: no mtqe package under {src}", file=sys.stderr)
        sys.exit(2)
    return src


def import_mtqe(src: str) -> None:
    """Import mtqe from the checkout, never from an installed copy."""
    sys.path.insert(0, src)
    import mtqe

    if os.path.dirname(os.path.abspath(mtqe.__file__)) != os.path.join(src, "mtqe"):
        print(f"error: mtqe imported from {mtqe.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Stages, passes and output checks


@dataclass
class Files:
    """Paths of one pipeline's inputs, models and outputs."""

    src: str
    tgt: str
    judgments: str
    pairs: int
    src_lm: str
    tgt_lm: str
    lexicon: str
    nb: str
    features: str
    pred: str
    report: str


def make_files(inputs: dict[str, str], pairs: int, models: str, outputs: str) -> Files:
    return Files(
        src=inputs["src"],
        tgt=inputs["tgt"],
        judgments=inputs["judgments"],
        pairs=pairs,
        src_lm=os.path.join(models, "src.lm"),
        tgt_lm=os.path.join(models, "tgt.lm"),
        lexicon=os.path.join(models, "lexicon.tsv"),
        nb=os.path.join(models, "nb.model"),
        features=os.path.join(outputs, "features.csv"),
        pred=os.path.join(outputs, "pred.csv"),
        report=os.path.join(outputs, "report.csv"),
    )


@dataclass(frozen=True)
class Stage:
    name: str  # the mtqe subcommand
    argv: list[str]
    outputs: list[str]  # artifact paths, hashed for the determinism check
    check: Callable[[str], str | None]  # stage stdout -> error, or None


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().split("\n")[:-1]


def _check_lm(f: Files, path: str):
    def check(stdout: str):
        lines = _read(path)
        if not lines or lines[0] != "mtqe-ngram-lm\t1" or lines[-1] != "end":
            return f"{path}: not a complete language model"
        if f"sentences={f.pairs} " not in stdout:
            return f"build-lm reported {stdout.strip()!r}, expected {f.pairs} sentences"
        return None

    return check


def _check_lexicon(f: Files):
    def check(stdout: str):
        rows = _read(f.lexicon)
        if not rows or f"entries={len(rows)} " not in stdout:
            return f"lexicon has {len(rows)} rows; build-lexicon said {stdout.strip()!r}"
        if any(len(row.split("\t")) != 3 for row in rows):
            return "lexicon row without three cells"
        return None

    return check


def _check_features(f: Files):
    def check(stdout: str):
        lines = _read(f.features)
        if len(lines) != f.pairs + 1 or not lines[0].endswith(",grade"):
            return f"features: {len(lines) - 1} rows for {f.pairs} pairs"
        for expected, line in enumerate(lines[1:]):
            cells = line.split(",")
            if cells[0] != str(expected) or len(cells) != 18:
                return f"features: bad row {expected}"
        return None

    return check


def _check_model(f: Files, load_model):
    def check(stdout: str):
        try:
            model = load_model(f.nb)
        except Exception as exc:  # any load failure is a wrong artifact
            return f"nb model does not load: {exc!r}"
        if not model.classes:
            return "nb model has no classes"
        return None

    return check


def _check_predictions(f: Files, labels: set[str]):
    def check(stdout: str):
        lines = _read(f.pred)
        if not lines or lines[0] != "id,grade" or len(lines) != f.pairs + 1:
            return f"predictions: {len(lines) - 1} rows for {f.pairs} pairs"
        for expected, line in enumerate(lines[1:]):
            cells = line.split(",")
            if len(cells) != 2 or cells[0] != str(expected) or cells[1] not in labels:
                return f"predictions: bad row {expected}: {line!r}"
        return None

    return check


def parse_report(path: str) -> tuple[int, int]:
    """(same, total) from an evaluate report CSV."""
    lines = _read(path)
    if len(lines) != 7 or lines[5] != "same,total,percentage":
        raise ValueError(f"report has an unexpected layout: {lines!r}")
    same, total, _ = lines[6].split(",")
    for row in lines[1:5]:
        _, human, predicted = row.split(",")
        int(human), int(predicted)
    return int(same), int(total)


def _check_report(f: Files):
    def check(stdout: str):
        try:
            same, total = parse_report(f.report)
        except ValueError as exc:
            return str(exc)
        if total != f.pairs or not 0 <= same <= total:
            return f"report same={same} total={total} for {f.pairs} pairs"
        if f"agreement: {same} of {total} " not in stdout:
            return "evaluate's printed agreement differs from its report"
        return None

    return check


def train_stages(f: Files, load_model) -> list[Stage]:
    return [
        Stage(
            "build-lm",
            ["build-lm", "--corpus", f.src, "--side", "source", "--out", f.src_lm],
            [f.src_lm],
            _check_lm(f, f.src_lm),
        ),
        Stage(
            "build-lm",
            ["build-lm", "--corpus", f.tgt, "--side", "target", "--out", f.tgt_lm],
            [f.tgt_lm],
            _check_lm(f, f.tgt_lm),
        ),
        Stage(
            "build-lexicon",
            ["build-lexicon", "--pairs-src", f.src, "--pairs-tgt", f.tgt, "--out", f.lexicon],
            [f.lexicon],
            _check_lexicon(f),
        ),
        extract_stage(f),
        Stage(
            "train",
            ["train", "--features", f.features, "--out", f.nb],
            [f.nb],
            _check_model(f, load_model),
        ),
    ]


def extract_stage(f: Files) -> Stage:
    return Stage(
        "extract",
        [
            "extract",
            "--pairs-src", f.src,
            "--pairs-tgt", f.tgt,
            "--src-lm", f.src_lm,
            "--tgt-lm", f.tgt_lm,
            "--lexicon", f.lexicon,
            "--judgments", f.judgments,
            "--out", f.features,
        ],
        [f.features],
        _check_features(f),
    )


def grade_stages(f: Files, labels: set[str], with_extract: bool = True) -> list[Stage]:
    stages = [extract_stage(f)] if with_extract else []
    return stages + [
        Stage(
            "predict",
            ["predict", "--model", f.nb, "--features", f.features, "--out", f.pred],
            [f.pred],
            _check_predictions(f, labels),
        ),
        Stage(
            "evaluate",
            ["evaluate", "--human", f.features, "--predicted", f.pred, "--out", f.report],
            [f.report],
            _check_report(f),
        ),
    ]


@dataclass
class StageRun:
    name: str
    wall_s: float
    rss_mb: float
    error: str | None
    hashes: dict[str, str] = field(default_factory=dict)


@dataclass
class PassRun:
    stages: list[StageRun]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.stages if s.error is not None)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.stages)

    def hashes(self) -> dict[str, str]:
        return {k: v for s in self.stages for k, v in s.hashes.items()}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# The host's speed drifts by up to 40% over seconds to minutes, because
# other tenants share its cores.  A fixed pure-Python probe that does not
# use mtqe runs before every timed stage and gauges that speed: each
# end-to-end time is divided by (median probe time / REFERENCE_PROBE_S) **
# SCALE_POWER over the run.  REFERENCE_PROBE_S is the probe's time at full
# speed on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207).
# Stage time there grew only as the probe time to the power 0.4-0.8
# (log-log fits over traces of interleaved probes and extract runs), so the
# full power overcorrects; over five sets of five to ten runs of the three
# workloads, the power 0.5 gave the smallest spread of run_s and
# pairs_per_s in four.  The unscaled wall times are printed as well.
REFERENCE_PROBE_S = 0.030
SCALE_POWER = 0.5
_PROBE_KEYS = [(f"w{i % 5003}", f"v{i % 7919}") for i in range(100_000)]


def probe() -> float:
    """Wall time of a fixed dict-and-tuple workload."""
    start = time.perf_counter()
    for _ in range(2):
        counts: dict = {}
        for key in _PROBE_KEYS:
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class Runner:
    """Runs stages as fresh ``python -m mtqe`` processes in a work directory."""

    def __init__(self, src: str, work: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.work = work
        self.log = os.path.join(work, "stage.log")
        self.probes: list[float] | None = None  # host-speed samples, when gauging

    def stage(self, stage: Stage) -> StageRun:
        for path in stage.outputs:
            if os.path.exists(path):
                os.unlink(path)
        argv = [sys.executable, "-m", "mtqe", *stage.argv]
        if self.probes is not None:
            self.probes.append(probe())
        with open(self.log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.log, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        rss = usage.ru_maxrss / KB_PER_MB
        if proc.returncode != 0:
            error = f"{stage.name} exited {proc.returncode}: {stdout.strip()[-300:]}"
            return StageRun(stage.name, wall, rss, error)
        error = stage.check(stdout)
        hashes = {os.path.relpath(p, self.work): sha256(p) for p in stage.outputs}
        return StageRun(stage.name, wall, rss, error, hashes)

    def run(self, stages: list[Stage]) -> PassRun:
        """Run stages in order, stopping at the first failure."""
        done = []
        for stage in stages:
            result = self.stage(stage)
            done.append(result)
            if result.error is not None:
                print(f"FAILED {result.error}", file=sys.stderr)
                break
        return PassRun(done)


# ---------------------------------------------------------------------------
# Preparing a workload


@dataclass
class Prepared:
    workload: Workload
    full: Files
    stages: list[Stage]
    one_stages: list[Stage]  # the same stages on a one-pair input
    prep: PassRun | None  # training the grade models; not timed
    train_files: Files  # the corpus and models of the write path
    mean_tokens: float


def _mean_tokens(corpus: gen.Corpus) -> float:
    """Mean mtqe tokens per pair, both sides."""
    from mtqe.corpus import SOURCE, TARGET, tokenize

    tokens = sum(
        len(tokenize(s, SOURCE)) + len(tokenize(t, TARGET))
        for s, t in zip(corpus.source, corpus.target)
    )
    return tokens / corpus.pairs


def prepare(workload: Workload, seed: int, work: str, runner: Runner, scale: float) -> Prepared:
    """Write the seeded inputs and, for the grade workloads, build the models."""
    from mtqe.bayes import load_model
    from mtqe.grading import Grade

    labels = {g.label for g in Grade}
    dirs = {name: os.path.join(work, name) for name in ("data", "models", "out", "one")}
    for path in dirs.values():
        os.makedirs(path)
    train_pairs = max(2, round(TRAIN_PAIRS * scale))
    train_corpus = gen.generate(seed, "train", train_pairs, *NORMAL_LENGTHS)
    train_inputs = train_corpus.write(os.path.join(dirs["data"], "train"))
    if not workload.grades:
        corpus = train_corpus
        full = make_files(train_inputs, train_pairs, dirs["models"], dirs["models"])
        one_inputs = corpus.head(1).write(os.path.join(dirs["one"], "input"))
        one = make_files(one_inputs, 1, dirs["one"], dirs["one"])
        return Prepared(
            workload, full,
            train_stages(full, load_model), train_stages(one, load_model),
            None, full, _mean_tokens(corpus),
        )
    pairs = max(2, round(workload.pairs * scale))
    corpus = gen.generate(seed, workload.name, pairs, *workload.lengths)
    inputs = corpus.write(os.path.join(dirs["data"], "input"))
    train_files = make_files(train_inputs, train_pairs, dirs["models"], dirs["models"])
    prep = runner.run(train_stages(train_files, load_model))
    full = make_files(inputs, pairs, dirs["models"], dirs["out"])
    one_inputs = corpus.head(1).write(os.path.join(dirs["one"], "input"))
    one = make_files(one_inputs, 1, dirs["models"], dirs["one"])
    return Prepared(
        workload, full,
        grade_stages(full, labels), grade_stages(one, labels),
        prep, train_files, _mean_tokens(corpus),
    )


# ---------------------------------------------------------------------------
# Measuring


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(p: Prepared, runner: Runner, seconds: float) -> tuple[dict, list[PassRun], dict]:
    """Rounds of (one-pair pass, full pass) for ``seconds``; end-to-end metrics."""
    runner.run(p.one_stages)  # warm-up: bytecode caches and page cache
    setups: list[PassRun] = []
    fulls: list[PassRun] = []
    runner.probes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(runner.run(p.one_stages))
        fulls.append(runner.run(p.stages))
        if setups[-1].failed or fulls[-1].failed:
            break
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    passes = setups + fulls
    reference = fulls[0].hashes()
    for run in fulls[1:]:
        if run.hashes() != reference:
            run.stages[-1].error = "artifacts differ between passes on the same input"
    if any(r.failed for r in passes):
        return {}, passes, reference
    slowdown = (statistics.median(runner.probes) / REFERENCE_PROBE_S) ** SCALE_POWER
    wall_setup_s = statistics.fmean(r.wall_s for r in setups)
    wall_run_s = statistics.fmean(r.wall_s for r in fulls)
    setup_s = wall_setup_s / slowdown
    run_s = wall_run_s / slowdown
    print(
        f"rounds={len(fulls)} slowdown={slowdown:.4f} "
        f"wall_setup_s={wall_setup_s:.4f} wall_run_s={wall_run_s:.4f} "
        f"per-round setup={[round(r.wall_s, 3) for r in setups]} "
        f"run={[round(r.wall_s, 3) for r in fulls]}"
    )
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(run_s, "s"),
        "pairs_per_s": metric(p.full.pairs / (run_s - setup_s), "pairs/s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in fulls), "MB"),
    }
    return metrics, passes, reference


def agreement_pct(files: Files) -> float:
    same, total = parse_report(files.report)
    return 100.0 * same / total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the self-check uses a tiny scale)",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = find_source(root)
    import_mtqe(src)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        return run_workload(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def run_workload(args, src: str, work: str) -> int:
    workload = WORKLOADS[args.workload]
    runner = Runner(src, work)
    p = prepare(workload, args.seed, work, runner, args.scale)
    passes = [p.prep] if p.prep is not None else []
    if p.prep is not None and p.prep.failed:
        return finish([], {}, passes, {})
    if args.trace:
        import layers

        cli_pass = runner.run(p.stages)
        extra = extra_stages(p, runner)
        passes += [cli_pass] + extra
        if any(r.failed for r in passes):
            return finish([], {}, passes, {})
        os.makedirs(os.path.join(work, "layers"))
        found, mismatches = layers.per_layer(p, passes[::-1], os.path.join(work, "layers"))
        for line in mismatches:
            print(f"FAILED {line}", file=sys.stderr)
        checked = PassRun([StageRun("in-process", 0.0, 0.0, "; ".join(mismatches) or None)])
        metrics = {name: metric(value, unit) for name, (value, unit) in found.items()}
        return finish([], metrics, passes + [checked], {})
    metrics, timed, hashes = measure(p, runner, args.seconds)
    passes += timed
    if metrics:
        extra = extra_stages(p, runner)
        passes += extra
        if not any(r.failed for r in extra):
            files = p.full if workload.grades else p.train_files
            metrics["agreement_pct"] = metric(agreement_pct(files), "%")
    if p.prep is not None:
        hashes = {**p.prep.hashes(), **hashes}
    info = [
        f"input pairs={p.full.pairs} mean_tokens_per_pair={p.mean_tokens:.2f}",
    ]
    return finish(info, metrics, passes, hashes)


def extra_stages(p: Prepared, runner: Runner) -> list[PassRun]:
    """On ``train``, grade the training rows with the new model (its load check).

    This gives the write path an agreement figure and exercises predict and
    evaluate on the trained model; it is outside the timed passes.
    """
    if p.workload.grades:
        return []
    from mtqe.grading import Grade

    return [runner.run(grade_stages(p.train_files, {g.label for g in Grade}, with_extract=False))]


def finish(info: list[str], metrics: dict, passes: list[PassRun], hashes: dict) -> int:
    attempted = sum(len(r.stages) for r in passes)
    failed = sum(r.failed for r in passes)
    for line in info:
        print(line)
    for name in sorted(hashes):
        print(f"artifact {name} sha256={hashes[name]}")
    print(f"error_rate={failed / max(attempted, 1):.6f} ({failed} of {attempted} operations failed)")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
