"""Fast self-check of the benchmark at a tiny input size (about 20 s).

Run from the root of a checkout:

    python3 bench/check.py

It asserts that every workload prints every metric that BENCHMARK.json
names (end-to-end with ``--trace 0``, per-layer with ``--trace 1``) with no
failed operation, that a broken artifact is counted as a failed operation,
and that the benchmark refuses to run where the mtqe sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

SCALE = "0.02"


def bench(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def check_metrics(spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", trace, "--scale", SCALE)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert "error_rate=0.000000" in proc.stdout, proc.stdout
            print(f"ok {name} --trace {trace}: {len(got)} metrics")


def check_broken_artifact(work: str) -> None:
    src = run.find_source(os.getcwd())
    run.import_mtqe(src)
    runner = run.Runner(src, work)
    prepared = run.prepare(run.WORKLOADS["grade"], 3, work, runner, 0.02)
    assert prepared.prep.failed == 0
    good = runner.run(prepared.stages)
    assert good.failed == 0

    with open(prepared.full.nb, "w", encoding="utf-8") as handle:
        handle.write("mtqe-nb-model\t1\nvariance_floor\tnot-a-float\n")
    broken = runner.run(prepared.stages)
    assert broken.failed == 1 and broken.stages[-1].name == "predict", broken
    print("ok a corrupt model fails predict")

    features = prepared.stages[0]
    with open(prepared.full.features, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    with open(prepared.full.features, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-2] + [""]))  # one row short
    assert features.check("") is not None
    print("ok a feature file one row short fails its check")


def check_refuses_without_sources(work: str) -> None:
    alone = os.path.join(work, "alone")
    shutil.copytree(BENCH_DIR, os.path.join(alone, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", alone)
    proc = bench("--workload", "grade", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=alone)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print("ok refuses to run without the mtqe sources")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_metrics(spec)
    os.makedirs(".bench_work", exist_ok=True)
    work = tempfile.mkdtemp(prefix="check-", dir=".bench_work")
    try:
        check_broken_artifact(os.path.join(work, "broken"))
        check_refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    print("benchmark self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
