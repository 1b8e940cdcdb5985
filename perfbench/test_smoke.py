"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass with tracing off and on, that tracing leaves
``evaluate``'s reports unchanged, and that the benchmark fails cleanly
without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analogy-vocab", "kernel-sweep", "ppmi-train")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_named_with_units_and_checks_pass(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_evaluate_returns_identical_reports():
    sys.path.insert(0, HERE)
    import run
    from checks import report_values
    from generate import EMBEDDINGS, QUESTIONS
    from generate import main as generate
    from tracing import Tracer
    from workloads import get_workload

    from gfkanalogy import datasets, embeddings, evaluation
    from gfkanalogy.embeddings import EmbeddingTable

    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        w = get_workload("analogy-vocab", tiny=True)
        generate(["--workload", w.name, "--seed", "5", "--out", workdir, "--tiny"])
        table = embeddings.load_text_embeddings(os.path.join(workdir, EMBEDDINGS), normalize=True)
        dataset = datasets.parse_google(os.path.join(workdir, QUESTIONS))
    finally:
        shutil.rmtree(workdir)
    config = run.eval_config(w)
    original = evaluation.evaluate
    untraced = evaluation.evaluate(dataset, EmbeddingTable(table.words, table.vectors), config)
    tracer = Tracer()
    with tracer.installed():
        traced = evaluation.evaluate(dataset, EmbeddingTable(table.words, table.vectors), config)
    assert evaluation.evaluate is original
    assert report_values(traced) == report_values(untraced)
    for m in untraced:
        assert traced[m].skipped == untraced[m].skipped
        assert traced[m].oov_counts == untraced[m].oov_counts
    summary = tracer.summary()
    assert summary["evaluation.evaluate"]["calls"] == 1
    assert summary["grassmann.gfk"]["calls"] == summary["grassmann.principal_angles"]["calls"] > 0
    assert tracer.foreign_child_s("evaluation.evaluate", "grassmann.") == 0.0


def test_fails_without_library_sources():
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "kernel-sweep", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
