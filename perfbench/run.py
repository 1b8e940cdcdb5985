"""Benchmark of the gfkanalogy pipeline: one workload and seed per process.

    python3 perfbench/run.py --workload analogy-vocab --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. A separate process (``generate.py``) first writes the workload's
input files from the seed. This process then drives the library's public
functions in the order the CLI commands do:

* eval and sweep workloads: ``load_text_embeddings(normalize=True)`` and
  ``parse_google`` (set-up), then ``evaluate`` + ``write_report_csv`` or
  ``dimension_sweep`` + ``write_sweep_csv`` (the main call);
* the corpus workload: ``read_corpus`` (set-up), then ``build_cooccurrence``
  -> ``ppmi_transform`` -> ``truncated_svd_embed`` -> ``save_text_embeddings``.

Set-up runs several times and the main call repeats until ``--seconds``
have passed (at least once); each iteration gets a fresh embedding table so
lazily built lookup caches are rebuilt inside the timed call, as in one CLI
run. Evaluation uses ``EvalConfig.threads=1`` and the default BLAS threads.

With ``--trace 0`` the result reports the end-to-end metrics of
``BENCHMARK.json``: ``setup_s`` (median set-up seconds), ``items_per_s``
(answers -- question x measure x swept dimension -- per second on the
analogy workloads, corpus tokens per second on the corpus workload, from the
median main call) and ``peak_rss_mb`` (the process's ``ru_maxrss`` after the
timed phase). With ``--trace 1`` it alternates untraced and traced main
calls and reports the per-layer metrics from the traced ones (see
``tracing.py``), per set-up or main call, plus ``trace.overhead_s``.

Outputs are checked after timing (``checks.py``); ``attempted`` and
``failed`` count those checks, so their ratio is the run's error rate. The
line before the result records the environment, input sizes, raw samples and
any failed check. ``--record`` stores this seed's analogy results in
``expected.json`` once every other check has passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GENERATOR_TIMEOUT_S = 150

if not os.path.isfile(os.path.join(SRC, "gfkanalogy", "__init__.py")):
    sys.exit(f"error: {SRC} holds no gfkanalogy sources; run from a full source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from gfkanalogy import datasets, embeddings, evaluation, ppmi  # noqa: E402
from gfkanalogy.embeddings import EmbeddingTable  # noqa: E402
from generate import CORPUS, EMBEDDINGS, INPUTS, QUESTIONS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Workload, get_workload  # noqa: E402


def eval_config(w: Workload) -> evaluation.EvalConfig | None:
    if w.kind == "ppmi":
        return None
    return evaluation.EvalConfig(
        measure=w.measure, subspace_dim=w.subspace_dim, holdout=w.holdout, threads=1)


def setup(w: Workload, workdir: str):
    """Load the inputs, as the CLI command does before its main call."""
    if w.kind == "ppmi":
        return ppmi.read_corpus(os.path.join(workdir, CORPUS))
    table = embeddings.load_text_embeddings(os.path.join(workdir, EMBEDDINGS), normalize=True)
    return table, datasets.parse_google(os.path.join(workdir, QUESTIONS))


@contextlib.contextmanager
def capture_evaluate(sink: list):
    """Keep (subspace dim, reports) of every evaluate call made inside the block."""
    original = evaluation.evaluate

    def capturing(dataset, table, config, *args, **kwargs):
        reports = original(dataset, table, config, *args, **kwargs)
        sink.append((config.subspace_dim, reports))
        return reports

    evaluation.evaluate = capturing
    try:
        yield
    finally:
        evaluation.evaluate = original


def main_call(w: Workload, config, inputs, out_path: str):
    """The CLI command's work after loading; returns what the checks need."""
    if w.kind == "ppmi":
        counts = ppmi.build_cooccurrence(inputs, win=w.window, positional=False,
                                         min_count=w.min_count)
        matrix = ppmi.ppmi_transform(counts)
        table = ppmi.truncated_svd_embed(matrix, counts.words, w.embed_dim, 0.5)
        embeddings.save_text_embeddings(table, out_path)
        return counts, matrix, table
    table, dataset = inputs
    extras = {"embeddings": EMBEDDINGS, "dataset": QUESTIONS}
    if w.kind == "eval":
        reports = evaluation.evaluate(dataset, table, config)
        with open(out_path, "w", encoding="utf-8") as f:
            evaluation.write_report_csv(reports, config, f, **extras)
        return {config.subspace_dim: reports}
    captured: list = []
    with capture_evaluate(captured):
        rows = evaluation.dimension_sweep(dataset, table, config, list(w.dims))
    with open(out_path, "w", encoding="utf-8") as f:
        evaluation.write_sweep_csv(rows, config, f, dims=",".join(map(str, w.dims)), **extras)
    return dict(captured), rows


def fresh(w: Workload, inputs):
    """Inputs for one main call: a new table object over the same vectors."""
    if w.kind == "ppmi":
        return inputs
    table, dataset = inputs
    return EmbeddingTable(table.words, table.vectors), dataset


def work_items(w: Workload, inputs, result) -> int:
    if w.kind == "ppmi":
        return sum(len(doc) for doc in inputs)
    per_dim = result if w.kind == "eval" else result[0]
    return sum(rep.n_questions for reports in per_dim.values() for rep in reports.values())


def timed(call) -> tuple[float, object]:
    gc.collect()  # garbage from the previous call is not this call's cost
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def analogy_values(w: Workload, result) -> dict:
    per_dim = result if w.kind == "eval" else result[0]
    values = {str(d): checks.report_values(reports) for d, reports in per_dim.items()}
    return values[str(w.subspace_dim)] if w.kind == "eval" else values


def run_checks(w, args, config, inputs, result, out_path, results_per_iter):
    if w.kind == "ppmi":
        counts, matrix, table = result
        return checks.check_ppmi(inputs, counts, matrix, table, out_path, w)
    table, dataset = inputs
    values = analogy_values(w, result)
    # recorded values exist only for the full-size inputs
    out = [] if args.tiny else checks.check_recorded(w.name, args.seed, values)
    out.append(("iterations agree", all(v == values for v in results_per_iter)))
    n_answers = dataset.n_questions() * len(config.measures()) * max(1, len(w.dims))
    out.append(("every question answered under every measure",
                work_items(w, inputs, result) == n_answers))
    if w.kind == "sweep":
        per_dim, rows = result
        for d, m, acc in rows:
            out.append((f"sweep row d={d} {m}", acc == per_dim[d][m].micro_accuracy))
    out += checks.check_sample(w, args.seed, table, dataset, config)
    return out


def layer_metrics(per_layer, setup_tracer, n_setup, main_tracer, n_main, overhead_s):
    values: dict[str, float] = {}
    for tracer, n in ((setup_tracer, n_setup), (main_tracer, n_main)):
        for name, entry in tracer.summary().items():
            for key, v in entry.items():
                values[f"{name}.{key}"] = v / n
        for key, v in tracer.counters.items():
            values[key] = v / n
    for layer in ("embeddings.load_text_embeddings", "embeddings.save_text_embeddings"):
        if values.get(f"{layer}.s"):
            values[f"{layer}.mb_per_s"] = values[f"{layer}.mb"] / values[f"{layer}.s"]
    kernels = values.get("grassmann.gfk.calls", 0.0)
    values["evaluation.kernels_built"] = kernels
    if kernels:
        values["evaluation.answers_per_kernel"] = values["evaluation.kernel_answers"] / kernels
    values["trace.overhead_s"] = overhead_s
    # layers a workload never calls report zero
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in per_layer}


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    info = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "note": "grassmann.project.gflop_computed is computed from array shapes, not measured",
    }


def run(w: Workload, args, workdir: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    config = eval_config(w)
    out_path = os.path.join(workdir, "output.txt")

    setup_tracer = Tracer()
    setup_s = []
    trace = bool(args.trace)
    with setup_tracer.installed() if trace else contextlib.nullcontext():
        for _ in range(w.setup_reps):
            t, inputs = timed(lambda: setup(w, workdir))
            setup_s.append(t)

    main_tracer = Tracer()
    main_s, traced_s, per_iter = [], [], []
    start = time.perf_counter()
    while not main_s or time.perf_counter() - start < args.seconds:
        call_inputs = fresh(w, inputs)
        t, result = timed(lambda: main_call(w, config, call_inputs, out_path))
        main_s.append(t)
        if w.kind != "ppmi":
            per_iter.append(analogy_values(w, result))
        if trace:
            call_inputs = fresh(w, inputs)
            with main_tracer.installed():
                t, result = timed(lambda: main_call(w, config, call_inputs, out_path))
            traced_s.append(t)
            if w.kind != "ppmi":
                per_iter.append(analogy_values(w, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = run_checks(w, args, config, inputs, result, out_path, per_iter)
    if trace and w.kind != "ppmi":
        foreign = main_tracer.foreign_child_s("evaluation.evaluate", "grassmann.")
        results.append(("evaluate span = self time + grassmann child spans", foreign == 0.0))
    failed = [name for name, ok in results if not ok]
    if args.record and w.kind != "ppmi":
        if failed:
            raise SystemExit(f"not recording: {len(failed)} checks failed")
        checks.record_expected(w.name, args.seed, analogy_values(w, result))

    if trace:
        overhead = statistics.median(traced_s) - statistics.median(main_s)
        metrics = layer_metrics(spec["per_layer"], setup_tracer, w.setup_reps,
                                main_tracer, len(traced_s), overhead)
        main_tracer.dump(os.path.join(WORK, f"trace-{w.name}-seed{args.seed}.json"))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "items_per_s": work_items(w, inputs, result) / statistics.median(main_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    info = {
        "environment": environment(),
        "samples": {"setup_s": setup_s, "main_s": main_s, "traced_main_s": traced_s},
        "failed_checks": failed,
    }
    return info, {"correct": not failed, "attempted": len(results), "failed": len(failed),
                  "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating the main call until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's analogy results in expected.json")
    args = parser.parse_args(argv)
    if args.record and args.tiny:
        parser.error("--record stores full-size results only")
    w = get_workload(args.workload, args.tiny)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK)
    try:
        cmd = [sys.executable, os.path.join(HERE, "generate.py"), "--workload", w.name,
               "--seed", str(args.seed), "--out", workdir] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, check=True, timeout=GENERATOR_TIMEOUT_S)
        with open(os.path.join(workdir, INPUTS), encoding="utf-8") as f:
            inputs = json.load(f)
        info, result = run(w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"inputs": inputs, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
