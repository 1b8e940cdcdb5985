"""In-memory span tracing around the library's public functions.

Wrappers replace each layer's public functions at the names their callers
look up (``gfkanalogy.evaluation.principal_angles`` is the name ``evaluate``
calls, ``GfkKernel.project`` the method every scorer binds), so the library
itself runs unchanged. Each call records a span (name, start, end, parent)
and, for some layers, work counters taken from its arguments and result.
Spans stay in memory until ``Tracer.dump`` writes them out after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from gfkanalogy import datasets, embeddings, evaluation, grassmann, ppmi


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_file_mb(key: str, pos: int, name: str):
    def count(c, args, kwargs, result):
        c[key] += os.path.getsize(_arg(args, kwargs, pos, name)) / 1e6
    return count


def _count_project(c, args, kwargs, result):
    kernel, vectors = args[0], _arg(args, kwargs, 1, "vectors")
    big_d, m = kernel.f.shape
    rows = math.prod(np.shape(vectors)[:-1])
    c["grassmann.project.rows"] += rows
    # (rows x D) @ (D x m), then (rows x m) @ (m x m), two flops per multiply-add
    c["grassmann.project.gflop_computed"] += 2.0 * rows * m * (big_d + m) / 1e9


def _count_reports(c, args, kwargs, reports):
    reports = list(reports.values())
    c["evaluation.answers"] += sum(r.n_questions for r in reports)
    c["evaluation.kernel_answers"] += sum(
        r.n_questions for r in reports if r.measure in evaluation.GFK_MEASURES)
    c["evaluation.null_flags"] += sum(
        res.n_null_flags for r in reports for res in r.per_relation.values())
    # every report of one call counts the same out-of-vocabulary questions
    c["evaluation.oov_questions"] += reports[0].n_oov if reports else 0
    c["evaluation.skipped_relations"] += sum(len(r.skipped) for r in reports)


def _count_cooccurrence(c, args, kwargs, counts):
    c["ppmi.build_cooccurrence.pairs"] += counts.total
    c["ppmi.build_cooccurrence.nnz"] += counts.counts.nnz


def _count(key: str, of):
    def count(c, args, kwargs, result):
        c[key] += of(result)
    return count


# (owner, attribute, span name, counter) for every wrapped entry point.
WRAPPED = (
    (embeddings, "load_text_embeddings", "embeddings.load_text_embeddings",
     _count_file_mb("embeddings.load_text_embeddings.mb", 0, "path")),
    (embeddings, "save_text_embeddings", "embeddings.save_text_embeddings",
     _count_file_mb("embeddings.save_text_embeddings.mb", 1, "path")),
    (datasets, "parse_google", "datasets.parse_google",
     _count("datasets.parse_google.questions", lambda d: d.n_questions())),
    (evaluation, "subspace_from_rows", "grassmann.subspace_from_rows", None),
    (evaluation, "principal_angles", "grassmann.principal_angles", None),
    (evaluation, "gfk", "grassmann.gfk", None),
    (grassmann.GfkKernel, "project", "grassmann.project", _count_project),
    (evaluation, "evaluate", "evaluation.evaluate", _count_reports),
    (evaluation, "dimension_sweep", "evaluation.dimension_sweep", None),
    (evaluation, "write_report_csv", "evaluation.write_report", None),
    (evaluation, "write_sweep_csv", "evaluation.write_report", None),
    (ppmi, "read_corpus", "ppmi.read_corpus",
     _count("ppmi.read_corpus.tokens", lambda docs: sum(len(d) for d in docs))),
    (ppmi, "build_cooccurrence", "ppmi.build_cooccurrence", _count_cooccurrence),
    (ppmi, "ppmi_transform", "ppmi.ppmi_transform", _count("ppmi.ppmi_transform.nnz", lambda m: m.nnz)),
    (ppmi, "truncated_svd_embed", "ppmi.truncated_svd_embed",
     _count("ppmi.truncated_svd_embed.words", len)),
)


class Tracer:
    """Spans and counters for calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block, then restore the originals."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAPPED]
        for owner, attr, name, count in WRAPPED:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return dict(out)

    def foreign_child_s(self, name: str, prefix: str) -> float:
        """Seconds that ``name`` spans spend in direct children not named ``prefix*``."""
        return sum(
            end - start for child, start, end, parent in self.spans
            if parent >= 0 and self.spans[parent][0] == name and not child.startswith(prefix)
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                 "counters": dict(self.counters)},
                f,
            )
