"""Evaluation runs on NumPy alone; scipy loads with the PPMI and synth code that calls it.

A fresh interpreter imports the package and the CLI, runs ``evaluate`` and
``dimension_sweep``, and reports which scipy submodules it has loaded. It then
takes the dense SVD path of ``truncated_svd_embed``, on an ndarray and on a
small sparse matrix, and runs the PPMI pipeline and ``synth.generate``, whose
outputs must carry the same bits as the same calls made in this process, where
scipy is already loaded. The sources' own imports and names are read with
``ast``: the scoring module imports neither evaluation nor scipy, and
evaluation names none of the scorer's internals and makes no kernel rows.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import gfkanalogy
from gfkanalogy import ppmi, synth
from gfkanalogy.datasets import AnalogyQuestion, RelationDataset
from gfkanalogy.embeddings import EmbeddingTable
from gfkanalogy.evaluation import EvalConfig, dimension_sweep, evaluate

SCIPY_SUBMODULES = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")


def _analogy_inputs() -> tuple[EmbeddingTable, RelationDataset]:
    """Two relations of 7 pairs in R^12: tails are heads with coordinates cycled, plus noise."""
    rng = np.random.default_rng(5)
    words, rows = [], []
    dataset = RelationDataset(source="hand-built")
    for r, shift in enumerate((1, 3)):
        heads = rng.standard_normal((7, 12))
        tails = np.roll(heads, shift, axis=1) + 0.05 * rng.standard_normal((7, 12))
        head_words = [f"r{r}h{i}" for i in range(7)]
        tail_words = [f"r{r}t{i}" for i in range(7)]
        words += head_words + tail_words
        rows += [heads, tails]
        for i in range(7):
            for j in range(7):
                if i != j:
                    dataset.add(AnalogyQuestion(head_words[i], tail_words[i], head_words[j],
                                                tail_words[j], f"cycle-{shift}"))
    words += [f"noise{i}" for i in range(30)]
    rows.append(rng.standard_normal((30, 12)))
    return EmbeddingTable(words, np.vstack(rows)), dataset


def _eval_and_sweep() -> dict:
    """Per-measure (questions, micro accuracy) of ``evaluate``, and the sweep's cells."""
    table, dataset = _analogy_inputs()
    config = EvalConfig(measure="all", subspace_dim=2, holdout="answer")
    reports = evaluate(dataset, table, config)
    return {
        "evaluate": {m: [r.n_questions, r.micro_accuracy] for m, r in reports.items()},
        "sweep": [list(cell) for cell in dimension_sweep(dataset, table, config, [1, 2, 3])],
    }


def _dense_svds() -> tuple[dict[str, list[str]], dict[str, np.ndarray]]:
    """``truncated_svd_embed`` on an ndarray, then on the same rows as a sparse matrix: what each loaded, and its vectors."""
    rows = np.random.default_rng(3).standard_normal((30, 20))
    words = [f"w{i}" for i in range(30)]
    out = {"dense_svd.ndarray": ppmi.truncated_svd_embed(rows, words, dim=4).vectors}
    loaded = {"ndarray": _loaded()}
    import scipy.sparse

    out["dense_svd.sparse"] = ppmi.truncated_svd_embed(scipy.sparse.csr_matrix(rows), words, dim=4).vectors
    loaded["sparse"] = _loaded()
    return loaded, out


def _ppmi_and_synth() -> dict[str, np.ndarray]:
    """Every array the PPMI pipeline and the synthetic generator produce on small inputs."""
    rng = np.random.default_rng(2)
    types = [f"w{i}" for i in range(40)]
    docs = [rng.choice(types, size=n, p=np.arange(40, 0, -1) / 820).tolist() for n in (700, 500, 300)]
    counts = ppmi.build_cooccurrence(docs, win=2)
    pmi = ppmi.ppmi_transform(counts)
    out = {
        "words": np.array(counts.words),
        "contexts": np.array(list(counts.context_vocab)),
        "total": np.array(counts.total),
        "counts.data": counts.counts.data, "counts.indices": counts.counts.indices,
        "counts.indptr": counts.counts.indptr,
        "ppmi.data": pmi.data, "ppmi.indices": pmi.indices, "ppmi.indptr": pmi.indptr,
        "svd.dense": ppmi.truncated_svd_embed(pmi, counts.words, dim=5).vectors,
    }
    limit = ppmi.DENSE_SVD_LIMIT
    ppmi.DENSE_SVD_LIMIT = 10  # the same 40-word matrix through the ARPACK eigensolve
    try:
        out["svd.arpack"] = ppmi.truncated_svd_embed(pmi, counts.words, dim=5).vectors
    finally:
        ppmi.DENSE_SVD_LIMIT = limit
    table, dataset = synth.generate(synth.SynthSpec(n_relations=2, pairs_per_relation=5, dim=8, seed=3))
    out["synth.words"] = np.array(table.words)
    out["synth.vectors"] = table.vectors
    out["synth.questions"] = np.array(
        [(*q.tokens(), q.relation) for qs in dataset.relations.values() for q in qs])
    return out


def _loaded() -> list[str]:
    return [m for m in SCIPY_SUBMODULES if m in sys.modules]


def _child(out_dir: str) -> None:
    """The fresh interpreter's side: report loaded modules and results to ``out_dir``."""
    import gfkanalogy.cli  # noqa: F401

    report = {"after_import": _loaded(), **_eval_and_sweep(), "after_eval": _loaded()}
    report["after_dense_svd"], arrays = _dense_svds()
    np.savez(os.path.join(out_dir, "arrays.npz"), **arrays, **_ppmi_and_synth())
    report["after_ppmi_and_synth"] = _loaded()
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f)


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh-interpreter")
    paths = [str(Path(gfkanalogy.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, {__name__} as t; t._child(sys.argv[1])"
    run = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    with open(out / "report.json") as f:
        report = json.load(f)
    with np.load(out / "arrays.npz") as arrays:
        return report, dict(arrays)


def test_eval_and_sweep_load_no_scipy_submodule(child):
    report, _ = child
    assert report["after_import"] == []
    assert report["after_eval"] == []
    # and evaluation did run: every measure answered all 84 questions
    assert {m: n for m, (n, _) in report["evaluate"].items()} == dict.fromkeys(
        ("CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL"), 84)
    assert len(report["sweep"]) == 3 * 4


def test_dense_svd_loads_no_scipy_linear_algebra(child):
    report, arrays = child
    # an ndarray loads no scipy module; a sparse matrix under DENSE_SVD_LIMIT only scipy.sparse
    assert report["after_dense_svd"] == {"ndarray": [], "sparse": ["scipy.sparse"]}
    # the same SVD either way: the sparse input is densified before it
    assert arrays["dense_svd.ndarray"].shape == (30, 4)
    assert arrays["dense_svd.ndarray"].tobytes() == arrays["dense_svd.sparse"].tobytes()


def test_ppmi_and_synth_load_scipy_when_called(child):
    report, _ = child
    assert report["after_ppmi_and_synth"] == list(SCIPY_SUBMODULES)


def test_results_match_this_process_bit_for_bit(child):
    report, arrays = child
    here = json.loads(json.dumps(_eval_and_sweep()))
    assert {k: report[k] for k in here} == here
    expected = {**_dense_svds()[1], **_ppmi_and_synth()}
    assert arrays.keys() == expected.keys()
    for name, value in expected.items():
        got = arrays[name]
        assert (got.dtype, got.shape) == (value.dtype, value.shape), name
        assert got.tobytes() == value.tobytes(), name


def test_ppmi_annotations_resolve_through_its_type_checking_imports():
    """A type checker takes ppmi's ``if TYPE_CHECKING:`` imports; every annotation resolves with them."""
    import scipy.sparse

    tree = ast.parse(Path(ppmi.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING")
    names: dict = {}
    exec(compile(ast.Module(block.body, type_ignores=[]), ppmi.__file__, "exec"), names)
    hints = {name: typing.get_type_hints(obj, localns=names)
             for name, obj in vars(ppmi).items()
             if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == ppmi.__name__}
    assert hints["CooccurrenceCounts"]["counts"] is scipy.sparse.csr_matrix
    assert hints["ppmi_transform"]["return"] is scipy.sparse.csr_matrix
    assert hints["truncated_svd_embed"]["matrix"] == scipy.sparse.spmatrix | np.ndarray


# What turns row sets into exact ranks: the error model, the bands and the float64 reference.
SCORER_INTERNALS = ("_Slab", "_band", "_gold_ranks", "_add_tau", "_mul_bound", "_row_terms", "_margin",
                    "_add_split", "_mul_split", "_project_rows", "_targets", "_mul_reference", "_cosines")


def _source_names(module) -> tuple[set[str], set[str]]:
    """(names, imported modules) of a module's source: every identifier, attribute and imported name,
    and every module it imports, at any depth, relative ones by their dotted tail."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module:
                modules.add(node.module)
            else:  # from . import x imports the module x
                modules.update(alias.name for alias in node.names)
    return names, modules


def test_evaluation_reaches_the_scorer_through_its_interface():
    from gfkanalogy import evaluation

    names, _ = _source_names(evaluation)
    assert names.isdisjoint(SCORER_INTERNALS), sorted(names.intersection(SCORER_INTERNALS))
    from gfkanalogy import scoring

    # each internal is defined in the scoring module alone (_cosines as a _Scorer method),
    # and evaluation does not re-export it
    for name in SCORER_INTERNALS[:-1]:
        assert hasattr(scoring, name) and not hasattr(evaluation, name), name
    for name in ("_CHUNK_ELEMS", "_RHO_CAP", "_gamma"):
        assert not hasattr(evaluation, name), name


def test_evaluation_makes_no_kernel_rows():
    """_Scorer.of_kernels alone projects the vocabulary by a kernel and reads its f lam_sqrt."""
    from gfkanalogy import evaluation

    names, _ = _source_names(evaluation)
    assert names.isdisjoint({"project", "projection"}), sorted(names.intersection({"project", "projection"}))


def test_scoring_imports_neither_evaluation_nor_scipy():
    from gfkanalogy import scoring

    _, modules = _source_names(scoring)
    assert not any(m.split(".")[0] == "scipy" or m.split(".")[-1] == "evaluation" for m in modules), modules
