"""Write one workload's input files from its seed.

    python3 perfbench/generate.py --workload analogy-vocab --seed 3 --out DIR

The benchmark runs this in its own process, so neither its time nor its
memory counts against the workload process. Analogy workloads get an
embedding text file (synthetic rotation relations from ``synth.generate``
followed by unit-norm Gaussian distractor words) and a Google-format question
file. The corpus workload gets a blank-line-separated Zipf corpus. Each
directory also gets ``inputs.json`` recording the input sizes and the reason
the workload exists. The same seed always writes the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from workloads import Workload, get_workload

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gfkanalogy.datasets import write_google  # noqa: E402
from gfkanalogy.synth import SynthSpec, generate  # noqa: E402

EMBEDDINGS = "embeddings.txt"
QUESTIONS = "questions.txt"
CORPUS = "corpus.txt"
INPUTS = "inputs.json"
# Nine significant digits: float32 precision, as published vector files carry.
VALUE_FORMAT = "%.9g"
CORPUS_LINE = 20
# Token frequency falls as 1/rank, which leaves about 7k of the 30k types at
# min-count 5 in a 300k-token corpus: above the dense-SVD limit of 5000 words.
ZIPF_EXPONENT = 1.0


def expected_kernels(w: Workload, dataset) -> int:
    """Kernels evaluate builds: one per distinct holdout exclusion set per relation."""
    per_dim = 0
    for questions in dataset.relations.values():
        if w.holdout == "answer":
            per_dim += len({q.y for q in questions})
        else:
            per_dim += len({frozenset(q.tokens()) for q in questions})
    return per_dim * max(1, len(w.dims))


def write_analogy(w: Workload, seed: int, out: str) -> dict:
    table, dataset = generate(SynthSpec(
        n_relations=w.n_relations, pairs_per_relation=w.pairs_per_relation,
        dim=w.dim, seed=seed,
    ))
    rng = np.random.default_rng([seed, 1])
    noise = rng.standard_normal((w.distractors, w.dim))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    words = table.words + [f"d{i}" for i in range(w.distractors)]
    vectors = np.vstack([table.vectors, noise])
    row_format = " ".join([VALUE_FORMAT] * w.dim)
    emb_path = os.path.join(out, EMBEDDINGS)
    with open(emb_path, "w", encoding="utf-8") as f:
        f.write(f"{len(words)} {w.dim}\n")
        for word, row in zip(words, vectors):
            f.write(word + " " + row_format % tuple(row) + "\n")
    q_path = os.path.join(out, QUESTIONS)
    write_google(dataset, q_path)
    uses_kernels = w.measure == "all" or "gfk" in w.measure.lower()
    return {
        "vocab": len(words),
        "dim": w.dim,
        "relations": len(dataset.relations),
        "questions": dataset.n_questions(),
        "kernels_expected": expected_kernels(w, dataset) if uses_kernels else 0,
        "file_bytes": os.path.getsize(emb_path) + os.path.getsize(q_path),
    }


def write_corpus(w: Workload, seed: int, out: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    p = np.arange(1, w.types + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    ids = rng.choice(w.types, size=w.tokens, p=p / p.sum())
    path = os.path.join(out, CORPUS)
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, w.tokens, w.doc_len):
            doc = ids[start : start + w.doc_len]
            for k in range(0, len(doc), CORPUS_LINE):
                f.write(" ".join(f"w{i}" for i in doc[k : k + CORPUS_LINE]) + "\n")
            f.write("\n")
    return {
        "tokens": w.tokens,
        "types_drawn": int(np.unique(ids).size),
        "documents": -(-w.tokens // w.doc_len),
        "file_bytes": os.path.getsize(path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    w = get_workload(args.workload, args.tiny)
    os.makedirs(args.out, exist_ok=True)
    sizes = write_corpus(w, args.seed, args.out) if w.kind == "ppmi" else write_analogy(
        w, args.seed, args.out)
    record = {"workload": w.name, "seed": args.seed, "tiny": args.tiny, "why": w.why, **sizes}
    with open(os.path.join(args.out, INPUTS), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
