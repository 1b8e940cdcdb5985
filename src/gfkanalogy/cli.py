"""Command-line interface: build-ppmi, eval, angles, sweep, synth."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings

import numpy as np

from .datasets import parse_google, parse_msr, write_google
from .embeddings import load_text_embeddings, save_text_embeddings
from .evaluation import (
    EvalConfig,
    _resolve_relation,
    _slot_pool,
    dimension_sweep,
    evaluate,
    write_report_csv,
    write_sweep_csv,
)
from .grassmann import principal_angles, row_spectrum
from .ppmi import build_cooccurrence, ppmi_transform, read_corpus, truncated_svd_embed
from .synth import SynthSpec, generate


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _parse_dims(spec: str) -> list[int]:
    """Dimension lists: '20:200:20' (inclusive stop), '1:40', or '2,4,8'."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError(f"bad dimension range {spec!r}")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad dimension range {spec!r}") from None
        if step < 1 or start < 1 or stop < start:
            raise argparse.ArgumentTypeError(f"bad dimension range {spec!r}")
        return list(range(start, stop + 1, step))
    try:
        dims = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {spec!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad dimension list {spec!r}")
    return dims


def _refuse_input_as_output(out, *inputs):
    """Raise ValueError when ``out`` is the same file as one of ``inputs``."""
    for path in inputs:
        with contextlib.suppress(OSError):  # a missing file is no input to protect
            if os.path.samefile(out, path):
                raise ValueError(f"--out {out} is the input file {path}; refusing to overwrite it")


@contextlib.contextmanager
def _output(path, *inputs):
    """The file at path, opened for writing, or stdout when no path is given.

    A path that is one of ``inputs`` is refused before anything is opened.
    """
    if not path:
        yield sys.stdout
        return
    _refuse_input_as_output(path, *inputs)
    with open(path, "w", encoding="utf-8") as f:
        yield f


def _load_dataset(args):
    if args.dataset_format == "google":
        return parse_google(args.dataset)
    return parse_msr(args.dataset, tag_column=args.msr_tag_col)


def _add_dataset_flags(p):
    p.add_argument("--dataset", required=True, help="analogy question file")
    p.add_argument("--dataset-format", choices=("google", "msr"), default="google")
    p.add_argument("--msr-tag-col", type=int, default=4,
                   help="0-based tag column in the MSR format (default 4)")


def _add_embedding_flags(p):
    p.add_argument("--embeddings", required=True, help="text embedding file")
    p.add_argument("--normalize", type=_parse_bool, default=True, metavar="BOOL",
                   help="unit-normalize rows on load (default true)")


def _add_eval_flags(p):
    p.add_argument("--measure", default="all",
                   help="CosADD, CosMUL, GFKCosADD, GFKCosMUL, a comma list, or 'all'")
    p.add_argument("--subspace-dim", type=int, default=40)
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--holdout", choices=("none", "answer", "question"), default="answer")
    p.add_argument("--exclude-inputs", type=_parse_bool, default=True, metavar="BOOL")
    p.add_argument("--shift-cosmul", type=_parse_bool, default=True, metavar="BOOL",
                   help="shift cosines to (c+1)/2 inside the multiplicative rule")
    p.add_argument("--center", type=_parse_bool, default=False, metavar="BOOL",
                   help="mean-center word pools before extracting subspaces")


def _config_from_args(args) -> EvalConfig:
    return EvalConfig(
        measure=args.measure,
        subspace_dim=args.subspace_dim,
        epsilon=args.epsilon,
        holdout=args.holdout,
        exclude_inputs=args.exclude_inputs,
        shift_cosines=args.shift_cosmul,
        center_subspaces=args.center,
    )


def cmd_build_ppmi(args) -> int:
    # a bad --out fails before the corpus is read; appending truncates nothing
    _refuse_input_as_output(args.out, args.corpus)
    open(args.out, "a").close()
    docs = read_corpus(args.corpus)
    counts = build_cooccurrence(
        docs, win=args.window, positional=args.positional, min_count=args.min_count
    )
    ppmi = ppmi_transform(counts)
    table = truncated_svd_embed(ppmi, counts.words, args.dim, args.eigen_weight)
    save_text_embeddings(table, args.out)
    print(f"vocab={len(table)} dim={table.dim} contexts={len(counts.context_vocab)} "
          f"count_nnz={counts.counts.nnz} ppmi_nnz={ppmi.nnz} total_pairs={counts.total}")
    return 0


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    # opened first, so a bad --out fails before the run
    with _output(args.out, args.embeddings, args.dataset) as f:
        table = load_text_embeddings(args.embeddings, normalize=args.normalize)
        dataset = _load_dataset(args)
        reports = evaluate(dataset, table, config)
        extras = {"embeddings": args.embeddings, "dataset": args.dataset}
        write_report_csv(reports, config, f, **extras)
    summary_out = sys.stdout if args.out else sys.stderr
    for measure, report in reports.items():
        if report.n_questions:
            print(
                f"{measure}: micro_accuracy={report.micro_accuracy:.4f} "
                f"micro_avg_rank={report.micro_average_rank:.2f} "
                f"n={report.n_questions} oov={report.n_oov}",
                file=summary_out,
            )
        else:
            print(f"{measure}: no questions evaluated", file=summary_out)
    return 0


def cmd_angles(args) -> int:
    # every argument is checked and --out opened before the embeddings load
    dataset = _load_dataset(args)
    if args.relation not in dataset.relations:
        names = ", ".join(dataset.relation_names())
        raise ValueError(f"unknown relation {args.relation!r}; choose from: {names}")
    pair_names = [p.strip().upper() for p in args.pairs.split(",") if p.strip()]
    for p in pair_names:
        if p not in ("AX", "AB"):
            raise ValueError(f"unsupported pair {p!r}; choose from AX, AB")

    with _output(args.out, args.embeddings, args.dataset) as out:
        table = load_text_embeddings(args.embeddings, normalize=args.normalize)
        resolved, _ = _resolve_relation(dataset.relations[args.relation], table)
        # the distinct a, b and x words (question slots 0, 1, 2) of the questions evaluate scores
        pools = {name: _slot_pool(resolved, (slot,)) for slot, name in enumerate("ABX")}
        dims_spec = ",".join(str(d) for d in args.dims)
        out.write(
            f"# relation={args.relation} pairs={','.join(pair_names)} "
            f"dims={dims_spec} center={args.center} normalize={args.normalize} "
            f"embeddings={args.embeddings} dataset={args.dataset}\n"
        )
        out.write("pair,subspace_dim,angle_index,theta_degrees\n")
        # one SVD per pool; each d takes its span with the checks of subspace_from_rows
        spectra = {}

        def subspace(name, d):
            if name not in spectra:
                spectra[name] = row_spectrum(table.vectors[pools[name]], args.center)
            return spectra[name].subspace(d)

        for pair in pair_names:
            left, right = pair
            for d in args.dims:
                try:
                    theta = principal_angles(subspace(left, d), subspace(right, d)).theta
                except ValueError as err:
                    print(f"skipping {pair} d={d}: {err}", file=sys.stderr)
                    continue
                for i, t in enumerate(np.degrees(theta), start=1):
                    out.write(f"{pair},{d},{i},{t:.6f}\n")
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    with _output(args.out, args.embeddings, args.dataset) as f:
        table = load_text_embeddings(args.embeddings, normalize=args.normalize)
        dataset = _load_dataset(args)
        rows = dimension_sweep(dataset, table, config, args.dims)
        extras = {"embeddings": args.embeddings, "dataset": args.dataset,
                  "dims": ",".join(str(d) for d in args.dims)}
        write_sweep_csv(rows, config, f, **extras)
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_relations=args.n_relations,
        pairs_per_relation=args.pairs_per_relation,
        dim=args.dim,
        noise=args.noise,
        seed=args.seed,
    )
    table, dataset = generate(spec)
    save_text_embeddings(table, args.out_embeddings)
    write_google(dataset, args.out_dataset)
    print(
        f"wrote {len(table)} vectors (dim={table.dim}) to {args.out_embeddings}; "
        f"{dataset.n_questions()} questions in {len(dataset.relations)} relations "
        f"to {args.out_dataset}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfkanalogy",
        description="Learn relation-specific geodesic flow kernels between "
                    "word-vector subspaces and evaluate analogy questions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ppmi", help="train PPMI+SVD embeddings from a text corpus")
    p.add_argument("--corpus", required=True, help="whitespace-tokenized UTF-8 text")
    p.add_argument("--out", required=True, help="output embedding file")
    p.add_argument("--window", type=int, default=2, help="context window size (common presets: 2, 5)")
    p.add_argument("--positional", type=_parse_bool, default=False, metavar="BOOL")
    p.add_argument("--min-count", type=int, default=0)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--eigen-weight", type=float, default=0.5,
                   help="exponent on singular values (default 0.5)")
    p.set_defaults(func=cmd_build_ppmi)

    p = sub.add_parser("eval", help="run the analogy benchmark")
    _add_embedding_flags(p)
    _add_dataset_flags(p)
    _add_eval_flags(p)
    p.add_argument("--out", help="report CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("angles", help="principal-angle curves for one relation's word pools")
    _add_embedding_flags(p)
    _add_dataset_flags(p)
    p.add_argument("--relation", required=True)
    p.add_argument("--pairs", default="AX,AB", help="comma list from {AX, AB}")
    p.add_argument("--dims", type=_parse_dims, default=_parse_dims("1:40"),
                   help="subspace dimensions, e.g. 1:40 or 2,4,8")
    p.add_argument("--center", type=_parse_bool, default=False, metavar="BOOL")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("sweep", help="micro accuracy across subspace dimensions")
    _add_embedding_flags(p)
    _add_dataset_flags(p)
    _add_eval_flags(p)
    p.add_argument("--dims", type=_parse_dims, required=True, help="e.g. 20:200:20")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate the synthetic rotation benchmark")
    p.add_argument("--out-embeddings", required=True)
    p.add_argument("--out-dataset", required=True)
    p.add_argument("--n-relations", type=int, default=3)
    p.add_argument("--pairs-per-relation", type=int, default=40)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as one 'warning: <message>' line, without source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = warnings.showwarning
    warnings.showwarning = _show_warning
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        warnings.showwarning = previous


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
