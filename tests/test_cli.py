import warnings
from pathlib import Path

import numpy as np
import pytest

from gfkanalogy import cli
from gfkanalogy.cli import _parse_dims, main
from gfkanalogy.embeddings import EmbeddingTable, load_text_embeddings, save_text_embeddings
from gfkanalogy.grassmann import principal_angles, row_spectrum, subspace_from_rows


@pytest.fixture
def toy_corpus(tmp_path):
    rng = np.random.default_rng(0)
    tokens = rng.choice(list("abcdefgh"), size=600).tolist()
    path = tmp_path / "corpus.txt"
    path.write_text(" ".join(tokens) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_files(tmp_path):
    emb = str(tmp_path / "emb.txt")
    data = str(tmp_path / "questions.txt")
    rc = main([
        "synth", "--out-embeddings", emb, "--out-dataset", data,
        "--n-relations", "2", "--pairs-per-relation", "8",
        "--dim", "16", "--noise", "0.05", "--seed", "11",
    ])
    assert rc == 0
    return emb, data


class TestBuildPpmi:
    def test_writes_loadable_embeddings(self, toy_corpus, tmp_path, capsys):
        out = str(tmp_path / "emb.txt")
        rc = main([
            "build-ppmi", "--corpus", toy_corpus, "--out", out,
            "--window", "2", "--positional", "false", "--min-count", "0", "--dim", "5",
        ])
        assert rc == 0
        stats = capsys.readouterr().out
        assert "vocab=8" in stats and "dim=5" in stats
        table = load_text_embeddings(out)
        assert table.dim == 5 and len(table) == 8

    def test_positional_flag(self, toy_corpus, tmp_path):
        out = str(tmp_path / "emb.txt")
        rc = main([
            "build-ppmi", "--corpus", toy_corpus, "--out", out,
            "--window", "5", "--positional", "true", "--dim", "4",
        ])
        assert rc == 0
        assert load_text_embeddings(out).dim == 4

    def test_unwritable_out_fails_before_counting(self, toy_corpus, tmp_path,
                                                  monkeypatch, capsys):
        calls = []
        for name in ("read_corpus", "build_cooccurrence"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        rc = main([
            "build-ppmi", "--corpus", toy_corpus,
            "--out", str(tmp_path / "missing" / "emb.txt"), "--dim", "4",
        ])
        assert rc == 2 and calls == []
        assert "No such file" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_out_that_is_the_corpus_is_refused(self, toy_corpus, capsys):
        before = Path(toy_corpus).read_bytes()
        rc = main(["build-ppmi", "--corpus", toy_corpus, "--out", toy_corpus, "--dim", "4"])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert Path(toy_corpus).read_bytes() == before

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        rc = main([
            "build-ppmi", "--corpus", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "emb.txt"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        args = lambda suffix: [
            "synth",
            "--out-embeddings", str(tmp_path / f"e{suffix}.txt"),
            "--out-dataset", str(tmp_path / f"d{suffix}.txt"),
            "--n-relations", "1", "--pairs-per-relation", "5",
            "--dim", "10", "--seed", "7",
        ]
        assert main(args("1")) == 0
        assert main(args("2")) == 0
        assert (tmp_path / "e1.txt").read_bytes() == (tmp_path / "e2.txt").read_bytes()
        assert (tmp_path / "d1.txt").read_bytes() == (tmp_path / "d2.txt").read_bytes()

    def test_invalid_flags_exit_2(self, tmp_path, capsys):
        rc = main([
            "synth", "--out-embeddings", str(tmp_path / "e.txt"),
            "--out-dataset", str(tmp_path / "d.txt"), "--noise", "-1",
        ])
        assert rc == 2
        assert "noise" in capsys.readouterr().err


class TestEval:
    def test_all_measures_report(self, synth_files, tmp_path, capsys):
        emb, data = synth_files
        out = str(tmp_path / "report.csv")
        rc = main([
            "eval", "--embeddings", emb, "--dataset", data,
            "--measure", "all", "--subspace-dim", "4", "--epsilon", "0.001",
            "--holdout", "answer", "--out", out,
        ])
        assert rc == 0
        summary = capsys.readouterr().out
        for m in ("CosADD", "CosMUL", "GFKCosADD", "GFKCosMUL"):
            assert f"{m}: micro_accuracy=" in summary
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("# measure=all")
        assert lines[1] == "relation,n,measure,accuracy,avg_rank"
        micro = [l for l in lines if l.startswith("micro,")]
        assert len(micro) == 4

    def test_single_measure_to_stdout(self, synth_files, capsys):
        emb, data = synth_files
        rc = main([
            "eval", "--embeddings", emb, "--dataset", data,
            "--measure", "gfkcosmul", "--subspace-dim", "4", "--holdout", "none",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "relation,n,measure,accuracy,avg_rank" in captured.out
        assert captured.out.count("micro,") == 1
        assert "GFKCosMUL: micro_accuracy=" in captured.err

    def test_subspace_dim_too_large_exits_2(self, synth_files, capsys):
        emb, data = synth_files
        rc = main([
            "eval", "--embeddings", emb, "--dataset", data,
            "--measure", "gfkcosadd", "--subspace-dim", "12",
        ])
        assert rc == 2
        assert "2*d" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, synth_files, tmp_path, capsys, epsilon):
        emb, data = synth_files
        out = tmp_path / "report.csv"
        rc = main([
            "eval", "--embeddings", emb, "--dataset", data, "--measure", "cosmul",
            "--subspace-dim", "4", "--epsilon", epsilon, "--out", str(out),
        ])
        assert rc == 2
        assert f"error: epsilon must be positive and finite, got {epsilon}" in capsys.readouterr().err
        assert not out.exists()

    def test_holdout_flag_switches_protocol(self, synth_files, tmp_path):
        emb, data = synth_files
        outputs = []
        for holdout in ("none", "answer"):
            out = str(tmp_path / f"r_{holdout}.csv")
            rc = main([
                "eval", "--embeddings", emb, "--dataset", data,
                "--measure", "gfkcosadd", "--subspace-dim", "4",
                "--holdout", holdout, "--out", out,
            ])
            assert rc == 0
            outputs.append(Path(out).read_text())
        assert f"holdout=none" in outputs[0] and f"holdout=answer" in outputs[1]

    def test_threads_flag_is_refused(self, synth_files, monkeypatch, capsys):
        # scoring runs on the calling thread; there is no --threads to set
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(a))
        emb, data = synth_files
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--embeddings", emb, "--dataset", data, "--threads", "2"])
        assert exit_.value.code == 2 and calls == []
        assert "--threads" in capsys.readouterr().err

    def test_unwritable_out_fails_before_evaluating(self, synth_files, tmp_path,
                                                    monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda *a, **k: calls.append(a))
        emb, data = synth_files
        rc = main([
            "eval", "--embeddings", emb, "--dataset", data, "--subspace-dim", "4",
            "--out", str(tmp_path / "missing" / "report.csv"),
        ])
        assert rc == 2 and calls == []
        assert "error" in capsys.readouterr().err

    def test_library_warning_is_one_plain_line(self, synth_files, tmp_path, capsys):
        emb, data = synth_files
        lines = Path(emb).read_text(encoding="utf-8").splitlines(keepends=True)
        dup = tmp_path / "dup.txt"
        dup.write_text("".join(lines + [lines[2]]), encoding="utf-8")
        previous = warnings.showwarning
        rc = main(["eval", "--embeddings", str(dup), "--dataset", data, "--subspace-dim", "4"])
        assert rc == 0
        err = capsys.readouterr().err
        word = lines[2].split()[0]
        expected = f"warning: {dup}: line {len(lines) + 1}: duplicate word {word!r}, keeping first"
        assert [l for l in err.splitlines() if "warn" in l.lower()] == [expected]
        assert "embeddings.py" not in err
        assert warnings.showwarning is previous

    @pytest.mark.parametrize("target", ["embeddings", "dataset"])
    def test_out_that_is_an_input_is_refused(self, synth_files, tmp_path, target, capsys):
        emb, data = synth_files
        path = emb if target == "embeddings" else data
        before = Path(path).read_bytes()
        (tmp_path / "sub").mkdir()
        out = path.replace(str(tmp_path), str(tmp_path / "sub" / ".."))  # another spelling
        rc = main(["eval", "--embeddings", emb, "--dataset", data, "--subspace-dim", "4",
                   "--out", out])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert Path(path).read_bytes() == before


class TestAngles:
    def test_angle_csv_in_range(self, synth_files, tmp_path):
        emb, data = synth_files
        out = str(tmp_path / "angles.csv")
        rc = main([
            "angles", "--embeddings", emb, "--dataset", data,
            "--relation", "rotation-0", "--pairs", "AX,AB", "--dims", "1:4",
            "--out", out,
        ])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[1] == "pair,subspace_dim,angle_index,theta_degrees"
        rows = [l.split(",") for l in lines[2:]]
        assert {r[0] for r in rows} == {"AX", "AB"}
        for r in rows:
            assert 0.0 <= float(r[3]) <= 90.0
        # d angles per (pair, d)
        for pair in ("AX", "AB"):
            for d in range(1, 5):
                count = sum(1 for r in rows if r[0] == pair and int(r[1]) == d)
                assert count == d

    def test_unknown_relation_lists_names(self, synth_files, capsys):
        emb, data = synth_files
        rc = main([
            "angles", "--embeddings", emb, "--dataset", data,
            "--relation", "nope", "--dims", "1:2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rotation-0" in err and "rotation-1" in err

    @pytest.mark.parametrize("flags, message", [
        (["--pairs", "AX,XY"], "unsupported pair 'XY'"),
        (["--relation", "nope"], "unknown relation"),
        (["--out", "{missing}"], "No such file"),
    ], ids=["bad-pair", "unknown-relation", "unwritable-out"])
    def test_bad_arguments_fail_before_loading(self, synth_files, tmp_path, monkeypatch,
                                               capsys, flags, message):
        calls = []
        real = cli.load_text_embeddings
        monkeypatch.setattr(cli, "load_text_embeddings",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        emb, data = synth_files
        defaults = {"--relation": "rotation-0", "--pairs": "AX", "--dims": "1:2"}
        defaults.update(zip(flags[::2], flags[1::2]))
        argv = ["angles", "--embeddings", emb, "--dataset", data]
        for flag, value in defaults.items():
            argv += [flag, value.format(missing=tmp_path / "missing" / "angles.csv")]
        assert main(argv) == 2 and calls == []
        assert message in capsys.readouterr().err

    def test_out_that_is_the_dataset_is_refused(self, synth_files, capsys):
        emb, data = synth_files
        before = Path(data).read_bytes()
        rc = main(["angles", "--embeddings", emb, "--dataset", data,
                   "--relation", "rotation-0", "--dims", "1:4", "--out", data])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert Path(data).read_bytes() == before


def write_relation(tmp_path, name, lines, dim=6, n_words=5, seed=5):
    """Random vectors for a1..an, b1..bn, x1..xn, y1..yn, and a one-relation question file."""
    rng = np.random.default_rng(seed)
    words = [f"{c}{i}" for c in "abxy" for i in range(1, n_words + 1)]
    emb = str(tmp_path / "emb.txt")
    save_text_embeddings(EmbeddingTable(words, rng.standard_normal((len(words), dim))), emb)
    data = tmp_path / name
    data.write_text(": r\n" + "".join(line + "\n" for line in lines), encoding="utf-8")
    return emb, str(data)


def run_angles(emb, data, dims, out):
    return main([
        "angles", "--embeddings", emb, "--dataset", data, "--relation", "r",
        "--pairs", "AX,AB", "--dims", dims, "--normalize", "false", "--out", out,
    ])


class TestAnglesPools:
    def test_oov_question_contributes_no_words(self, tmp_path):
        questions = ["a1 b1 x1 y1", "a2 b2 x2 y2", "a3 b3 x3 y3"]
        emb, with_oov = write_relation(tmp_path, "q1.txt", questions + ["a4 b4 x4 unknown"])
        _, without = write_relation(tmp_path, "q2.txt", questions)
        rows = []
        for data in (with_oov, without):
            out = str(tmp_path / "angles.csv")
            assert run_angles(emb, data, "1:3", out) == 0
            rows.append(Path(out).read_text().splitlines()[1:])
        assert rows[0] == rows[1]
        # the in-vocabulary questions' a, x and b words alone give the angles
        table = load_text_embeddings(emb)
        a, x = table.stack_rows(["a1", "a2", "a3"]), table.stack_rows(["x1", "x2", "x3"])
        theta = principal_angles(subspace_from_rows(a, 3), subspace_from_rows(x, 3)).theta
        want = [f"AX,3,{i},{t:.6f}" for i, t in enumerate(np.degrees(theta), start=1)]
        assert [r for r in rows[0] if r.startswith("AX,3,")] == want

    def test_dims_past_pool_size_and_half_dim_are_skipped(self, tmp_path, capsys):
        lines = [f"a{i} b{i} x{i} y{i}" for i in range(1, 6)]
        emb, data = write_relation(tmp_path, "q.txt", lines)
        out = str(tmp_path / "angles.csv")
        assert run_angles(emb, data, "2,3,4,6", out) == 0
        err = capsys.readouterr().err
        table = load_text_embeddings(emb)
        a = table.stack_rows([f"a{i}" for i in range(1, 6)])
        for d, make in ((4, lambda: principal_angles(subspace_from_rows(a, 4),
                                                     subspace_from_rows(a, 4))),
                        (6, lambda: subspace_from_rows(a, 6))):
            with pytest.raises(ValueError) as reason:
                make()
            for pair in ("AX", "AB"):
                assert f"skipping {pair} d={d}: {reason.value}" in err.splitlines()
        rows = [l.split(",")[:2] for l in Path(out).read_text().splitlines()[2:]]
        assert sorted({tuple(r) for r in rows}) == [
            ("AB", "2"), ("AB", "3"), ("AX", "2"), ("AX", "3")]
        assert len(rows) == 2 * (2 + 3)

    def test_one_row_svd_per_pool(self, tmp_path, capsys, monkeypatch):
        lines = [f"a{i} b{i} x{i} y{i}" for i in range(1, 7)]
        emb, data = write_relation(tmp_path, "q.txt", lines, dim=12, n_words=6)
        svds = []

        def counted(rows, *args, **kwargs):
            svds.append(len(rows))
            return row_spectrum(rows, *args, **kwargs)

        monkeypatch.setattr(cli, "row_spectrum", counted)
        out = str(tmp_path / "angles.csv")
        assert run_angles(emb, data, "1:7", out) == 0
        assert svds == [6, 6, 6]  # the A, X and B pools, once each
        # every row and skip line equals one from fresh per-d subspaces
        table = load_text_embeddings(emb)
        pools = {c: table.stack_rows([f"{c.lower()}{i}" for i in range(1, 7)]) for c in "AXB"}
        want, skips = [], []
        for pair in ("AX", "AB"):
            for d in range(1, 8):
                try:
                    theta = principal_angles(
                        *(subspace_from_rows(pools[c], d) for c in pair)).theta
                except ValueError as err:
                    skips.append(f"skipping {pair} d={d}: {err}")
                    continue
                want += [f"{pair},{d},{i},{t:.6f}" for i, t in enumerate(np.degrees(theta), start=1)]
        assert Path(out).read_text().splitlines()[2:] == want
        assert capsys.readouterr().err.splitlines() == skips == [
            f"skipping {pair} d=7: d=7 exceeds min(n=6, D=12)" for pair in ("AX", "AB")]


class TestSweep:
    def test_sweep_csv(self, synth_files, tmp_path):
        emb, data = synth_files
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--embeddings", emb, "--dataset", data,
            "--measure", "all", "--dims", "3:5:2", "--holdout", "none", "--out", out,
        ])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[1] == "d,measure,accuracy"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 2 * 4
        baseline = {r[2] for r in rows if r[1] == "CosADD"}
        assert len(baseline) == 1  # flat across d

    def test_unwritable_out_fails_before_sweeping(self, synth_files, tmp_path,
                                                  monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "dimension_sweep", lambda *a, **k: calls.append(a))
        emb, data = synth_files
        rc = main([
            "sweep", "--embeddings", emb, "--dataset", data, "--dims", "3:5:2",
            "--out", str(tmp_path / "missing" / "sweep.csv"),
        ])
        assert rc == 2 and calls == []
        assert "error" in capsys.readouterr().err

    def test_out_that_is_the_embeddings_is_refused(self, synth_files, capsys):
        emb, data = synth_files
        before = Path(emb).read_bytes()
        rc = main(["sweep", "--embeddings", emb, "--dataset", data, "--dims", "3:5:2",
                   "--out", emb])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert Path(emb).read_bytes() == before


class TestDimsParsing:
    def test_ranges(self):
        assert _parse_dims("20:200:20") == list(range(20, 201, 20))
        assert _parse_dims("1:4") == [1, 2, 3, 4]
        assert _parse_dims("2,4,8") == [2, 4, 8]

    def test_bad_specs(self):
        import argparse

        for bad in ("x", "5:1", "0:4", "1:10:0", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_dims(bad)
