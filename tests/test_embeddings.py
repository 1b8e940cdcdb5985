import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy import embeddings
from gfkanalogy.embeddings import (
    UNIT_NORM_TOL,
    EmbeddingTable,
    load_text_embeddings,
    save_text_embeddings,
)


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoad:
    def test_basic_readback(self, tmp_path):
        table = load_text_embeddings(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("a"), [1, 0, 0])
        np.testing.assert_array_equal(table.lookup("b"), [0, 1, 0])

    def test_normalize_leaves_unit_rows_untouched(self, tmp_path):
        path = write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        plain = load_text_embeddings(path)
        normed = load_text_embeddings(path, normalize=True)
        np.testing.assert_array_equal(plain.vectors, normed.vectors)

    def test_normalize_3_4_5(self, tmp_path):
        table = load_text_embeddings(write(tmp_path, "1 2\na 3 4\n"), normalize=True)
        assert table.vectors.dtype == np.float32
        np.testing.assert_array_equal(table.lookup("a"), np.array([0.6, 0.8], dtype=np.float32))

    def test_scientific_notation_accepted(self, tmp_path):
        table = load_text_embeddings(write(tmp_path, "1 2\na 1.5625e-2 2.5E+1\n"))
        np.testing.assert_array_equal(table.lookup("a"), [0.015625, 25.0])

    def test_malformed_header(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_text_embeddings(write(tmp_path, "banana\na 1 2\n"))
        with pytest.raises(ValueError, match="line 1"):
            load_text_embeddings(write(tmp_path, "2\na 1 2\n"))

    def test_dimension_mismatch_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 3"):
            load_text_embeddings(write(tmp_path, "2 3\na 1 0 0\nb 0 1\n"))

    def test_non_numeric_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_text_embeddings(write(tmp_path, "1 2\na x y\n"))

    def test_non_finite_reports_line(self, tmp_path):
        for value in ("nan", "inf", "-Infinity"):
            text = f"3 2\na 1 0\nb 0 1\nd {value} 1\n"
            with pytest.raises(ValueError, match="line 4: non-finite value"):
                load_text_embeddings(write(tmp_path, text))

    def test_value_past_the_float32_range_reports_line(self, tmp_path):
        # the midpoint of the largest float32 and 2^128 rounds up to inf; just below it, down
        fits = 3.4028235677973362e38
        assert np.float32(fits) == np.finfo(np.float32).max
        table = load_text_embeddings(write(tmp_path, f"2 2\na 1 0\nb {-fits!r} 1\n"))
        assert table.lookup("b")[0] == -np.finfo(np.float32).max
        for value in ("3.4028235677973366e38", "-1e39", "1e300"):
            path = write(tmp_path, f"3 2\na 1 0\nb 0 1\nd 1 {value}\n")
            for normalize in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="line 4: value past the float32 range"):
                        load_text_embeddings(path, normalize=normalize)

    def test_duplicate_keeps_first_and_warns(self, tmp_path):
        path = write(tmp_path, "2 2\na 1 2\na 3 4\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_text_embeddings(path)
        assert len(table) == 1
        np.testing.assert_array_equal(table.lookup("a"), [1, 2])

    def test_zero_vector_dropped_with_warning(self, tmp_path):
        path = write(tmp_path, "2 2\na 0 0\nb 1 0\n")
        with pytest.warns(UserWarning) as caught:
            table = load_text_embeddings(path)
        # dropping the row leaves fewer words than the header declares
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "zero vector" in messages[0] and "declares 2 words, loaded 1" in messages[1]
        assert "a" not in table
        assert "b" in table

    def test_header_count_mismatch_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="declares 5"):
            load_text_embeddings(write(tmp_path, "5 2\na 1 2\n"))


def outcome(load, path):
    """The words and vector bytes, or the ValueError, plus every warning in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load(path)
        except ValueError as err:
            result = ("error", type(err), str(err))
        else:
            result = ("table", table.words, table.vectors.shape, table.vectors.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


def load_line_by_line(path, normalize=False):
    """The per-line reference: the loader with every block declined by its block parse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "_parse_block", lambda *args: None)
        return load_text_embeddings(path, normalize=normalize)


def declined_blocks(path, normalize=False):
    """Whether the block parse declined each block of ``path``, in the order they are read."""
    declined = []
    parse = embeddings._parse_block

    def spy(*args):
        parsed = parse(*args)
        declined.append(parsed is None)
        return parsed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "_parse_block", spy)
        outcome(lambda p: load_text_embeddings(p, normalize=normalize), path)
    return declined


def assert_matches_line_loop(path):
    for normalize in (False, True):
        load = lambda p: load_text_embeddings(p, normalize=normalize)
        lines = lambda p: load_line_by_line(p, normalize=normalize)
        assert outcome(load, path) == outcome(lines, path)


@pytest.fixture(scope="class", params=[2, 6], ids=["block-2", "block-6"])
def small_blocks(request):
    """Patch the loader's block size (in values) down, so small files span several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "_NORM_BLOCK_ELEMS", request.param)
        yield


# whitespace inside a line that str.split() splits on but str.splitlines() would break at
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"]
VALUES = ["1", "-2.5", "0", "-0.0", "1e-3", "0.1", "1_0", "\uff11", "nan", "inf",
          "-Infinity", "x", "1\x00", "+.5", "0x1p3"]


@st.composite
def embedding_files(draw, regular):
    """File text: a header, then rows of words and values, blank lines and endings mixed.

    ``regular`` files have a correct header and distinct words with finite,
    non-zero rows of exactly ``dim`` values.
    """
    dim = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    if regular:
        n = draw(st.integers(1, 6))
        lines = []
        for i in range(n):
            row = draw(st.lists(finite, min_size=dim, max_size=dim)
                       .filter(lambda r: any(float(v) for v in r)))
            lines.append(f"w{i} " + " ".join(row))
        lines += draw(st.lists(st.sampled_from(["", " \t "]), max_size=2))
        lines = draw(st.permutations(lines))
        header = f"{n} {dim}"
    else:
        value = st.one_of(finite, st.sampled_from(VALUES))
        row = st.tuples(
            st.sampled_from(["a", "b", "Cat", "\u00e9", "1"]),
            st.lists(value, min_size=max(dim - 1, 0), max_size=dim + 1),
            st.lists(st.sampled_from(SEPARATORS), min_size=dim + 1, max_size=dim + 1),
        ).map(lambda t: t[0] + "".join(s + v for s, v in zip(t[2], t[1])))
        line = st.one_of(row, st.sampled_from(["", " ", "\t \t", "a", "b ", "a 0 0 0 0"]))
        lines = draw(st.lists(line, max_size=6))
        header = draw(st.sampled_from([f"{len(lines)} {dim}", f"{len(lines) - 1} {dim}",
                                       f"2 {dim}", f"{dim}", "x 2", f"-1 {dim}", "2 0", ""]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    last = draw(st.sampled_from(["", ending]))
    return ending.join([header] + lines) + last


class TestLoadMatchesLineLoop:
    """The public loader against the per-line reading it gives a declined block, on any file."""

    @given(embedding_files(regular=False))
    @settings(max_examples=400, deadline=None)
    def test_irregular_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_line_loop(str(path))

    @given(embedding_files(regular=True))
    @settings(max_examples=200, deadline=None)
    def test_regular_files_take_the_array_path(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("emb") / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_text_embeddings(str(path))
        assert not any(declined_blocks(str(path)))
        assert_matches_line_loop(str(path))

    def test_saved_table_is_bit_identical(self, tmp_path):
        vecs = (np.random.default_rng(5).standard_normal((50, 7)) * np.logspace(-37, 37, 7)).astype(np.float32)
        table = EmbeddingTable([f"w{i}" for i in range(50)], vecs)
        path = str(tmp_path / "emb.txt")
        save_text_embeddings(table, path)
        assert load_text_embeddings(path).vectors.tobytes() == vecs.tobytes()
        assert not any(declined_blocks(path))
        assert_matches_line_loop(path)

    def test_extra_value_on_a_later_row_reports_line(self, tmp_path):
        # numpy accepts any row width the rows agree on; the header decides
        path = write(tmp_path, "2 3\na 1 0 0\nb 0 1 0 7\n")
        with pytest.raises(ValueError, match="line 3: expected 3 values"):
            load_text_embeddings(path)
        path = write(tmp_path, "2 3\na 1 0 0 7\nb 0 1 0 7\n")
        with pytest.raises(ValueError, match="line 2: expected 3 values"):
            load_text_embeddings(path)

    def test_word_without_values_reports_line(self, tmp_path):
        path = write(tmp_path, "1 2\na 1 2\nb\n")
        with pytest.raises(ValueError, match="line 3: expected 2 values for word 'b', got 0"):
            load_text_embeddings(path)

    def test_form_feed_inside_a_line_is_not_a_line_break(self, tmp_path):
        path = write(tmp_path, "2 1\na 1\x0cb 2\n")
        message = "line 2: expected 1 values for word 'a', got 3"
        with pytest.raises(ValueError, match=message):
            load_line_by_line(path)
        with pytest.raises(ValueError, match=message):
            load_text_embeddings(path)

    def test_header_only_raises_without_other_warnings(self, tmp_path):
        path = write(tmp_path, "3 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no usable embedding rows"):
                load_text_embeddings(path)
        assert caught == []


@pytest.mark.usefixtures("small_blocks")
class TestLoadMatchesLineLoopInSmallBlocks(TestLoadMatchesLineLoop):
    """The same tests with blocks of a few values, so that files span several blocks."""


class TestLaterBlocks:
    """A regular file of 2-row blocks whose fourth block breaks the rules in one way."""

    ROWS = [f"w{i} {i + 1} {-i} 0.5" for i in range(9)]

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_NORM_BLOCK_ELEMS", 6)

    def write_rows(self, tmp_path, row7, count=9):
        rows = self.ROWS[:6] + [row7] + self.ROWS[7:]
        return write(tmp_path, "\n".join([f"{count} 3"] + rows) + "\n")

    def test_regular_file_spans_the_blocks(self, tmp_path):
        path = self.write_rows(tmp_path, self.ROWS[6])
        expected = np.array([[i + 1, -i, 0.5] for i in range(9)], dtype=np.float32)
        assert load_text_embeddings(path).vectors.tobytes() == expected.tobytes()
        words = [f"w{i}" for i in range(9)]
        assert load_text_embeddings(path, normalize=True).vectors.tobytes() == (
            EmbeddingTable(words, expected).normalized().vectors.tobytes()
        )
        assert declined_blocks(path) == [False] * 5
        assert_matches_line_loop(path)

    @pytest.mark.parametrize(
        "row7, message",
        [
            ("w6 7 -6 0.5 1", "line 8: expected 3 values for word 'w6', got 4"),
            ("w6 7 -6", "line 8: expected 3 values for word 'w6', got 2"),
            ("w6", "line 8: expected 3 values for word 'w6', got 0"),
            ("w6 7 -6 3.5e38", "line 8: value past the float32 range"),
            ("w6 7 nan 0.5", "line 8: non-finite value"),
            ("w6 7 x 0.5", "line 8: non-numeric value"),
        ],
    )
    def test_later_block_error_reports_line(self, tmp_path, row7, message):
        path = self.write_rows(tmp_path, row7)
        assert declined_blocks(path) == [False, False, False, True]
        with pytest.raises(ValueError, match=re.escape(message)):
            load_text_embeddings(path)
        assert_matches_line_loop(path)

    @pytest.mark.parametrize(
        "row7, message",
        [
            ("w6 0 0 -0.0", "line 8: dropping zero vector for 'w6'"),
            ("w1 7 -6 0.5", "line 8: duplicate word 'w1', keeping first"),
        ],
    )
    def test_later_block_warns_with_line(self, tmp_path, row7, message):
        path = self.write_rows(tmp_path, row7)
        assert declined_blocks(path) == [False, False, False, True, False]
        with pytest.warns(UserWarning) as caught:
            table = load_text_embeddings(path)
        assert [str(w.message) for w in caught] == [
            f"{path}: {message}", f"{path}: header declares 9 words, loaded 8"
        ]
        assert table.words == [f"w{i}" for i in range(9) if i != 6]
        assert_matches_line_loop(path)

    @pytest.mark.parametrize("count", [8, 10])
    def test_header_count_off_by_one(self, tmp_path, count):
        # the count is only warned about: every block parses, into a table grown or trimmed to 9 rows
        path = self.write_rows(tmp_path, self.ROWS[6], count=count)
        assert not any(declined_blocks(path))
        with pytest.warns(UserWarning, match=f"declares {count} words, loaded 9"):
            load_text_embeddings(path)
        assert_matches_line_loop(path)

    def test_underflowing_norm_is_raised_after_a_later_line_error(self, tmp_path):
        # 1e-200 is non-zero in float64 but its square, and so its norm, is 0
        rows = ["w0 1e-200 1e-200 0"] + self.ROWS[1:6] + ["w6 7 -6 0.5 1"] + self.ROWS[7:]
        path = write(tmp_path, "\n".join(["9 3"] + rows) + "\n")
        with pytest.raises(ValueError, match="line 8: expected 3 values"):
            load_text_embeddings(path, normalize=True)
        assert_matches_line_loop(path)
        path = self.write_rows(tmp_path, "w6 1e-200 0 0")
        with pytest.raises(ValueError, match="cannot normalize zero vector for word 'w6'"):
            load_text_embeddings(path, normalize=True)
        assert load_text_embeddings(path).vectors[6].tobytes() == bytes(12)
        assert_matches_line_loop(path)

    @pytest.mark.parametrize("text", ["100000000000 2\na 1 2\n", "1 100000000000\na 1 2\n",
                                      "100000 100000\na 1 2\n"])
    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_header_past_the_file_size_allocates_nothing(self, tmp_path, text, source):
        # a row takes at least 2 D bytes of text, so these headers declare
        # more than the file holds; the loader must not size a table by them,
        # nor, for a pipe, whose size it cannot know, by the header at all
        path = write(tmp_path, text)
        load_path = path
        if source == "pipe":
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            load_path = f"/dev/fd/{read_end}"
        tracemalloc.start()
        try:
            got = outcome(load_text_embeddings, load_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if source == "pipe":
                os.close(read_end)
        assert peak < 1 << 20, peak
        if source == "pipe":
            # the regular file's table, warnings and errors, under the pipe's name
            assert repr(got) == repr(outcome(load_text_embeddings, path)).replace(path, load_path)
        else:
            assert_matches_line_loop(path)
        if text.startswith("100000000000 2"):
            assert got[0][1] == ["a"]
            assert got[1] == [(UserWarning, f"{load_path}: header declares 100000000000 words, loaded 1")]

    # loads /dev/stdin in blocks of 2 rows, as two_row_blocks does in this process
    PIPE_LOAD = """
import json, sys, warnings
from gfkanalogy import embeddings
embeddings._NORM_BLOCK_ELEMS = 6
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        table = embeddings.load_text_embeddings("/dev/stdin", normalize=sys.argv[1] == "True")
        result = ["table", table.words, table.vectors.tobytes().hex()]
    except ValueError as err:
        result = ["error", str(err)]
print(json.dumps([result, [str(w.message) for w in caught]]))
"""

    @pytest.mark.parametrize(
        "lines, ending, messages",
        [
            (["9 3"] + ROWS, "\n", []),
            # a blank line, a zero row, a repeated word and \r\n endings, in later blocks
            (["10 3"] + ROWS[:3] + [""] + ROWS[3:6] + ["z 0 0 0"] + ROWS[6:] + ["w1 7 -6 0.5"], "\r\n",
             ["line 9: dropping zero vector for 'z'", "line 13: duplicate word 'w1', keeping first",
              "header declares 10 words, loaded 9"]),
            (["9 3"] + ROWS[:6] + ["w6 7 x 0.5"] + ROWS[7:], "\n", ["line 8: non-numeric value"]),
        ],
        ids=["regular", "dirty", "line-error"],
    )
    def test_pipe_is_read_in_one_pass(self, tmp_path, lines, ending, messages):
        # a pipe has no size to bound the header by, and cannot be read twice:
        # it gives the table, warnings and errors that the same bytes in a file give
        data = (ending.join(lines) + ending).encode()
        path = str(tmp_path / "emb.txt")
        Path(path).write_bytes(data)
        src = str(Path(embeddings.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for normalize in (False, True):
            run = subprocess.run([sys.executable, "-c", self.PIPE_LOAD, str(normalize)], input=data,
                                 env=env, capture_output=True, timeout=60, check=True)
            result, caught = outcome(lambda p: load_text_embeddings(p, normalize=normalize), path)
            on_stdin = lambda message: message.replace(path, "/dev/stdin")
            if result[0] == "table":
                expected, errors = ["table", result[1], result[3].hex()], []
            else:
                expected = ["error", on_stdin(result[2])]
                errors = expected[1:]
            warned = [on_stdin(message) for _, message in caught]
            assert json.loads(run.stdout) == [expected, warned]
            assert warned + errors == [f"/dev/stdin: {m}" for m in messages]

    def test_normalized_spans_the_blocks(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((9, 3)) * np.logspace(-3, 3, 9)[:, None]
        vecs[4] /= np.linalg.norm(vecs[4])
        table = EmbeddingTable([f"w{i}" for i in range(9)], vecs)
        blocked = table.normalized().vectors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "_NORM_BLOCK_ELEMS", 1 << 16)
            assert blocked.tobytes() == table.normalized().vectors.tobytes()
        vecs[7] = 0
        with pytest.raises(ValueError, match="zero vector for word 'w7'"):
            EmbeddingTable([f"w{i}" for i in range(9)], vecs).normalized()


class TestLookupAndStack:
    @pytest.fixture
    def table(self):
        return EmbeddingTable(["a", "b"], np.array([[1.0, 0, 0], [0, 1.0, 0]]))

    def test_lookup_absent_is_none(self, table):
        assert table.lookup("zzz") is None

    def test_stack_rows(self, table):
        np.testing.assert_array_equal(
            table.stack_rows(["a", "b"]), [[1, 0, 0], [0, 1, 0]]
        )

    def test_stack_rows_repeats(self, table):
        out = table.stack_rows(["a", "a"])
        np.testing.assert_array_equal(out[0], out[1])

    def test_stack_rows_names_missing_word(self, table):
        with pytest.raises(ValueError, match="zzz"):
            table.stack_rows(["a", "zzz"])

    def test_resolve_case_insensitive_fallback(self):
        table = EmbeddingTable(["Athens", "athens", "b"], np.eye(3))
        assert table.resolve("Athens") == 0
        assert table.resolve("athens") == 1  # exact match wins
        assert table.resolve("ATHENS") == 0  # first case-insensitive hit
        assert table.resolve("zzz") is None

    def test_case_matches_lists_every_variant_in_order(self):
        table = EmbeddingTable(["athens", "b", "ATHENS", "Athens"], np.eye(4))
        for word in ("athens", "Athens", "aThEnS"):
            assert table.case_matches(word).tolist() == [0, 2, 3]
        assert table.case_matches("B").tolist() == [1]
        assert table.case_matches("zzz").size == 0
        assert table.resolve("Athens") == 3  # exact match first
        assert table.resolve("ATHENS") == 2
        assert table.resolve("aTHENS") == 0  # then the first variant

    # mixed case and non-ASCII case pairs: str.lower() maps "SS" to "ss" but
    # leaves "ß", maps "İ" to "i" and a combining dot, "Σ" to "σ" (never "ς"),
    # and the titlecase "ǅ" and the capital "Ǆ" both to "ǆ"
    @given(
        words=st.lists(st.text("aAsSßİiIıΣσςǅǄǆ\u0307", min_size=1, max_size=3), unique=True, min_size=1,
                       max_size=12),
        extra=st.lists(st.text("aAsSßİiIıΣσςǅǄǆ\u0307", min_size=1, max_size=3), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_case_matches_and_resolve_match_a_brute_scan(self, words, extra):
        table = EmbeddingTable(words, np.ones((len(words), 2)))
        variants = [f(w) for w in words + extra for f in (str, str.lower, str.upper, str.swapcase, str.casefold)]
        for query in variants:
            brute = [i for i, w in enumerate(words) if w.lower() == query.lower()]
            assert table.case_matches(query).tolist() == brute, query
            want = words.index(query) if query in words else (brute[0] if brute else None)
            assert table.resolve(query) == want, query
        # only the words that str.lower() changes are in the lowercase index
        assert sorted(i for hits in table._folded.values() for i in hits) == [
            i for i, w in enumerate(words) if w.lower() != w
        ]

    def test_an_all_lowercase_vocabulary_has_an_empty_lowercase_index(self):
        table = EmbeddingTable(["athens", "b", "ß", "σ", "ς", "ǆ"], np.eye(6))
        assert table.case_matches("ATHENS").tolist() == [0]
        assert table.case_matches("ǅ").tolist() == [5]
        assert table.case_matches("Σ").tolist() == [3]
        assert table.case_matches("SS").size == 0
        assert table._folded == {}

    def test_vectors_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 5.0

    def test_duplicate_words_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingTable(["a", "a"], np.eye(2))

    def test_non_finite_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="'d'"):
            EmbeddingTable(["a", "d"], np.array([[1.0, 0.0], [np.nan, 1.0]]))

    def test_value_past_the_float32_range_rejected_in_constructor(self):
        # raised as a named error, not an overflow RuntimeWarning of the cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (1e39, -1e300):
                with pytest.raises(ValueError, match="value past the float32 range in the vector for word 'd'"):
                    EmbeddingTable(["a", "d", "e"], np.array([[1.0, 0.0], [1.0, value], [0.0, 1.0]]))
            table = EmbeddingTable(["a"], np.array([[np.finfo(np.float32).max, -1e-46]]))
        assert table.vectors.dtype == np.float32
        assert table.vectors.tolist() == [[float(np.finfo(np.float32).max), -0.0]]


class TestRoundTripAndNormalize:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((7, 5)) * np.logspace(-8, 8, 5)
        vecs[0, 0] = 0.1  # non-representable decimal
        table = EmbeddingTable([f"w{i}" for i in range(7)], vecs)
        path = str(tmp_path / "emb.txt")
        save_text_embeddings(table, path)
        back = load_text_embeddings(path)
        assert back.words == table.words
        np.testing.assert_array_equal(back.vectors, table.vectors)

    def test_float32_extremes_survive_save_and_load(self, tmp_path):
        f32 = np.finfo(np.float32)
        one = np.float32(1.0)
        values = [f32.max, -f32.max, f32.smallest_subnormal, -f32.smallest_subnormal, -0.0,
                  np.nextafter(one, np.float32(2)), np.nextafter(one, np.float32(0)), one, f32.tiny]
        vecs = np.array([values, values[::-1]], dtype=np.float32)
        table = EmbeddingTable(["a", "b"], vecs)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_text_embeddings(table, str(p1))
        back = load_text_embeddings(str(p1))
        assert back.vectors.tobytes() == vecs.tobytes()  # the same bits, -0.0 and subnormals included
        save_text_embeddings(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_stable(self, tmp_path):
        table = EmbeddingTable(["a"], np.array([[1 / 3, 2 / 7]]))
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_text_embeddings(table, p1)
        save_text_embeddings(load_text_embeddings(p1), p2)
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_save_bytes_match_per_value_format(self, tmp_path):
        f32 = np.finfo(np.float32)
        extremes = [0.1, 1 / 3, -0.0, f32.smallest_subnormal, f32.max, -1e-30]
        vecs = np.array([extremes, extremes[::-1],
                         np.random.default_rng(8).standard_normal(6) * 1e-5], dtype=np.float32)
        table = EmbeddingTable(["a", "b", "c"], vecs)
        path = tmp_path / "emb.txt"
        save_text_embeddings(table, str(path))
        expected = "3 6\n" + "".join(
            word + " " + " ".join(format(v, ".9g") for v in row.tolist()) + "\n"
            for word, row in zip(table.words, vecs)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        back = load_text_embeddings(str(path))
        assert back.vectors.tobytes() == vecs.tobytes()  # bit-exact, -0.0 included

    @pytest.mark.parametrize("bad", ["new york", "", "tab\tword", "trailing "])
    def test_save_rejects_unloadable_word_before_writing(self, tmp_path, bad):
        table = EmbeddingTable(["ok", bad], np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "emb.txt"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            save_text_embeddings(table, str(path))
        assert not path.exists()

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
                min_size=4, max_size=4,
            ).filter(lambda row: any(abs(v) > 1e-6 for v in row)),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_normalize_idempotent_exactly(self, rows):
        table = EmbeddingTable([f"w{i}" for i in range(len(rows))], np.array(rows))
        once = table.normalized()
        twice = once.normalized()
        np.testing.assert_array_equal(once.vectors, twice.vectors)
        # unit rows rounded to float32: their float64 norms are within UNIT_NORM_TOL of 1
        np.testing.assert_allclose(
            np.linalg.norm(once.vectors.astype(np.float64), axis=1), 1.0, rtol=0, atol=UNIT_NORM_TOL
        )

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
                    min_size=4, max_size=4,
                ).filter(lambda row: any(abs(v) > 1e-6 for v in row)),
                st.booleans(),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_normalize_matches_per_row_oracle(self, drawn):
        # the oracle norm is a plain sum of squares: np.linalg.norm(v) on one
        # row takes a BLAS dot, which may differ from a row-wise norm in the last bit
        # the stored rows are float32, each normalized in float64 and rounded once
        norm = lambda v: np.sqrt(np.sum(v * v))
        rows = [np.array(v) / norm(np.array(v)) if unit else np.array(v) for v, unit in drawn]
        rows = [v.astype(np.float32).astype(np.float64) for v in rows]
        table = EmbeddingTable([f"w{i}" for i in range(len(rows))], np.array(rows))
        out = table.normalized().vectors
        for (_, unit), v, got in zip(drawn, rows, out):
            if abs(norm(v) - 1.0) <= UNIT_NORM_TOL:
                assert got.tobytes() == v.astype(np.float32).tobytes()
            else:
                assert not unit
                assert got.tobytes() == (v / norm(v)).astype(np.float32).tobytes()

    def test_normalized_load_keeps_one_copy_of_the_table(self, tmp_path):
        # np.linalg.norm over the whole table squares a copy of it, and
        # dividing into a new array makes another: both are table-sized.
        # Multiples of 1/64 below 8 are float32 values the 9-digit file holds
        # exactly, so the parsed rows are the table's rows.
        vecs = np.random.default_rng(11).integers(-511, 512, (6000, 64)) / 64
        path = str(tmp_path / "emb.txt")
        save_text_embeddings(EmbeddingTable([f"w{i}" for i in range(len(vecs))], vecs), path)
        peaks = {}
        for normalize in (False, True):
            tracemalloc.start()
            try:
                table = load_text_embeddings(path, normalize=normalize)
                peaks[normalize] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert table.vectors.tobytes() == EmbeddingTable(table.words, vecs).normalized().vectors.tobytes()
        assert peaks[True] - peaks[False] < vecs.nbytes / 4

    def test_loads_hold_the_float32_table_and_a_block(self, tmp_path):
        # a 2,000 x 300 table spans 10 blocks; holding the whole float64
        # parse beside the float32 table peaks at over 3x the table's bytes
        vecs = np.random.default_rng(12).integers(-511, 512, (2000, 300)) / 64
        path = str(tmp_path / "emb.txt")
        table = EmbeddingTable([f"w{i}" for i in range(len(vecs))], vecs)
        save_text_embeddings(table, path)
        assert not any(declined_blocks(path))

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / table.vectors.nbytes
            finally:
                tracemalloc.stop()

        for normalize in (False, True):
            assert peak(lambda: load_text_embeddings(path, normalize=normalize)) < 2.0
            assert peak(lambda: load_line_by_line(path, normalize=normalize)) < 2.5
        assert peak(table.normalized) < 2.0

    def test_building_a_table_from_float32_rows_holds_no_table_sized_temporary(self):
        # a finite check over the whole table at once takes a bool per value,
        # a quarter of the float32 table; in row blocks it takes a block
        vecs = np.random.default_rng(13).standard_normal((1000, 1000)).astype(np.float32)
        words = [f"w{i}" for i in range(len(vecs))]
        tracemalloc.start()
        try:
            table = EmbeddingTable(words, vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.vectors.tobytes() == vecs.tobytes()
        assert peak < vecs.nbytes / 8, peak

    def test_the_finite_check_names_the_word_in_any_block(self):
        vecs = np.ones((3 * embeddings._block_rows(8) + 5, 8))
        words = [f"w{i}" for i in range(len(vecs))]
        for i in (0, len(vecs) // 2, len(vecs) - 1):
            bad = vecs.copy()
            bad[i, 3] = np.nan
            with pytest.raises(ValueError, match=f"non-finite value in the vector for word 'w{i}'"):
                EmbeddingTable(words, bad)
            bad[i, 3] = 1e39
            with pytest.raises(ValueError, match=f"value past the float32 range in the vector for word 'w{i}'"):
                EmbeddingTable(words, bad)

    def test_normalize_rejects_zero_rows(self):
        table = EmbeddingTable(["a", "z"], np.array([[1.0, 0], [0, 0]]))
        with pytest.raises(ValueError, match="zero vector"):
            table.normalized()
