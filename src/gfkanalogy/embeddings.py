"""Dense word embeddings with an ordered vocabulary.

Tables are immutable after construction: the vector array is marked
read-only.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
import warnings

import numpy as np

# A unit row rounded to float32 has a norm within 2^-24 of 1 and its float64
# norm adds about m 2^-53 (m values): twice 2^-24 covers both up to m = 2^27,
# so rows of a normalized table are unit again and normalized() is idempotent.
UNIT_NORM_TOL = float(np.finfo(np.float32).eps)
# The least float64 magnitude that rounds to an infinite float32 (to even, up)
_FLOAT32_LIMIT = 2.0**128 - 2.0**103
# Rows are parsed, normalized and rounded to float32 in blocks of about this
# many values (512 kB of float64), so no load and no normalized() makes a
# float64 copy of the table, and the squared copy that np.linalg.norm makes
# is a block, not the table.
_NORM_BLOCK_ELEMS = 1 << 16


class EmbeddingTable:
    """Vocabulary plus dense D-dimensional word vectors, one row per word.

    Words map to unique row indices in insertion order. Vectors are stored
    as float32, as pretrained word vectors ship: the given values are
    rounded once, and a value past the float32 range raises ValueError
    naming its word. Computations that need float64 (subspaces, principal
    angles, reference scores) upcast the rows they read, exactly.
    """

    def __init__(self, words: list[str], vectors: np.ndarray):
        given = np.asarray(vectors)
        with np.errstate(over="ignore"):  # a value past the float32 range is named below
            vectors = np.ascontiguousarray(given, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-d array, got shape {vectors.shape}")
        if len(words) != vectors.shape[0]:
            raise ValueError(
                f"{len(words)} words but {vectors.shape[0]} vector rows"
            )
        if vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be at least 1")
        # in blocks of rows, so the check's temporary is a block, not a quarter of the table
        step = _block_rows(vectors.shape[1])
        for lo in range(0, len(vectors), step):
            finite = np.isfinite(vectors[lo : lo + step]).all(axis=1)
            if not finite.all():
                i = lo + int(np.argmin(finite))
                what = "value past the float32 range" if np.isfinite(given[i]).all() else "non-finite value"
                raise ValueError(f"{what} in the vector for word {words[i]!r}")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if w in index:
                raise ValueError(f"duplicate word {w!r}")
            index[w] = i
        self.words = list(words)
        self.index = index
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self._folded: dict[str, list[int]] | None = None
        self._lower_words: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def lookup(self, word: str) -> np.ndarray | None:
        """Return the stored row for ``word``, or None if absent."""
        i = self.index.get(word)
        return None if i is None else self.vectors[i]

    def resolve(self, word: str) -> int | None:
        """Row index for ``word``: exact match first, then case-insensitive.

        Case-insensitive fallback picks the first matching vocabulary entry,
        which keeps resolution deterministic.
        """
        i = self.index.get(word)
        if i is not None:
            return i
        matches = self.case_matches(word)
        return int(matches[0]) if matches.size else None

    def case_matches(self, word: str) -> np.ndarray:
        """Ascending row indices of every word equal to ``word`` ignoring case.

        A word that str.lower() leaves as it is matches only if it is
        ``word.lower()``, which the exact index finds; so the lowercase index,
        built on first use, holds only the words that str.lower() changes.
        """
        if self._folded is None:
            self._folded = {}
            for i, w in enumerate(self.words):
                if w.lower() != w:
                    self._folded.setdefault(w.lower(), []).append(i)
        exact = self.index.get(word.lower())
        matches = self._folded.get(word.lower(), []) + ([] if exact is None else [exact])
        return np.sort(np.array(matches, dtype=np.intp))

    def lowercase_words(self) -> np.ndarray:
        """Lowercased vocabulary as an object array (cached)."""
        if self._lower_words is None:
            self._lower_words = np.asarray([w.lower() for w in self.words], dtype=object)
        return self._lower_words

    def stack_rows(self, words: list[str]) -> np.ndarray:
        """Stack lookup results for ``words`` into an n x D matrix.

        Raises ValueError naming the first word missing from the vocabulary.
        """
        rows = np.empty((len(words), self.dim))
        for k, w in enumerate(words):
            i = self.index.get(w)
            if i is None:
                raise ValueError(f"word not in vocabulary: {w!r}")
            rows[k] = self.vectors[i]
        return rows

    def normalized(self) -> "EmbeddingTable":
        """Copy of the table with unit-norm rows, divided in float64 and rounded once.

        Rows whose norm is already within UNIT_NORM_TOL of 1 are left
        bit-identical, which makes normalization exactly idempotent. Zero
        rows are rejected; drop them first (the text loader already does).
        Rows are upcast one block at a time, so the float64 copy is a block.
        """
        vectors = np.empty_like(self.vectors)
        step = _block_rows(self.dim)
        for i in range(0, len(self), step):
            block = self.vectors[i : i + step].astype(np.float64)
            _round_rows(block, self.words[i : i + step], True, vectors[i : i + step])
        return EmbeddingTable(self.words, vectors)


def _block_rows(dim: int) -> int:
    """Rows per block: about _NORM_BLOCK_ELEMS values, at least one row."""
    return max(1, _NORM_BLOCK_ELEMS // dim)


def _round_rows(rows: np.ndarray, words: list[str], normalize: bool, out: np.ndarray) -> None:
    """Round a block of float64 ``rows`` (words ``words``) into the float32 ``out``.

    With ``normalize`` the rows are first divided in place by _unit_divisors.
    Each row gets the bits it would get in any other block, since
    np.linalg.norm(axis=1) takes every row's norm on its own.
    """
    if normalize:
        rows /= _unit_divisors(words, rows)[:, None]
    out[...] = rows


def _unit_divisors(words: list[str], vectors: np.ndarray) -> np.ndarray:
    """Each float64 row's norm, or 1 for a row whose norm is within UNIT_NORM_TOL of 1.

    Callers pass a block of rows, so the squared copy that np.linalg.norm
    makes is a block. Zero rows are rejected.
    """
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        bad = words[int(np.argmax(norms == 0.0))]
        raise ValueError(f"cannot normalize zero vector for word {bad!r}")
    return np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL, norms, 1.0)


def load_text_embeddings(path: str, normalize: bool = False) -> EmbeddingTable:
    """Load embeddings from the text format ``<|V|> <D>`` + one word per line.

    Policy on dirty input: duplicate words keep the first occurrence (warn),
    all-zero vectors are dropped (warn), and a count that disagrees with the
    header is warned about. Structural problems (bad header, wrong number of
    values on a line, a nan or infinite value, a value past the float32
    range) raise ValueError with the offending line number.

    The file is read once, in blocks of _block_rows(D) lines, so a pipe
    loads as a regular file does. numpy's C reader parses each block
    (_parse_block); a block that breaks a rule is parsed again from its
    lines, held in memory, one at a time (_parse_lines), which gives the
    same table and the same line-numbered errors and warnings as reading
    every line that way. Values are parsed to float64 a block at a time;
    normalize divides them by their row norms as normalized() does, and the
    table holds their one rounding to float32. For a regular file the
    float32 table is sized by the header, bounded by the file's size (a row
    takes at least 2 D bytes of text); a pipe's size is unknown, so its
    table starts empty and the rows of its first block size it. The table
    grows if more rows arrive and is trimmed to the rows kept. A load holds
    the float32 table, one block of text and the float64 rows parsed from
    it.
    """
    with open(path, encoding="utf-8") as f:
        declared, dim = _read_header(f, path)
        st = os.fstat(f.fileno())
        size = min(declared, st.st_size // (2 * dim)) if stat.S_ISREG(st.st_mode) else 0
        vectors = np.empty((size, dim), dtype=np.float32)
        words: list[str] = []
        seen: set[str] = set()
        # a non-zero row whose float64 norm underflows to 0 cannot be normalized;
        # its error is raised once the file is read, after any line error
        zero_norm: ValueError | None = None
        lineno = 2
        while lines := list(itertools.islice(f, _block_rows(dim))):
            kept, rows = _parse_block(lines, dim, seen) or _parse_lines(lines, lineno, dim, seen, path)
            lineno += len(lines)
            del lines  # a block's text is not held while its rows are rounded or the next block read
            done, end = len(words), len(words) + len(kept)
            if end > len(vectors):
                # no view of vectors outlives a block, so its buffer may move
                vectors.resize((max(end, 2 * len(vectors)), dim), refcheck=False)
            try:
                _round_rows(rows, kept, normalize and zero_norm is None, vectors[done:end])
            except ValueError as err:
                zero_norm = err
            words += kept
            del rows  # nor are its rows
    if not words:
        raise ValueError(f"{path}: no usable embedding rows")
    if len(words) != declared:
        warnings.warn(f"{path}: header declares {declared} words, loaded {len(words)}")
    if zero_norm is not None:
        raise zero_norm
    vectors.resize((len(words), dim), refcheck=False)
    return EmbeddingTable(words, vectors)


def _read_header(f, path: str) -> tuple[int, int]:
    """The declared word count and dimension on line 1 of the open file."""
    header = f.readline()
    parts = header.split()
    if len(parts) == 2:
        with contextlib.suppress(ValueError):
            declared, dim = int(parts[0]), int(parts[1])
            if declared >= 0 and dim >= 1:
                return declared, dim
    raise ValueError(f"{path}: line 1: malformed header {header.strip()!r}")


def _parse_block(lines: list[str], dim: int, seen: set[str]) -> tuple[list[str], np.ndarray] | None:
    """The words and float64 rows of a block of lines, parsed by np.loadtxt, or None.

    None means the block breaks a rule: a non-blank line without ``dim``
    parseable values, a value past the float32 range, a zero row, or a word
    that repeats one in the block or in ``seen``. Otherwise the block's
    words are added to ``seen``.
    """
    words: list[str] = []

    def value_texts():
        # the file's own lines, not str.splitlines(): that also splits on \x0c, \x1c, \x85 ...
        for line in lines:
            fields = line.split(None, 1)
            if fields:
                words.append(fields[0])
            if len(fields) == 2:
                yield fields[1]

    texts = value_texts()
    # loadtxt would warn of an empty block, so a block of blank lines ends here
    if (first := next(texts, None)) is None:
        return None if words else ([], np.empty((0, dim)))
    try:
        rows = np.loadtxt(itertools.chain([first], texts), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    # a word with no values leaves more words than rows, and loadtxt
    # accepts any row width the rows agree on; a NaN fails the range check
    if (
        rows.shape[1] != dim
        or len(words) != len(rows)
        or not (-_FLOAT32_LIMIT < rows.min() and rows.max() < _FLOAT32_LIMIT)
        or not rows.any(axis=1).all()
        or len(set(words)) != len(words)
        or not seen.isdisjoint(words)
    ):
        return None
    seen.update(words)
    return words, rows


def _parse_lines(
    lines: list[str], start: int, dim: int, seen: set[str], path: str
) -> tuple[list[str], np.ndarray]:
    """The kept words and float64 rows of ``lines``, read one at a time; the first is line ``start``.

    Applies the dirty-input policy to each line: a malformed line raises,
    a word in ``seen`` and a zero row are skipped with a warning, and each
    kept word is added to ``seen``.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim} values for word "
                f"{fields[0]!r}, got {len(fields) - 1}"
            )
        word = fields[0]
        try:
            vec = np.array([float(x) for x in fields[1:]])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        if np.abs(vec).max() >= _FLOAT32_LIMIT:
            raise ValueError(f"{path}: line {lineno}: value past the float32 range")
        if word in seen:
            warnings.warn(f"{path}: line {lineno}: duplicate word {word!r}, keeping first")
            continue
        if not np.any(vec):
            warnings.warn(f"{path}: line {lineno}: dropping zero vector for {word!r}")
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    return words, np.array(rows).reshape(len(rows), dim)


def save_text_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write the text format with 9 significant digits, which read back the float32 values exactly.

    A word the loader could not read back (empty, or containing whitespace)
    raises ValueError naming it, before the file is opened.
    """
    for word in table.words:
        if word.split() != [word]:
            raise ValueError(
                f"cannot save word {word!r}: words must be non-empty with no whitespace"
            )
    fmt = " ".join(["%.9g"] * table.dim) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table)} {table.dim}\n")
        for word, row in zip(table.words, table.vectors):
            f.write(word + " " + fmt % tuple(row.tolist()))
