"""Dense word embeddings with an ordered vocabulary.

Tables are immutable after construction: the vector array is marked
read-only.
"""

from __future__ import annotations

import contextlib
import itertools
import warnings

import numpy as np

# A unit row rounded to float32 has a norm within 2^-24 of 1 and its float64
# norm adds about m 2^-53 (m values): twice 2^-24 covers both up to m = 2^27,
# so rows of a normalized table are unit again and normalized() is idempotent.
UNIT_NORM_TOL = float(np.finfo(np.float32).eps)
# The least float64 magnitude that rounds to an infinite float32 (to even, up)
_FLOAT32_LIMIT = 2.0**128 - 2.0**103
# Rows of a table are normalized in blocks of about this many values (512 kB),
# so the squared copy that np.linalg.norm makes is a block, not the table.
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
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
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
        self._case_index: dict[str, list[int]] | None = None
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

        The lowercase index behind it is built on first use.
        """
        if self._case_index is None:
            index: dict[str, list[int]] = {}
            for i, w in enumerate(self.words):
                index.setdefault(w.lower(), []).append(i)
            self._case_index = index
        return np.array(self._case_index.get(word.lower(), ()), dtype=np.intp)

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
        """
        vectors = self.vectors.astype(np.float64)
        vectors /= _unit_divisors(self.words, vectors)[:, None]
        return EmbeddingTable(self.words, vectors)


def _unit_divisors(words: list[str], vectors: np.ndarray) -> np.ndarray:
    """Each float64 row's norm, or 1 for a row whose norm is within UNIT_NORM_TOL of 1.

    The norms are taken by the same np.linalg.norm(axis=1) call on blocks
    of rows, which gives each row the bits of one call on the whole array
    without its squared copy. Zero rows are rejected.
    """
    norms = np.empty(len(vectors))
    step = max(1, _NORM_BLOCK_ELEMS // vectors.shape[1])
    for i in range(0, len(vectors), step):
        norms[i : i + step] = np.linalg.norm(vectors[i : i + step], axis=1)
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

    A regular file (good header, D parseable values on every non-blank line,
    all within the float32 range, no duplicate word, no zero row, as many
    words as declared) is parsed in one streaming pass by numpy's C reader.
    Any other file is re-read line by line, which gives the same table and
    the same line-numbered errors and warnings as reading every file that
    way. Values are parsed to float64; normalize divides them by their row
    norms as normalized() does, and the table holds their one rounding to
    float32.
    """
    table = _load_regular(path, normalize)
    return _load_lines(path, normalize) if table is None else table


def _table(words: list[str], vectors: np.ndarray, normalize: bool) -> EmbeddingTable:
    """The table of parsed float64 rows, normalized in place first if asked."""
    if normalize:
        vectors /= _unit_divisors(words, vectors)[:, None]
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


def _load_regular(path: str, normalize: bool = False) -> EmbeddingTable | None:
    """The table of a regular file, or None when the file needs ``_load_lines``.

    A malformed header raises at once, with the line loop's message.
    """
    words: list[str] = []

    def value_texts(lines):
        # iterate the file, not str.splitlines(): that also splits on \x0c, \x1c, \x85 ...
        for line in lines:
            fields = line.split(None, 1)
            if fields:
                words.append(fields[0])
            if len(fields) == 2:
                yield fields[1]

    with open(path, encoding="utf-8") as f:
        declared, dim = _read_header(f, path)
        texts = value_texts(f)
        try:
            first = next(texts, None)
            if first is None:  # header only; loadtxt would warn of no data
                return None
            vectors = np.loadtxt(
                itertools.chain([first], texts), dtype=np.float64, comments=None, ndmin=2
            )
        except ValueError:
            return None
    # a word with no values leaves more words than rows, and loadtxt accepts
    # any row width the rows agree on: the shape check catches both; a NaN
    # fails the range check
    if (
        vectors.shape != (len(words), dim)
        or declared != len(words)
        or not (-_FLOAT32_LIMIT < vectors.min() and vectors.max() < _FLOAT32_LIMIT)
        or not vectors.any(axis=1).all()
        or len(set(words)) != len(words)
    ):
        return None
    return _table(words, vectors, normalize)


def _load_lines(path: str, normalize: bool = False) -> EmbeddingTable:
    """Read any file one line at a time, applying the dirty-input policy per line."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        declared, dim = _read_header(f, path)
        for lineno, line in enumerate(f, start=2):
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
    if not words:
        raise ValueError(f"{path}: no usable embedding rows")
    if len(words) != declared:
        warnings.warn(f"{path}: header declares {declared} words, loaded {len(words)}")
    return _table(words, np.vstack(rows), normalize)


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
