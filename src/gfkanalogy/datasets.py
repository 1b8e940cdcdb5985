"""Analogy question datasets: Google-style and MSR-style files."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AnalogyQuestion:
    """One 'a is to b as x is to y' question inside a named relation."""

    a: str
    b: str
    x: str
    y: str
    relation: str

    def __post_init__(self):
        for name in ("a", "b", "x", "y", "relation"):
            if not getattr(self, name):
                raise ValueError(f"empty {name!r} in analogy question")

    def tokens(self) -> tuple[str, str, str, str]:
        return (self.a, self.b, self.x, self.y)


@dataclass
class RelationDataset:
    """Questions grouped by relation, in file order."""

    relations: dict[str, list[AnalogyQuestion]] = field(default_factory=dict)
    source: str = ""

    def add(self, q: AnalogyQuestion) -> None:
        self.relations.setdefault(q.relation, []).append(q)

    def n_questions(self) -> int:
        return sum(len(qs) for qs in self.relations.values())

    def relation_names(self) -> list[str]:
        return list(self.relations)


def parse_google(path: str) -> RelationDataset:
    """Parse the Google questions format.

    Lines starting with ':' open a relation section; every other non-blank
    line must hold exactly four whitespace-separated tokens. Token case is
    preserved.
    """
    dataset = RelationDataset(source="google")
    relation = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(":"):
                relation = stripped[1:].strip()
                if not relation:
                    raise ValueError(f"{path}: line {lineno}: empty relation header")
                continue
            if relation is None:
                raise ValueError(
                    f"{path}: line {lineno}: question before any ':' relation header"
                )
            tokens = stripped.split()
            if len(tokens) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tokens, got {len(tokens)}"
                )
            dataset.add(AnalogyQuestion(*tokens, relation=relation))
    if dataset.n_questions() == 0:
        warnings.warn(f"{path}: no analogy questions found")
    return dataset


# POS tag prefix -> coarse MSR class.
_MSR_CLASSES = {"J": "adjectives", "N": "nouns", "V": "verbs"}


def parse_msr(path: str, tag_column: int = 4) -> RelationDataset:
    """Parse the MSR format: four question tokens plus a POS/relation tag.

    ``tag_column`` gives the 0-based position of the tag among the five
    whitespace-separated columns; the remaining columns are a, b, x, y in
    order. Tags map onto the three coarse classes by their leading letter
    (J -> adjectives, N -> nouns, V -> verbs).
    """
    if not 0 <= tag_column <= 4:
        raise ValueError("tag_column must be in [0, 4]")
    dataset = RelationDataset(source="msr")
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            columns = stripped.split()
            if len(columns) != 5:
                raise ValueError(
                    f"{path}: line {lineno}: expected 5 columns "
                    f"(4 tokens + tag), got {len(columns)}"
                )
            tag = columns[tag_column]
            tokens = [c for k, c in enumerate(columns) if k != tag_column]
            relation = _MSR_CLASSES.get(tag[:1].upper())
            if relation is None:
                raise ValueError(
                    f"{path}: line {lineno}: tag {tag!r} does not map to "
                    "adjectives/nouns/verbs"
                )
            dataset.add(AnalogyQuestion(*tokens, relation=relation))
    if dataset.n_questions() == 0:
        warnings.warn(f"{path}: no analogy questions found")
    return dataset


def write_google(dataset: RelationDataset, path: str) -> None:
    """Write a dataset in the Google questions format.

    A value that parse_google could not read back raises ValueError naming
    it, before the file is opened: an empty token or one containing
    whitespace, a first token that starts with ':' (its line would read as
    a relation header), a relation name that is empty, has leading or
    trailing whitespace, or holds a line break, and a question filed under
    another relation's key (it would read back under that key).
    """
    for relation, questions in dataset.relations.items():
        if not relation or relation != relation.strip() or "\n" in relation or "\r" in relation:
            raise ValueError(f"cannot write relation {relation!r}: names must be non-empty, with no line "
                             "break and no leading or trailing whitespace")
        for q in questions:
            if q.relation != relation:
                raise ValueError(f"cannot write question {' '.join(q.tokens())!r} of {q.relation!r} under {relation!r}")
            for token in q.tokens():
                if token.split() != [token]:
                    raise ValueError(f"cannot write token {token!r}: tokens must be non-empty with no whitespace")
            if q.a.startswith(":"):
                raise ValueError(f"cannot write first token {q.a!r}: a line starting with ':' is a relation header")
    with open(path, "w", encoding="utf-8") as f:
        for relation, questions in dataset.relations.items():
            f.write(f": {relation}\n")
            for q in questions:
                f.write(f"{q.a} {q.b} {q.x} {q.y}\n")
