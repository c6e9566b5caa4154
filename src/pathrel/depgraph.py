"""Dependency-parsed sentence ingestion, entity heads, and tree path queries.

Sentences arrive as CoNLL-U text (one token per line, ten tab-separated
columns, blank line between sentences).  Only ID, FORM, UPOS, HEAD and
DEPREL are interpreted; the remaining columns are preserved verbatim so
that parse -> serialize -> parse round-trips exactly.  A parsed tree holds
the sentence as one tuple per column, with no object per token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple, NoReturn

UP = "UP"
DOWN = "DOWN"


class ConlluError(ValueError):
    """Base class for malformed or structurally invalid input."""


class MalformedLine(ConlluError):
    pass


class MultipleRoots(ConlluError):
    pass


class NoRoot(ConlluError):
    pass


class CycleDetected(ConlluError):
    pass


class HeadOutOfRange(ConlluError):
    pass


class Token(NamedTuple):
    """One token of a dependency-parsed sentence (1-based index)."""

    index: int
    form: str
    pos: str
    head: int
    deprel: str
    # untouched CoNLL-U columns, kept for round-tripping: LEMMA, XPOS, FEATS, DEPS, MISC
    extras: tuple[str, str, str, str, str] = ("_", "_", "_", "_", "_")


_COLUMNS = ("forms", "pos", "heads", "deprels", "lemmas", "xpos", "feats", "deps", "misc")


@dataclass(frozen=True, slots=True, init=False)
class DependencyTree:
    """A rooted labeled dependency tree over a sentence, held as columns.

    Each column is a tuple indexed by token, slot 0 for the virtual root:
    forms, pos (UPOS), heads, deprels, then LEMMA, XPOS, FEATS, DEPS and
    MISC as read; root is the root token.  Exactly one token has head 0,
    and every head chain reaches it without a cycle: DependencyTree(tokens)
    raises the matching ConlluError otherwise.  tokens and token(i) are
    built from the columns when asked; trees are equal when their tokens are.
    """

    forms: tuple[str, ...]
    pos: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    lemmas: tuple[str, ...] = field(repr=False)
    xpos: tuple[str, ...] = field(repr=False)
    feats: tuple[str, ...] = field(repr=False)
    deps: tuple[str, ...] = field(repr=False)
    misc: tuple[str, ...] = field(repr=False)
    root: int = field(repr=False, compare=False)

    def __init__(self, tokens: Iterable[Token]):
        tokens = tuple(tokens)
        if not tokens:
            raise MalformedLine("empty sentence")
        indices, forms, pos, heads, deprels, extras = zip(*tokens)
        if indices != tuple(range(1, len(tokens) + 1)):
            p, i = next((p, i) for p, i in enumerate(indices, start=1) if i != p)
            raise MalformedLine(
                f"token IDs must be contiguous 1..{len(tokens)}, found {i} at position {p}")
        self._set(("", *forms), ("", *pos), (0, *heads), ("", *deprels), *zip(("",) * 5, *extras))

    def _set(self, *columns) -> DependencyTree:
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "root", _tree_root(self.heads))
        return self

    @property
    def n(self) -> int:
        return len(self.heads) - 1

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(self.token, range(1, len(self.heads))))

    def token(self, index: int) -> Token:
        row = [getattr(self, name)[index] for name in _COLUMNS]
        return Token(index, *row[:4], tuple(row[4:]))

    def depth(self, index: int) -> int:
        """Number of head steps from the token to the virtual root's child."""
        heads = self.heads
        steps = 0
        while heads[index]:
            index = heads[index]
            steps += 1
        return steps


def _tree_root(heads: tuple[int, ...]) -> int:
    """The root of the tree that heads (slot 0 the virtual root's 0) form; the first violation raises."""
    n = len(heads) - 1
    n_roots = heads.count(0) - 1
    if n_roots > 1:
        raise MultipleRoots(f"tokens {[i for i in range(1, n + 1) if heads[i] == 0]} all have head 0")
    if not n_roots:
        raise NoRoot("no token has head 0")
    if min(heads) < 0 or max(heads) > n:
        i = next(i for i in range(1, n + 1) if not 0 <= heads[i] <= n)
        raise HeadOutOfRange(f"token {i} has head {heads[i]}, valid range 0..{n}")
    # with one root and heads in range, a walk down from the root misses the cycling tokens
    children = [[] for _ in heads]
    for i, head in enumerate(heads):
        children[head].append(i)
    reached = children[0][1:]  # slot 0 is its own child
    for i in reached:
        reached += children[i]
    if len(reached) < n:
        start = min(set(range(1, n + 1)).difference(reached))
        raise CycleDetected(f"head chain from token {start} never reaches the root")
    return reached[0]


@dataclass(frozen=True, slots=True)
class EntitySpan:
    """Inclusive token-index span of one entity mention."""

    start: int
    end: int

    def __post_init__(self):
        if not 1 <= self.start <= self.end:
            raise ValueError(f"bad span [{self.start}, {self.end}]")

    def __contains__(self, index: int) -> bool:
        return self.start <= index <= self.end


@dataclass(frozen=True)
class Instance:
    """One labeled relation-classification example."""

    tree: DependencyTree
    e1: EntitySpan
    e2: EntitySpan
    label: str
    sid: str | None = None

    def __post_init__(self):
        n = self.tree.n
        for span in (self.e1, self.e2):
            if span.end > n:
                raise ValueError(f"span [{span.start}, {span.end}] exceeds sentence length {n}")
        if not (self.e1.end < self.e2.start or self.e2.end < self.e1.start):
            raise ValueError("entity spans overlap")


class PathEdge(NamedTuple):
    deprel: str
    direction: str  # UP (dependent -> head) or DOWN (head -> dependent)


@dataclass(frozen=True, slots=True)
class SdpPath:
    """A shortest dependency path: alternating tokens and directed relations.

    nodes are token indices; deprels[i] and directions[i] (UP or DOWN)
    annotate the step nodes[i] -> nodes[i+1].  forms and pos mirror nodes
    with surface words and coarse POS tags.  Every column is an exact
    tuple, with no object per edge; edges builds the PathEdges when asked.
    path_between builds paths from a tree; RelationModel checks the
    column lengths of any path it is given.
    """

    nodes: tuple[int, ...]
    deprels: tuple[str, ...]
    directions: tuple[str, ...]
    forms: tuple[str, ...]
    pos: tuple[str, ...]

    @property
    def edges(self) -> tuple[PathEdge, ...]:
        return tuple(map(PathEdge, self.deprels, self.directions))

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# CoNLL-U reading and writing


# a run of lines that are not blank: one sentence, with its comments
_SENTENCE = re.compile(r"^[^\S\n]*\S.*(?:\n[^\S\n]*\S.*)*", re.M)
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


def parse_conllu(text: str) -> list[DependencyTree]:
    """Every tree of CoNLL-U text, validated: list(iter_conllu(text))."""
    return list(iter_conllu(text))


def iter_conllu(text: str) -> Iterator[DependencyTree]:
    """Parse CoNLL-U text into validated dependency trees, one sentence at a time.

    Lines end at LF alone, with one CR before it dropped, so a FORM may
    hold the other breaks str.splitlines() knows (U+2028, U+0085, form
    feed, ...).  Comment lines starting with '#' are ignored, and so are
    multiword ranges (ID N-M) and empty nodes (ID N.M); any other ID that
    is not a number raises MalformedLine.  Structural violations raise
    MultipleRoots, NoRoot, CycleDetected, HeadOutOfRange or MalformedLine,
    each naming the sentence and line where it was found.  Every tree
    before the first faulty sentence is yielded before the error is raised.

    Each sentence's lines are split once and zipped into the tree's
    columns, which are checked whole; only a sentence that fails those
    checks is walked line by line, to raise its first fault.
    """
    ordinal = 0  # trees yielded so far
    for block in _SENTENCE.finditer(text):
        sentence = block.group()
        columns = _token_columns(sentence)
        if columns is not None:
            if len(columns[0]) == 1:
                continue  # comments, ranges and empty nodes only
            try:
                tree = object.__new__(DependencyTree)._set(*columns)
            except ConlluError:
                pass  # raised again below, naming the sentence and its first line
            else:
                ordinal += 1
                yield tree
                continue
        _raise_first_fault(sentence.split("\n"), text.count("\n", 0, block.start()) + 1, ordinal + 1)


def _token_columns(sentence: str) -> list[tuple] | None:
    """The columns of a sentence's token lines in DependencyTree's order, slot 0
    for the virtual root, HEAD as ints; None when a line is faulty or IDs are not 1..n."""
    lines = sentence.split("\n")
    if "#" in sentence:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    rows = [("0", "", "", "", "", "", "0", "", "", "")]  # the virtual root
    rows += map(str.split, lines, repeat("\t"))
    widths = set(map(len, rows))
    if 1 in widths:  # a line without a tab has whitespace columns
        rows = [row if len(row) > 1 else row[0].split() for row in rows]
        widths = set(map(len, rows))
    if widths != {10}:
        return None
    ids, forms, lemmas, upos, xpos, feats, heads, deprels, deps, misc = zip(*rows)
    if _integers(ids) != tuple(range(len(rows))):
        # multiword ranges and empty nodes are not part of the basic tree
        rows = [row for row in rows if not _SKIPPED_ID.fullmatch(row[0])]
        ids, forms, lemmas, upos, xpos, feats, heads, deprels, deps, misc = zip(*rows)
        if _integers(ids) != tuple(range(len(rows))):
            return None
    heads = _integers(heads)
    if heads is None:
        return None
    if "\r" in sentence:
        misc = tuple(value.removesuffix("\r") for value in misc)
    return [forms, upos, heads, deprels, lemmas, xpos, feats, deps, misc]


def _integers(column: tuple[str, ...]) -> tuple[int, ...] | None:
    """The column as ints when every value is ASCII digits that int() converts."""
    digits = "".join(column)
    try:
        return tuple(map(int, column)) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # an empty value, or more digits than int() converts
        return None


def _raise_first_fault(lines: list[str], line_no: int, ordinal: int) -> NoReturn:
    """Walk a sentence that failed its column checks in line order and raise
    its first fault: a malformed line, else the first violation of the tree."""
    start, tokens = None, []
    for line_no, line in enumerate(lines, start=line_no):
        if line.lstrip().startswith("#"):
            continue
        cols = line.split("\t") if "\t" in line else line.split()  # no tab: whitespace columns
        if len(cols) != 10:
            raise MalformedLine(f"line {line_no}: expected 10 columns, got {len(cols)}")
        tok_id, head = cols[0], cols[6]
        if _SKIPPED_ID.fullmatch(tok_id):
            continue  # multiword token or empty node: not part of the basic tree
        id_fault = f"ID {tok_id!r} is not N, a range N-M or an empty node N.M"
        for name, value, fault in (("ID", tok_id, id_fault), ("HEAD", head, f"non-integer HEAD {head!r}")):
            if not (value.isascii() and value.isdigit()):
                raise MalformedLine(f"line {line_no}: {fault}")
            if _integers((value,)) is None:  # more digits than int() converts
                raise MalformedLine(f"line {line_no}: {name} of {len(value)} digits")
        start = start or line_no
        tokens.append(Token(int(tok_id), "", "", int(head), ""))
    try:
        DependencyTree(tokens)
    except ConlluError as err:
        raise type(err)(f"sentence {ordinal} (starting line {start}): {err}") from None
    raise AssertionError(f"sentence {ordinal} failed its column checks but has no faulty line")


def serialize_conllu(trees: Iterable[DependencyTree]) -> str:
    """Inverse of parse_conllu for the consumed and preserved columns."""
    out = []
    for tree in trees:
        rows = zip(map(str, range(tree.n + 1)), tree.forms, tree.lemmas, tree.pos, tree.xpos,
                   tree.feats, map(str, tree.heads), tree.deprels, tree.deps, tree.misc)
        out += map("\t".join, islice(rows, 1, None))  # slot 0 is the virtual root
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Entity heads and paths


def entity_head(tree: DependencyTree, span: EntitySpan) -> int:
    """Token of the span whose head lies outside the span.

    When the parse attaches several span tokens outside, the one nearest
    the root wins; remaining ties go to the smallest index.  Deterministic
    by construction.
    """
    heads = tree.heads[span.start : span.end + 1]
    candidates = [i for i, head in enumerate(heads, start=span.start) if head not in span]
    return min(candidates, key=lambda i: (tree.depth(i), i))


def path_between(structure, a: int, b: int) -> SdpPath:
    """The unique simple tree path between two tokens.

    Works on any structure exposing heads, deprels, forms and pos, i.e. both
    DependencyTree and RegularizedTree.  Each edge carries its relation
    label and a traversal direction: UP when moving dependent -> head,
    DOWN when moving head -> dependent.  a == b yields a single-node path.
    a's ancestors are walked once; b is walked up to the first of them.
    """
    heads = structure.heads
    chain = {}  # a and its ancestors -> position on a's chain
    cur = a
    while cur:
        chain[cur] = len(chain)
        cur = heads[cur]
    down = []  # b up to, not including, the first node of a's chain
    cur = b
    while cur not in chain:
        down.append(cur)
        cur = heads[cur]
    up = list(chain)[: chain[cur] + 1]
    down.reverse()
    nodes = tuple(up + down)
    # the step from u UP to its head, then DOWN from its head to each v, carries the child's label
    deprels = tuple(map(structure.deprels.__getitem__, up[:-1] + down))
    return SdpPath(
        nodes,
        deprels,
        (UP,) * (len(up) - 1) + (DOWN,) * len(down),
        tuple(map(structure.forms.__getitem__, nodes)),
        tuple(map(structure.pos.__getitem__, nodes)),
    )
