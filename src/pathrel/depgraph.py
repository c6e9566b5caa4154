"""Dependency-parsed sentence ingestion, entity heads, and tree path queries.

Sentences arrive as CoNLL-U text (one token per line, ten tab-separated
columns, blank line between sentences).  Only ID, FORM, UPOS, HEAD and
DEPREL are interpreted; the remaining columns are preserved verbatim so
that parse -> serialize -> parse round-trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
class DependencyTree:
    """A rooted labeled dependency tree over a sentence.

    Exactly one token has head 0 (the root); following head pointers from
    any token reaches the virtual root without cycles.  Construction
    validates these invariants and raises the matching ConlluError.  It
    also builds heads and deprels, indexed by token with slot 0 for the
    virtual root, and root, the root token's index.
    """

    tokens: tuple[Token, ...]
    heads: tuple[int, ...] = field(init=False, repr=False, compare=False)
    deprels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    root: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = tuple(self.tokens)
        built = (tokens, *_validate_tree(tokens))
        for name, value in zip(("tokens", "heads", "deprels", "root"), built):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    def depth(self, index: int) -> int:
        """Number of head steps from the token to the virtual root's child."""
        heads = self.heads
        steps = 0
        while heads[index]:
            index = heads[index]
            steps += 1
        return steps


def _validate_tree(tokens: tuple[Token, ...]) -> tuple[tuple[int, ...], tuple[str, ...], int]:
    """(heads, deprels, root) of a valid tree; the first violation raises."""
    n = len(tokens)
    if n == 0:
        raise MalformedLine("empty sentence")
    indices, _, _, heads, deprels, _ = zip(*tokens)
    if indices != tuple(range(1, n + 1)):
        pos_i = next(p for p, i in enumerate(indices, start=1) if i != p)
        raise MalformedLine(
            f"token IDs must be contiguous 1..{n}, found {indices[pos_i - 1]} at position {pos_i}"
        )
    heads = (0, *heads)
    n_roots = heads.count(0) - 1  # slot 0 holds the virtual root's 0
    if n_roots > 1:
        roots = [i for i in indices if heads[i] == 0]
        raise MultipleRoots(f"tokens {roots} all have head 0")
    if not n_roots:
        raise NoRoot("no token has head 0")
    for i in indices:
        if not 0 <= heads[i] <= n:
            raise HeadOutOfRange(f"token {i} has head {heads[i]}, valid range 0..{n}")
    # walk each token up until it meets one known to reach the root; a walk
    # that meets itself never does, while every token before it did
    reached = [True] + [False] * n
    for start in indices:
        walk = set()
        cur = start
        while not reached[cur]:
            if cur in walk:
                raise CycleDetected(f"head chain from token {start} never reaches the root")
            walk.add(cur)
            cur = heads[cur]
        for i in walk:
            reached[i] = True
    return heads, ("", *deprels), heads.index(0, 1)


@dataclass(frozen=True)
class EntitySpan:
    """Inclusive token-index span of one entity mention."""

    start: int
    end: int
    id: str = "e1"

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


@dataclass(frozen=True)
class SdpPath:
    """A shortest dependency path: alternating tokens and directed relations.

    nodes are token indices; edges[i] annotates the step nodes[i] -> nodes[i+1].
    forms and pos mirror nodes with surface words and coarse POS tags.
    """

    nodes: tuple[int, ...]
    edges: tuple[PathEdge, ...]
    forms: tuple[str, ...] = ()
    pos: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError(
                f"{len(self.nodes)} nodes need {len(self.nodes) - 1} edges, got {len(self.edges)}"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"repeated node in path {self.nodes}")

    def __len__(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# CoNLL-U reading and writing


_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")


def _parse_token_line(line: str, line_no: int) -> Token | None:
    cols = line.split("\t") if "\t" in line else line.split()  # no tab: whitespace columns
    if len(cols) != 10:
        raise MalformedLine(f"line {line_no}: expected 10 columns, got {len(cols)}")
    tok_id, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
    if tok_id.isascii() and tok_id.isdigit():
        try:
            index = int(tok_id)
        except ValueError:  # more digits than int() converts
            raise MalformedLine(f"line {line_no}: ID of {len(tok_id)} digits") from None
    elif _SKIPPED_ID.fullmatch(tok_id):
        return None  # multi-word token or empty node: not part of the basic tree
    else:
        raise MalformedLine(
            f"line {line_no}: ID {tok_id!r} is not N, a range N-M or an empty node N.M"
        )
    if not (head.isascii() and head.isdigit()):
        raise MalformedLine(f"line {line_no}: non-integer HEAD {head!r}")
    try:
        head_i = int(head)
    except ValueError:  # more digits than int() converts
        raise MalformedLine(f"line {line_no}: HEAD of {len(head)} digits") from None
    return Token(index, form, upos, head_i, deprel, (lemma, xpos, feats, deps, misc))


def parse_conllu(text: str) -> list[DependencyTree]:
    """Parse CoNLL-U text into validated dependency trees.

    Lines end at LF alone, with one CR before it dropped, so a FORM may
    hold the other breaks str.splitlines() knows (U+2028, U+0085, form
    feed, ...).  Comment lines starting with '#' are ignored, and so are
    multiword ranges (ID N-M) and empty nodes (ID N.M); any other ID that
    is not a number raises MalformedLine.  Structural violations raise
    MultipleRoots, NoRoot, CycleDetected, HeadOutOfRange or MalformedLine,
    each naming the sentence and line where it was found.
    """
    trees = []
    block: list[Token] = []
    block_start = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r")
        if not line.strip():
            if block:
                trees.append(_finish_block(block, len(trees) + 1, block_start))
                block = []
                block_start = None
            continue
        if line.lstrip().startswith("#"):
            continue
        tok = _parse_token_line(line, line_no)
        if tok is None:
            continue
        if block_start is None:
            block_start = line_no
        block.append(tok)
    if block:
        trees.append(_finish_block(block, len(trees) + 1, block_start))
    return trees


def _finish_block(block: list[Token], ordinal: int, start_line) -> DependencyTree:
    try:
        return DependencyTree(tuple(block))
    except ConlluError as err:
        raise type(err)(f"sentence {ordinal} (starting line {start_line}): {err}") from None


def serialize_conllu(trees: Iterable[DependencyTree]) -> str:
    """Inverse of parse_conllu for the consumed and preserved columns."""
    out = []
    for tree in trees:
        for tok in tree.tokens:
            lemma, xpos, feats, deps, misc = tok.extras
            out.append(
                "\t".join(
                    (
                        str(tok.index),
                        tok.form,
                        lemma,
                        tok.pos,
                        xpos,
                        feats,
                        str(tok.head),
                        tok.deprel,
                        deps,
                        misc,
                    )
                )
            )
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

    Works on any structure exposing heads, deprels and tokens, i.e. both
    DependencyTree and RegularizedTree.  Each edge carries its relation
    label and a traversal direction: UP when moving dependent -> head,
    DOWN when moving head -> dependent.  a == b yields a single-node path.
    a's ancestors are walked once; b is walked up to the first of them.
    """
    heads, deprels, tokens = structure.heads, structure.deprels, structure.tokens
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
    nodes = up + down
    edges = [PathEdge(deprels[u], UP) for u in up[:-1]] + [PathEdge(deprels[v], DOWN) for v in down]
    return SdpPath(
        nodes=tuple(nodes),
        edges=tuple(edges),
        forms=tuple(tokens[i - 1].form for i in nodes),
        pos=tuple(tokens[i - 1].pos for i in nodes),
    )
