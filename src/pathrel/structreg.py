"""Structure regularization of dependency trees.

A cut rule selects non-root tokens; the subtrees under them are severed
from their heads, the resulting component roots are chained in ascending
token-index order with synthetic "SR-LINK" edges, and shortest paths are
extracted from the re-joined structure (SR-SDPs).  Cutting nothing is the
identity: the SR-SDP equals the plain SDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .codec import Document
from .depgraph import DependencyTree, SdpPath, entity_head, path_between

SR_LINK = "SR-LINK"

_MASK64 = (1 << 64) - 1
# splitmix64 (Steele, Lea & Flood 2014), pinned so that seeded cuts are the same on
# every platform: the state advances by _GOLDEN per draw, and each output mixes
# the state by two xor-shift-multiplies and a final xor-shift
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


class CutRootRequested(ValueError):
    pass


@dataclass(frozen=True)
class CutRule(Document):
    """Node-selection rule for tree decomposition.

    variant is one of "none", "punct", "random", "prep".  Random draws
    each non-root token independently with probability p from splitmix64
    seeded with seed XOR sentence-ordinal; prep selects tokens whose POS
    is in tag_set.
    """

    variant: str = "none"
    p: float = 0.5
    seed: int = 0
    tag_set: frozenset[str] = frozenset({"ADP", "P", "IN"})

    VARIANTS = ("none", "punct", "random", "prep")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown cut rule {self.variant!r}, expected one of {self.VARIANTS}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"cut probability {self.p} outside [0, 1]")
        if self.variant == "prep" and not self.tag_set:
            raise ValueError("prep rule needs a non-empty tag set")
        object.__setattr__(self, "tag_set", frozenset(self.tag_set))


def select_cuts(trees: Sequence[DependencyTree], rule: CutRule, first: int = 0) -> list[set[int]]:
    """Each tree's token indices to cut under rule, in order.  Never selects a root.

    trees[o] is the sentence at corpus position first + o.  The random rule
    mixes that position into its seed, so reordering a corpus does not
    reshuffle every sentence's cuts: token k (1-based) is cut when output k
    of splitmix64 seeded with seed XOR position, its top 53 bits read as a
    fraction of 1, is below p.  Output k mixes the state seed + k times the
    generator's increment, so the whole corpus is drawn in one np.uint64
    pass, which wraps modulo 2**64 as the scalar generator does.
    """
    if rule.variant != "random":
        return [_tree_cuts(tree, rule) for tree in trees]
    if not trees:
        return []
    import numpy as np  # the random rule alone draws, so the other three load no numpy
    sizes = np.fromiter((len(tree.heads) - 1 for tree in trees), np.intp, len(trees))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    index = np.arange(1, ends[-1] + 1)
    index -= np.repeat(starts, sizes)  # token k of its sentence
    position = np.arange(len(trees), dtype=np.uint64) + np.uint64(first & _MASK64)
    z = np.repeat(position ^ np.uint64(rule.seed & _MASK64), sizes)
    z += index.astype(np.uint64) * np.uint64(_GOLDEN)
    for shift, multiplier in _MIX:
        z ^= z >> np.uint64(shift)
        z *= np.uint64(multiplier)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    drawn = z * 2.0**-53 < rule.p
    drawn[starts + np.fromiter((tree.root for tree in trees), np.intp, len(trees)) - 1] = False
    picked = np.flatnonzero(drawn)
    cuts = index[picked].tolist()
    bounds = [0, *np.searchsorted(picked, ends).tolist()]
    return [set(cuts[a:b]) for a, b in zip(bounds, bounds[1:])]


def _tree_cuts(tree: DependencyTree, rule: CutRule) -> set[int]:
    """select_cuts over one tree under the none, prep and punct rules."""
    root = tree.root
    if rule.variant == "none":
        return set()
    pos = tree.pos
    if rule.variant == "prep":
        tags = rule.tag_set
        return {i for i in range(1, len(pos)) if pos[i] in tags and i != root}
    # punct: a token's run number counts the PUNCT tokens up to it, so each
    # maximal non-PUNCT run has its own; every run but the root's is cut
    # loose at its tokens whose head lies outside the run.
    runs = accumulate(p == "PUNCT" for p in pos)
    run = {i: r for i, (p, r) in enumerate(zip(pos, runs)) if i and p != "PUNCT"}
    root_run = run.get(root)
    return {i for i, r in run.items() if r != root_run and run.get(tree.heads[i]) != r}


def select_cut_nodes(tree: DependencyTree, rule: CutRule, ordinal: int = 0) -> set[int]:
    """Token indices to cut in one tree, the sentence at corpus position ordinal (see select_cuts)."""
    return select_cuts((tree,), rule, first=ordinal)[0]


@dataclass(frozen=True)
class RegularizedTree:
    """A dependency tree after cutting, with components re-lined into a tree.

    Component roots (the original root plus every cut node) are chained in
    ascending index order by link_edges labeled SR-LINK.  The combined
    edge set (residual head edges + links) stays connected and acyclic;
    heads and deprels hold it in the base tree's layout, slot 0 for the
    virtual root.
    """

    base: DependencyTree
    cut_nodes: frozenset[int]
    link_edges: tuple[tuple[int, int], ...]
    heads: list[int] = field(repr=False, compare=False)
    deprels: list[str] = field(repr=False, compare=False)

    @property
    def forms(self) -> tuple[str, ...]:
        return self.base.forms

    @property
    def pos(self) -> tuple[str, ...]:
        return self.base.pos

    @property
    def n(self) -> int:
        return self.base.n

    def component_root(self, index: int) -> int:
        """Nearest ancestor-or-self that roots a component."""
        roots = self.cut_nodes | {self.base.root}
        heads = self.base.heads
        while index not in roots:
            index = heads[index]
        return index


def cut_and_line(tree: DependencyTree, cut_nodes: set[int]) -> RegularizedTree:
    """Sever each cut node from its head and chain the component roots.

    Nested cut nodes are fine: each roots its own component.  Raises
    CutRootRequested if the original root is in the cut set.
    """
    root = tree.root
    if root in cut_nodes:
        raise CutRootRequested(f"token {root} is the root and cannot be cut")
    n = tree.n
    unknown = [i for i in cut_nodes if not 1 <= i <= n]
    if unknown:
        raise ValueError(f"cut nodes {unknown} outside 1..{n}")

    roots = sorted(set(cut_nodes) | {root})
    links = tuple(zip(roots, roots[1:]))
    # the lowest-index component root becomes the global root of the lined
    # structure (its deprel is never read); every later root (cut node or
    # the original root) hangs off its predecessor via SR-LINK
    heads = list(tree.heads)
    deprels = list(tree.deprels)
    heads[roots[0]] = 0
    for lo, hi in links:
        heads[hi] = lo
        deprels[hi] = SR_LINK

    return RegularizedTree(
        base=tree,
        cut_nodes=frozenset(cut_nodes),
        link_edges=links,
        heads=heads,
        deprels=deprels,
    )


def extract_sr_sdp(rt: RegularizedTree, e1_head: int, e2_head: int) -> SdpPath:
    """Shortest path between two entity heads in the lined forest."""
    return path_between(rt, e1_head, e2_head)


def entity_paths(trees, pairs, rule: CutRule, name, first: int = 0) -> list[SdpPath]:
    """Each tree's path between the heads of its entity spans (e1, e2) after rule cuts and lines it.

    trees[o] is the sentence at corpus position first + o, so a corpus
    passed a chunk at a time, each chunk with its own first, draws the
    cuts of one select_cuts pass over the whole corpus.  A ValueError
    raised for tree o is raised again as a ValueError led by
    name(first + o).  Only the trees that have a pair are extracted.
    """
    paths = []
    cuts = select_cuts(trees, rule, first=first)
    for ordinal, (tree, cut, (e1, e2)) in enumerate(zip(trees, cuts, pairs), start=first):
        try:
            rt = cut_and_line(tree, cut)
            paths.append(extract_sr_sdp(rt, entity_head(tree, e1), entity_head(tree, e2)))
        except ValueError as err:
            raise ValueError(f"{name(ordinal)}: {err}") from None
    return paths
