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

from .codec import Document
from .depgraph import DependencyTree, PathEdge, SdpPath, path_between

SR_LINK = "SR-LINK"

_MASK64 = (1 << 64) - 1


class CutRootRequested(ValueError):
    pass


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: (state, output), both 64-bit.

    Fixed, portable algorithm (Steele et al.); pinned so that seeded cut
    selections are identical across platforms and runs.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _unit_interval(z: int) -> float:
    # top 53 bits -> [0, 1), the standard double conversion
    return (z >> 11) * 2.0**-53


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


def select_cut_nodes(tree: DependencyTree, rule: CutRule, ordinal: int = 0) -> set[int]:
    """Token indices to cut under the given rule.  Never selects the root.

    ordinal is the sentence's position in its corpus; the random rule
    mixes it into the seed so corpus reordering does not reshuffle every
    sentence's cuts.
    """
    root = tree.root
    if rule.variant == "none":
        return set()
    pos, indices = tree.pos, range(1, tree.n + 1)
    if rule.variant == "prep":
        return {i for i in indices if pos[i] in rule.tag_set and i != root}
    if rule.variant == "random":
        state = (rule.seed ^ ordinal) & _MASK64
        selected = set()
        for i in indices:
            state, z = splitmix64(state)
            if i != root and _unit_interval(z) < rule.p:
                selected.add(i)
        return selected
    # punct: a token's run number counts the PUNCT tokens up to it, so each
    # maximal non-PUNCT run has its own; every run but the root's is cut
    # loose at its tokens whose head lies outside the run.
    runs = accumulate(p == "PUNCT" for p in pos)
    run = {i: r for i, (p, r) in enumerate(zip(pos, runs)) if i and p != "PUNCT"}
    root_run = run.get(root)
    return {i for i, r in run.items() if r != root_run and run.get(tree.heads[i]) != r}


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
    unknown = [i for i in cut_nodes if not 1 <= i <= tree.n]
    if unknown:
        raise ValueError(f"cut nodes {unknown} outside 1..{tree.n}")

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


def invert_path(p: SdpPath) -> SdpPath:
    """Reverse a path: mirrored nodes, UP/DOWN flipped, labels kept."""
    from .depgraph import DOWN, UP

    flipped = tuple(
        PathEdge(e.deprel, UP if e.direction == DOWN else DOWN) for e in reversed(p.edges)
    )
    return SdpPath(
        nodes=p.nodes[::-1],
        edges=flipped,
        forms=p.forms[::-1],
        pos=p.pos[::-1],
    )
