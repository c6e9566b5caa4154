"""Independent oracles for the benchmark's output checks.

None of these call pathrel's path, lining or matching code: paths come
from breadth-first search over an undirected adjacency list, the lined
structure is rebuilt from the cut set by hand, entity heads from a
direct scan, and dictionary matches from a naive scan of every entry at
every position.
"""

from __future__ import annotations

from collections import deque

SR_LINK = "SR-LINK"


def tree_parents(tree) -> tuple[dict[int, int], dict[int, str]]:
    return ({t.index: t.head for t in tree.tokens}, {t.index: t.deprel for t in tree.tokens})


def lined_parents(tree, cut_nodes) -> tuple[dict[int, int], dict[int, str]]:
    """Sever every cut node and chain the component roots in ascending order."""
    parents, labels = tree_parents(tree)
    roots = sorted(set(cut_nodes) | {next(t.index for t in tree.tokens if t.head == 0)})
    parents[roots[0]] = 0
    for lo, hi in zip(roots, roots[1:]):
        parents[hi] = lo
        labels[hi] = SR_LINK
    return parents, labels


def bfs_path(parents, labels, a: int, b: int):
    """(nodes, [(deprel, direction), ...]) of the BFS path from a to b."""
    adj: dict[int, list[tuple[int, str, str]]] = {i: [] for i in parents}
    for child, parent in parents.items():
        if parent != 0:
            adj[child].append((parent, labels[child], "UP"))
            adj[parent].append((child, labels[child], "DOWN"))
    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v, rel, direction in adj[u]:
            if v not in prev:
                prev[v] = (u, rel, direction)
                queue.append(v)
    nodes, edges = [b], []
    while prev[nodes[-1]] is not None:
        u, rel, direction = prev[nodes[-1]]
        edges.append((rel, direction))
        nodes.append(u)
    return nodes[::-1], edges[::-1]


def entity_head(tree, start: int, end: int) -> int:
    """Span token attached outside the span, nearest the root, then lowest index."""
    heads = {t.index: t.head for t in tree.tokens}

    def depth(i):
        d = 0
        while heads[i] != 0:
            i, d = heads[i], d + 1
        return d

    outside = [i for i in range(start, end + 1) if not start <= heads[i] <= end]
    return min(outside, key=lambda i: (depth(i), i))


def naive_matches(text: str, entries) -> list[tuple[int, int, str]]:
    """Leftmost-longest matching by trying every entry at every position."""
    entries = [e for e in set(entries) if e]
    out = []
    i = 0
    while i < len(text):
        best = None
        for entry in entries:
            if text[i : i + len(entry)] == entry and (best is None or len(entry) > len(best)):
                best = entry
        if best is None:
            i += 1
        else:
            out.append((i, i + len(best), best))
            i += len(best)
    return out
