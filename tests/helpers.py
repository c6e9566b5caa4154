"""Shared random generators and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: paths come
from breadth-first search over an undirected adjacency list (over a
lined structure rebuilt by hand, if need be), partitions and entity
heads from direct upward walks, the punct rule's cuts from a direct scan
of the sentence, tree checks from union-find, tree validation from a
walk of every token to the root, and text path lines from
parse_path_line, the inverse of data.format_path_line.  The relation
model's oracle is its per-gate formulation: one tape node per gate
product and step, plain cross-entropy of a softmax, an L2 graph over
every parameter, and the dense AdaDelta rule.  The generic tape ops it
is built from (matmul, add, mul, concat, tanh, sigmoid, max_over,
softmax) live here, since the library itself records only fused nodes,
and so do Tensor, the node they record, and tape_backward, the generic
reverse pass that runs them: the library's backward walks no graph.
leaves() and adopt() bring the library's parameters and nodes onto that
tape.
Checkpoint fixtures write the all-JSON layout of versions 1 and 2, which
are refused, and take a version-3 file apart and back together, so tests
can damage its header.
"""

import json
import struct
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from pathrel.autodiff import ParamStore, dropout_mask, sigmoid_array, softmax_array
from pathrel.checkpoint import FORMAT_NAME, MAGIC, PREAMBLE
from pathrel.data import DatasetError
from pathrel.depgraph import (
    CycleDetected,
    DependencyTree,
    HeadOutOfRange,
    MalformedLine,
    MultipleRoots,
    NoRoot,
    PathEdge,
    SdpPath,
    Token,
)
from pathrel.model import BWD, FWD, LSTM_STANDARD, Prediction, decode
from pathrel.structreg import invert_path

POS_POOL = ("NOUN", "VERB", "ADJ", "ADP", "PUNCT", "ADV")
REL_POOL = ("nsubj", "dobj", "nmod", "amod", "case", "punct", "advmod")


def random_tree(rng, n=None) -> DependencyTree:
    """Uniformly shaped random tree: heads may point in either direction."""
    if n is None:
        n = int(rng.integers(1, 16))
    order = [int(x) + 1 for x in rng.permutation(n)]
    head = {order[0]: 0}
    for k in range(1, n):
        head[order[k]] = order[int(rng.integers(k))]
    tokens = tuple(
        Token(
            i,
            f"w{i}",
            str(rng.choice(POS_POOL)),
            head[i],
            "root" if head[i] == 0 else str(rng.choice(REL_POOL)),
        )
        for i in range(1, n + 1)
    )
    return DependencyTree(tokens)


def random_cut_set(rng, tree) -> set:
    root = tree.root
    candidates = [i for i in range(1, tree.n + 1) if i != root]
    if not candidates:
        return set()
    k = int(rng.integers(0, len(candidates) + 1))
    return {int(i) for i in rng.choice(candidates, size=k, replace=False)}


def bfs_path(structure, a, b):
    """Shortest path by BFS over the undirected parent edges.

    Returns (nodes, edges) in the same annotation convention as the
    library: (label, "UP") when stepping child -> parent, else DOWN.
    """
    parents, labels = structure.heads, structure.deprels
    adj = {i: [] for i in range(1, len(parents))}
    for child, parent in enumerate(parents):
        if child and parent:
            adj[child].append(parent)
            adj[parent].append(child)
    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in adj[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    nodes = []
    cur = b
    while cur is not None:
        nodes.append(cur)
        cur = prev[cur]
    nodes.reverse()
    edges = []
    for u, v in zip(nodes, nodes[1:]):
        if parents[u] == v:
            edges.append((labels[u], "UP"))
        else:
            assert parents[v] == u, f"nodes {u}, {v} not adjacent"
            edges.append((labels[v], "DOWN"))
    return nodes, edges


def punct_cut_oracle(tree) -> set:
    """The punct rule by direct scan: each maximal run of non-PUNCT tokens
    that does not hold the root is cut at every token whose head lies
    outside the run."""
    cut = set()
    start = 1
    while start <= tree.n:
        end = start
        while end <= tree.n and tree.token(end).pos != "PUNCT":
            end += 1
        run = range(start, end)
        if tree.root not in run:
            cut |= {i for i in run if tree.token(i).head not in run}
        start = end + 1
    return cut


def lined_by_hand(tree, cut_nodes):
    """The lined structure rebuilt from a cut set: every cut node severed
    from its head, the component roots chained in ascending order by
    SR-LINK edges.  Exposes heads and deprels, slot 0 unused, for bfs_path."""
    heads = [0] + [tok.head for tok in tree.tokens]
    deprels = [""] + [tok.deprel for tok in tree.tokens]
    roots = sorted(set(cut_nodes) | {tree.root})
    heads[roots[0]] = 0
    for lo, hi in zip(roots, roots[1:]):
        heads[hi], deprels[hi] = lo, "SR-LINK"
    return SimpleNamespace(heads=heads, deprels=deprels)


def validate_tree_reference(tokens) -> None:
    """The tree checks in their first, direct form: contiguous IDs, one root,
    heads in range, then every token walked all the way up to the root."""
    n = len(tokens)
    if n == 0:
        raise MalformedLine("empty sentence")
    for pos_i, tok in enumerate(tokens, start=1):
        if tok.index != pos_i:
            raise MalformedLine(
                f"token IDs must be contiguous 1..{n}, found {tok.index} at position {pos_i}"
            )
    roots = [tok.index for tok in tokens if tok.head == 0]
    if len(roots) > 1:
        raise MultipleRoots(f"tokens {roots} all have head 0")
    if not roots:
        raise NoRoot("no token has head 0")
    for tok in tokens:
        if not 0 <= tok.head <= n:
            raise HeadOutOfRange(f"token {tok.index} has head {tok.head}, valid range 0..{n}")
    for tok in tokens:
        cur = tok.index
        for _ in range(n):
            cur = tokens[cur - 1].head
            if cur == 0:
                break
        else:
            raise CycleDetected(f"head chain from token {tok.index} never reaches the root")


def entity_head_by_scan(tree, start, end):
    """Span token attached outside the span, nearest the root, then lowest index."""
    def depth(i):
        d = 0
        while tree.token(i).head != 0:
            i, d = tree.token(i).head, d + 1
        return d

    outside = [i for i in range(start, end + 1) if not start <= tree.token(i).head <= end]
    return min(outside, key=lambda i: (depth(i), i))


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """False when a and b were already connected (joining would cycle)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def component_count(self):
        return len({self.find(x) for x in self.parent})


def components_by_walk(tree, cut_nodes):
    """Partition oracle: walk each token up to its nearest component root."""
    roots = set(cut_nodes) | {tree.root}
    groups = {}
    for tok in tree.tokens:
        cur = tok.index
        while cur not in roots:
            cur = tree.token(cur).head
        groups.setdefault(cur, set()).add(tok.index)
    return groups


def check_lined_tree(tree, rt):
    """Union-find oracle: residual + link edges form one acyclic component."""
    uf = UnionFind(range(1, tree.n + 1))
    edge_count = 0
    for tok in tree.tokens:
        if tok.index in rt.cut_nodes or tok.head == 0:
            continue
        assert uf.union(tok.index, tok.head), "cycle in residual edges"
        edge_count += 1
    for lo, hi in rt.link_edges:
        assert uf.union(lo, hi), "cycle introduced by a link edge"
        edge_count += 1
    assert edge_count == tree.n - 1
    assert uf.component_count() == 1


def parse_path_line(line: str) -> tuple[int, int, SdpPath]:
    """Inverse of data.format_path_line (token indices and edges only)."""
    head_part, _, body = line.rstrip("\n").partition("\t")
    e1_head, e2_head = (int(v) for v in head_part.split())
    nodes = []
    edges = []
    for item in body.split(" "):
        kind, _, value = item.partition(":")
        if kind == "tok":
            nodes.append(int(value))
        elif kind in ("UP", "DOWN"):
            edges.append(PathEdge(value, kind))
        else:
            raise DatasetError(f"bad path item {item!r}")
    return e1_head, e2_head, SdpPath(nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------------------
# generic tape ops for the per-gate oracle, and the walk that runs them


class Tensor:
    """A float64 array plus the tape bookkeeping for the generic reverse pass."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    def add_grad(self, g):
        """Accumulate g into the gradient; an empty slot takes a copy."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def leaves(store: ParamStore) -> dict:
    """Each of the store's parameters as a leaf Tensor over its data and grad views,
    so the generic ops read its values and add into its gradient arena."""
    out = {}
    for name, param in store.items():
        leaf = out[name] = Tensor(param.data)
        leaf.grad = param.grad
    return out


def adopt(node) -> Tensor:
    """A library Node as a recorded Tensor: tape_backward runs its closure on the
    gradient the generic ops hand it."""
    return Tensor(node.data, _backward=node._backward)


def tape_nodes(root) -> list:
    """Every node reachable from root by a walk of _parents, root first, each once: what
    the benchmark's traced run counts as the tape."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data, _parents=parents)
    out._backward = backward
    return out


def tape_backward(loss: Tensor) -> None:
    """Reverse pass over any graph of recorded nodes (those with a backward closure).

    A depth-first walk over _parents orders the graph.  Every recorded
    node's gradient is reset, the loss is seeded with 1, and each recorded
    node that received a gradient runs its backward, in reverse topological
    order, adding into its inputs' gradients.  Leaf gradients add up across
    calls until zeroed.
    """
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        if node._backward is not None:
            node.grad = None
    loss.add_grad(np.asarray(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def as_loss(root: Tensor) -> Tensor:
    """root behind one node whose backward is tape_backward(root), for pathrel's backward."""
    return _node(root.data, (root,), lambda g: tape_backward(root))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,n)@(n,) -> (m,) or (m,n)@(n,k) -> (m,k)."""
    assert a.data.ndim == 2 and b.data.ndim in (1, 2) and a.data.shape[1] == b.data.shape[0], (
        f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")

    def backward(g):
        a.add_grad(np.outer(g, b.data) if b.data.ndim == 1 else g @ b.data.T)
        b.add_grad(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Sum of same-shape tensors."""
    assert a.data.shape == b.data.shape, f"add: shapes {a.data.shape} and {b.data.shape} differ"

    def backward(g):
        a.add_grad(g)
        b.add_grad(g)

    return _node(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""

    def backward(g):
        a.add_grad(g * b.data)
        b.add_grad(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def concat(parts) -> Tensor:
    """Concatenate 1-D tensors."""
    bounds = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            p.add_grad(g[lo:hi])

    return _node(np.concatenate([p.data for p in parts]), tuple(parts), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _node(y, (a,), lambda g: a.add_grad(g * (1.0 - y**2)))


def sigmoid(a: Tensor) -> Tensor:
    y = sigmoid_array(a.data)
    return _node(y, (a,), lambda g: a.add_grad(g * y * (1.0 - y)))


def max_over(parts) -> Tensor:
    """Elementwise max over same-shape 1-D tensors; the gradient goes to the
    first position holding the max."""
    stacked = np.stack([p.data for p in parts])
    winner = np.argmax(stacked, axis=0)  # first occurrence on ties

    def backward(g):
        for k, p in enumerate(parts):
            mask = winner == k
            if mask.any():
                p.add_grad(np.where(mask, g, 0.0))

    return _node(stacked[winner, np.arange(stacked.shape[1])], tuple(parts), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over a 1-D logit vector."""
    y = softmax_array(a.data)
    return _node(y, (a,), lambda g: a.add_grad(y * (g - np.dot(g, y))))


# ---------------------------------------------------------------------------
# the relation model as one tape node per gate and step

GATES = ("g", "i", "f", "o")


def lookup_row(table: Tensor, index: int) -> Tensor:
    out = Tensor(table.data[index], _parents=(table,))

    def backward(g):
        table.grad[index] += g

    out._backward = backward
    return out


def cross_entropy(dist: Tensor, target: int) -> Tensor:
    """-log(dist[target]); inf with a NaN gradient once dist[target] underflows."""
    out = Tensor(-np.log(dist.data[target]), _parents=(dist,))

    def backward(g):
        grad = np.zeros_like(dist.data)
        grad[target] = -1.0 / dist.data[target]
        dist.add_grad(g * grad)

    out._backward = backward
    return out


def sum_squares(a: Tensor) -> Tensor:
    out = Tensor(np.sum(a.data * a.data), _parents=(a,))

    def backward(g):
        a.add_grad(g * 2.0 * a.data)

    out._backward = backward
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c, _parents=(a,))

    def backward(g):
        a.add_grad(g * c)

    out._backward = backward
    return out


def per_gate_tensors(model) -> dict:
    """The model's parameters with every packed cell split into gate blocks."""
    out = {}
    for name, t in model.store.items():
        if name.endswith("_cell/w"):
            cell = name[: -len("/w")]
            rows = np.split(t.data, 4)
            x_dim = t.data.shape[1] - rows[0].shape[0]
            for gate, block in zip(GATES, rows):
                out[f"{cell}/w_{gate}x"] = block[:, :x_dim].copy()
                out[f"{cell}/w_{gate}h"] = block[:, x_dim:].copy()
        elif name.endswith("_cell/b"):
            cell = name[: -len("/b")]
            for gate, block in zip(GATES, np.split(t.data, 4)):
                out[f"{cell}/b_{gate}"] = block.copy()
        else:
            out[name] = t.data.copy()
    return out


class PerGateReference:
    """The relation model as a tape of per-gate products, on a copy of its weights."""

    def __init__(self, model):
        self.model = model
        self.params = leaves(ParamStore(per_gate_tensors(model)))

    def _cell(self, direction, channel):
        prefix = f"{direction}/{channel}_cell/"
        return SimpleNamespace(**{
            name[len(prefix):]: t for name, t in self.params.items() if name.startswith(prefix)
        })

    def _step(self, c, x, h_prev, s_prev, variant):
        g = tanh(add(add(matmul(c.w_gx, x), matmul(c.w_gh, h_prev)), c.b_g))
        i = sigmoid(add(add(matmul(c.w_ix, x), matmul(c.w_ih, h_prev)), c.b_i))
        f = sigmoid(add(add(matmul(c.w_fx, x), matmul(c.w_fh, h_prev)), c.b_f))
        o = sigmoid(add(add(matmul(c.w_ox, x), matmul(c.w_oh, h_prev)), c.b_o))
        s = add(mul(g, i), mul(s_prev, f))
        h = mul(o, tanh(s)) if variant == LSTM_STANDARD else tanh(mul(s, o))
        return h, s

    def _channel(self, cell, table, rows, dim, dropout_rng):
        cfg = self.model.config
        h = s = Tensor(np.zeros(dim))
        states = []
        for row in rows:
            x = lookup_row(table, row)
            if dropout_rng is not None and cfg.keep_prob < 1.0:
                x = mul(x, Tensor(dropout_mask((dim,), cfg.keep_prob, dropout_rng)))
            h, s = self._step(cell, x, h, s, cfg.lstm_variant)
            states.append(h)
        return states

    def _pooled(self, path, direction, dropout_rng):
        m = self.model
        p = path if direction == FWD else invert_path(path)
        words = self._channel(
            self._cell(direction, "word"), self.params["emb/word"],
            [m.word_vocab.index(form) for form in p.forms], m.config.word_dim, dropout_rng,
        )
        rels = self._channel(
            self._cell(direction, "rel"), self.params["emb/rel"],
            [m.rel_vocab.row(e.deprel, e.direction) for e in p.edges], m.config.rel_dim, dropout_rng,
        )
        w_con, b_con = self.params[f"{direction}/conv/w"], self.params[f"{direction}/conv/b"]
        if len(words) == 1:
            units = [concat([words[0], Tensor(np.zeros(m.config.rel_dim)), words[0]])]
        else:
            units = [concat([words[i], r, words[i + 1]]) for i, r in enumerate(rels)]
        return max_over([tanh(add(matmul(w_con, u), b_con)) for u in units])

    def forward(self, path, dropout_rng=None):
        g_fwd = self._pooled(path, FWD, dropout_rng)
        g_bwd = self._pooled(path, BWD, dropout_rng)
        st = self.params
        bwd = "fine_fwd" if self.model.config.share_fine_heads else "fine_bwd"
        y_fwd = softmax(add(matmul(st["fine_fwd/w"], g_fwd), st["fine_fwd/b"]))
        y_bwd = softmax(add(matmul(st[f"{bwd}/w"], g_bwd), st[f"{bwd}/b"]))
        y_coarse = softmax(add(
            add(matmul(st["coarse/w_fwd"], g_fwd), matmul(st["coarse/w_bwd"], g_bwd)), st["coarse/b"]
        ))
        return y_fwd, y_bwd, y_coarse

    def loss(self, path, label, dropout_rng=None):
        schema, cfg = self.model.schema, self.model.config
        t_fwd = schema.fine_index(label)
        y_fwd, y_bwd, y_coarse = self.forward(path, dropout_rng)
        j = add(
            add(cross_entropy(y_fwd, t_fwd), cross_entropy(y_bwd, schema.flip(t_fwd))),
            cross_entropy(y_coarse, schema.coarse_index(label)),
        )
        if cfg.l2_lambda > 0.0:
            total = Tensor(0.0)
            for name, t in self.params.items():
                if cfg.l2_include_embeddings or not name.startswith("emb/"):
                    total = add(total, sum_squares(t))
            j = add(j, scale(total, cfg.l2_lambda))
        return j

    def predict(self, path, alpha=None):
        pred = Prediction(*(y.data for y in self.forward(path)))
        alpha = self.model.config.alpha if alpha is None else alpha
        return decode(pred, alpha, self.model.schema), pred

    def packed_grads(self) -> dict:
        """The accumulated gradients, repacked into the model's parameter layout."""
        grads = {name: t.grad for name, t in self.params.items()}
        out = {}
        for name, t in self.model.store.items():
            cell = name.rsplit("/", 1)[0]
            if name.endswith("_cell/w"):
                out[name] = np.vstack([
                    np.hstack([grads[f"{cell}/w_{g}x"], grads[f"{cell}/w_{g}h"]]) for g in GATES
                ])
            elif name.endswith("_cell/b"):
                out[name] = np.concatenate([grads[f"{cell}/b_{g}"] for g in GATES])
            else:
                out[name] = grads[name]
        return out


def dense_adadelta_step(params: dict, grads: dict, sq_grad: dict, sq_update: dict, rho=0.95, eps=1e-6):
    """The textbook AdaDelta rule over every coordinate of every parameter."""
    for name, x in params.items():
        g = grads.get(name, np.zeros_like(x))
        eg2, edx2 = sq_grad[name], sq_update[name]
        eg2 *= rho
        eg2 += (1.0 - rho) * g * g
        dx = -(np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps)) * g
        edx2 *= rho
        edx2 += (1.0 - rho) * dx * dx
        x += dx


def json_checkpoint_bytes(tensors: dict, meta: dict | None = None, version: int = 2) -> bytes:
    """A checkpoint in the all-JSON layout of version 2 (and, given version=1, the
    envelope of version 1), as the writer before version 3 made it; only the tests
    that these versions are refused use it."""
    doc = {
        "format": FORMAT_NAME,
        "version": version,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": np.asarray(arr, np.float64).ravel().tolist()}
            for name, arr in sorted(tensors.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """(header, payload) of a version-3 checkpoint's bytes."""
    (length,) = struct.unpack_from("<Q", raw, len(MAGIC))
    return json.loads(raw[PREAMBLE:PREAMBLE + length]), raw[PREAMBLE + length:]


def join_checkpoint(header: dict, payload: bytes) -> bytes:
    """Version-3 bytes of a header and a payload, the header padded to a multiple of 8
    as the writer pads it."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    text += b" " * (-len(text) % 8)
    return MAGIC + struct.pack("<Q", len(text)) + text + payload


def edit_header(path, edit, out=None) -> None:
    """Rewrite a version-3 checkpoint's header through edit(header), which changes it in
    place; the result replaces the file, or goes to out if given."""
    header, payload = split_checkpoint(Path(path).read_bytes())
    edit(header)
    Path(out or path).write_bytes(join_checkpoint(header, payload))
