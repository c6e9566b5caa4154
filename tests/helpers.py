"""Shared random generators and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: paths come
from breadth-first search over an undirected adjacency list, partitions
from direct upward walks, and tree checks from union-find.  The relation
model's oracle is its per-gate formulation: one tape node per gate
product and step, plain cross-entropy of a softmax, an L2 graph over
every parameter, and the dense AdaDelta rule.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np

from pathrel.autodiff import (
    ParamStore,
    Tensor,
    add,
    concat,
    constant,
    dropout_mask,
    matmul,
    max_over,
    mul,
    sigmoid,
    softmax,
    tanh,
)
from pathrel.depgraph import DependencyTree, Token
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
    parents, labels = structure.path_parents()
    adj = {i: [] for i in parents}
    for child, parent in parents.items():
        if parent != 0:
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


# ---------------------------------------------------------------------------
# the relation model as one tape node per gate and step

GATES = ("g", "i", "f", "o")


def lookup_row(table: Tensor, index: int) -> Tensor:
    out = Tensor(table.data[index], _parents=(table,))

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
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
        self.store = ParamStore()
        for name, arr in per_gate_tensors(model).items():
            self.store.add(name, arr)

    def _cell(self, direction, channel):
        prefix = f"{direction}/{channel}_cell/"
        return SimpleNamespace(**{
            name[len(prefix):]: t for name, t in self.store.items() if name.startswith(prefix)
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
        h = s = constant(np.zeros(dim))
        states = []
        for row in rows:
            x = lookup_row(table, row)
            if dropout_rng is not None and cfg.keep_prob < 1.0:
                x = mul(x, constant(dropout_mask((dim,), cfg.keep_prob, dropout_rng)))
            h, s = self._step(cell, x, h, s, cfg.lstm_variant)
            states.append(h)
        return states

    def _pooled(self, path, direction, dropout_rng):
        m = self.model
        p = path if direction == FWD else invert_path(path)
        words = self._channel(
            self._cell(direction, "word"), self.store["emb/word"],
            [m.word_vocab.index(form) for form in p.forms], m.config.word_dim, dropout_rng,
        )
        rels = self._channel(
            self._cell(direction, "rel"), self.store["emb/rel"],
            [m.rel_vocab.row(e.deprel, e.direction) for e in p.edges], m.config.rel_dim, dropout_rng,
        )
        w_con, b_con = self.store[f"{direction}/conv/w"], self.store[f"{direction}/conv/b"]
        if len(words) == 1:
            units = [concat([words[0], constant(np.zeros(m.config.rel_dim)), words[0]])]
        else:
            units = [concat([words[i], r, words[i + 1]]) for i, r in enumerate(rels)]
        return max_over([tanh(add(matmul(w_con, u), b_con)) for u in units])

    def forward(self, path, dropout_rng=None):
        g_fwd = self._pooled(path, FWD, dropout_rng)
        g_bwd = self._pooled(path, BWD, dropout_rng)
        st = self.store
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
            for name, t in self.store.items():
                if cfg.l2_include_embeddings or not name.startswith("emb/"):
                    total = add(total, sum_squares(t))
            j = add(j, scale(total, cfg.l2_lambda))
        return j, Prediction(y_fwd.data, y_bwd.data, y_coarse.data)

    def predict(self, path, alpha=None):
        pred = Prediction(*(y.data for y in self.forward(path)))
        alpha = self.model.config.alpha if alpha is None else alpha
        return decode(pred, alpha, self.model.schema), pred

    def packed_grads(self) -> dict:
        """The accumulated gradients, repacked into the model's parameter layout."""
        grads = {
            name: t.grad if t.grad is not None else np.zeros_like(t.data)
            for name, t in self.store.items()
        }
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
