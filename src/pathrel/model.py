"""Two-channel recurrent-convolutional relation classifier over SDPs.

One RCNN per path direction: an LSTM channel over the path's words and a
second LSTM channel over its directed dependency relations, a convolution
over every adjacent (word, relation, word) dependency unit, and max
pooling into a per-direction feature vector G.  Each direction feeds a
fine-grained (2K+1)-way softmax head; the concatenated pools feed a
coarse (K+1)-way head.  The training objective sums the three
cross-entropies (RelationModel.loss) plus an L2 penalty (the optimizer
writes its gradient); decoding mixes the forward distribution with the
direction-swapped backward one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .autodiff import (
    Node,
    Param,
    ParamStore,
    cross_entropy_array,
    dropout_mask,
    softmax_array,
)
from .codec import Document
from .data import read_lines
from .depgraph import SdpPath
from .errors import EmptyPath
from .labels import LabelSchema
from .structreg import SR_LINK

logger = logging.getLogger(__name__)

FWD = "fwd"
BWD = "bwd"

LSTM_STANDARD = "standard"
LSTM_PAPER_LITERAL = "paper-literal"

UNK = "<unk>"

# the embedding tables: a training step touches only the rows of its path
EMBEDDING_TABLES = ("emb/word", "emb/rel")

# paths that predict_batch runs at once: bounds its (T, B, 4H) gate arrays
PREDICT_BATCH = 128


def check_alpha(alpha: float) -> None:
    """Refuse a decode mixture weight outside [0, 1], NaN included."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")


@dataclass(frozen=True)
class ModelConfig(Document):
    """Architecture and training knobs.

    Channel hidden sizes are tied to the embedding sizes.  lstm_variant
    selects the cell output: "standard" computes h = o * tanh(s),
    "paper-literal" computes h = tanh(s * o).
    """

    word_dim: int = 200
    rel_dim: int = 50
    conv_dim: int = 200
    alpha: float = 0.5
    l2_lambda: float = 1e-5
    keep_prob: float = 0.5
    lstm_variant: str = LSTM_STANDARD
    share_fine_heads: bool = False
    l2_include_embeddings: bool = False
    init_scale: float = 0.1

    def __post_init__(self):
        if min(self.word_dim, self.rel_dim, self.conv_dim) < 1:
            raise ValueError("all dimensions must be positive")
        check_alpha(self.alpha)
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob {self.keep_prob} outside (0, 1]")
        if not 0.0 <= self.l2_lambda < math.inf:
            raise ValueError(f"l2_lambda {self.l2_lambda} must be finite and >= 0")
        if not 0.0 < 2.0 * self.init_scale < math.inf:  # uniform(-s, s) needs 2s finite
            raise ValueError(f"init_scale {self.init_scale} must be finite and > 0, as must twice it")
        if self.lstm_variant not in (LSTM_STANDARD, LSTM_PAPER_LITERAL):
            raise ValueError(f"unknown lstm_variant {self.lstm_variant!r}")


class Vocabulary:
    """Word forms to embedding rows; row 0 is the trained UNK."""

    def __init__(self, words):
        self.words = [UNK] + sorted(set(words) - {UNK})
        self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def index(self, form: str) -> int:
        return self._index.get(form, 0)

    def to_list(self) -> list[str]:
        return self.words[1:]


class RelationVocabulary:
    """Directed dependency relations to embedding rows.

    A relation and its reverse get distinct rows (2i for UP, 2i+1 for
    DOWN); the synthetic SR-LINK label is a first-class relation.  The
    final row is the shared UNK for relations unseen in training.
    """

    def __init__(self, deprels):
        self.deprels = sorted(set(deprels) | {SR_LINK})
        self._index = {d: i for i, d in enumerate(self.deprels)}

    @property
    def table_size(self) -> int:
        return 2 * len(self.deprels) + 1

    def row(self, deprel: str, direction: str) -> int:
        i = self._index.get(deprel)
        if i is None:
            return self.table_size - 1
        return 2 * i + (0 if direction == "UP" else 1)

    def to_list(self) -> list[str]:
        return self.deprels


class LstmCell:
    """One LSTM cell bound to its packed (4H, X+H) weight and 4H bias in a store.

    The weight's row blocks are the gates g, i, f, o and its columns are
    [x | h], so one product W [x; h] + b gives every gate's pre-activation.
    """

    GATES = ("g", "i", "f", "o")

    def __init__(self, store: ParamStore, prefix: str):
        self.w, self.b = store[f"{prefix}/w"], store[f"{prefix}/b"]
        self.hidden_dim = len(self.b.data) // 4
        self.input_dim = self.w.data.shape[1] - self.hidden_dim


def lstm_step(z: np.ndarray, w_h_t: np.ndarray, hs: np.ndarray, ss: np.ndarray, t: int,
              variant: str = LSTM_STANDARD) -> None:
    """One cell step from z = W_x x_t + b: writes h_t and s_t into hs[t+1] and ss[t+1].

    z is one path's (4H,) row or a (B, 4H) batch of rows; hs and ss hold
    the states in rows, hs[t] and ss[t] the previous ones, and w_h_t is
    the cell's recurrent block transposed, (H, 4H).  Adds hs[t] @ w_h_t to
    z in place and leaves the gate activations [g, i, f, o] in it for the
    backward pass.  One tanh over the whole row takes every gate, since
    sigmoid(x) = 0.5 tanh(x/2) + 0.5.
    """
    n = w_h_t.shape[0]
    z += hs[t] @ w_h_t
    sig = z[..., n:]
    sig *= 0.5
    np.tanh(z, out=z)
    sig *= 0.5
    sig += 0.5
    g, i, f, o = z[..., :n], z[..., n : 2 * n], z[..., 2 * n : 3 * n], z[..., 3 * n :]
    s, h = ss[t + 1], hs[t + 1]
    np.multiply(g, i, out=s)
    s += ss[t] * f
    if variant == LSTM_STANDARD:
        np.tanh(s, out=h)
        h *= o
    else:
        np.multiply(s, o, out=h)
        np.tanh(h, out=h)


def project_inputs(cell: LstmCell, x: np.ndarray) -> np.ndarray:
    """A channel's input stage: x @ W_x.T + b over x's rows, (..., X) -> (..., 4H).

    One GEMM projects every row, and the bias joins that projection once.
    """
    acts = x.reshape(-1, cell.input_dim) @ cell.w.data[:, : cell.input_dim].T
    acts += cell.b.data
    return acts.reshape(*x.shape[:-1], 4 * cell.hidden_dim)


def recur(cell: LstmCell, acts: np.ndarray, variant=LSTM_STANDARD):
    """A channel's recurrent stage over acts' first (time) axis; returns (hs, ss).

    acts holds projected rows, (T, 4H) for one path or (T, B, 4H) for B
    paths of equal length, and each lstm_step leaves its gate activations
    there in place.  hs and ss hold the zero start state in row 0 and h_t,
    s_t in row t+1.
    """
    hs = np.zeros((len(acts) + 1, *acts.shape[1:-1], cell.hidden_dim))
    ss = np.zeros_like(hs)
    w_h_t = cell.w.data[:, cell.input_dim :].T
    for t in range(len(acts)):
        lstm_step(acts[t], w_h_t, hs, ss, t, variant)
    return hs, ss


def lstm_channel(cell: LstmCell, table: Param, rows, mask=None, variant=LSTM_STANDARD) -> Node:
    """One path's channel as one tape node: the (T, H) hidden states.

    The forward embeds rows, applies mask if any, and runs project_inputs
    and recur.  The backward pass is backpropagation through time; the
    packed weight gradient is one GEMM, dW = dZ^T [X | H_prev], and
    (dZ W_x) * mask scatter-adds into the table's gradient in row order.
    """
    n, x_dim = cell.hidden_dim, cell.input_dim
    w = cell.w.data
    x = table.data[rows]
    if mask is not None:
        x *= mask
    acts = project_inputs(cell, x)
    hs, ss = recur(cell, acts, variant)
    steps = x.shape[0]

    def backward(dh_out):
        gates = acts.reshape(steps, 4, n)
        g, i, f, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
        s = ss[1:]
        # the step-local derivatives, for all steps at once: dh_t -> ds_t,
        # dh_t -> dz_o, and ds_t -> (dz_g, dz_i, dz_f)
        if variant == LSTM_STANDARD:
            tanh_s = np.tanh(s)
            to_ds = o * (1.0 - tanh_s * tanh_s)
            to_dzo = tanh_s * o * (1.0 - o)
        else:
            du = 1.0 - hs[1:] * hs[1:]
            to_ds = du * o
            to_dzo = du * s * o * (1.0 - o)
        from_ds = np.stack([i * (1.0 - g * g), g * i * (1.0 - i), ss[:-1] * f * (1.0 - f)], axis=1)
        w_h_t = w[:, x_dim:].T
        dz = np.empty((steps, 4, n))
        dh_next = ds_next = 0.0
        for t in range(steps - 1, -1, -1):
            dh = dh_out[t] + dh_next
            ds = dh * to_ds[t] + ds_next
            np.multiply(from_ds[t], ds, out=dz[t, :3])
            np.multiply(dh, to_dzo[t], out=dz[t, 3])
            ds_next = ds * f[t]
            if t:
                dh_next = w_h_t @ dz[t].reshape(-1)
        dz = dz.reshape(steps, 4 * n)
        dx = dz @ w[:, :x_dim]
        if mask is not None:
            dx *= mask
        np.add.at(table.grad, rows, dx)
        cell.w.grad[...] += dz.T @ np.hstack([x, hs[:-1]])
        cell.b.grad[...] += dz.sum(axis=0)

    return Node(hs[1:], backward)


def conv_forward(hw: np.ndarray, hr: np.ndarray, w: np.ndarray, b: np.ndarray):
    """tanh convolution over every dependency unit, then the max over units.

    hw is (T, ..., H) and hr (T-1, ..., R).  Unit i = [word_i | rel_i |
    word_i+1]; a single-node path gives one pseudo-unit [word_0 | 0 |
    word_0].  One GEMM scores every unit.  Returns (units, act, pooled).
    """
    if len(hw) == 1:
        units = np.concatenate([hw, np.zeros((1, *hr.shape[1:])), hw], axis=-1)
    else:
        units = np.concatenate([hw[:-1], hr, hw[1:]], axis=-1)
    act = np.tanh(units.reshape(-1, units.shape[-1]) @ w.T + b).reshape(*units.shape[:-1], -1)
    return units, act, act.max(axis=0)


def conv_pool(word_states: Node, rel_states: Node, w_con: Param, b_con: Param) -> Node:
    """conv_forward over one path's states as one tape node: its (C,) pooled features.

    A single-node path (both entity heads identical) pools one pseudo-unit
    built from the word state with a zero relation slot.  Its backward runs
    the word channel's backward after its own writes, then the relation's.
    """
    hw = word_states.data
    n_words, dim = hw.shape
    if n_words == 1:
        logger.debug("single-node path: pooling a pseudo-unit with zero relation state")
    units, act, pooled = conv_forward(hw, rel_states.data, w_con.data, b_con.data)
    winner = np.argmax(act, axis=0)  # the max's first occurrence takes the gradient
    cols = np.arange(act.shape[1])

    def backward(g):
        dpre = np.zeros_like(act)
        dpre[winner, cols] = g * (1.0 - pooled**2)
        w_con.grad[...] += dpre.T @ units
        b_con.grad[...] += dpre.sum(axis=0)
        du = dpre @ w_con.data
        dw = np.zeros_like(hw)  # unit i holds words i and i+1; the pseudo-unit word 0 twice
        dw[: len(du)] += du[:, :dim]
        dw[n_words - len(du) :] += du[:, -dim:]
        word_states._backward(dw)
        if n_words > 1:
            rel_states._backward(du[:, dim:-dim])

    return Node(pooled, backward, (word_states, rel_states))


@dataclass
class Prediction:
    """The three classifier distributions, plus the decode mixture."""

    y_fwd: np.ndarray
    y_bwd: np.ndarray
    y_coarse: np.ndarray
    y_test: np.ndarray | None = None


def decode(pred: Prediction, alpha: float, schema: LabelSchema):
    """Mix alpha * y_fwd + (1-alpha) * direction-swapped y_bwd and argmax each row.

    pred holds one path's (K,) distributions, and then the label is
    returned, or a slice's (B, K) stacks, and then the list of B labels.
    Ties break toward the lowest class index.  Fills pred.y_test.
    """
    pred.y_test = alpha * pred.y_fwd + (1.0 - alpha) * schema.flip_distribution(pred.y_bwd)
    best = np.argmax(pred.y_test, axis=-1)
    if best.ndim == 0:
        return schema.fine_label(int(best))
    return [schema.fine_label(i) for i in best.tolist()]


def _check_path(path: SdpPath) -> None:
    """Refuse a path the encoder cannot read: empty, without forms, or with a
    relation column that does not hold one entry per step."""
    n = len(path.nodes)
    if n == 0:
        raise EmptyPath("cannot encode an empty path")
    if len(path.forms) != n:
        raise ValueError("path carries no surface forms; extract it from a tree first")
    if not len(path.deprels) == len(path.directions) == n - 1:
        raise ValueError(f"{n} nodes need {n - 1} deprels and directions, "
                         f"got {len(path.deprels)} and {len(path.directions)}")


def load_word_embeddings(path, vocab: Vocabulary, table: np.ndarray) -> None:
    """Text embeddings, one `word v1 v2 ... vd` line per word, written into table in place.

    Trailing whitespace is ignored and one leading byte-order mark dropped.
    A word's vector goes to row vocab.index(word), a later line winning;
    row 0 (UNK, which also stands for words outside vocab) is never written,
    and no line is kept, so memory does not grow with the file.  Every value
    must be an ASCII number without `_`, and every vector finite with
    d = table.shape[1] values (the model's word_dim); a line that breaks a
    rule raises ValueError naming `file:line`, whether or not the word is in
    the vocabulary.
    """
    dim = table.shape[1]
    for line_no, line in enumerate(read_lines(path, encoding="utf-8-sig"), start=1):
        line = line.rstrip()
        parts = line.split(" ")
        if len(parts) < 2:
            raise ValueError(f"{path}:{line_no}: expected `word v1 ... vd`")
        values = line[len(parts[0]) + 1 :]  # parts[1:] joined by spaces
        if not values.isascii() or "_" in values:  # float() reads `1_0`, `١`
            bad = next(v for v in parts[1:] if not v.isascii() or "_" in v)
            raise ValueError(f"{path}:{line_no}: vector for {parts[0]!r} holds {bad!r}, "
                             "not an ASCII number")
        try:
            vec = np.array(parts[1:], dtype=np.float64)  # numpy reads what float() reads
        except ValueError:
            try:  # float() names the first bad value in its own words
                vec = np.array([float(v) for v in parts[1:]])
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: {err}") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{line_no}: vector for {parts[0]!r} is not finite")
        if len(vec) != dim:
            raise ValueError(f"{path}:{line_no}: vector for {parts[0]!r} has {len(vec)} "
                             f"values, expected word_dim {dim}")
        if row := vocab.index(parts[0]):
            table[row] = vec


def layout(config: ModelConfig, schema: LabelSchema, n_words: int, n_rels: int) -> dict:
    """Each parameter's name -> shape, in the order RelationModel draws them."""
    shapes = {"emb/word": (n_words, config.word_dim), "emb/rel": (n_rels, config.rel_dim)}
    for direction in (FWD, BWD):
        for channel, dim in (("word", config.word_dim), ("rel", config.rel_dim)):
            shapes[f"{direction}/{channel}_cell/w"] = (4 * dim, 2 * dim)
            shapes[f"{direction}/{channel}_cell/b"] = (4 * dim,)
        shapes[f"{direction}/conv/w"] = (config.conv_dim, 2 * config.word_dim + config.rel_dim)
        shapes[f"{direction}/conv/b"] = (config.conv_dim,)
    for head in ("fine_fwd",) if config.share_fine_heads else ("fine_fwd", "fine_bwd"):
        shapes[f"{head}/w"] = (schema.fine_size, config.conv_dim)
        shapes[f"{head}/b"] = (schema.fine_size,)
    shapes["coarse/w_fwd"] = shapes["coarse/w_bwd"] = (schema.coarse_size, config.conv_dim)
    shapes["coarse/b"] = (schema.coarse_size,)
    return shapes


class RelationModel:
    """Parameters plus forward/loss/decode for one schema and vocabulary."""

    def __init__(
        self,
        config: ModelConfig,
        schema: LabelSchema,
        word_vocab: Vocabulary,
        rel_vocab: RelationVocabulary,
        seed: int = 0,
        params: dict[str, np.ndarray] | None = None,
    ):
        self.config = config
        self.schema = schema
        self.word_vocab = word_vocab
        self.rel_vocab = rel_vocab
        self.meta: dict = {}

        if params is None:  # load passes a checkpoint's; otherwise draw them in layout order
            rng = np.random.default_rng(seed)
            s = config.init_scale

            def draw(*shape):
                return rng.uniform(-s, s, size=shape)

            params = {}
            for name, shape in layout(config, schema, len(word_vocab), rel_vocab.table_size).items():
                if name.endswith("/b"):
                    params[name] = np.zeros(shape)
                elif name.endswith("_cell/w"):  # eight gate blocks [x | h], gate by gate
                    n = shape[0] // 4
                    params[name] = np.vstack([np.hstack([draw(n, shape[1] - n), draw(n, n)])
                                              for _ in LstmCell.GATES])
                else:
                    params[name] = draw(*shape)
        # a penalized table has a gradient at every row on every step: it updates as dense
        st = self.store = ParamStore(params, () if config.l2_include_embeddings else EMBEDDING_TABLES)
        self.emb_word, self.emb_rel = st["emb/word"], st["emb/rel"]
        self.cells = {(d, c): LstmCell(st, f"{d}/{c}_cell")
                      for d in (FWD, BWD) for c in ("word", "rel")}
        self.conv = {d: (st[f"{d}/conv/w"], st[f"{d}/conv/b"]) for d in (FWD, BWD)}
        self.fine_heads = {FWD: (st["fine_fwd/w"], st["fine_fwd/b"])}
        self.fine_heads[BWD] = (self.fine_heads[FWD] if config.share_fine_heads
                                else (st["fine_bwd/w"], st["fine_bwd/b"]))
        self.coarse_head = (st["coarse/w_fwd"], st["coarse/w_bwd"], st["coarse/b"])

    # -- forward pieces -------------------------------------------------

    def _rows(self, path: SdpPath):
        """The path's forward word and relation embedding rows, as (T,) and (T-1,) arrays.

        Checks the path first (_check_path).
        """
        _check_path(path)
        n = len(path.forms)
        words = np.fromiter(map(self.word_vocab.index, path.forms), np.intp, n)
        rels = np.fromiter(map(self.rel_vocab.row, path.deprels, path.directions), np.intp, n - 1)
        return words, rels

    def _backward_rows(self, words: np.ndarray, rels: np.ndarray):
        """The inverted path's rows from forward rows with time on the first axis.

        Both are reversed along that axis, and each known relation's UP and
        DOWN rows (2i, 2i+1) swap; the UNK row stays.
        """
        unk = self.rel_vocab.table_size - 1
        return words[::-1], np.where(rels == unk, rels, rels ^ 1)[::-1]

    def encode_path(self, rows, direction: str, dropout_rng=None):
        """(T, H) word-channel and (T-1, H) relation-channel LSTM states.

        rows is the path's (words, rels) read in direction.  Each channel is
        one lstm_channel node.  With a dropout rng the embedded inputs are
        masked (training mode), one mask per channel, the word mask drawn
        first.
        """
        cfg = self.config
        states = []
        for channel, table, ids in zip(("word", "rel"), (self.emb_word, self.emb_rel), rows):
            mask = None
            if dropout_rng is not None and cfg.keep_prob < 1.0:
                mask = dropout_mask((len(ids), table.data.shape[1]), cfg.keep_prob, dropout_rng)
            cell = self.cells[(direction, channel)]
            states.append(lstm_channel(cell, table, ids, mask, cfg.lstm_variant))
        return tuple(states)

    def classify(self, g_fwd: np.ndarray, g_bwd: np.ndarray):
        """(z_fwd, z_bwd, z_coarse) logits from (C,) or (B, C) pooled rows."""
        (wf, bf), (wb, bb) = self.fine_heads[FWD], self.fine_heads[BWD]
        wc_f, wc_b, bc = self.coarse_head
        z_fwd = g_fwd @ wf.data.T + bf.data
        z_bwd = g_bwd @ wb.data.T + bb.data
        z_coarse = (g_fwd @ wc_f.data.T + g_bwd @ wc_b.data.T) + bc.data
        return z_fwd, z_bwd, z_coarse

    def loss(self, path: SdpPath, label: str, dropout_rng=None) -> Node:
        """The data term of the objective as one heads node over the two conv-pool nodes.

        Its value is (ce_fwd + ce_bwd) + ce_coarse, the three cross-entropies
        over classify.  The backward fine target is the direction-swapped
        gold class, mirroring the inverted input path.  The backward writes
        softmax - onehot per head: outer(dz, g) into each head weight (fine
        forward, fine backward, coarse: the order a shared fine head
        accumulates in), then runs the forward conv-pool's backward on
        W^T dz, then the backward direction's.  The L2 term is not here: its
        value is store.l2_penalty(l2_lambda), and its gradient is the one
        the optimizer leaves in the store (AdaDeltaState's l2_lambda).
        """
        t_fwd = self.schema.fine_index(label)
        targets = (t_fwd, self.schema.flip(t_fwd), self.schema.coarse_index(label))
        fwd = self._rows(path)
        rows = {FWD: fwd, BWD: self._backward_rows(*fwd)}
        g_fwd, g_bwd = (
            conv_pool(*self.encode_path(rows[d], d, dropout_rng), *self.conv[d]) for d in (FWD, BWD)
        )
        (wf, bf), (wb, bb) = self.fine_heads[FWD], self.fine_heads[BWD]
        wc_f, wc_b, bc = self.coarse_head
        logits = self.classify(g_fwd.data, g_bwd.data)
        (ce_f, dz_f), (ce_b, dz_b), (ce_c, dz_c) = map(cross_entropy_array, logits, targets)

        def backward(g):
            df, db, dc = g * dz_f, g * dz_b, g * dz_c
            wf.grad[...] += np.outer(df, g_fwd.data)
            bf.grad[...] += df
            wb.grad[...] += np.outer(db, g_bwd.data)
            bb.grad[...] += db
            wc_f.grad[...] += np.outer(dc, g_fwd.data)
            wc_b.grad[...] += np.outer(dc, g_bwd.data)
            bc.grad[...] += dc
            g_fwd._backward(wf.data.T @ df + wc_f.data.T @ dc)
            g_bwd._backward(wb.data.T @ db + wc_b.data.T @ dc)

        return Node(np.asarray((ce_f + ce_b) + ce_c, dtype=np.float64), backward, (g_fwd, g_bwd))

    # -- inference -------------------------------------------------------

    def predict(self, path: SdpPath, alpha: float | None = None):
        """Eval-mode decode of one path; returns (label, Prediction with y_test)."""
        return self.predict_batch([path], alpha)[0]

    def predict_batch(self, paths, alpha: float | None = None) -> list:
        """Eval-mode decode of many paths without the tape, in input order.

        Returns one (label, Prediction with y_test) per path; an alpha
        outside [0, 1] raises ValueError.  Each path's rows are read once
        (_rows) and the backward ones derived (_backward_rows).  Paths of
        equal node count run together, at most PREDICT_BATCH at a time, so
        nothing is padded or masked.  One direction at a time, each channel
        projects the call's distinct rows once (project_inputs), and each
        slice gathers its inputs from that table and runs recur and
        conv_forward.  The forward pass keeps every slice's (B, C) pooled
        rows; the backward pass hands each slice's on, and classify, the
        softmax and decode take the slice's rows at once.

        Memory: one direction's tables at a time, its distinct word and
        relation rows times 4H floats each; the forward pooled rows, C
        floats per path; and one slice's arrays, (T, B, 4H) gates and
        (T+1, B, H) states per channel and the (T-1, B, C) convolution.
        """
        alpha = self.config.alpha if alpha is None else alpha
        check_alpha(alpha)
        rows = [self._rows(p) for p in paths]
        groups: dict[int, list[int]] = {}
        for k, (words, _) in enumerate(rows):
            groups.setdefault(len(words), []).append(k)
        slices = [members[start : start + PREDICT_BATCH]
                  for members in groups.values() for start in range(0, len(members), PREDICT_BATCH)]
        # each slice's (T, B) word and (T-1, B) relation rows, forward
        fwd = [tuple(np.array([rows[k][c] for k in part], dtype=np.intp).T for c in (0, 1))
               for part in slices]
        g_fwd = list(self._pooled_slices(fwd, FWD))
        g_bwd = self._pooled_slices([self._backward_rows(*s) for s in fwd], BWD)
        out = [None] * len(paths)
        for part, gf, gb in zip(slices, g_fwd, g_bwd):
            pred = Prediction(*(softmax_array(z) for z in self.classify(gf, gb)))
            labels = decode(pred, alpha, self.schema)
            for j, k in enumerate(part):
                out[k] = (labels[j], Prediction(pred.y_fwd[j], pred.y_bwd[j], pred.y_coarse[j],
                                                pred.y_test[j]))
        return out

    def _pooled_slices(self, slices, direction: str):
        """Yields each slice's (B, C) pooled features from its (T, B) word and (T-1, B)
        relation rows read in direction, time-major inside.

        Each channel projects the distinct rows of all slices once into a
        (U, 4H) table, and a slice gathers its (T, B, 4H) inputs from it.
        """
        variant = self.config.lstm_variant
        channels = []
        for c, (channel, table) in enumerate((("word", self.emb_word), ("rel", self.emb_rel))):
            cell = self.cells[(direction, channel)]
            seen = np.zeros(len(table.data), dtype=bool)
            for s in slices:
                seen[s[c]] = True
            place = np.cumsum(seen) - 1  # a seen row's index among the distinct rows
            channels.append((cell, place, project_inputs(cell, table.data[seen])))
        w_con, b_con = self.conv[direction]
        for s in slices:
            hw, hr = (recur(cell, acts[place[r]], variant)[0]
                      for (cell, place, acts), r in zip(channels, s))
            yield conv_forward(hw[1:], hr[1:], w_con.data, b_con.data)[2]

    # -- persistence -------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "config": self.config.to_dict(),
            "schema": self.schema.to_dict(),
            "words": self.word_vocab.to_list(),
            "deprels": self.rel_vocab.to_list(),
        }
        if extra_meta:
            meta.update(extra_meta)
        ckpt.save_checkpoint(path, {name: t.data for name, t in self.store.items()}, meta)

    @classmethod
    def load(cls, path) -> "RelationModel":
        """The model a checkpoint describes, checked against layout(); its meta stays on model.meta."""
        tensors, meta = ckpt.load_checkpoint(path)
        missing = [key for key in ("config", "schema", "words", "deprels") if key not in meta]
        if missing:
            raise ckpt.CheckpointError(f"{path}: meta has no {', '.join(missing)}")
        for key in ("words", "deprels"):
            if not isinstance(meta[key], list) or not all(isinstance(w, str) for w in meta[key]):
                raise ckpt.CheckpointError(f"{path}: meta {key} is not a list of strings")
        config = ModelConfig.from_dict(meta["config"], source=f"{path}: meta config")
        schema = LabelSchema.from_dict(meta["schema"], source=f"{path}: meta schema")
        word_vocab, rel_vocab = Vocabulary(meta["words"]), RelationVocabulary(meta["deprels"])
        shapes = layout(config, schema, len(word_vocab), rel_vocab.table_size)
        expected, got = set(shapes), set(tensors)
        if expected != got:
            raise ckpt.CheckpointError(
                f"{path}: parameter names differ "
                f"(missing {sorted(expected - got)}, extra {sorted(got - expected)})"
            )
        for name, arr in tensors.items():
            if arr.shape != shapes[name]:
                raise ckpt.CheckpointError(
                    f"{path}: tensor {name!r}: shape {arr.shape} != expected {shapes[name]}"
                )
        model = cls(config, schema, word_vocab, rel_vocab, params=tensors)
        model.meta = meta
        return model
