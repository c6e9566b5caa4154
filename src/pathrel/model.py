"""Two-channel recurrent-convolutional relation classifier over SDPs.

One RCNN per path direction: an LSTM channel over the path's words and a
second LSTM channel over its directed dependency relations, a convolution
over every adjacent (word, relation, word) dependency unit, and max
pooling into a per-direction feature vector G.  Each direction feeds a
fine-grained (2K+1)-way softmax head; the concatenated pools feed a
coarse (K+1)-way head.  The training objective sums the three
cross-entropies plus an L2 penalty; decoding mixes the forward
distribution with the direction-swapped backward one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .autodiff import (
    ParamStore,
    Tensor,
    add,
    constant,
    dropout_mask,
    gather_rows,
    matmul,
    mul,
    sigmoid_array,
    softmax,
    softmax_cross_entropy,
)
from .depgraph import SdpPath
from .labels import LabelSchema
from .structreg import SR_LINK, invert_path

logger = logging.getLogger(__name__)

FWD = "fwd"
BWD = "bwd"

LSTM_STANDARD = "standard"
LSTM_PAPER_LITERAL = "paper-literal"

UNK = "<unk>"

# the embedding tables: a training step touches only the rows of its path
EMBEDDING_TABLES = ("emb/word", "emb/rel")


class EmptyPath(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
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
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob {self.keep_prob} outside (0, 1]")
        if self.lstm_variant not in (LSTM_STANDARD, LSTM_PAPER_LITERAL):
            raise ValueError(f"unknown lstm_variant {self.lstm_variant!r}")

    @property
    def word_hidden(self) -> int:
        return self.word_dim

    @property
    def rel_hidden(self) -> int:
        return self.rel_dim

    def to_dict(self) -> dict:
        return {
            "word_dim": self.word_dim,
            "rel_dim": self.rel_dim,
            "conv_dim": self.conv_dim,
            "alpha": self.alpha,
            "l2_lambda": self.l2_lambda,
            "keep_prob": self.keep_prob,
            "lstm_variant": self.lstm_variant,
            "share_fine_heads": self.share_fine_heads,
            "l2_include_embeddings": self.l2_include_embeddings,
            "init_scale": self.init_scale,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


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
    """One LSTM cell: a packed (4H, X+H) weight and a 4H bias.

    The weight's row blocks are the gates g, i, f, o and its columns are
    [x | h], so one product W [x; h] + b gives every gate's pre-activation.
    Initialization draws the eight per-gate blocks in the order w_gx, w_gh,
    w_ix, w_ih, ..., w_oh.
    """

    GATES = ("g", "i", "f", "o")

    def __init__(
        self, store: ParamStore, prefix: str, input_dim: int, hidden_dim: int, rng, init_scale: float
    ):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        s = init_scale
        blocks = [
            np.hstack([
                rng.uniform(-s, s, size=(hidden_dim, input_dim)),
                rng.uniform(-s, s, size=(hidden_dim, hidden_dim)),
            ])
            for _ in self.GATES
        ]
        self.w = store.add(f"{prefix}/w", np.vstack(blocks))
        self.b = store.add(f"{prefix}/b", np.zeros(4 * hidden_dim))


def _init(store: ParamStore, name: str, shape, rng, init_scale: float = 0.1) -> Tensor:
    if rng is None:
        return store.add(name, np.zeros(shape))
    return store.add(name, rng.uniform(-init_scale, init_scale, size=shape))


def lstm_step(cell: LstmCell, z: np.ndarray, h_prev, s_prev, variant: str = LSTM_STANDARD):
    """One cell step from z = W_x x_t; returns (h_t, s_t).

    Adds the recurrent term and the bias to z in place and leaves the gate
    activations [g, i, f, o] in it for the backward pass.
    """
    n = cell.hidden_dim
    z += cell.w.data[:, cell.input_dim :] @ h_prev
    z += cell.b.data
    np.tanh(z[:n], out=z[:n])
    z[n:] = sigmoid_array(z[n:])
    g, i, f, o = z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :]
    s = g * i + s_prev * f
    if variant == LSTM_STANDARD:
        h = o * np.tanh(s)
    else:
        h = np.tanh(s * o)
    return h, s


def lstm_sequence(cell: LstmCell, xs: Tensor, variant: str = LSTM_STANDARD) -> Tensor:
    """Every step of one channel as one tape node: the (T, H) hidden states.

    One GEMM projects all inputs and lstm_step runs the recurrence.  The
    backward pass is backpropagation through time; the packed weight
    gradient is one GEMM, dW = dZ^T [X | H_prev].
    """
    n, x_dim = cell.hidden_dim, cell.input_dim
    w = cell.w.data
    x = xs.data
    steps = x.shape[0]
    acts = x @ w[:, :x_dim].T  # pre-activations, then gate activations
    hs = np.zeros((steps + 1, n))  # row t+1 is h_t; row 0 the zero start state
    ss = np.zeros((steps + 1, n))
    for t in range(steps):
        hs[t + 1], ss[t + 1] = lstm_step(cell, acts[t], hs[t], ss[t], variant)
    out = Tensor(hs[1:], _parents=(xs, cell.w, cell.b))

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
        xs.add_grad(dz @ w[:, :x_dim], fresh=True)
        cell.w.add_grad(dz.T @ np.hstack([x, hs[:-1]]), fresh=True)
        cell.b.add_grad(dz.sum(axis=0), fresh=True)

    out._backward = backward
    return out


def conv_pool(word_states: Tensor, rel_states: Tensor, w_con: Tensor, b_con: Tensor) -> Tensor:
    """tanh convolution over every dependency unit, then an elementwise max.

    Unit i is [word_i | rel_i | word_i+1]; one GEMM scores every unit, and
    the max keeps the first occurrence on ties.  A single-node path (both
    entity heads identical) pools one pseudo-unit built from the word state
    with a zero relation slot.
    """
    hw, hr = word_states.data, rel_states.data
    n_words, dim = hw.shape
    if n_words == 1:
        logger.debug("single-node path: pooling a pseudo-unit with zero relation state")
        units = np.concatenate([hw[0], np.zeros(hr.shape[1]), hw[0]])[None, :]
    else:
        units = np.hstack([hw[:-1], hr, hw[1:]])
    act = np.tanh(units @ w_con.data.T + b_con.data)
    winner = np.argmax(act, axis=0)  # first occurrence on ties
    cols = np.arange(act.shape[1])
    out = Tensor(act[winner, cols], _parents=(word_states, rel_states, w_con, b_con))

    def backward(g):
        dpre = np.zeros_like(act)
        dpre[winner, cols] = g * (1.0 - out.data**2)
        w_con.add_grad(dpre.T @ units, fresh=True)
        b_con.add_grad(dpre.sum(axis=0), fresh=True)
        du = dpre @ w_con.data
        dw = np.zeros_like(hw)  # unit i holds words i and i+1; the pseudo-unit word 0 twice
        dw[: len(du)] += du[:, :dim]
        dw[n_words - len(du) :] += du[:, -dim:]
        word_states.add_grad(dw, fresh=True)
        if n_words > 1:
            rel_states.add_grad(du[:, dim:-dim])

    out._backward = backward
    return out


@dataclass
class Prediction:
    """The three classifier distributions, plus the decode mixture."""

    y_fwd: np.ndarray
    y_bwd: np.ndarray
    y_coarse: np.ndarray
    y_test: np.ndarray | None = None


def decode(pred: Prediction, alpha: float, schema: LabelSchema) -> str:
    """Mix alpha * y_fwd + (1-alpha) * direction-swapped y_bwd and argmax.

    Ties break toward the lowest class index.  Fills pred.y_test.
    """
    pred.y_test = alpha * pred.y_fwd + (1.0 - alpha) * schema.flip_distribution(pred.y_bwd)
    return schema.fine_label(int(np.argmax(pred.y_test)))


def load_word_embeddings(path) -> dict[str, np.ndarray]:
    """Text embeddings, one `word v1 v2 ... vd` line per word."""
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_no}: expected `word v1 ... vd`")
            table[parts[0]] = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
    return table


class RelationModel:
    """Parameters plus forward/loss/decode for one schema and vocabulary."""

    def __init__(
        self,
        config: ModelConfig,
        schema: LabelSchema,
        word_vocab: Vocabulary,
        rel_vocab: RelationVocabulary,
        seed: int = 0,
        pretrained: dict[str, np.ndarray] | None = None,
    ):
        self.config = config
        self.schema = schema
        self.word_vocab = word_vocab
        self.rel_vocab = rel_vocab
        self.store = ParamStore()
        self.meta: dict = {}

        rng = np.random.default_rng(seed)
        s = config.init_scale
        emb_word = rng.uniform(-s, s, size=(len(word_vocab), config.word_dim))
        if pretrained:
            for w, vec in pretrained.items():
                if w in word_vocab._index and w != UNK:
                    if vec.shape != (config.word_dim,):
                        raise ValueError(
                            f"embedding for {w!r} has dim {vec.shape}, expected ({config.word_dim},)"
                        )
                    emb_word[word_vocab.index(w)] = vec
        self.emb_word = self.store.add("emb/word", emb_word)
        self.emb_rel = self.store.add(
            "emb/rel", rng.uniform(-s, s, size=(rel_vocab.table_size, config.rel_dim))
        )

        self.cells = {}
        self.conv = {}
        for direction in (FWD, BWD):
            self.cells[(direction, "word")] = LstmCell(
                self.store, f"{direction}/word_cell", config.word_dim, config.word_hidden, rng, s
            )
            self.cells[(direction, "rel")] = LstmCell(
                self.store, f"{direction}/rel_cell", config.rel_dim, config.rel_hidden, rng, s
            )
            unit_dim = 2 * config.word_hidden + config.rel_hidden
            self.conv[direction] = (
                _init(self.store, f"{direction}/conv/w", (config.conv_dim, unit_dim), rng, s),
                _init(self.store, f"{direction}/conv/b", (config.conv_dim,), None),
            )

        fine = schema.fine_size
        self.fine_heads = {}
        self.fine_heads[FWD] = (
            _init(self.store, "fine_fwd/w", (fine, config.conv_dim), rng, s),
            _init(self.store, "fine_fwd/b", (fine,), None),
        )
        if config.share_fine_heads:
            self.fine_heads[BWD] = self.fine_heads[FWD]
        else:
            self.fine_heads[BWD] = (
                _init(self.store, "fine_bwd/w", (fine, config.conv_dim), rng, s),
                _init(self.store, "fine_bwd/b", (fine,), None),
            )
        coarse = schema.coarse_size
        self.coarse_head = (
            _init(self.store, "coarse/w_fwd", (coarse, config.conv_dim), rng, s),
            _init(self.store, "coarse/w_bwd", (coarse, config.conv_dim), rng, s),
            _init(self.store, "coarse/b", (coarse,), None),
        )

    # -- forward pieces -------------------------------------------------

    def encode_path(self, path: SdpPath, direction: str, dropout_rng=None):
        """(T, H) word-channel and (T-1, H) relation-channel LSTM states.

        The backward direction consumes the inverted path, whose flipped
        edge directions select the reverse-relation embedding rows.  With
        a dropout rng the embedded inputs are masked (training mode), one
        mask per channel.
        """
        if len(path.nodes) == 0:
            raise EmptyPath("cannot encode an empty path")
        if len(path.forms) != len(path.nodes):
            raise ValueError("path carries no surface forms; extract it from a tree first")
        p = path if direction == FWD else invert_path(path)
        cfg = self.config
        words = gather_rows(self.emb_word, [self.word_vocab.index(form) for form in p.forms])
        rels = gather_rows(
            self.emb_rel, [self.rel_vocab.row(edge.deprel, edge.direction) for edge in p.edges]
        )
        if dropout_rng is not None and cfg.keep_prob < 1.0:
            words = mul(words, constant(dropout_mask(words.shape, cfg.keep_prob, dropout_rng)))
            rels = mul(rels, constant(dropout_mask(rels.shape, cfg.keep_prob, dropout_rng)))
        word_states = lstm_sequence(self.cells[(direction, "word")], words, cfg.lstm_variant)
        rel_states = lstm_sequence(self.cells[(direction, "rel")], rels, cfg.lstm_variant)
        return word_states, rel_states

    def pooled(self, path: SdpPath, direction: str, dropout_rng=None) -> Tensor:
        word_states, rel_states = self.encode_path(path, direction, dropout_rng)
        w_con, b_con = self.conv[direction]
        return conv_pool(word_states, rel_states, w_con, b_con)

    def classify(self, g_fwd: Tensor, g_bwd: Tensor):
        """Fine logits per direction plus the coarse logits."""
        wf, bf = self.fine_heads[FWD]
        wb, bb = self.fine_heads[BWD]
        z_fwd = add(matmul(wf, g_fwd), bf)
        z_bwd = add(matmul(wb, g_bwd), bb)
        wc_f, wc_b, bc = self.coarse_head
        z_coarse = add(add(matmul(wc_f, g_fwd), matmul(wc_b, g_bwd)), bc)
        return z_fwd, z_bwd, z_coarse

    def logits(self, path: SdpPath, dropout_rng=None):
        g_fwd = self.pooled(path, FWD, dropout_rng)
        g_bwd = self.pooled(path, BWD, dropout_rng)
        return self.classify(g_fwd, g_bwd)

    def forward(self, path: SdpPath, dropout_rng=None):
        """Fine distributions per direction plus the coarse distribution."""
        return tuple(softmax(z) for z in self.logits(path, dropout_rng))

    def _l2_filter(self, name: str) -> bool:
        if self.config.l2_include_embeddings:
            return True
        return name not in EMBEDDING_TABLES

    def loss(self, path: SdpPath, label: str, dropout_rng=None):
        """Joint objective: three cross-entropies plus the L2 penalty.

        The backward fine target is the direction-swapped gold class,
        mirroring the inverted input path.  Returns (loss, Prediction).
        """
        t_fwd = self.schema.fine_index(label)
        t_bwd = self.schema.flip(t_fwd)
        t_coarse = self.schema.coarse_index(label)
        z_fwd, z_bwd, z_coarse = self.logits(path, dropout_rng)
        j = add(
            add(softmax_cross_entropy(z_fwd, t_fwd), softmax_cross_entropy(z_bwd, t_bwd)),
            softmax_cross_entropy(z_coarse, t_coarse),
        )
        if self.config.l2_lambda > 0.0:
            j = add(self.store.l2_penalty(self.config.l2_lambda, include=self._l2_filter), j)
        return j, Prediction(*(softmax(z).data for z in (z_fwd, z_bwd, z_coarse)))

    # -- inference -------------------------------------------------------

    def predict(self, path: SdpPath, alpha: float | None = None):
        """Eval-mode decode; returns (label, Prediction with y_test)."""
        y_fwd, y_bwd, y_coarse = self.forward(path, dropout_rng=None)
        pred = Prediction(y_fwd.data, y_bwd.data, y_coarse.data)
        label = decode(pred, self.config.alpha if alpha is None else alpha, self.schema)
        return label, pred

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
        """The model a checkpoint describes; its meta stays on model.meta."""
        tensors, meta = ckpt.load_checkpoint(path)
        missing = [key for key in ("config", "schema", "words", "deprels") if key not in meta]
        if missing:
            raise ckpt.CheckpointError(f"{path}: meta has no {', '.join(missing)}")
        model = cls(
            config=ModelConfig.from_dict(meta["config"]),
            schema=LabelSchema.from_dict(meta["schema"]),
            word_vocab=Vocabulary(meta["words"]),
            rel_vocab=RelationVocabulary(meta["deprels"]),
            seed=0,
        )
        expected = set(model.store.names())
        got = set(tensors)
        if expected != got:
            missing = expected - got
            extra = got - expected
            raise ckpt.CheckpointError(f"parameter names differ (missing {missing}, extra {extra})")
        for name, arr in tensors.items():
            t = model.store[name]
            if t.data.shape != arr.shape:
                raise ckpt.CheckpointError(
                    f"tensor {name!r}: shape {arr.shape} != expected {t.data.shape}"
                )
            t.data[...] = arr
        model.meta = meta
        return model
