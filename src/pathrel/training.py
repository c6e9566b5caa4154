"""Preprocessing, the training loop, and evaluation.

Preprocessing applies one cut rule to every sentence (ordinal = corpus
position), lines the components, and extracts the path between the two
entity heads.  Cutting nothing reproduces plain shortest paths, so the
same loop trains both the regularized and the baseline model.

Determinism contract: a single master generator seeded from the config
drives, in order, parameter initialization, the validation split, and
each epoch's shuffle and dropout draws.  Two runs with equal (seed,
config, data) produce byte-identical checkpoints and metric logs.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .autodiff import backward
from .codec import Document
from .data import load_dataset
from .depgraph import SdpPath, entity_head
from .labels import UnknownLabel, load_schema
from .metrics import ConfusionMatrix
from .model import ModelConfig, RelationModel, RelationVocabulary, Vocabulary, load_word_embeddings
from .optim import AdaDeltaState, adadelta_step
from .structreg import CutRule, cut_and_line, extract_sr_sdp, select_cuts

logger = logging.getLogger(__name__)


class SchemaMismatch(ValueError):
    pass


class NonFiniteError(ValueError):
    """Training reached a NaN or infinite loss or parameter; nothing was written."""


class PreparedExample(NamedTuple):
    path: SdpPath
    label: str
    sid: str | None


@dataclass(frozen=True)
class ExperimentConfig(Document):
    """Everything one training run depends on."""

    model: ModelConfig = ModelConfig()
    rule: CutRule = CutRule()
    schema: str = "semeval"
    seed: int = 0
    epochs: int = 10
    val_size: int = 0
    train_path: str | None = None
    embeddings_path: str | None = None
    checkpoint_path: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.val_size < 0:
            raise ValueError("val_size must be >= 0")

    def save(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# preprocessing


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


def prepare_paths(instances, rule: CutRule) -> list[PreparedExample]:
    """Cut, line, and extract the entity-head path for every instance."""
    instances = list(instances)
    trees, pairs = [inst.tree for inst in instances], [(inst.e1, inst.e2) for inst in instances]
    paths = entity_paths(trees, pairs, rule, lambda o: f"instance {instances[o].sid or o}")
    return [PreparedExample(path, inst.label, inst.sid) for path, inst in zip(paths, instances)]


def build_vocabs(prepared) -> tuple[Vocabulary, RelationVocabulary]:
    forms = set()
    deprels = set()
    for ex in prepared:
        forms.update(ex.path.forms)
        deprels.update(ex.path.deprels)
    return Vocabulary(forms), RelationVocabulary(deprels)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: RelationModel
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_macro_f1: float = 0.0


def _score_prepared(model: RelationModel, prepared, alpha=None) -> ConfusionMatrix:
    cm = ConfusionMatrix(model.schema)
    for ex, (pred, _) in zip(prepared, model.predict_batch([ex.path for ex in prepared], alpha)):
        cm.add(ex.label, pred)
    return cm


def _not_finite(store, arenas) -> list[str]:
    """The names of the parameters whose range holds a NaN or infinity in any of arenas."""
    if all(np.isfinite(arena).all() for arena in arenas):
        return []
    return [name for name, span in store.spans.items()
            if not all(np.isfinite(arena[span]).all() for arena in arenas)]


def train(config: ExperimentConfig, train_instances=None) -> TrainResult:
    """Run one experiment; returns the best-validation model.

    The model is restored to the epoch with the highest validation
    macro-F1 (the later epoch on ties) before the checkpoint is written.  With
    val_size = 0 the training set itself is scored instead.  A loss that
    is not finite, or a parameter or optimizer accumulator that is not at
    the end of an epoch, raises NonFiniteError before anything is written.
    """
    schema = load_schema(config.schema)
    if train_instances is None:
        if not config.train_path:
            raise ValueError("config has no train_path and no instances were given")
        train_instances = load_dataset(config.train_path, schema)
    if not train_instances:
        raise ValueError("training set is empty")
    if config.val_size >= len(train_instances):
        raise ValueError(
            f"val_size {config.val_size} must be smaller than the training set "
            f"({len(train_instances)} instances)"
        )

    prepared = prepare_paths(train_instances, config.rule)
    word_vocab, rel_vocab = build_vocabs(prepared)

    master = np.random.default_rng(config.seed)
    init_seed = int(master.integers(2**31))
    model = RelationModel(config.model, schema, word_vocab, rel_vocab, seed=init_seed)
    if config.embeddings_path:
        load_word_embeddings(config.embeddings_path, word_vocab, model.emb_word.data)

    # validation split: shuffle once with the master generator, hold out the head
    perm = master.permutation(len(prepared))
    val = [prepared[i] for i in perm[: config.val_size]]
    fit = [prepared[i] for i in perm[config.val_size :]]
    score_set = val if val else fit

    cfg = config.model
    result = TrainResult(model=model)
    best = None  # the best epoch's parameters, copied only while a later epoch may replace them
    # a huge l2_lambda overflows the optimizer's products; the checks below stop the run instead
    with np.errstate(over="ignore", invalid="ignore"):
        optimizer = AdaDeltaState(model.store, l2_lambda=cfg.l2_lambda)
        for epoch in range(1, config.epochs + 1):
            order = master.permutation(len(fit))
            total = 0.0
            for i in order:
                ex = fit[int(i)]
                loss = model.loss(ex.path, ex.label, dropout_rng=master)
                value = float(loss.data)
                if cfg.l2_lambda > 0.0:
                    value = model.store.l2_penalty(cfg.l2_lambda) + value
                if not math.isfinite(value):
                    ordinal = int(perm[config.val_size + int(i)])
                    raise NonFiniteError(
                        f"epoch {epoch}: instance {ex.sid or ordinal}: loss is {value}")
                backward(loss)
                adadelta_step(model.store, optimizer)
                total += value
            for what, arenas in (("parameters", (model.store.data,)),
                                 ("optimizer state", (optimizer.sq_grad, optimizer.sq_update))):
                bad = _not_finite(model.store, arenas)
                if bad:
                    raise NonFiniteError(f"epoch {epoch}: {what} not finite: {', '.join(bad)}")
            mean_loss = total / len(fit)
            f1 = _score_prepared(model, score_set).macro_f1()
            result.history.append({"epoch": epoch, "loss": mean_loss, "macro_f1": f1})
            logger.info("epoch %d: loss %.6f, macro-F1 %.4f", epoch, mean_loss, f1)
            # >= so ties go to the later epoch (more training at equal score)
            if epoch == 1 or f1 >= result.best_macro_f1:
                result.best_epoch = epoch
                result.best_macro_f1 = f1
                if epoch < config.epochs:
                    best = model.store.data.copy()
    if result.best_epoch < config.epochs:
        model.store.data[...] = best
    # the returned model holds no gradient, nor pages for one
    model.store.zero_grad()

    if config.checkpoint_path:
        model.save(config.checkpoint_path, extra_meta={"rule": config.rule.to_dict()})
    if config.log_path:
        with atomic_open(config.log_path, "w", encoding="utf-8") as fh:
            for row in result.history:
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model: RelationModel, instances, rule: CutRule, alpha=None) -> ConfusionMatrix:
    """Score a dataset with the same preprocessing rule used in training.

    Raises SchemaMismatch when a gold label does not parse against the
    model's schema.
    """
    for inst in instances:
        try:
            model.schema.fine_index(inst.label)
        except UnknownLabel:
            raise SchemaMismatch(
                f"instance {inst.sid!r}: label {inst.label!r} not in schema {model.schema.name!r}"
            ) from None
    return _score_prepared(model, prepare_paths(instances, rule), alpha)
