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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import backward
from .data import load_dataset
from .depgraph import Instance, SdpPath, entity_head
from .labels import UnknownLabel, load_schema
from .metrics import ConfusionMatrix
from .model import (
    EMBEDDING_TABLES,
    ModelConfig,
    RelationModel,
    RelationVocabulary,
    Vocabulary,
    load_word_embeddings,
)
from .optim import AdaDeltaState, adadelta_step
from .structreg import CutRule, cut_and_line, extract_sr_sdp, select_cut_nodes

logger = logging.getLogger(__name__)


class SchemaMismatch(ValueError):
    pass


class PreparedExample(NamedTuple):
    path: SdpPath
    label: str
    sid: str | None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one training run depends on."""

    model: ModelConfig = ModelConfig()
    rule: CutRule = CutRule()
    schema: str = "semeval"
    seed: int = 0
    epochs: int = 10
    val_size: int = 0
    train_path: str | None = None
    test_path: str | None = None
    embeddings_path: str | None = None
    checkpoint_path: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.val_size < 0:
            raise ValueError("val_size must be >= 0")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "rule": self.rule.to_dict(),
            "schema": self.schema,
            "seed": self.seed,
            "epochs": self.epochs,
            "val_size": self.val_size,
            "train_path": self.train_path,
            "test_path": self.test_path,
            "embeddings_path": self.embeddings_path,
            "checkpoint_path": self.checkpoint_path,
            "log_path": self.log_path,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        model = ModelConfig.from_dict(doc.pop("model", {}))
        rule = CutRule.from_dict(doc.pop("rule", {}))
        return cls(model=model, rule=rule, **doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# preprocessing


def prepare_example(inst: Instance, rule: CutRule, ordinal: int = 0) -> PreparedExample:
    cuts = select_cut_nodes(inst.tree, rule, ordinal=ordinal)
    rt = cut_and_line(inst.tree, cuts)
    path = extract_sr_sdp(rt, entity_head(inst.tree, inst.e1), entity_head(inst.tree, inst.e2))
    return PreparedExample(path=path, label=inst.label, sid=inst.sid)


def prepare_paths(instances, rule: CutRule) -> list[PreparedExample]:
    """Cut, line, and extract the entity-head path for every instance."""
    out = []
    for ordinal, inst in enumerate(instances):
        try:
            out.append(prepare_example(inst, rule, ordinal))
        except ValueError as err:
            raise ValueError(f"instance {inst.sid or ordinal}: {err}") from None
    return out


def build_vocabs(prepared) -> tuple[Vocabulary, RelationVocabulary]:
    forms = set()
    deprels = set()
    for ex in prepared:
        forms.update(ex.path.forms)
        deprels.update(e.deprel for e in ex.path.edges)
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
    for ex in prepared:
        pred, _ = model.predict(ex.path, alpha)
        cm.add(ex.label, pred)
    return cm


def train(config: ExperimentConfig, train_instances=None) -> TrainResult:
    """Run one experiment; returns the best-validation model.

    The model is restored to the epoch with the highest validation
    macro-F1 (earliest on ties) before the checkpoint is written.  With
    val_size = 0 the training set itself is scored instead.
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
    pretrained = (
        load_word_embeddings(config.embeddings_path) if config.embeddings_path else None
    )

    master = np.random.default_rng(config.seed)
    init_seed = int(master.integers(2**31))
    model = RelationModel(
        config.model, schema, word_vocab, rel_vocab, seed=init_seed, pretrained=pretrained
    )

    # validation split: shuffle once with the master generator, hold out the head
    perm = master.permutation(len(prepared))
    val = [prepared[i] for i in perm[: config.val_size]]
    fit = [prepared[i] for i in perm[config.val_size :]]
    score_set = val if val else fit

    optimizer = AdaDeltaState(model.store, row_sparse=EMBEDDING_TABLES)
    result = TrainResult(model=model)
    best_tensors = None
    use_dropout = config.model.keep_prob < 1.0
    for epoch in range(1, config.epochs + 1):
        order = master.permutation(len(fit))
        total = 0.0
        for i in order:
            ex = fit[int(i)]
            loss, _ = model.loss(ex.path, ex.label, dropout_rng=master if use_dropout else None)
            backward(loss)
            adadelta_step(model.store, optimizer)
            total += float(loss.data)
        mean_loss = total / len(fit)
        f1 = _score_prepared(model, score_set).macro_f1()
        result.history.append({"epoch": epoch, "loss": mean_loss, "macro_f1": f1})
        logger.info("epoch %d: loss %.6f, macro-F1 %.4f", epoch, mean_loss, f1)
        # >= so ties go to the later epoch (more training at equal score)
        if best_tensors is None or f1 >= result.best_macro_f1:
            result.best_epoch = epoch
            result.best_macro_f1 = f1
            best_tensors = {name: t.data.copy() for name, t in model.store.items()}

    for name, arr in best_tensors.items():
        model.store[name].data[...] = arr

    if config.checkpoint_path:
        model.save(config.checkpoint_path, extra_meta={"rule": config.rule.to_dict()})
    if config.log_path:
        with open(config.log_path, "w", encoding="utf-8") as fh:
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
