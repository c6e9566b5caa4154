"""Structure-regularized dependency-path relation classification.

The pipeline: parse CoNLL-U sentences into dependency trees, optionally
cut subtrees by rule and re-line the component roots, extract the path
between the two entity heads, and classify the relation with a
bidirectional two-channel recurrent-convolutional model trained by
reverse-mode autodiff and AdaDelta.
"""

__version__ = "0.1.0"

from .autodiff import ParamStore, backward, finite_difference_check
from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset, save_dataset
from .depgraph import (
    DependencyTree,
    EntitySpan,
    Instance,
    PathEdge,
    SdpPath,
    Token,
    entity_head,
    parse_conllu,
    path_between,
    serialize_conllu,
)
from .dictmatch import Match, dict_match
from .labels import SANWEN, SEMEVAL, LabelSchema, load_schema, synth_schema
from .metrics import ConfusionMatrix, macro_f1
from .model import ModelConfig, Prediction, RelationModel, decode
from .optim import AdaDeltaState, adadelta_step
from .structreg import (
    SR_LINK,
    CutRule,
    RegularizedTree,
    cut_and_line,
    extract_sr_sdp,
    invert_path,
    select_cut_nodes,
)
from .synth import SynthConfig, generate, oracle_label
from .training import ExperimentConfig, SchemaMismatch, evaluate, prepare_paths, train

__all__ = [
    "__version__",
    "AdaDeltaState",
    "ConfusionMatrix",
    "CutRule",
    "DependencyTree",
    "EntitySpan",
    "ExperimentConfig",
    "Instance",
    "LabelSchema",
    "Match",
    "ModelConfig",
    "ParamStore",
    "PathEdge",
    "Prediction",
    "RegularizedTree",
    "RelationModel",
    "SANWEN",
    "SEMEVAL",
    "SR_LINK",
    "SchemaMismatch",
    "SdpPath",
    "SynthConfig",
    "Token",
    "adadelta_step",
    "backward",
    "cut_and_line",
    "decode",
    "dict_match",
    "entity_head",
    "evaluate",
    "extract_sr_sdp",
    "finite_difference_check",
    "generate",
    "invert_path",
    "load_checkpoint",
    "load_dataset",
    "load_schema",
    "macro_f1",
    "oracle_label",
    "parse_conllu",
    "path_between",
    "prepare_paths",
    "save_checkpoint",
    "save_dataset",
    "select_cut_nodes",
    "serialize_conllu",
    "synth_schema",
    "train",
]
