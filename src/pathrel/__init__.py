"""Structure-regularized dependency-path relation classification.

The pipeline: parse CoNLL-U sentences into dependency trees, optionally
cut subtrees by rule and re-line the component roots, extract the path
between the two entity heads, and classify the relation with a
bidirectional two-channel recurrent-convolutional model trained by
reverse-mode autodiff and AdaDelta.

``import pathrel`` loads no submodule: each public name imports its
module on first use (PEP 562), so reading data, parsing CoNLL-U,
extracting paths or matching a dictionary loads neither numpy nor the
model stack.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "autodiff": ("ParamStore", "backward", "finite_difference_check"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "data": ("load_dataset", "save_dataset"),
    "depgraph": ("DependencyTree", "EntitySpan", "Instance", "PathEdge", "SdpPath", "Token",
                 "entity_head", "parse_conllu", "path_between", "serialize_conllu"),
    "dictmatch": ("Match", "dict_match"),
    "labels": ("SANWEN", "SEMEVAL", "LabelSchema", "load_schema", "synth_schema"),
    "metrics": ("ConfusionMatrix", "macro_f1"),
    "model": ("ModelConfig", "Prediction", "RelationModel", "decode"),
    "optim": ("AdaDeltaState", "adadelta_step"),
    "structreg": ("SR_LINK", "CutRule", "RegularizedTree", "cut_and_line", "extract_sr_sdp",
                  "select_cut_nodes"),
    "synth": ("SynthConfig", "generate"),
    "training": ("ExperimentConfig", "SchemaMismatch", "evaluate", "prepare_paths", "train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    """Import a public name's module on first access and keep the name."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
