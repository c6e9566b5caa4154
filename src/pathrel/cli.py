"""Command-line interface.

Subcommands: extract-sdp, synth, train, eval, dict-match.  Each imports
only what it uses: --version, dict-match and extract-sdp load neither
numpy nor the model stack (extract-sdp's random rule loads numpy for its
draws); synth loads synth; train and eval load training and model, and
with them numpy.  main() builds the parser once per process, which saves
time only where main() runs more than once in one process (the tests,
bench/run.py); the console script and python -m pathrel call it once.

Exit codes: 0 success; 2 usage errors (from argparse); 3 malformed input
data, files, or configuration; 4 schema mismatch between a checkpoint
and a dataset; 1 unexpected internal failure, including the library's
internal errors (NonScalarLoss, EmptyPath), which are ValueErrors but
never describe malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from itertools import islice
from typing import Iterable, Iterator

from . import __version__
from .atomic import atomic_open
from .data import (DatasetError, format_paths, load_dataset, load_entity_pairs, read_lines, read_text,
                   save_dataset)
from .depgraph import ConlluError, iter_conllu
from .dictmatch import dict_match, format_standoff
from .errors import EmptyPath, NonScalarLoss, SchemaMismatch
from .structreg import CutRule, entity_paths


_CUT_FLAGS = {"--cut-p": "cut_p", "--cut-seed": "cut_seed", "--cut-tags": "cut_tags"}


def _add_rule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", choices=CutRule.VARIANTS, default=None, help="cut rule")
    p.add_argument("--cut-p", type=float, help="random-rule cut probability (default 0.5)")
    p.add_argument("--cut-seed", type=int, help="random-rule seed (default 0)")
    p.add_argument("--cut-tags", help="prep-rule POS tags, comma-separated (default ADP,P,IN)")


def _rule_from_args(args) -> CutRule:
    """The rule --rule names, with the cut flags given; CutRule's defaults fill the rest."""
    if args.rule is None:
        return CutRule()
    given = {"p": args.cut_p, "seed": args.cut_seed}
    if args.cut_tags is not None:
        given["tag_set"] = frozenset(t for t in args.cut_tags.split(",") if t)
    return CutRule(variant=args.rule, **{k: v for k, v in given.items() if v is not None})


def _write_out(path: str | None, parts: Iterable[str]) -> None:
    """Write parts in order to path, or to stdout when path is None or "-".

    An error raised while parts is drawn leaves no file (an existing one
    keeps its bytes), since the file goes through one atomic_open.
    """
    if path is None or path == "-":
        sys.stdout.writelines(parts)
    else:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


# ---------------------------------------------------------------------------
# subcommands

CHUNK = 256  # sentences extract-sdp parses, cuts, extracts and writes at a time


def cmd_extract_sdp(args) -> int:
    """Write one path line per sentence of --conllu, CHUNK sentences at a time.

    The CoNLL-U text and the pair file are read whole first; then each
    chunk is parsed, checked against its pairs, cut, extracted and
    written before the next is parsed, so memory holds the text, the
    pairs and one chunk.  Faults come in that order: the pair file's;
    then, chunk by chunk, a CoNLL-U fault, a span past its sentence, a
    path fault; then, at the end, a sentence count that differs from the
    pair count.  On a fault, stdout holds the chunks finished before it.
    """
    text = read_text(args.conllu, encoding="utf-8-sig")
    pairs = load_entity_pairs(args.pairs)
    _write_out(args.out, _extract_chunks(args, text, pairs, _rule_from_args(args)))
    return 0


def _extract_chunks(args, text: str, pairs, rule: CutRule) -> Iterator[str]:
    """cmd_extract_sdp's output, one chunk's lines at a time."""
    trees = _named_trees(args.conllu, text)
    count = 0  # sentences parsed
    while chunk := list(islice(trees, CHUNK)):
        first, count = count, count + len(chunk)
        chunk_pairs = pairs[first:count]
        for ordinal, (tree, spans) in enumerate(zip(chunk, chunk_pairs), start=first + 1):
            n = tree.n
            for span in spans:
                if span.end > n:
                    raise DatasetError(f"{args.pairs}: sentence {ordinal}: span "
                                       f"[{span.start}, {span.end}] exceeds length {n}")
        paths = entity_paths(chunk, chunk_pairs, rule, lambda o: f"{args.conllu}: sentence {o + 1}",
                             first=first)
        if len(chunk_pairs) < len(chunk):
            break  # the pairs ran out: count the remaining sentences
        lines = format_paths(paths, args.json)
        del chunk, paths  # the next chunk is parsed with this one freed
        yield lines
    count += sum(1 for _ in trees)
    if count != len(pairs):
        raise DatasetError(f"{args.pairs}: {len(pairs)} entity-pair lines but {args.conllu} has "
                           f"{count} sentences; they must correspond 1:1")


def _named_trees(path: str, text: str) -> Iterator:
    """iter_conllu(text), with path leading the message of a ConlluError."""
    try:
        yield from iter_conllu(text)
    except ConlluError as err:
        raise type(err)(f"{path}: {err}") from None


def cmd_synth(args) -> int:
    from .synth import SynthConfig, generate
    cfg = SynthConfig(
        n=args.n,
        k_types=args.k,
        seed=args.seed,
        blocks=args.blocks,
        fillers=args.fillers,
        prep_density=args.prep_density,
        span2_prob=args.span2_prob,
        residual_frac=args.residual_frac,
        distractor_prob=args.distractor_prob,
        bridge_prob=args.bridge_prob,
        entity_pool=args.entity_pool,
        filler_pool=args.filler_pool,
    )
    instances = generate(cfg)
    save_dataset(args.out, instances)
    print(f"wrote {len(instances)} instances (schema {cfg.schema.name}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .training import ExperimentConfig, train
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for key in ("schema", "seed", "epochs", "val_size", "train_path", "embeddings_path",
                "checkpoint_path", "log_path"):
        flag = getattr(args, key)
        if flag is not None:
            overrides[key] = flag
    if args.rule is not None:
        overrides["rule"] = _rule_from_args(args)
    if args.alpha is not None:
        overrides["model"] = dataclasses.replace(config.model, alpha=args.alpha)
    config = dataclasses.replace(config, **overrides)
    result = train(config)
    best = result.history[result.best_epoch - 1]
    print(
        f"trained {config.epochs} epochs; best epoch {result.best_epoch} "
        f"(loss {best['loss']:.6f}, macro-F1 {best['macro_f1']:.4f})"
    )
    if config.checkpoint_path:
        print(f"checkpoint: {config.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    from .model import RelationModel
    from .training import evaluate
    model = RelationModel.load(args.checkpoint)
    if args.rule is not None:
        rule = _rule_from_args(args)
    elif "rule" in model.meta:
        rule = CutRule.from_dict(model.meta["rule"], source=f"{args.checkpoint}: meta rule")
    else:
        rule = CutRule()
    instances = load_dataset(args.data)
    cm = evaluate(model, instances, rule, alpha=args.alpha)
    report = cm.summary()
    report["rule"] = rule.to_dict()
    _write_out(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0


def cmd_dict_match(args) -> int:
    text = read_text(args.text)  # offsets index the file's own newlines
    entries = [line.rstrip("\n") for line in read_lines(args.dictionary, encoding="utf-8-sig")
               if line.strip()]
    _write_out(args.out, [format_standoff(dict_match(text, entries))])
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one per process: main() reuses it, and parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathrel",
        description="Structure-regularized dependency-path relation classification.",
    )
    parser.add_argument("--version", action="version", version=f"pathrel {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-sdp", help="extract entity-head paths from CoNLL-U sentences")
    p.add_argument("--conllu", required=True, help="CoNLL-U input file")
    p.add_argument("--pairs", required=True, help="entity-pair file (4 span ints per line)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--json", action="store_true", help="JSON-lines output with forms and POS")
    _add_rule_args(p)
    p.set_defaults(func=cmd_extract_sdp)

    p = sub.add_parser("synth", help="generate a synthetic relation corpus")
    p.add_argument("--out", required=True, help="output dataset (JSON-lines)")
    p.add_argument("--n", type=int, default=100, help="number of instances")
    p.add_argument("--k", type=int, default=9, help="number of relation types")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=3, help="candidate prepositional blocks")
    p.add_argument("--fillers", type=int, default=2, help="filler nouns per block")
    p.add_argument("--prep-density", type=float, default=1.0, help="per-block inclusion probability")
    p.add_argument("--span2-prob", type=float, default=0.3, help="two-token entity probability")
    p.add_argument("--residual-frac", type=float, default=0.1, help="residual-class fraction")
    p.add_argument(
        "--distractor-prob", type=float, default=0.0,
        help="probability a filler is a decoy marker form",
    )
    p.add_argument(
        "--bridge-prob", type=float, default=0.0,
        help="probability e1 attaches through a bridge noun",
    )
    p.add_argument("--entity-pool", type=int, default=30, help="entity form vocabulary size")
    p.add_argument("--filler-pool", type=int, default=20, help="filler form vocabulary size")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", default=None, help="experiment config JSON file")
    p.add_argument("--train", dest="train_path", default=None, help="training dataset")
    p.add_argument("--schema", default=None, help="label schema (builtin name, synth-k<K>, or JSON file)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--val-size", dest="val_size", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="decode mixture weight")
    p.add_argument("--embeddings", dest="embeddings_path", default=None, help="word embeddings file")
    p.add_argument("--checkpoint", dest="checkpoint_path", default=None, help="checkpoint output")
    p.add_argument("--log", dest="log_path", default=None, help="metrics log output (JSON-lines)")
    _add_rule_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="evaluation dataset (JSON-lines)")
    p.add_argument("--alpha", type=float, default=None, help="decode mixture weight")
    p.add_argument("--out", default=None, help="report file (default stdout)")
    _add_rule_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dict-match", help="match dictionary entities in raw text")
    p.add_argument("--text", required=True, help="input text file")
    p.add_argument("--dictionary", required=True, help="one entity surface form per line")
    p.add_argument("--out", default=None, help="standoff TSV output (default stdout)")
    p.set_defaults(func=cmd_dict_match)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "rule" in args and args.rule is None:
        for flag, dest in _CUT_FLAGS.items():
            if getattr(args, dest) is not None:
                parser.error(f"argument {flag}: not allowed without argument --rule")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SchemaMismatch as err:
        print(f"schema mismatch: {err}", file=sys.stderr)
        return 4
    except (NonScalarLoss, EmptyPath) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # pragma: no cover - safety net
        print(f"unexpected error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
