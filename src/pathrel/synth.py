"""Synthetic relation-classification corpus with tunable path clutter.

Each sentence buries the second entity under a chain of prepositional
blocks hanging off the root verb: e1 -nsubj-> V, then ADP/filler blocks
chained downward, with e2 attached under the last ADP.  The verb's form
encodes the gold relation, so the task is solvable from the path alone,
and a rule lookup recovers every label (the generator's oracle).

Plain shortest paths must traverse every filler; cutting at ADP tokens
and re-lining the components shortcuts the chain, so path length (and
learning difficulty) is controlled by the block and filler counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .depgraph import DependencyTree, EntitySpan, Instance, Token
from .labels import LabelSchema, synth_schema

RESIDUAL_VERB = "verb_other"

ENTITY_POOL = 30
FILLER_POOL = 20
ADP_POOL = 5
MOD_POOL = 10


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs.

    blocks is the number of candidate prepositional blocks between the
    verb and e2; each is included with probability prep_density and
    carries `fillers` chained noun dependents.  span2_prob is the chance
    an entity mention spans two tokens instead of one.  distractor_prob
    turns individual fillers into decoy marker forms: they sit on the
    plain shortest path but vanish from the regularized one, so only the
    uncut model has to learn to ignore them.  bridge_prob interposes a
    plain noun between e1 and the verb, so the marker's position on the
    path varies and cannot be memorized.  entity_pool and filler_pool
    set the open-class vocabulary sizes; large pools make entity and
    filler forms rare, like content words in real text, while the
    prepositions stay a small closed class.
    """

    n: int = 100
    k_types: int = 9
    seed: int = 0
    blocks: int = 3
    fillers: int = 2
    prep_density: float = 1.0
    span2_prob: float = 0.3
    residual_frac: float = 0.1
    distractor_prob: float = 0.0
    bridge_prob: float = 0.0
    entity_pool: int = ENTITY_POOL
    filler_pool: int = FILLER_POOL

    def __post_init__(self):
        if self.n < 1 or self.k_types < 1 or self.blocks < 0 or self.fillers < 0:
            raise ValueError("n and k_types must be >= 1; blocks and fillers >= 0")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if self.entity_pool < 1 or self.filler_pool < 1:
            raise ValueError("entity_pool and filler_pool must be >= 1")
        for name in ("prep_density", "span2_prob", "residual_frac", "distractor_prob",
                     "bridge_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")

    @cached_property  # one schema, and one label table, per config
    def schema(self) -> LabelSchema:
        return synth_schema(self.k_types)


def _draw_label(cfg: SynthConfig, rng) -> tuple[str, str]:
    """(gold label, marker verb form)."""
    if rng.random() < cfg.residual_frac:
        return cfg.schema.residual, RESIDUAL_VERB
    t = int(rng.integers(cfg.k_types))
    fwd = bool(rng.random() < 0.5)
    return cfg.schema.fine_label(2 * t + (1 if fwd else 2)), f"verb_{t + 1}_{'f' if fwd else 'b'}"


def generate_instance(cfg: SynthConfig, rng, sid: str) -> Instance:
    label, verb_form = _draw_label(cfg, rng)
    n_blocks = sum(rng.random() < cfg.prep_density for _ in range(cfg.blocks))

    tokens: list[Token] = []

    # e1 span ends at its head noun: the verb's subject, or a modifier of
    # a bridge noun that is the subject instead
    e1_len = 2 if rng.random() < cfg.span2_prob else 1
    bridged = rng.random() < cfg.bridge_prob
    bridge_index = e1_len + 1
    verb_index = e1_len + (2 if bridged else 1)
    if e1_len == 2:
        tokens.append(Token(1, f"mod{int(rng.integers(MOD_POOL))}", "NOUN", 2, "compound"))
    e1_head = bridge_index if bridged else verb_index
    e1_rel = "nmod" if bridged else "nsubj"
    tokens.append(Token(e1_len, f"ent{int(rng.integers(cfg.entity_pool))}", "NOUN", e1_head, e1_rel))
    e1 = EntitySpan(1, e1_len)
    if bridged:
        tokens.append(
            Token(bridge_index, f"filler{int(rng.integers(cfg.filler_pool))}", "NOUN", verb_index, "nsubj")
        )

    tokens.append(Token(verb_index, verb_form, "VERB", 0, "root"))

    # prepositional blocks: each ADP hangs off the deepest token so far,
    # its fillers chain downward, burying whatever attaches next
    attach = verb_index
    last_adp = None
    for _ in range(n_blocks):
        adp_index = len(tokens) + 1
        tokens.append(Token(adp_index, f"prep{int(rng.integers(ADP_POOL))}", "ADP", attach, "prep"))
        last_adp = adp_index
        prev = adp_index
        rel = "pobj"
        for _ in range(cfg.fillers):
            idx = len(tokens) + 1
            form = f"filler{int(rng.integers(cfg.filler_pool))}"
            if rng.random() < cfg.distractor_prob:
                t = int(rng.integers(cfg.k_types))
                form = f"verb_{t + 1}_{'f' if rng.random() < 0.5 else 'b'}"
            tokens.append(Token(idx, form, "NOUN", prev, rel))
            prev = idx
            rel = "nmod"
        attach = prev

    # e2 span under the last ADP, or straight off the verb when no blocks
    if last_adp is not None:
        e2_attach, e2_rel = last_adp, "pobj"
    else:
        e2_attach, e2_rel = verb_index, "dobj"
    e2_start = len(tokens) + 1
    e2_len = 2 if rng.random() < cfg.span2_prob else 1
    e2_head = e2_start + e2_len - 1
    if e2_len == 2:
        tokens.append(Token(e2_start, f"mod{int(rng.integers(MOD_POOL))}", "NOUN", e2_head, "compound"))
    tokens.append(Token(e2_head, f"ent{int(rng.integers(cfg.entity_pool))}", "NOUN", e2_attach, e2_rel))
    e2 = EntitySpan(e2_start, e2_head)

    tokens.append(Token(len(tokens) + 1, ".", "PUNCT", verb_index, "punct"))

    return Instance(tree=DependencyTree(tuple(tokens)), e1=e1, e2=e2, label=label, sid=sid)


def generate(cfg: SynthConfig) -> list[Instance]:
    """Deterministic corpus: same config, same instances."""
    rng = np.random.default_rng(cfg.seed)
    return [generate_instance(cfg, rng, sid=f"synth-{i:05d}") for i in range(cfg.n)]
