"""The three workloads and the input files each one generates from its seed.

Every workload runs the same pipeline of seven stages (load, extract,
dict, train, save, reload, eval), because every workload reports every
end-to-end metric; the sizes below decide which stages dominate.  Every
workload also writes the quality stage's files, which come from a fixed
seed (QUALITY).  pathrel is imported lazily so that run.py can pin the
BLAS thread count before numpy loads.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass

# the acceptance-06 generator knobs (tests/test_acceptance.py COMPARISON_GEN)
ACCEPTANCE_GEN = dict(
    k_types=9, blocks=3, fillers=3, prep_density=0.7, span2_prob=0.3,
    residual_frac=0.1, distractor_prob=0.9,
)
SMALL_MODEL = dict(word_dim=32, rel_dim=16, conv_dim=32, keep_prob=1.0, l2_lambda=0.0)
SCHEMA = "synth-k9"
EPOCHS = 1
EXTRACT_RULE = "random"


@dataclass(frozen=True)
class Quality:
    """The quality stage: one train() plus evaluate() that learns, untimed.

    The timed rounds of the small-model workloads train too briefly to
    learn anything, so train_loss, test_nll and test_macro_f1 come from
    this run instead.  Its inputs come from a fixed seed, not the
    workload's, so the three figures repeat exactly and move only when
    the arithmetic does.  With three relation types instead of nine the
    32/16/32 model learns within its budget: two epochs over 200
    examples take the loss from the uniform 5.28 to about 2.7 in about
    4 s.
    """

    seed: int
    schema: str
    gen: dict
    model: dict
    rule: str
    n_train: int         # records given to train(), validation included
    val_size: int
    n_test: int          # records given to evaluate()
    epochs: int


QUALITY = Quality(
    seed=7,
    schema="synth-k3",
    gen=dict(ACCEPTANCE_GEN, k_types=3, entity_pool=30, filler_pool=30),
    model=SMALL_MODEL,
    rule="prep",
    n_train=220, val_size=20, n_test=150, epochs=2,
)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    Every round of a run does the same work: it loads both files whole,
    extracts every sentence, matches the whole text, trains on the first
    chunk_fit records of train.jsonl (val_size of them held out) for
    EPOCHS epochs and evaluates on the first chunk_eval records of
    test.jsonl.  train-paper's chunk is large enough that its vocabulary
    reaches about 900 words, so its one round takes about 25 s.
    """

    name: str
    gen: dict            # SynthConfig knobs besides n and seed
    model: dict          # ModelConfig knobs; {} is the paper configuration
    rule: str            # cut rule for training and evaluation
    chunk_fit: int       # records per train() call, validation included
    chunk_eval: int      # records per evaluate() call
    val_size: int
    n_train: int         # records in train.jsonl
    n_test: int          # records in test.jsonl
    n_extract: int       # sentences given to extract-sdp
    n_text: int          # of those, sentences joined into the dict-match text
    n_dict: int          # dictionary entries
    min_vocab: int = 0   # a train() call must see at least this many distinct words

    @property
    def fit_examples(self) -> int:
        """Examples one train() call steps over per epoch."""
        return self.chunk_fit - self.val_size


WORKLOADS = {
    "train-paper": Workload(
        name="train-paper",
        gen=dict(ACCEPTANCE_GEN, entity_pool=2000, filler_pool=2000),
        model={},
        rule="prep",
        chunk_fit=560, chunk_eval=200, val_size=140,
        n_train=560, n_test=200, n_extract=600, n_text=40, n_dict=300, min_vocab=800,
    ),
    "train-small-plain": Workload(
        name="train-small-plain",
        gen=dict(ACCEPTANCE_GEN, entity_pool=30, filler_pool=20),
        model=SMALL_MODEL,
        rule="none",
        chunk_fit=90, chunk_eval=120, val_size=8,
        n_train=90, n_test=120, n_extract=600, n_text=40, n_dict=300,
    ),
    "ingest": Workload(
        name="ingest",
        gen=dict(ACCEPTANCE_GEN, blocks=7, prep_density=0.8, bridge_prob=0.3,
                 entity_pool=2000, filler_pool=2000),
        model=SMALL_MODEL,
        rule="prep",
        chunk_fit=24, chunk_eval=32, val_size=2,
        n_train=500, n_test=500, n_extract=2000, n_text=6, n_dict=2000,
    ),
}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sentence_text(inst) -> str:
    return " ".join(t.form for t in inst.tree.tokens)


def make_dictionary(instances, n: int, pool: int, rng) -> list[str]:
    """n entries: every entity mention of the text, then drawn forms that may occur or not."""
    entries = {
        " ".join(inst.tree.token(i).form for i in range(span.start, span.end + 1))
        for inst in instances for span in (inst.e1, inst.e2)
    }
    while len(entries) < n:
        kind = ("ent", "filler", "prep", "mod")[int(rng.integers(4))]
        entries.add(f"{kind}{int(rng.integers(max(pool, n)))}")
    return sorted(entries)


def input_paths(out_dir: str) -> dict[str, str]:
    return {name: os.path.join(out_dir, fname) for name, fname in (
        ("train", "train.jsonl"), ("test", "test.jsonl"), ("conllu", "sents.conllu"),
        ("pairs", "pairs.txt"), ("text", "doc.txt"), ("dictionary", "dictionary.txt"),
        ("quality_train", "quality_train.jsonl"), ("quality_test", "quality_test.jsonl"),
    )}


def generate_inputs(wl: Workload, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's input files; same (workload, seed), same bytes."""
    import numpy as np

    from pathrel.data import save_dataset
    from pathrel.depgraph import serialize_conllu
    from pathrel.synth import SynthConfig, generate

    os.makedirs(out_dir, exist_ok=True)
    total = wl.n_train + wl.n_test + wl.n_extract
    instances = generate(SynthConfig(n=total, seed=seed, **wl.gen))
    train = instances[: wl.n_train]
    test = instances[wl.n_train : wl.n_train + wl.n_test]
    extract = instances[wl.n_train + wl.n_test :]
    paths = input_paths(out_dir)
    save_dataset(paths["train"], train)
    save_dataset(paths["test"], test)
    with open(paths["conllu"], "w", encoding="utf-8") as fh:
        fh.write(serialize_conllu(inst.tree for inst in extract))
    with open(paths["pairs"], "w", encoding="utf-8") as fh:
        fh.write("# e1_start e1_end e2_start e2_end\n")
        for inst in extract:
            fh.write(f"{inst.e1.start} {inst.e1.end} {inst.e2.start} {inst.e2.end}\n")
    text_sents = extract[: wl.n_text]
    with open(paths["text"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(sentence_text(inst) for inst in text_sents) + "\n")
    rng = np.random.default_rng([seed, 1])
    pool = max(wl.gen.get("entity_pool", 30), wl.gen.get("filler_pool", 20))
    with open(paths["dictionary"], "w", encoding="utf-8") as fh:
        fh.write("".join(e + "\n" for e in make_dictionary(text_sents, wl.n_dict, pool, rng)))
    q = QUALITY
    quality = generate(SynthConfig(n=q.n_train + q.n_test, seed=q.seed, **q.gen))
    save_dataset(paths["quality_train"], quality[: q.n_train])
    save_dataset(paths["quality_test"], quality[q.n_train :])
    return paths


if __name__ == "__main__":
    # python3 bench/workloads.py SRC_DIR WORKLOAD SEED OUT_DIR
    sys.path.insert(0, sys.argv[1])
    generate_inputs(WORKLOADS[sys.argv[2]], int(sys.argv[3]), sys.argv[4])
