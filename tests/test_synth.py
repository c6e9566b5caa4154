import numpy as np
import pytest
from helpers import oracle_label

from pathrel.data import instance_to_record
from pathrel.synth import RESIDUAL_VERB, SynthConfig, generate


def forms(inst):
    return [t.form for t in inst.tree.tokens]


class TestDeterminism:
    def test_same_config_same_corpus(self):
        cfg = SynthConfig(n=40, k_types=5, seed=9, distractor_prob=0.4, bridge_prob=0.3)
        a = generate(cfg)
        b = generate(cfg)
        assert [instance_to_record(x) for x in a] == [instance_to_record(y) for y in b]

    def test_seed_changes_corpus(self):
        a = generate(SynthConfig(n=40, seed=0))
        b = generate(SynthConfig(n=40, seed=1))
        assert [instance_to_record(x) for x in a] != [instance_to_record(y) for y in b]

    def test_sids_are_positional(self):
        insts = generate(SynthConfig(n=3))
        assert [i.sid for i in insts] == ["synth-00000", "synth-00001", "synth-00002"]


class TestTreeShape:
    def test_trees_validate_and_punct_last(self):
        for inst in generate(SynthConfig(n=60, seed=2, span2_prob=0.5, bridge_prob=0.5)):
            last = inst.tree.tokens[-1]
            assert last.pos == "PUNCT"
            assert last.head == inst.tree.root
            assert all(t.index == i + 1 for i, t in enumerate(inst.tree.tokens))

    def test_root_is_marker_verb(self):
        for inst in generate(SynthConfig(n=30, seed=4)):
            root = inst.tree.token(inst.tree.root)
            assert root.pos == "VERB"
            assert root.form.startswith("verb")

    def test_no_blocks_attaches_e2_to_verb(self):
        for inst in generate(SynthConfig(n=20, seed=5, prep_density=0.0)):
            assert not any(t.pos == "ADP" for t in inst.tree.tokens)
            e2_head_tok = inst.tree.token(inst.e2.end)
            assert e2_head_tok.head == inst.tree.root
            assert e2_head_tok.deprel == "dobj"

    def test_full_density_buries_e2_under_last_adp(self):
        for inst in generate(SynthConfig(n=20, seed=6, prep_density=1.0, blocks=2)):
            adps = [t.index for t in inst.tree.tokens if t.pos == "ADP"]
            assert len(adps) == 2
            e2_head_tok = inst.tree.token(inst.e2.end)
            assert e2_head_tok.head == max(adps)
            assert e2_head_tok.deprel == "pobj"

    def test_block_count_distribution(self):
        insts = generate(SynthConfig(n=300, seed=7, prep_density=0.5, blocks=3))
        counts = [sum(t.pos == "ADP" for t in i.tree.tokens) for i in insts]
        assert min(counts) >= 0 and max(counts) <= 3
        assert 1.0 < np.mean(counts) < 2.0

    def test_filler_chain_length(self):
        cfg = SynthConfig(n=10, seed=8, prep_density=1.0, blocks=1, fillers=4,
                          span2_prob=0.0, distractor_prob=0.0)
        for inst in generate(cfg):
            nouns = [t for t in inst.tree.tokens if t.form.startswith("filler")]
            assert len(nouns) == 4
            # chained: first hangs off the ADP, the rest off the previous filler
            adp = next(t.index for t in inst.tree.tokens if t.pos == "ADP")
            assert nouns[0].head == adp and nouns[0].deprel == "pobj"
            for prev, cur in zip(nouns, nouns[1:]):
                assert cur.head == prev.index and cur.deprel == "nmod"


class TestSpans:
    def test_span_lengths_follow_probability(self):
        ones = generate(SynthConfig(n=50, seed=3, span2_prob=0.0))
        twos = generate(SynthConfig(n=50, seed=3, span2_prob=1.0))
        assert all(i.e1.start == i.e1.end and i.e2.start == i.e2.end for i in ones)
        assert all(
            i.e1.end - i.e1.start == 1 and i.e2.end - i.e2.start == 1 for i in twos
        )

    def test_two_token_span_structure(self):
        for inst in generate(SynthConfig(n=20, seed=4, span2_prob=1.0)):
            mod = inst.tree.token(inst.e1.start)
            assert mod.form.startswith("mod")
            assert mod.head == inst.e1.end and mod.deprel == "compound"

    def test_entity_forms_from_pool(self):
        insts = generate(SynthConfig(n=100, seed=5, entity_pool=2, filler_pool=1))
        ent_forms = {
            inst.tree.token(span.end).form
            for inst in insts
            for span in (inst.e1, inst.e2)
        }
        assert ent_forms <= {"ent0", "ent1"}
        filler_forms = {
            t.form for inst in insts for t in inst.tree.tokens
            if t.form.startswith("filler")
        }
        assert filler_forms == {"filler0"}


class TestKnobs:
    def test_bridge_inserts_subject_noun(self):
        cfg = SynthConfig(n=30, seed=6, bridge_prob=1.0, span2_prob=0.0)
        for inst in generate(cfg):
            e1_tok = inst.tree.token(inst.e1.end)
            bridge = inst.tree.token(e1_tok.head)
            assert e1_tok.deprel == "nmod"
            assert bridge.pos == "NOUN"
            assert bridge.head == inst.tree.root and bridge.deprel == "nsubj"

    def test_no_bridge_direct_subject(self):
        for inst in generate(SynthConfig(n=20, seed=6, bridge_prob=0.0)):
            e1_tok = inst.tree.token(inst.e1.end)
            assert e1_tok.head == inst.tree.root and e1_tok.deprel == "nsubj"

    def test_distractors_reuse_marker_forms(self):
        cfg = SynthConfig(n=60, seed=7, distractor_prob=1.0, prep_density=1.0,
                          blocks=2, fillers=2)
        decoys = 0
        for inst in generate(cfg):
            for t in inst.tree.tokens:
                if t.pos == "NOUN" and t.form.startswith("verb_"):
                    decoys += 1
                    assert t.index != inst.tree.root
        assert decoys == 60 * 4  # every filler slot is a decoy

    def test_zero_distractors_by_default(self):
        for inst in generate(SynthConfig(n=30, seed=8)):
            assert all(
                not (t.pos == "NOUN" and t.form.startswith("verb"))
                for t in inst.tree.tokens
            )

    def test_residual_fraction(self):
        insts = generate(SynthConfig(n=400, seed=9, residual_frac=0.25))
        frac = sum(i.label == "Other" for i in insts) / len(insts)
        assert 0.17 <= frac <= 0.33
        assert all(
            i.tree.token(i.tree.root).form == RESIDUAL_VERB
            for i in insts if i.label == "Other"
        )


class TestOracle:
    def test_oracle_recovers_every_label(self):
        cfg = SynthConfig(n=300, seed=10, k_types=7, residual_frac=0.2,
                          distractor_prob=0.8, bridge_prob=0.5, span2_prob=0.4)
        for inst in generate(cfg):
            assert oracle_label(inst) == inst.label

    def test_labels_in_schema(self):
        cfg = SynthConfig(n=100, seed=11, k_types=4, residual_frac=0.3)
        schema = cfg.schema
        for inst in generate(cfg):
            schema.fine_index(inst.label)  # must not raise

    def test_both_directions_generated(self):
        labels = {i.label for i in generate(SynthConfig(n=200, seed=12, k_types=2,
                                                        residual_frac=0.0))}
        assert "Rel1(e1,e2)" in labels and "Rel1(e2,e1)" in labels


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SynthConfig(n=0)
        with pytest.raises(ValueError):
            SynthConfig(k_types=0)
        with pytest.raises(ValueError):
            SynthConfig(blocks=-1)
        with pytest.raises(ValueError):
            SynthConfig(entity_pool=0)

    def test_bad_probabilities(self):
        for field in ("prep_density", "span2_prob", "residual_frac",
                      "distractor_prob", "bridge_prob"):
            with pytest.raises(ValueError, match=field):
                SynthConfig(**{field: 1.5})

    def test_schema_size_tracks_k(self):
        assert SynthConfig(k_types=6).schema.fine_size == 13
