import numpy as np
import pytest
from helpers import (
    bfs_path,
    check_lined_tree,
    components_by_walk,
    cut_oracle,
    invert_path,
    punct_cut_oracle,
    random_cut_set,
    random_tree,
    splitmix64,
    unit_interval,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_depgraph import make_tree

from pathrel.depgraph import DOWN, UP, DependencyTree, PathEdge, SdpPath, path_between
from pathrel.structreg import (
    SR_LINK,
    CutRootRequested,
    CutRule,
    cut_and_line,
    extract_sr_sdp,
    select_cut_nodes,
    select_cuts,
)


class TestSplitmix64:
    """The scalar generator the cut oracle steps, checked on its own."""

    def test_reference_vectors(self):
        # first outputs of the published reference implementation, seed 0
        s = 0
        outs = []
        for _ in range(3):
            s, z = splitmix64(s)
            outs.append(z)
        assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_unit_interval_range(self):
        s = 12345
        for _ in range(200):
            s, z = splitmix64(s)
            u = unit_interval(z)
            assert 0.0 <= u < 1.0

    def test_64_bit_wraparound(self):
        s, z = splitmix64((1 << 64) - 1)
        assert 0 <= s < 1 << 64 and 0 <= z < 1 << 64


class TestCutRule:
    def test_variants_validated(self):
        with pytest.raises(ValueError, match="unknown cut rule"):
            CutRule("sometimes")

    def test_probability_range(self):
        with pytest.raises(ValueError):
            CutRule("random", p=1.5)

    def test_prep_needs_tags(self):
        with pytest.raises(ValueError, match="tag set"):
            CutRule("prep", tag_set=frozenset())

    def test_dict_round_trip(self):
        rule = CutRule("random", p=0.25, seed=99, tag_set=frozenset({"ADP"}))
        assert CutRule.from_dict(rule.to_dict()) == rule


class TestSelectCutNodes:
    def test_none_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert select_cut_nodes(random_tree(rng), CutRule("none")) == set()

    def test_prep_fixture(self):
        # ADP at positions 3 and 7, root 5
        heads = [5, 5, 2, 5, 0, 5, 6, 7, 7, 9]
        pos = ["NOUN", "NOUN", "ADP", "NOUN", "VERB", "NOUN", "ADP", "NOUN", "NOUN", "NOUN"]
        tree = make_tree(heads, pos=pos)
        assert select_cut_nodes(tree, CutRule("prep")) == {3, 7}

    def test_prep_never_selects_root(self):
        tree = make_tree([0, 1], pos=["ADP", "NOUN"])
        assert select_cut_nodes(tree, CutRule("prep")) == set()

    def test_prep_custom_tags(self):
        tree = make_tree([0, 1, 1], pos=["VERB", "IN", "ADJ"])
        assert select_cut_nodes(tree, CutRule("prep")) == {2}
        assert select_cut_nodes(tree, CutRule("prep", tag_set=frozenset({"ADJ"}))) == {3}

    def test_random_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tree = random_tree(rng)
            non_root = set(range(1, tree.n + 1)) - {tree.root}
            assert select_cut_nodes(tree, CutRule("random", p=0.0, seed=5)) == set()
            assert select_cut_nodes(tree, CutRule("random", p=1.0, seed=5)) == non_root

    def test_random_deterministic(self):
        tree = random_tree(np.random.default_rng(3), n=14)
        rule = CutRule("random", p=0.5, seed=77)
        first = select_cut_nodes(tree, rule, ordinal=4)
        assert select_cut_nodes(tree, rule, ordinal=4) == first
        assert tree.root not in first

    def test_random_ordinal_changes_draws(self):
        tree = random_tree(np.random.default_rng(4), n=14)
        rule = CutRule("random", p=0.5, seed=123)
        sets = {frozenset(select_cut_nodes(tree, rule, ordinal=o)) for o in range(8)}
        assert len(sets) > 1

    def test_punct_segments(self):
        # PUNCT at 4 splits [1,2,3] (with root 2) from [5,6,7];
        # only token 5 attaches outside its segment
        heads = [2, 0, 2, 2, 2, 5, 6]
        pos = ["NOUN", "VERB", "NOUN", "PUNCT", "NOUN", "NOUN", "NOUN"]
        tree = make_tree(heads, pos=pos)
        assert select_cut_nodes(tree, CutRule("punct")) == {5}

    def test_punct_multiple_exits_in_segment(self):
        # both 5 and 6 attach into the root segment
        heads = [2, 0, 2, 2, 2, 3, 6]
        pos = ["NOUN", "VERB", "NOUN", "PUNCT", "NOUN", "NOUN", "NOUN"]
        tree = make_tree(heads, pos=pos)
        assert select_cut_nodes(tree, CutRule("punct")) == {5, 6}

    def test_punct_only_root_segment(self):
        tree = make_tree([0, 1, 1], pos=["VERB", "NOUN", "PUNCT"])
        assert select_cut_nodes(tree, CutRule("punct")) == set()

    @pytest.mark.parametrize("heads, pos, cut", [
        # a PUNCT root: no run holds it, so every run is cut at its exits
        ([0, 1, 1, 3, 1], ["PUNCT", "NOUN", "NOUN", "NOUN", "NOUN"], {2, 3, 5}),
        # leading, consecutive and trailing PUNCT around runs [2, 3] (root 3) and [6, 7]
        ([3, 3, 0, 3, 6, 3, 6, 3],
         ["PUNCT", "NOUN", "VERB", "PUNCT", "PUNCT", "NOUN", "NOUN", "PUNCT"], {6}),
        # every token but the root is PUNCT
        ([3, 3, 0, 3], ["PUNCT", "PUNCT", "VERB", "PUNCT"], set()),
        # a run attached to a PUNCT token
        ([0, 1, 2, 2], ["VERB", "PUNCT", "NOUN", "PUNCT"], {3}),
    ])
    def test_punct_edge_cases(self, heads, pos, cut):
        tree = make_tree(heads, pos=pos)
        assert select_cut_nodes(tree, CutRule("punct")) == cut == punct_cut_oracle(tree)

    def test_punct_matches_scan_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(400):
            tree = random_tree(rng)
            punct_p = float(rng.choice([0.0, 0.15, 0.5, 0.9, 1.0]))
            tree = DependencyTree(tuple(
                tok._replace(pos="PUNCT") if rng.random() < punct_p else tok
                for tok in tree.tokens
            ))
            cut = select_cut_nodes(tree, CutRule("punct"))
            assert cut == punct_cut_oracle(tree)
            assert tree.root not in cut


def corpus(shapes):
    """One random tree per (length, seed) shape."""
    return [random_tree(np.random.default_rng(seed), n=n) for n, seed in shapes]


# a seed's low 64 bits seed the draws: negative seeds, seeds past 2**64 and
# seeds around 2**63 wrap as the scalar loop's masking does
SEEDS = st.one_of(st.integers(-(2**70), 2**70),
                  st.sampled_from([-1, -(2**63), 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**64 + 3]))


class TestSelectCuts:
    @given(shapes=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 2**32 - 1)), max_size=12),
           seed=SEEDS, first=st.integers(-(2**65), 2**65),
           p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    @example(shapes=[(1, 0), (1, 1), (2, 2)], seed=0, first=0, p=1.0)  # a root-only sentence
    @example(shapes=[(13, 5)] * 3, seed=-1, first=2**64 - 2, p=0.5)  # positions wrap past 2**64
    @settings(max_examples=300, deadline=None)
    def test_random_draws_equal_the_scalar_loop(self, shapes, seed, first, p):
        """Sentence by sentence: the corpus pass, and select_cut_nodes at that
        ordinal, equal splitmix64 stepped once per token."""
        trees = corpus(shapes)
        rule = CutRule("random", p=p, seed=seed)
        expected = [cut_oracle(tree, rule, first + o) for o, tree in enumerate(trees)]
        assert select_cuts(trees, rule, first=first) == expected
        assert [select_cut_nodes(tree, rule, first + o) for o, tree in enumerate(trees)] == expected

    @pytest.mark.parametrize("variant", CutRule.VARIANTS)
    def test_every_rule_equals_its_oracle(self, variant):
        trees = corpus((int(n), seed) for seed, n in enumerate(
            np.random.default_rng(13).integers(1, 25, size=60)))
        rule = CutRule(variant, p=0.3, seed=21)
        assert select_cuts(trees, rule, first=4) == [
            cut_oracle(tree, rule, 4 + o) for o, tree in enumerate(trees)]

    def test_draw_equal_to_p_is_not_cut(self):
        """A token is cut when its draw is below p: at p equal to the draw it is
        kept, at the next double above it is cut."""
        tree = make_tree([2, 0, 2, 2])
        state, draws = 9 ^ 3, []
        for _ in range(tree.n):
            state, z = splitmix64(state)
            draws.append(unit_interval(z))
        u = draws[3]  # token 4, not the root
        assert 4 not in select_cuts([tree], CutRule("random", p=u, seed=9), first=3)[0]
        assert 4 in select_cuts([tree], CutRule("random", p=float(np.nextafter(u, 1.0)), seed=9),
                                first=3)[0]

    @pytest.mark.parametrize("variant", CutRule.VARIANTS)
    def test_empty_corpus(self, variant):
        assert select_cuts([], CutRule(variant)) == []


class TestCutAndLine:
    def test_empty_cut_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tree = random_tree(rng)
            rt = cut_and_line(tree, set())
            assert rt.link_edges == ()
            assert rt.heads == list(tree.heads) and rt.deprels == list(tree.deprels)

    def test_chain_example(self):
        # chain 1<-2<-3<-4 with root 4; cutting 2 links roots [2, 4]
        tree = make_tree([2, 3, 4, 0])
        rt = cut_and_line(tree, {2})
        assert rt.link_edges == ((2, 4),)
        parents, labels = rt.heads, rt.deprels
        assert parents[2] == 0
        assert parents[4] == 2 and labels[4] == SR_LINK
        assert parents[1] == 2 and parents[3] == 4

    def test_root_cut_rejected(self):
        tree = make_tree([2, 0])
        with pytest.raises(CutRootRequested):
            cut_and_line(tree, {2})

    def test_out_of_range_cut_rejected(self):
        tree = make_tree([2, 0])
        with pytest.raises(ValueError, match="outside"):
            cut_and_line(tree, {9})

    def test_partition_and_tree_oracles(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            tree = random_tree(rng)
            cuts = random_cut_set(rng, tree)
            rt = cut_and_line(tree, cuts)
            groups = components_by_walk(tree, cuts)
            assert sum(len(g) for g in groups.values()) == tree.n
            assert set(groups) == cuts | {tree.root}
            for root, members in groups.items():
                for m in members:
                    assert rt.component_root(m) == root
            check_lined_tree(tree, rt)
            assert len(rt.link_edges) == len(groups) - 1

    def test_nested_cuts_root_their_own_components(self):
        # 1 <- 2 <- 3 <- 4 (root), cut both 2 and 3
        tree = make_tree([2, 3, 4, 0])
        rt = cut_and_line(tree, {2, 3})
        groups = components_by_walk(tree, {2, 3})
        assert groups == {2: {1, 2}, 3: {3}, 4: {4}}
        assert rt.link_edges == ((2, 3), (3, 4))


class TestExtractSrSdp:
    def test_no_cuts_equals_plain_path(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tree = random_tree(rng)
            rt = cut_and_line(tree, set())
            a = int(rng.integers(1, tree.n + 1))
            b = int(rng.integers(1, tree.n + 1))
            assert extract_sr_sdp(rt, a, b) == path_between(tree, a, b)

    def test_link_edge_direction(self):
        # roots [2, 4]: traversing 2 -> 4 crosses the link downward
        tree = make_tree([2, 3, 4, 0])
        rt = cut_and_line(tree, {2})
        p = extract_sr_sdp(rt, 1, 3)
        assert p.nodes == (1, 2, 4, 3)
        assert p.edges[1] == PathEdge(SR_LINK, DOWN)
        back = extract_sr_sdp(rt, 3, 1)
        assert back.edges[1] == PathEdge(SR_LINK, UP)

    def test_bfs_oracle_with_cuts(self):
        """Every ordered pair of every lined tree: equal, a above b, b above a, neither."""
        rng = np.random.default_rng(8)
        kinds = set()
        for _ in range(100):
            tree = random_tree(rng, n=int(rng.integers(1, 16)))
            rt = cut_and_line(tree, random_cut_set(rng, tree))
            parents = rt.heads

            def above(x, y):  # x is a proper ancestor of y
                while parents[y]:
                    y = parents[y]
                    if y == x:
                        return True
                return False

            for a in range(1, tree.n + 1):
                for b in range(1, tree.n + 1):
                    kinds.add("equal" if a == b else "a above" if above(a, b)
                              else "b above" if above(b, a) else "apart")
                    p = extract_sr_sdp(rt, a, b)
                    nodes, edges = bfs_path(rt, a, b)
                    assert list(p.nodes) == nodes
                    assert [(e.deprel, e.direction) for e in p.edges] == edges
                    assert p.forms == tuple(f"w{i}" for i in nodes)
                    assert p.pos == tuple(tree.token(i).pos for i in nodes)
        assert kinds == {"equal", "a above", "b above", "apart"}

    def test_regularization_shortens_buried_path(self):
        # entity 6 buried two prepositional hops below the root verb
        heads = [2, 0, 2, 3, 4, 5]
        pos = ["NOUN", "VERB", "ADP", "NOUN", "ADP", "NOUN"]
        tree = make_tree(heads, pos=pos)
        plain = path_between(tree, 1, 6)
        cuts = select_cut_nodes(tree, CutRule("prep"))
        assert cuts == {3, 5}
        sr = extract_sr_sdp(cut_and_line(tree, cuts), 1, 6)
        assert len(sr) < len(plain)


class TestInvertPath:
    def test_single_node(self):
        p = SdpPath(nodes=(3,), deprels=(), directions=(), forms=("w3",), pos=("X",))
        assert invert_path(p) == p

    def test_definition_unrolled(self):
        p = SdpPath(nodes=(1, 2, 5), deprels=("r1", "r2"), directions=(UP, DOWN),
                    forms=("a", "b", "c"), pos=("N", "V", "X"))
        q = invert_path(p)
        assert q.nodes == (5, 2, 1)
        assert q.edges == (PathEdge("r2", UP), PathEdge("r1", DOWN))
        assert (q.forms, q.pos) == (("c", "b", "a"), ("X", "V", "N"))

    def test_involution(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            tree = random_tree(rng)
            a = int(rng.integers(1, tree.n + 1))
            b = int(rng.integers(1, tree.n + 1))
            p = path_between(tree, a, b)
            assert invert_path(invert_path(p)) == p
