import re

import numpy as np
import pytest
from helpers import bfs_path, random_tree, validate_tree_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrel.depgraph import (
    DOWN,
    UP,
    ConlluError,
    CycleDetected,
    DependencyTree,
    EntitySpan,
    HeadOutOfRange,
    Instance,
    MalformedLine,
    MultipleRoots,
    NoRoot,
    PathEdge,
    SdpPath,
    Token,
    entity_head,
    parse_conllu,
    path_between,
    serialize_conllu,
)

MINIMAL = "1\thi\t_\tINTJ\t_\t_\t0\troot\t_\t_\n"


def make_tree(heads, pos=None, deprels=None):
    pos = pos or ["X"] * len(heads)
    deprels = deprels or [("root" if h == 0 else "dep") for h in heads]
    return DependencyTree(
        tuple(
            Token(i + 1, f"w{i + 1}", pos[i], heads[i], deprels[i])
            for i in range(len(heads))
        )
    )


class TestParsing:
    def test_minimal_sentence(self):
        trees = parse_conllu(MINIMAL)
        assert len(trees) == 1
        assert trees[0].n == 1
        assert trees[0].root == 1
        assert trees[0].token(1).form == "hi"

    def test_two_roots_rejected(self):
        text = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(MultipleRoots):
            parse_conllu(text)

    def test_no_root_rejected(self):
        text = "1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
        with pytest.raises((NoRoot, CycleDetected)):
            parse_conllu(text)

    def test_cycle_rejected(self):
        text = (
            "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\tX\t_\t_\t3\tdep\t_\t_\n"
            "3\tc\t_\tX\t_\t_\t2\tdep\t_\t_\n"
        )
        with pytest.raises(CycleDetected):
            parse_conllu(text)

    def test_head_out_of_range(self):
        text = "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t9\tdep\t_\t_\n"
        with pytest.raises(HeadOutOfRange):
            parse_conllu(text)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(MalformedLine, match="line 1"):
            parse_conllu("1\ta\tX\n")

    def test_error_names_sentence(self):
        text = MINIMAL + "\n" + "1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t0\troot\t_\t_\n"
        with pytest.raises(MultipleRoots, match="sentence 2"):
            parse_conllu(text)

    def test_comments_and_ranged_ids_skipped(self):
        text = (
            "# sent_id = 1\n"
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdel\t_\tX\t_\t_\t2\tdep\t_\t_\n"
            "2\tla\t_\tX\t_\t_\t0\troot\t_\t_\n"
            "2.1\tgone\t_\tX\t_\t_\t_\t_\t2:dep\t_\n"
        )
        trees = parse_conllu(text)
        assert len(trees) == 1
        assert trees[0].n == 2

    def test_space_separated_fallback(self):
        trees = parse_conllu("1 hi _ INTJ _ _ 0 root _ _\n")
        assert trees[0].token(1).pos == "INTJ"

    def test_tab_line_missing_a_column_rejected(self):
        """Only a line without a tab is split on whitespace: a tab line one column
        short must not re-split a FORM holding a space into FORM and LEMMA."""
        with pytest.raises(MalformedLine, match=r"^line 2: expected 10 columns, got 9$"):
            parse_conllu(MINIMAL + "1\tNew York\tPROPN\t_\t_\t0\troot\t_\t_\n")

    def test_noninteger_head_rejected(self):
        """HEAD takes ASCII digits only, the same rule as ID: no sign, padding,
        digit separator or non-ASCII digit."""
        for head in ("+1", " 1", "1 ", "\u0661", "1_0", "-1", "1.0", "x", ""):
            text = MINIMAL + f"2\thi\t_\tX\t_\t_\t{head}\tdep\t_\t_\n"
            message = rf"^line 2: non-integer HEAD {re.escape(repr(head))}$"
            with pytest.raises(MalformedLine, match=message):
                parse_conllu(text)
        with pytest.raises(MalformedLine, match=r"^line 2: HEAD of 5000 digits$"):
            parse_conllu(MINIMAL + f"2\thi\t_\tX\t_\t_\t{'9' * 5000}\tdep\t_\t_\n")

    def test_noninteger_id_rejected(self):
        """Only N is a token, N-M and N.M are skipped; any other ID names its line."""
        for tok_id in ("x", "-1", "1.x.y", "foo-bar", "-", ".", "1-", ".1", "1-2-3", "1.2.3",
                       "+1", " 1", "\uff11", "9" * 5000):
            text = MINIMAL + f"{tok_id}\thi\t_\tX\t_\t_\t1\tdep\t_\t_\n"
            with pytest.raises(MalformedLine, match=r"^line 2: ID "):
                parse_conllu(text)

    def test_five_token_fixture_acyclic(self):
        # heads [2,0,2,5,3]: walking any token upward reaches 0 in <= 5 steps
        tree = make_tree([2, 0, 2, 5, 3])
        for tok in tree.tokens:
            cur, steps = tok.index, 0
            while cur != 0:
                cur = tree.token(cur).head
                steps += 1
                assert steps <= 5
        assert tree.root == 2

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            tree = random_tree(rng)
            text = serialize_conllu([tree])
            assert parse_conllu(text) == [tree]

    def test_round_trip_preserves_extras(self):
        text = "1\thi\tlem\tINTJ\tUH\tFeat=1\t0\troot\t0:root\tMisc=1\n"
        assert serialize_conllu(parse_conllu(text)) == text + "\n"

    # every line break str.splitlines() knows besides LF and CR
    OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

    @pytest.mark.parametrize("brk", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
    def test_forms_holding_other_line_breaks_round_trip(self, brk):
        tree = DependencyTree((Token(1, f"a{brk}b", "NOUN", 2, "nsubj"),
                               Token(2, brk, "VERB", 0, "root", ("_", "_", "_", "_", f"M{brk}"))))
        text = serialize_conllu([tree])
        assert parse_conllu(text) == [tree]
        assert parse_conllu(text.replace("\n", "\r\n")) == [tree]  # one CR per line dropped


class TestEntityHead:
    def test_unique_exit(self):
        # span {3..4}: head(3)=4 inside, head(4)=7 outside -> 4
        tree = make_tree([7, 1, 4, 7, 4, 5, 0])
        assert entity_head(tree, EntitySpan(3, 4)) == 4

    def test_multiple_exits_prefers_nearest_root(self):
        # span {2..3}: both heads exit; 3 hangs off the root, 2 is deeper
        tree = make_tree([0, 4, 1, 1])
        assert tree.depth(3) == 1 and tree.depth(2) == 2
        assert entity_head(tree, EntitySpan(2, 3)) == 3

    def test_tie_breaks_to_smallest_index(self):
        # 2 and 3 both attach directly to root 1
        tree = make_tree([0, 1, 1])
        assert entity_head(tree, EntitySpan(2, 3)) == 2

    def test_root_inside_span(self):
        tree = make_tree([2, 0, 2])
        assert entity_head(tree, EntitySpan(1, 2)) == 2


class TestPaths:
    def test_single_node(self):
        tree = make_tree([0, 1])
        p = path_between(tree, 2, 2)
        assert p.nodes == (2,) and p.edges == ()

    def test_chain_up(self):
        tree = make_tree([2, 3, 0], deprels=["a", "b", "root"])
        p = path_between(tree, 1, 3)
        assert p.nodes == (1, 2, 3)
        assert p.edges == (PathEdge("a", UP), PathEdge("b", UP))
        assert p.forms == ("w1", "w2", "w3")

    def test_chain_down(self):
        tree = make_tree([2, 3, 0], deprels=["a", "b", "root"])
        p = path_between(tree, 3, 1)
        assert p.edges == (PathEdge("b", DOWN), PathEdge("a", DOWN))

    def test_diamond_through_lca(self):
        # 2 and 3 are siblings under root 1
        tree = make_tree([0, 1, 1], deprels=["root", "x", "y"])
        p = path_between(tree, 2, 3)
        assert p.nodes == (2, 1, 3)
        assert p.edges == (PathEdge("x", UP), PathEdge("y", DOWN))

    def test_bfs_oracle_exhaustive(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            tree = random_tree(rng, n=int(rng.integers(1, 11)))
            for a in range(1, tree.n + 1):
                for b in range(1, tree.n + 1):
                    p = path_between(tree, a, b)
                    nodes, edges = bfs_path(tree, a, b)
                    assert list(p.nodes) == nodes
                    assert [(e.deprel, e.direction) for e in p.edges] == edges


class TestValidationTypes:
    def test_span_bounds(self):
        with pytest.raises(ValueError):
            EntitySpan(3, 2)
        with pytest.raises(ValueError):
            EntitySpan(0, 1)

    def test_instance_rejects_overlap(self):
        tree = make_tree([0, 1, 1, 1])
        with pytest.raises(ValueError, match="overlap"):
            Instance(tree, EntitySpan(1, 2), EntitySpan(2, 3), "L")

    def test_instance_rejects_out_of_range_span(self):
        tree = make_tree([0, 1])
        with pytest.raises(ValueError, match="exceeds"):
            Instance(tree, EntitySpan(1, 1), EntitySpan(2, 5), "L")

    def test_sdp_path_shape_checks(self):
        with pytest.raises(ValueError):
            SdpPath(nodes=(1, 2), edges=())
        with pytest.raises(ValueError, match="repeated"):
            SdpPath(nodes=(1, 2, 1), edges=(PathEdge("a", UP), PathEdge("b", DOWN)))

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_paths_never_repeat_nodes(self, n, seed):
        tree = random_tree(np.random.default_rng(seed), n=n)
        a = 1 + seed % n
        b = 1 + (seed // n) % n
        p = path_between(tree, a, b)
        assert len(set(p.nodes)) == len(p.nodes)
        assert len(p.edges) == len(p.nodes) - 1


@st.composite
def token_lists(draw):
    """1-12 tokens: a valid tree with one head perhaps moved, or heads drawn
    at random (cycles, self-loops, no root, several roots, out of range);
    now and then one ID out of place."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        heads = {order[0]: 0}
        for k in range(1, n):
            heads[order[k]] = order[draw(st.integers(0, k - 1))]
        heads = [heads[i] for i in range(1, n + 1)]
        if draw(st.booleans()):
            heads[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    else:
        heads = draw(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n))
    ids = list(range(1, n + 1))
    if draw(st.integers(0, 4)) == 0:
        ids[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 2))
    return tuple(Token(i, f"w{i}", "X", h, f"r{k}") for k, (i, h) in enumerate(zip(ids, heads)))


class TestValidationOracle:
    @given(token_lists())
    @settings(max_examples=400, deadline=None)
    def test_same_error_or_same_arrays_as_reference(self, tokens):
        """DependencyTree raises what the direct reference raises, or builds with the
        root, heads and deprels a direct scan of the tokens gives."""
        try:
            validate_tree_reference(tokens)
        except ConlluError as err:
            with pytest.raises(ConlluError) as got:
                DependencyTree(tokens)
            assert type(got.value) is type(err) and str(got.value) == str(err)
            return
        tree = DependencyTree(tokens)
        assert tree.root == next(t.index for t in tokens if t.head == 0)
        assert tree.heads == (0, *(t.head for t in tokens))
        assert tree.deprels[1:] == tuple(t.deprel for t in tokens)
        assert len(tree.deprels) == len(tokens) + 1
