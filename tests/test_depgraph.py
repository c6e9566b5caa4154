import gc
import re

import numpy as np
import pytest
from helpers import bfs_path, parse_conllu_reference, random_tree, validate_tree_reference
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
    iter_conllu,
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
                    deprels, directions = (tuple(e[k] for e in edges) for k in (0, 1))
                    assert SdpPath(tuple(nodes), deprels, directions, p.forms, p.pos) == p


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

    def test_sdp_path_holds_edges_as_columns(self):
        """Equal columns make equal, equally hashed paths; edges builds the PathEdges."""
        p = SdpPath((1, 2, 3), ("a", "b"), (UP, DOWN), ("x", "y", "z"), ("N", "V", "N"))
        q = SdpPath(nodes=(1, 2, 3), deprels=("a", "b"), directions=("UP", "DOWN"),
                    forms=("x", "y", "z"), pos=("N", "V", "N"))
        assert p.edges == (PathEdge("a", UP), PathEdge("b", DOWN))
        assert all(type(e) is PathEdge for e in p.edges)
        assert p == q and hash(p) == hash(q) and len(p) == 3
        assert p != SdpPath((1, 2, 3), ("a", "b"), (UP, UP), p.forms, p.pos)
        assert len({p, q, SdpPath((4,), (), (), ("w",), ("N",))}) == 2

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


COLUMNS = ("forms", "pos", "heads", "deprels", "lemmas", "xpos", "feats", "deps", "misc")
ODD_NUMBERS = ("+1", " 1", "1 ", "\u0661", "\uff11", "1_0", "x", "", "-1", "1.5", "9" * 4301)
ODD_FORMS = ("#", "a b", "#x", "\x0c", "\u2028", "\r")


@st.composite
def sentence_lines(draw):
    """A sentence as CoNLL-U columns, one list per line: three times in four a
    valid tree, else token_lists(); then comment, range and empty-node lines,
    zero-padded numbers and odd FORMs, none of which is a fault, and now and
    then a fault: an odd ID or HEAD, a column short or extra, two lines swapped."""
    if draw(st.integers(0, 3)):
        n = draw(st.integers(1, 12))
        order = draw(st.permutations(range(1, n + 1)))
        heads = {order[0]: 0}
        for k in range(1, n):
            heads[order[k]] = order[draw(st.integers(0, k - 1))]
        tokens = [Token(i, f"w{i}", "X", heads[i], "dep") for i in range(1, n + 1)]
    else:
        tokens = draw(token_lists())
    lines = [[str(t.index), t.form, "_", t.pos, "_", "_", str(t.head), t.deprel, "_", "_"]
             for t in tokens]
    for _ in range(draw(st.integers(0, 3))):
        cols = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from(["comment", "skip", "pad", "form"]))
        if kind in ("comment", "skip"):
            new = ([draw(st.sampled_from(["# sent_id = 1", "  # text = a\tb", "#"]))]
                   if kind == "comment" else
                   [draw(st.sampled_from(["1-2", "2.1", "10-11", "0.1"])), "x", "_", "_", "_",
                    "_", "_", "_", "2:dep", "_"])
            lines.insert(draw(st.integers(0, len(lines))), new)
        elif len(cols) == 10:
            k = {"pad": draw(st.sampled_from([0, 6])), "form": 1}[kind]
            cols[k] = "0" + cols[k] if kind == "pad" else draw(st.sampled_from(ODD_FORMS))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        cols = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from(["id", "head", "width", "swap"]))
        if kind in ("id", "head") and len(cols) == 10:
            cols[0 if kind == "id" else 6] = draw(st.sampled_from(ODD_NUMBERS))
        elif kind == "width":  # never empty a line: a one-column line only grows
            cols.append("_") if len(cols) == 1 or draw(st.booleans()) else cols.pop()
        elif kind == "swap" and len(lines) > 1:
            i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2,
                                 unique=True))
            lines[i], lines[j] = lines[j], lines[i]
    return lines


@st.composite
def conllu_texts(draw):
    """1-3 sentence_lines() joined by tabs, or now and then by spaces, with LF
    or CRLF ends and blank or whitespace-only separator lines."""
    text = draw(st.sampled_from(["", "\n", " \n", "# doc\n"]))
    for _ in range(draw(st.integers(1, 3))):
        for cols in draw(sentence_lines()):
            sep = " " if len(cols) > 1 and draw(st.integers(0, 9)) == 0 else "\t"
            text += sep.join(cols) + draw(st.sampled_from(["\n", "\n", "\r\n"]))
        text += draw(st.sampled_from(["\n", "\r\n", " \n", "\t\r\n", "\u3000\n\n", ""]))
    return text


class TestParserOracle:
    @given(conllu_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_error_or_same_trees_as_line_by_line_reference(self, text):
        """parse_conllu and the lazy iter_conllu raise what the line-by-line
        parser raises, or return the trees it builds, column for column."""
        for parse in (parse_conllu, lambda text: list(iter_conllu(text))):
            try:
                expected = parse_conllu_reference(text)
            except ConlluError as err:
                with pytest.raises(ConlluError) as got:
                    parse(text)
                assert type(got.value) is type(err) and str(got.value) == str(err)
                continue
            trees = parse(text)
            assert trees == expected
            assert [t.tokens for t in trees] == [t.tokens for t in expected]
            for tree, want in zip(trees, expected):
                assert tree.root == want.root
                for name in COLUMNS:
                    assert getattr(tree, name) == getattr(want, name), name

    def test_trees_before_a_fault_are_yielded_before_it_is_raised(self):
        rng = np.random.default_rng(4)
        good = serialize_conllu([random_tree(rng) for _ in range(3)])
        text = good + "# bad\n1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t7\tdep\t_\t_\n"
        trees = iter_conllu(text)
        assert [next(trees) for _ in range(3)] == parse_conllu(good)
        with pytest.raises(HeadOutOfRange) as got:
            next(trees)
        with pytest.raises(HeadOutOfRange) as want:
            parse_conllu_reference(text)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("sentence 4 (starting line ")

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_serialize_then_parse_round_trips(self, seed, count):
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng) for _ in range(count)]
        parsed = parse_conllu(serialize_conllu(trees))
        assert parsed == trees
        assert [(t.tokens, t.heads, t.deprels, t.root) for t in parsed] == [
            (t.tokens, t.heads, t.deprels, t.root) for t in trees]


class TestColumns:
    @staticmethod
    def chains(count, n):
        return serialize_conllu([DependencyTree(
            tuple(Token(i, f"w{i}", "X", i - 1, "dep") for i in range(1, n + 1)))] * count)

    def test_parsed_columns_are_untracked_tuples(self):
        """Every column is an exact tuple of strings or ints, which the
        collector stops tracking: it need not walk a parsed tree's tokens."""
        trees = parse_conllu(self.chains(3, 4) + MINIMAL)
        gc.collect()
        for tree in trees:
            for name in COLUMNS:
                column = getattr(tree, name)
                assert type(column) is tuple and len(column) == tree.n + 1
                assert not gc.is_tracked(column), name

    def test_tracked_objects_grow_with_sentences_not_tokens(self):
        def tracked_after_parse(n):
            text = self.chains(200, n)
            gc.collect()
            before = len(gc.get_objects())
            trees = parse_conllu(text)
            gc.collect()
            alive = len(gc.get_objects()) - before
            assert len(trees) == 200
            return alive

        short, long = tracked_after_parse(5), tracked_after_parse(50)
        assert short <= 2 * 200 + 10
        assert abs(long - short) <= 10
