"""Trees, contexts, substitutions, and the algebra operators."""

import random

import pytest

from conftest import random_context, random_tree, reference_preorder
from rsasm.errors import TreeError
from rsasm.reflect import build_self_tree
from rsasm.rules import Par
from rsasm.structures import NatVal, Signature, SymbolName, SELF_SYMBOL, FunctionSymbol
from rsasm.treealg import (
    Context,
    Tree,
    TRIVIAL_CONTEXT,
    XI,
    concat,
    context_of,
    eval_algebra,
    hedge_of,
    inject_context,
    inject_hedge,
    label_context,
    label_hedge,
    left_extend,
    right_extend,
    subst_cc,
    subst_ct,
    subst_tc,
    subst_tt,
    subtree,
    tree_diff,
)


def leaf(label, value=None):
    return Tree(label, (), value)


def test_tree_invariants():
    with pytest.raises(TreeError):
        Tree("a", (leaf("b"),), NatVal(1))  # interior node with a value
    t = Tree("a", (leaf("b"), leaf("c", NatVal(2))))
    assert t.size == 3
    assert t.label_of(0) == "a"
    assert t.leaf_value(2) == NatVal(2)


def test_unique_root_and_parenthood():
    rng = random.Random(1)
    for _ in range(50):
        t = random_tree(rng)
        roots = [nid for nid in t.node_ids() if t.parent_of(nid) is None]
        assert roots == [0]
        for parent, child in t.child_pairs():
            assert t.parent_of(child) == parent


def test_sibling_pairs_share_parent():
    rng = random.Random(2)
    for _ in range(50):
        t = random_tree(rng)
        for left, right in t.sibling_pairs():
            assert t.parent_of(left) == t.parent_of(right)


def test_preorder_matches_the_recursive_definition():
    rng = random.Random(17)
    for _ in range(200):
        t = random_tree(rng, 40)
        expected = list(reference_preorder(t))
        got = list(t.preorder())
        assert [nid for nid, _, _ in got] == list(range(t.size))
        assert [(path, node) for _, path, node in got] == expected


def test_find_returns_the_node_or_none():
    rng = random.Random(19)
    for _ in range(100):
        t = random_tree(rng, 30)
        for path, node in reference_preorder(t):
            assert t.find(path) is node
            assert t.node_at_path(path) is node
            for missing in (path + (len(node.children),), path + (-1,)):
                assert t.find(missing) is None
                with pytest.raises(TreeError, match=f"leaves the tree at index {missing[-1]}"):
                    t.node_at_path(missing)


def test_subtree_of_root_is_whole_tree():
    t = Tree("a", (leaf("b"),))
    assert subtree(t, 0) == t


def test_subtree_of_self_tree_signature_child():
    sig = Signature((SELF_SYMBOL, FunctionSymbol("f", 2)))
    t = build_self_tree(sig, Par(()))
    sub = subtree(t, 1)
    assert sub.label == "signature"
    assert [c.label for c in sub.children] == ["func", "func"]


def _embedding_conditions(t, o, sub):
    """The five conditions of the subtree relation, via the canonical embedding."""
    path = t.path_of(o)
    anchored = t.node_at_path(path)
    # same structure, labels, and leaf values under the order-preserving bijection
    def walk(a, b):
        assert a.label == b.label
        assert len(a.children) == len(b.children)
        if not a.children:
            assert a.value == b.value
        for ca, cb in zip(a.children, b.children):
            walk(ca, cb)

    walk(anchored, sub)


def test_subtree_conditions_hold_on_random_trees():
    rng = random.Random(3)
    for _ in range(100):
        t = random_tree(rng, max_nodes=10)
        o = rng.randrange(t.size)
        _embedding_conditions(t, o, subtree(t, o))


def test_context_of_two_node_tree():
    t = Tree("a", (leaf("b"),))
    c = context_of(t, 0, 1)
    assert c.tree == Tree("a", (leaf(XI),))


def test_context_of_requires_strict_ancestor():
    t = Tree("a", (leaf("b"), leaf("c")))
    with pytest.raises(TreeError):
        context_of(t, 1, 2)
    with pytest.raises(TreeError):
        context_of(t, 0, 0)


def test_inject_hedge_context_of_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng)
        if t.size < 2:
            continue
        o = rng.randrange(1, t.size)
        c = context_of(t, 0, o)
        assert inject_hedge(c, (subtree(t, o),)) == t


def test_substitutions():
    t = Tree("a", (leaf("b"), leaf("c")))
    assert subst_ct(TRIVIAL_CONTEXT, t) == t
    c = subst_tc(t, 1)
    assert subst_cc(c, TRIVIAL_CONTEXT) == c
    rng = random.Random(5)
    for _ in range(100):
        t = random_tree(rng)
        o = rng.randrange(t.size)
        assert subst_tt(t, o, subtree(t, o)) == t


def test_subst_tc_shortcut_matches_composition():
    rng = random.Random(6)
    for _ in range(50):
        t = random_tree(rng)
        o = rng.randrange(t.size)
        c2 = random_context(rng, 6)
        assert subst_tc(t, o, c2) == subst_cc(subst_tc(t, o), c2)


def test_label_hedge():
    assert label_hedge("a") == leaf("a")
    entry = label_hedge("func", (leaf("name", SymbolName("f")), leaf("arity", NatVal(2))))
    assert entry.label == "func"
    assert [c.label for c in entry.children] == ["name", "arity"]
    rng = random.Random(7)
    for _ in range(50):
        h = tuple(random_tree(rng, 5) for _ in range(rng.randrange(0, 4)))
        assert hedge_of(label_hedge("a", h)) == h


def test_label_context():
    c = label_context("a", TRIVIAL_CONTEXT)
    assert c.tree == Tree("a", (leaf(XI),))
    c2 = label_context("b", c)
    assert c2.tree == Tree("b", (Tree("a", (leaf(XI),)),))
    rng = random.Random(8)
    for _ in range(50):
        inner = random_context(rng, 8)
        out = label_context("z", inner)
        holes = [n for _, _, n in out.tree.preorder() if n.label == XI]
        assert len(holes) == 1


def test_extend_operations():
    c = random_context(random.Random(9), 6)
    assert right_extend((), c) == c
    assert left_extend((), c) == c

    sig = build_self_tree(Signature((SELF_SYMBOL,)), Par(())).children[0]
    entry = label_hedge("func", (leaf("name", SymbolName("g")), leaf("arity", NatVal(1))))
    grown = right_extend((entry,), sig)
    assert grown.children[-1] == entry
    assert grown.children[: len(sig.children)] == sig.children

    h1 = (leaf("l1"), leaf("l2"))
    h2 = (leaf("r1"),)
    base = Tree("a", (leaf("m"),))
    both = right_extend(h2, left_extend(h1, base))
    assert [c.label for c in both.children] == ["l1", "l2", "m", "r1"]


def test_concat():
    h = (leaf("x"), leaf("y"))
    assert concat((), h) == h
    rng = random.Random(10)
    for _ in range(50):
        a = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
        b = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
        c = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
        assert concat(concat(a, b), c) == concat(a, concat(b, c))


def test_inject_hedge():
    t = leaf("t")
    assert inject_hedge(TRIVIAL_CONTEXT, (t,)) == t
    with pytest.raises(TreeError):
        inject_hedge(TRIVIAL_CONTEXT, (t, t))
    c = Context(Tree("a", (leaf(XI),)))
    t1, t2 = leaf("t1"), leaf("t2")
    assert inject_hedge(c, (t1, t2)) == Tree("a", (t1, t2))


def test_inject_context():
    c = random_context(random.Random(11), 8)
    assert inject_context(TRIVIAL_CONTEXT, c) == c
    assert inject_context(c, TRIVIAL_CONTEXT) == c
    rng = random.Random(12)
    for _ in range(50):
        c1, c2, c3 = (random_context(rng, 6) for _ in range(3))
        assert inject_context(c1, inject_context(c2, c3)) == inject_context(
            inject_context(c1, c2), c3
        )


def test_context_invariant_enforced():
    with pytest.raises(TreeError):
        Context(leaf("a"))
    with pytest.raises(TreeError):
        Context(Tree("a", (leaf(XI), leaf(XI))))


def test_tree_diff_identity_reuses_rule_subtree():
    from conftest import random_self_tree

    rng = random.Random(13)
    for _ in range(20):
        t = random_self_tree(rng)
        theta = tree_diff(t, t)
        assert eval_algebra(theta, t) == t
        assert "subtree@(k=" in str(theta)


def test_tree_diff_signature_growth_is_single_right_extend():
    from conftest import random_rule

    rng = random.Random(14)
    rule = random_rule(rng)
    sig1 = Signature((SELF_SYMBOL, FunctionSymbol("f", 1)))
    sig2 = sig1.with_added(FunctionSymbol("g", 2))
    t1 = build_self_tree(sig1, rule)
    t2 = build_self_tree(sig2, rule)
    theta = tree_diff(t1, t2)
    text = str(theta)
    assert text.count("right_extend") == 1
    assert eval_algebra(theta, t1) == t2


def test_tree_diff_rejects_non_self_trees():
    with pytest.raises(TreeError):
        tree_diff(leaf("a"), leaf("b"))


def test_tree_update_rule_signature_growth_shape():
    from rsasm.rules import Assign, Let, Par
    from rsasm.structures import FunctionApp
    from rsasm.treealg import tree_update_rule
    from conftest import random_rule

    rng = random.Random(15)
    rule = random_rule(rng)
    sig1 = Signature((SELF_SYMBOL, FunctionSymbol("f", 1)))
    sig2 = sig1.with_added(FunctionSymbol("g", 2))
    t1 = build_self_tree(sig1, rule)
    t2 = build_self_tree(sig2, rule)
    update_rule = tree_update_rule(t1, t2)
    assert isinstance(update_rule, Par)
    sig_assigns = [
        b
        for b in update_rule.branches
        if isinstance(b, Let)
        and isinstance(b.body, Assign)
        and isinstance(b.body.rhs, FunctionApp)
        and b.body.rhs.symbol == "right_extend"
    ]
    assert len(sig_assigns) == 1
