"""Trees, contexts, substitutions, and the algebra operators."""

import random

import pytest

from conftest import make_state, random_context, random_tree, reference_preorder
from rsasm import treealg
from rsasm.errors import TreeError
from rsasm.printer import SourcePrinter
from rsasm.reflect import build_self_tree, eval_algebra, tree_diff, tree_update_rule
from rsasm.rules import Par
from rsasm.structures import (
    Atom,
    Constant,
    FunctionApp,
    FunctionSymbol,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SELF_SYMBOL,
    Signature,
    State,
    SymbolName,
    TRUE,
    TreeValue,
    UNDEF,
    eval_term,
)
from rsasm.treealg import (
    Context,
    L_SELF,
    Tree,
    TRIVIAL_CONTEXT,
    XI,
    concat,
    context_of,
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
)


def leaf(label, value=None):
    return Tree(label, (), value)


def app(symbol, *args):
    return FunctionApp(symbol, args)


def test_tree_invariants():
    with pytest.raises(TreeError):
        Tree("a", (leaf("b"),), NatVal(1))  # interior node with a value
    t = Tree("a", (leaf("b"), leaf("c", NatVal(2))))
    assert t.size == 3
    assert subtree(t, ()).label == "a"
    assert subtree(t, (1,)) == leaf("c", NatVal(2))
    assert subtree(t, (1,)).value == NatVal(2)


@pytest.mark.parametrize(
    "label, children, value, message",
    [
        (5, (), None, "tree label must be a non-empty string, got 5"),
        ("", (), None, "tree label must be a non-empty string, got ''"),
        (["a"], (), None, "tree label must be a non-empty string, got ['a']"),
        ("a", [leaf("b")], None, "tree children must be a tuple"),
        ("a", (leaf("b"),), NatVal(1), "interior node 'a' cannot carry a leaf value"),
    ],
)
def test_a_bad_tree_raises_before_it_reaches_the_table_of_live_trees(
    label, children, value, message
):
    before = dict(treealg._live)
    with pytest.raises(TreeError) as raised:
        Tree(label, children, value)
    assert str(raised.value) == message
    assert treealg._live == before


def test_a_dead_trees_entry_goes_but_an_entry_that_took_its_place_stays():
    key = ("only-here", None, ())
    tree = Tree("only-here")
    entry = treealg._live[key]
    other = Tree("elsewhere")
    stale = treealg._Ref(other, treealg._forget)
    stale.key = key
    treealg._forget(stale)  # the callback of a reference the table no longer holds
    assert treealg._live[key] is entry and entry() is tree
    del tree
    assert key not in treealg._live


_STATE = make_state()


def _related(name: str, p1, p2) -> bool:
    """Whether the background relation ``child`` or ``next_sib`` holds between two node paths."""
    args = (Constant(NodeRef(p1)), Constant(NodeRef(p2)))
    return eval_term(_STATE, FunctionApp(name, args)) == TRUE


def test_unique_root_and_parenthood():
    rng = random.Random(1)
    for _ in range(50):
        t = random_tree(rng)
        paths = [path for path, _ in t.preorder()]
        parents = {q: [p for p in paths if _related("child", p, q)] for q in paths}
        assert [q for q in paths if not parents[q]] == [()]
        for q in paths:
            if q:
                assert parents[q] == [q[:-1]]
                assert subtree(t, q[:-1]).children[q[-1]] is subtree(t, q)


def test_sibling_pairs_share_parent():
    rng = random.Random(2)
    for _ in range(50):
        t = random_tree(rng)
        paths = [path for path, _ in t.preorder()]
        pairs = [(p, q) for p in paths for q in paths if _related("next_sib", p, q)]
        expected = [
            (path + (i,), path + (i + 1,))
            for path, node in t.preorder()
            for i in range(len(node.children) - 1)
        ]
        assert sorted(pairs) == sorted(expected)
        for p, q in pairs:
            assert _related("child", p[:-1], p) and _related("child", q[:-1], q)


def test_preorder_matches_the_recursive_definition():
    rng = random.Random(17)
    for _ in range(200):
        t = random_tree(rng, 40)
        assert list(t.preorder()) == list(reference_preorder(t))


def test_find_returns_the_node_or_none():
    rng = random.Random(19)
    for _ in range(100):
        t = random_tree(rng, 30)
        for path, node in reference_preorder(t):
            assert t.find(path) is node
            assert subtree(t, path) is node
            for missing in (path + (len(node.children),), path + (-1,)):
                assert t.find(missing) is None
                with pytest.raises(TreeError, match=f"leaves the tree at index {missing[-1]}"):
                    subtree(t, missing)


def _paths(t):
    """The node paths of ``t`` in preorder."""
    return [path for path, _ in t.preorder()]


def test_subtree_of_root_is_whole_tree():
    t = Tree("a", (leaf("b"),))
    assert subtree(t, ()) == t


def test_subtree_of_self_tree_signature_child():
    sig = Signature((SELF_SYMBOL, FunctionSymbol("f", 2)))
    t = build_self_tree(sig, Par(()))
    sub = subtree(t, (0,))
    assert sub.label == "signature"
    assert [c.label for c in sub.children] == ["func", "func"]


def _embedding_conditions(t, path, sub):
    """The five conditions of the subtree relation, via the canonical embedding."""
    anchored = dict(reference_preorder(t))[path]
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
        p = _paths(t)[rng.randrange(t.size)]
        _embedding_conditions(t, p, subtree(t, p))


def test_context_of_two_node_tree():
    t = Tree("a", (leaf("b"),))
    c = context_of(t, (), (0,))
    assert c.tree == Tree("a", (leaf(XI),))


def test_context_of_requires_strict_ancestor():
    t = Tree("a", (leaf("b"), leaf("c")))
    with pytest.raises(TreeError):
        context_of(t, (0,), (1,))
    with pytest.raises(TreeError):
        context_of(t, (), ())


def test_inject_hedge_context_of_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng)
        if t.size < 2:
            continue
        p = _paths(t)[rng.randrange(1, t.size)]
        c = context_of(t, (), p)
        assert inject_hedge(c, (subtree(t, p),)) == t


def _node_term(name, *paths):
    return FunctionApp(name, tuple(Constant(NodeRef(p)) for p in paths))


def test_context_of_term_punches_a_descendant_out_of_its_ancestor():
    rng = random.Random(23)
    for _ in range(30):
        t = Tree(L_SELF, tuple(random_tree(rng, 8) for _ in range(rng.randrange(1, 4))))
        state = State(_STATE.signature, frozenset(), {SELF_LOCATION: TreeValue(t)})
        paths = _paths(t)
        missing = [p + (len(subtree(t, p).children),) for p in paths]
        for p1 in paths + missing + [m + (0,) for m in missing]:
            for p2 in paths + missing:
                ctx = eval_term(state, _node_term("context_of", p1, p2))
                if len(p1) < len(p2) and p2[: len(p1)] == p1 and t.find(p2) is not None:
                    below = _node_term("subtree", p2)
                    injected = FunctionApp("inject_hedge", (Constant(ctx), below))
                    assert eval_term(state, injected) == TreeValue(subtree(t, p1))
                else:
                    assert ctx is UNDEF


def test_context_of_term_keeps_a_context_to_one_hole():
    rng = random.Random(24)
    for _ in range(30):
        c = random_context(rng, 10)
        t = Tree(L_SELF, (c.tree,))
        state = State(_STATE.signature, frozenset(), {SELF_LOCATION: TreeValue(t)})
        hole, paths = (0,) + c.hole_path, _paths(t)
        for p1 in paths:
            for p2 in paths:
                if not (len(p1) < len(p2) and p2[: len(p1)] == p1):
                    continue
                term = _node_term("context_of", p1, p2)
                if hole[: len(p1)] == p1 and hole[: len(p2)] != p2:
                    with pytest.raises(TreeError, match="exactly one hole, found 2"):
                        eval_term(state, term)
                else:
                    assert Context(eval_term(state, term).tree).hole_path == p2[len(p1) :]


def test_substitutions():
    t = Tree("a", (leaf("b"), leaf("c")))
    assert subst_ct(TRIVIAL_CONTEXT, t) == t
    c = subst_tc(t, (0,))
    assert subst_cc(c, TRIVIAL_CONTEXT) == c
    rng = random.Random(5)
    for _ in range(100):
        t = random_tree(rng)
        p = _paths(t)[rng.randrange(t.size)]
        assert subst_tt(t, p, subtree(t, p)) == t


def test_subst_tc_shortcut_matches_composition():
    rng = random.Random(6)
    for _ in range(50):
        t = random_tree(rng)
        p = _paths(t)[rng.randrange(t.size)]
        c2 = random_context(rng, 6)
        assert subst_tc(t, p, c2) == subst_cc(subst_tc(t, p), c2)


def test_label_hedge():
    assert label_hedge("a") == leaf("a")
    entry = label_hedge("func", (leaf("name", SymbolName("f")), leaf("arity", NatVal(2))))
    assert entry.label == "func"
    assert [c.label for c in entry.children] == ["name", "arity"]
    rng = random.Random(7)
    for _ in range(50):
        h = tuple(random_tree(rng, 5) for _ in range(rng.randrange(0, 4)))
        assert label_hedge("a", h).children == h


def test_label_context():
    c = label_context("a", TRIVIAL_CONTEXT)
    assert c.tree == Tree("a", (leaf(XI),))
    c2 = label_context("b", c)
    assert c2.tree == Tree("b", (Tree("a", (leaf(XI),)),))
    rng = random.Random(8)
    for _ in range(50):
        inner = random_context(rng, 8)
        out = label_context("z", inner)
        holes = [n for _, n in out.tree.preorder() if n.label == XI]
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
        assert theta == app(
            "label_hedge",
            Constant(Atom("self")),
            app("subtree", Constant(NodeRef((0,)))),
            app("label_hedge", Constant(Atom("rule")), app("subtree", Constant(NodeRef((1, 0))))),
        )


def test_tree_diff_signature_growth_is_single_right_extend():
    from conftest import random_rule

    rng = random.Random(14)
    rule = random_rule(rng)
    sig1 = Signature((SELF_SYMBOL, FunctionSymbol("f", 1)))
    sig2 = Signature(sig1.symbols + (FunctionSymbol("g", 2),))
    t1 = build_self_tree(sig1, rule)
    t2 = build_self_tree(sig2, rule)
    theta = tree_diff(t1, t2)
    text = SourcePrinter().term(theta)
    assert text.count("right_extend") == 1
    assert text.startswith("self<right_extend(subtree(node@0), func<name(DROP(g)), arity(2)>)")
    assert eval_algebra(theta, t1) == t2


def test_tree_diff_rejects_non_self_trees():
    with pytest.raises(TreeError):
        tree_diff(leaf("a"), leaf("b"))


def test_eval_algebra_rejects_a_term_that_is_not_a_tree():
    t = build_self_tree(Signature((SELF_SYMBOL,)), Par(()))
    assert eval_algebra(app("subtree", Constant(NodeRef((1,)))), t) == t.children[1]
    for theta in (Constant(NatVal(1)), app("subtree", Constant(NodeRef((5,))))):
        with pytest.raises(TreeError, match="not to a tree"):
            eval_algebra(theta, t)


def test_tree_update_rule_signature_growth_shape():
    from rsasm.rules import Assign, Let, Par
    from rsasm.structures import FunctionApp
    from conftest import random_rule

    rng = random.Random(15)
    rule = random_rule(rng)
    sig1 = Signature((SELF_SYMBOL, FunctionSymbol("f", 1)))
    sig2 = Signature(sig1.symbols + (FunctionSymbol("g", 2),))
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
