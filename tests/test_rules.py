"""Update multisets, sublocation normalization, collapse, and the background term functions."""

import itertools
import random

import pytest

from conftest import make_state, random_rule
from rsasm.background import SpliceOp, apply_operator
from rsasm.engine import run
from rsasm.errors import RuleError, SignatureError
from rsasm.frontend import parse
from rsasm.rules import (
    Assign,
    ClashReport,
    If,
    Let,
    Par,
    PartialAssign,
    SharedUpdate,
    UpdateMultiset,
    collapse,
    compute_update_multiset,
    execute,
    normalize_sublocations,
    rule_substitute,
)
from rsasm.structures import (
    Atom,
    Constant,
    FALSE,
    Location,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SetVal,
    TreeValue,
    TupleVal,
    UNDEF,
    Update,
    UpdateSet,
    Variable,
    is_consistent,
)
from rsasm.treealg import XI, Tree, subst_tt, subtree


def test_assign_yields_single_update():
    state = make_state({"card": 0})
    m = compute_update_multiset(Assign("card", (), Constant(NatVal(0))), state)
    assert list(m) == [Update(Location("card"), NatVal(0))]


def test_empty_par_yields_empty_multiset():
    state = make_state()
    assert len(compute_update_multiset(Par(()), state)) == 0


def test_if_branches_and_rejects_non_boolean():
    state = make_state({"card": 0})
    rule = If(Constant(FALSE), Assign("card", (), Constant(NatVal(1))), Par(()))
    assert len(compute_update_multiset(rule, state)) == 0
    with pytest.raises(RuleError):
        compute_update_multiset(If(Constant(UNDEF), Par(()), Par(())), state)
    with pytest.raises(RuleError):
        compute_update_multiset(If(Constant(NatVal(1)), Par(()), Par(())), state)


def test_let_binds_value():
    state = make_state({"card": 0})
    rule = Let("x", Constant(NatVal(4)), Assign("card", (), Variable("x")))
    m = compute_update_multiset(rule, state)
    assert list(m) == [Update(Location("card"), NatVal(4))]


def test_partial_assign_yields_shared_update():
    state = make_state({"card": 0}, {Location("card"): NatVal(0)})
    rule = PartialAssign("card", (), "+", (Constant(NatVal(1)),))
    m = compute_update_multiset(rule, state)
    assert list(m) == [SharedUpdate(Location("card"), "+", (NatVal(1),))]


def test_unknown_target_and_arity_errors():
    state = make_state({"f": 1})
    with pytest.raises(SignatureError):
        compute_update_multiset(Assign("nosuch", (), Constant(NatVal(1))), state)
    with pytest.raises(SignatureError):
        compute_update_multiset(Assign("f", (), Constant(NatVal(1))), state)
    with pytest.raises(RuleError):
        compute_update_multiset(
            PartialAssign("f", (Constant(NatVal(0)),), "nosuchop", (Constant(NatVal(1)),)),
            state,
        )


def test_par_is_permutation_invariant_at_multiset_level():
    rng = random.Random(0)
    state = make_state(
        {"n0": 0, "n1": 0, "a0": 0, "flag": 0, "u0": 1},
        {Location("n0"): NatVal(1), Location("n1"): NatVal(0), Location("a0"): Atom("v0")},
    )
    for _ in range(40):
        branches = tuple(random_rule(rng, 1) for _ in range(4))
        reference = compute_update_multiset(Par(branches), state)
        for perm in itertools.permutations(branches):
            assert compute_update_multiset(Par(perm), state) == reference


def test_let_equals_substitution():
    rng = random.Random(1)
    state = make_state(
        {"n0": 0, "n1": 0, "a0": 0, "flag": 0, "u0": 1},
        {Location("n0"): NatVal(2), Location("n1"): NatVal(1), Location("a0"): Atom("v1")},
    )
    for _ in range(40):
        body = random_rule(rng, 2, bound=("x",))
        bound = Constant(NatVal(rng.randrange(3)))
        as_let = compute_update_multiset(Let("x", bound, body), state)
        substituted = compute_update_multiset(rule_substitute(body, "x", bound), state)
        assert as_let == substituted


def test_collapse_two_increments():
    loc = Location("card")
    state = make_state({"card": 0}, {loc: NatVal(0)})
    m = UpdateMultiset(
        (
            SharedUpdate(loc, "+", (NatVal(1),)),
            SharedUpdate(loc, "+", (NatVal(1),)),
        )
    )
    # independent oracle: fold in both multiset orders by hand
    both_orders = {(0 + 1) + 1, (0 + 1) + 1}
    assert both_orders == {2}
    assert collapse(m, state) == UpdateSet(frozenset({Update(loc, NatVal(2))}))


def test_collapse_single_plain_update():
    loc = Location("card")
    state = make_state({"card": 0})
    m = UpdateMultiset((Update(loc, NatVal(5)),))
    assert collapse(m, state) == UpdateSet(frozenset({Update(loc, NatVal(5))}))


def test_collapse_plain_updates_match_consistency():
    loc = Location("card")
    state = make_state({"card": 0})
    clash = UpdateMultiset((Update(loc, NatVal(1)), Update(loc, NatVal(2))))
    assert not is_consistent(UpdateSet(frozenset({Update(loc, NatVal(1)), Update(loc, NatVal(2))})))
    assert isinstance(collapse(clash, state), ClashReport)
    agree = UpdateMultiset((Update(loc, NatVal(1)), Update(loc, NatVal(1))))
    assert collapse(agree, state) == UpdateSet(frozenset({Update(loc, NatVal(1))}))


def _node_state():
    # self tree whose rule is par<rule<par<>>, rule<par<>>>, giving two
    # disjoint addressable nodes under the rule subtree
    inner = Par((Par(()), Par(())))
    return make_state(rule=inner)


def test_normalize_rewrites_node_updates_to_splices():
    payload = TreeValue(Tree("rule", (Tree("par"),)))
    m = UpdateMultiset((Update(NodeRef((1, 0, 0)), payload),))
    normalized = normalize_sublocations(m)
    entries = list(normalized)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.location == SELF_LOCATION
    assert entry.op == SpliceOp((1, 0, 0), None)
    assert entry.args == (payload,)


def test_normalize_root_node_update_becomes_plain_self_update():
    state = _node_state()
    tree = state.self_tree
    m = UpdateMultiset((Update(NodeRef(()), TreeValue(tree)),))
    normalized = normalize_sublocations(m)
    assert list(normalized) == [Update(SELF_LOCATION, TreeValue(tree))]


def test_sibling_node_updates_are_compatible_in_both_orders():
    state = _node_state()
    t1 = Tree("rule", (Tree("par", (Tree("rule", (Tree("par"),)),)),))
    t2 = Tree("rule", (Tree("par"),))
    u1 = Update(NodeRef((1, 0, 0)), TreeValue(t1))
    u2 = Update(NodeRef((1, 0, 1)), TreeValue(t2))
    result_a = collapse(UpdateMultiset((u1, u2)), state)
    result_b = collapse(UpdateMultiset((u2, u1)), state)
    assert isinstance(result_a, UpdateSet)
    assert result_a == result_b
    (update,) = tuple(result_a)
    assert update.location == SELF_LOCATION
    new_tree = update.value.tree
    assert subtree(new_tree, (1, 0, 0)) == t1
    assert subtree(new_tree, (1, 0, 1)) == t2


def test_ancestor_descendant_with_unequal_effect_clashes():
    state = _node_state()
    ancestor_value = TreeValue(Tree("rule", (Tree("par"),)))
    descendant_value = TreeValue(Tree("update", (), None))
    m = UpdateMultiset(
        (
            Update(NodeRef((1, 0, 0)), ancestor_value),
            Update(NodeRef((1, 0, 0, 0)), descendant_value),
        )
    )
    report = collapse(m, state)
    assert isinstance(report, ClashReport)
    assert report.location == SELF_LOCATION


def test_ancestor_descendant_with_equal_effect_collapses():
    state = _node_state()
    child = Tree("par")
    ancestor_value = TreeValue(Tree("rule", (child,)))
    m = UpdateMultiset(
        (
            Update(NodeRef((1, 0, 0)), ancestor_value),
            Update(NodeRef((1, 0, 0, 0)), TreeValue(child)),
        )
    )
    result = collapse(m, state)
    assert isinstance(result, UpdateSet)
    (update,) = tuple(result)
    assert subtree(update.value.tree, (1, 0, 0)) == ancestor_value.tree


def test_disjoint_right_extends_on_self_merge_into_one_update():
    state = _node_state()
    addition = TreeValue(Tree("rule", (Tree("par"),)))
    m = UpdateMultiset(
        (
            SharedUpdate(NodeRef((1, 0, 0)), "right_extend", (addition,)),
            SharedUpdate(NodeRef((1, 0, 1)), "right_extend", (addition,)),
        )
    )
    result = collapse(m, state)
    assert isinstance(result, UpdateSet)
    (update,) = tuple(result)
    assert update.location == SELF_LOCATION
    merged = update.value.tree
    assert subtree(merged, (1, 0, 0)).children[-1] == addition.tree
    assert subtree(merged, (1, 0, 1)).children[-1] == addition.tree


def test_same_node_extends_with_different_payloads_clash():
    state = _node_state()
    m = UpdateMultiset(
        (
            SharedUpdate(NodeRef((1, 0, 0)), "right_extend", (TreeValue(Tree("rule", (Tree("par"),))),)),
            SharedUpdate(NodeRef((1, 0, 0)), "right_extend", (TreeValue(Tree("rule", (Tree("if"),))),)),
        )
    )
    assert isinstance(collapse(m, state), ClashReport)


def test_identical_same_node_extends_fold_in_sequence():
    state = _node_state()
    addition = TreeValue(Tree("rule", (Tree("par"),)))
    entry = SharedUpdate(NodeRef((1, 0, 0)), "right_extend", (addition,))
    m = UpdateMultiset((entry, entry, entry))
    before = subtree(state.self_tree, (1, 0, 0)).children
    result = collapse(m, state)
    assert isinstance(result, UpdateSet)
    (update,) = tuple(result)
    after = subtree(update.value.tree, (1, 0, 0)).children
    assert after == before + (addition.tree,) * 3


def test_mixed_plain_and_shared_equal_result_is_compatible():
    loc = Location("card")
    state = make_state({"card": 0}, {loc: NatVal(4)})
    m = UpdateMultiset(
        (
            Update(loc, NatVal(5)),
            SharedUpdate(loc, "+", (NatVal(1),)),
        )
    )
    assert collapse(m, state) == UpdateSet(frozenset({Update(loc, NatVal(5))}))
    disagreeing = UpdateMultiset(
        (
            Update(loc, NatVal(7)),
            SharedUpdate(loc, "+", (NatVal(1),)),
        )
    )
    assert isinstance(collapse(disagreeing, state), ClashReport)


def test_collapse_agreement_matches_exhaustive_permutations():
    rng = random.Random(2)
    loc = Location("card")
    for _ in range(40):
        current = NatVal(rng.randrange(4))
        state = make_state({"card": 0}, {loc: current})
        entries = tuple(
            SharedUpdate(loc, rng.choice(("+", "-")), (NatVal(rng.randrange(3)),))
            for _ in range(rng.randrange(1, 5))
        )
        result = collapse(UpdateMultiset(entries), state)
        outcomes = set()
        for perm in itertools.permutations(entries):
            value = current
            for e in perm:
                value = apply_operator(state, e.op, value, e.args)
            outcomes.add(value)
        if len(outcomes) == 1:
            assert result == UpdateSet(frozenset({Update(loc, outcomes.pop())}))
        else:
            assert isinstance(result, ClashReport)


def test_execute_returns_set_and_multiset():
    state = make_state({"card": 0})
    rule = If(Constant(FALSE), Assign("card", (), Constant(NatVal(1))), Par(()))
    result, multiset = execute(rule, state)
    assert result == UpdateSet(frozenset())
    assert len(multiset) == 0


def test_node_target_through_let_binding():
    state = _node_state()
    rule = Let(
        "o",
        Constant(NodeRef((1, 0, 0))),
        Assign("o", (), Constant(TreeValue(Tree("rule", (Tree("par"),))))),
    )
    result, multiset = execute(rule, state)
    entries = list(multiset)
    assert entries[0].location == NodeRef((1, 0, 0))
    assert isinstance(result, UpdateSet)
    (update,) = tuple(result)
    assert update.location == SELF_LOCATION


def test_parity_init_count_emits_node_addressed_extends():
    from rsasm.frontend import load_program, parse
    from rsasm.reflect import decode_rule, rule_of_self

    machine = parse(load_program("parity"), "parity")
    state = machine.initial_state
    rule = decode_rule(rule_of_self(state.self_tree))
    multiset = compute_update_multiset(rule, state)
    node_extends = [
        e
        for e in multiset
        if isinstance(e, SharedUpdate)
        and isinstance(e.location, NodeRef)
        and e.op == "right_extend"
    ]
    # one shared update per marked element, all at the count-branch node
    assert len(node_extends) == 3
    assert {e.location for e in node_extends} == {NodeRef((1, 0, 2, 0, 1, 0))}


def test_parity_eval_step_updates_parity_and_mode():
    from rsasm.engine import run
    from rsasm.frontend import load_program, parse

    trace = run(parse(load_program("parity"), "parity"))
    eval_step = trace.steps[2]
    expected = UpdateSet(
        frozenset(
            {
                Update(Location("parity"), NatVal(3 % 2)),
                Update(Location("mode"), Atom("halt")),
            }
        )
    )
    assert eval_step.result == expected


# -- partial updates apply the term functions -----------------------------------------


def _partial_result(symbols, interp, rule):
    result, _ = execute(rule, make_state(symbols, interp))
    return result


def test_left_extend_puts_every_operand_before_the_children_in_order():
    loc = Location("t")
    h1, h2 = Tree("h1"), Tree("h2")
    start = TreeValue(Tree("r", (Tree("c"),)))
    rule = PartialAssign("t", (), "left_extend", (Constant(TreeValue(h1)), Constant(TreeValue(h2))))
    result = _partial_result({"t": 0}, {loc: start}, rule)
    assert result == UpdateSet(frozenset({Update(loc, TreeValue(Tree("r", (h1, h2, Tree("c")))))}))


def test_union_and_concat_take_every_operand():
    loc = Location("s")
    a, b = SetVal(frozenset({Atom("a")})), SetVal(frozenset({Atom("b")}))
    rule = PartialAssign("s", (), "union", (Constant(a), Constant(b)))
    result = _partial_result({"s": 0}, {loc: SetVal(frozenset({Atom("c")}))}, rule)
    expected = SetVal(frozenset({Atom("a"), Atom("b"), Atom("c")}))
    assert result == UpdateSet(frozenset({Update(loc, expected)}))

    t0, t1, t2 = Tree("t0"), Tree("t1"), Tree("t2")
    rule = PartialAssign("s", (), "concat", (Constant(TreeValue(t1)), Constant(TreeValue(t2))))
    result = _partial_result({"s": 0}, {loc: TreeValue(t0)}, rule)
    hedge = TupleVal((TreeValue(t0), TreeValue(t1), TreeValue(t2)))
    assert result == UpdateSet(frozenset({Update(loc, hedge)}))


def test_a_multiset_is_unhashable():
    entries = (Update(Location("card"), NatVal(0)), Update(Location("card"), NatVal(1)))
    assert UpdateMultiset(entries) == UpdateMultiset(entries[::-1])
    with pytest.raises(TypeError, match="unhashable"):
        hash(UpdateMultiset(entries))


def _evaluated(term: str):
    """``(status, detail, y)`` after one step of ``y := term``, over the sets D and E and x = 1."""
    source = f"""DOMAINS
  D = {{a, b, c}}
  E = {{b}}
SIGNATURE
  x/0
  y/0
INIT
  x = 1
RULE
  y := {term}
"""
    trace = run(parse(source, "term-function", max_steps=1))
    return trace.status, trace.detail, trace.final_state.value_at(Location("y"))


def _fault(cause: str):
    return ("error", f"step 1: {cause}", UNDEF)


def _done(value):
    return ("max_steps", "", value)


def _tree_value(label: str, *children: Tree) -> TreeValue:
    return TreeValue(Tree(label, children))


@pytest.mark.parametrize(
    "term, outcome",
    [
        ("setminus(D, E)", _done(SetVal(frozenset({Atom("a"), Atom("c")})))),
        ("setminus(E, D)", _done(SetVal(frozenset()))),
        ("setminus(D, a)", _fault("setminus expects a set value, got a")),
        ("setminus(0, E)", _fault("setminus expects a set value, got 0")),
        ("RAISE(DROP(x + 1))", _done(NatVal(2))),
        ("RAISE(a)", _done(Atom("a"))),
        (
            "RAISE(update<func(x), term<>, term(1)>)",
            _fault("RAISE produced a rule; only terms can be evaluated here"),
        ),
        ("label_context(a, XI)", _done(_tree_value("a", Tree(XI)))),
        ("label_context(0, XI)", _fault("label_context expects a label, got 0")),
        ("label_context(a, 0)", _fault("label_context expects a context tree, got 0")),
        (
            "inject_context(a<XI, b<>>, c<XI>)",
            _done(_tree_value("a", Tree("c", (Tree(XI),)), Tree("b"))),
        ),
        ("inject_context(0, c<XI>)", _fault("inject_context expects a context tree, got 0")),
        ("inject_context(a<XI>, 0)", _fault("inject_context expects a context tree, got 0")),
    ],
)
def test_set_difference_raise_and_context_functions_evaluate_or_end_the_run_in_error(term, outcome):
    assert _evaluated(term) == outcome


def test_plus_with_two_operands_adds_both():
    loc = Location("card")
    rule = PartialAssign("card", (), "+", (Constant(NatVal(1)), Constant(NatVal(2))))
    result = _partial_result({"card": 0}, {loc: NatVal(4)}, rule)
    assert result == UpdateSet(frozenset({Update(loc, NatVal(7))}))


def test_extending_a_value_leaf_at_a_node_is_a_clash():
    state = make_state({"card": 0})
    name_leaf = (0, 1, 0)  # the name leaf of the signature entry for card
    assert subtree(state.self_tree, name_leaf).value is not None
    entry = SharedUpdate(NodeRef(name_leaf), "right_extend", (TreeValue(Tree("x")),))
    report = collapse(UpdateMultiset((entry,)), state)
    assert report == ClashReport(SELF_LOCATION, "cannot extend a value-carrying leaf")


def test_operator_faults_clash_with_the_term_function_message():
    loc = Location("card")
    state = make_state({"card": 0}, {loc: Atom("foo")})
    report = collapse(UpdateMultiset((SharedUpdate(loc, "+", (NatVal(1),)),)), state)
    assert report == ClashReport(loc, "+ expects a natural number, got foo")


def _node_clash_entries(state):
    """Each splice clash of ``_splice_fold``/``_collapse_group``, with its reason."""
    par = TreeValue(Tree("rule", (Tree("par"),)))
    other = TreeValue(Tree("rule", (Tree("if"),)))
    node, below = NodeRef((1, 0, 0)), NodeRef((1, 0, 0, 0))
    return [
        (
            (Update(node, par), Update(node, other)),
            "conflicting writes at node@1.0.0 of self",
        ),
        (
            (SharedUpdate(node, "right_extend", (par,)), Update(below, other)),
            "node@1.0.0.0 overlaps a shared write at node@1.0.0",
        ),
        (
            (Update(node, NatVal(1)), Update(below, other)),
            "malformed splice operand at node@1.0.0",
        ),
        (
            (Update(node, par), Update(below, other)),
            "overlapping writes at node@1.0.0 and node@1.0.0.0 disagree",
        ),
        (
            (Update(SELF_LOCATION, TreeValue(state.self_tree)), Update(node, other)),
            "node write at node@1.0.0 disagrees with a plain update",
        ),
    ]


def test_a_plain_update_of_self_wins_where_every_node_write_agrees_with_it():
    state = _node_state()
    node = (1, 0, 0)
    # the new self tree differs from the current one also away from ``node``
    written = subst_tt(state.self_tree, (1, 0, 1), Tree("rule", (Tree("if"),)))
    written = subst_tt(written, node, Tree("rule", (Tree("let"),)))
    plain = Update(SELF_LOCATION, TreeValue(written))
    agreeing = Update(NodeRef(node), TreeValue(subtree(written, node)))
    for order in ((plain, agreeing), (agreeing, plain)):
        assert collapse(UpdateMultiset(order), state) == UpdateSet(frozenset({plain}))


def test_splice_clash_reasons_print_node_paths_as_nodes():
    state = _node_state()
    for entries, reason in _node_clash_entries(state):
        for order in (entries, entries[::-1]):
            report = collapse(UpdateMultiset(order), state)
            assert report == ClashReport(SELF_LOCATION, reason)
