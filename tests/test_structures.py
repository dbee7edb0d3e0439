"""Term evaluation, update application, state difference, isomorphism action."""

import dataclasses
import random

import pytest

from conftest import GEN_ATOMS, make_state, random_term, reference_preorder
from rsasm import generate
from rsasm.background import TERM_FUNCTIONS
from rsasm.engine import run
from rsasm.frontend import load_program, parse
from rsasm.errors import EvalError, IsoError, SignatureError, StateError
from rsasm.printer import TracePrinter
from rsasm.structures import (
    Atom,
    BoolConnective,
    Constant,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    Iota,
    Location,
    NODES_DOMAIN,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SetVal,
    Signature,
    TRUE,
    TreeValue,
    UNDEF,
    Update,
    UpdateSet,
    Variable,
    apply_isomorphism,
    apply_update_set,
    diff_states,
    eval_term,
    is_consistent,
    rename_term,
    rename_value,
    value_to_json,
)
from rsasm.treealg import Tree


def upd(*pairs):
    return UpdateSet(frozenset(Update(loc, v) for loc, v in pairs))


def rename_update_set(delta, sigma):
    """Oracle: an update set with every argument and value renamed along the bijection ``sigma``."""
    return UpdateSet(
        frozenset(
            Update(
                Location(u.location.symbol, tuple(rename_value(a, sigma) for a in u.location.args)),
                rename_value(u.value, sigma),
            )
            for u in delta
        )
    )


def test_eval_constant():
    state = make_state()
    assert eval_term(state, Constant(NatVal(7))) == NatVal(7)


def test_eval_nullary_location_read():
    state = make_state({"parity": 0}, {Location("parity"): NatVal(1)})
    assert eval_term(state, FunctionApp("parity")) == NatVal(1)


def test_eval_iota_without_witness_is_undef():
    domain = tuple(NatVal(i) for i in (1, 2, 3))
    # independent oracle: scan the domain for elements equal to both 2 and 3
    witnesses = [x for x in domain if x == NatVal(2) and x == NatVal(3)]
    assert witnesses == []
    state = make_state(domains=(("N", domain),))
    term = Iota(
        "x",
        "N",
        BoolConnective(
            "and",
            (
                Equality(Variable("x"), Constant(NatVal(2))),
                Equality(Variable("x"), Constant(NatVal(3))),
            ),
        ),
    )
    assert eval_term(state, term) is UNDEF


def test_eval_iota_unique_witness():
    domain = tuple(NatVal(i) for i in (1, 2, 3))
    state = make_state(domains=(("N", domain),))
    term = Iota("x", "N", Equality(Variable("x"), Constant(NatVal(2))))
    assert eval_term(state, term) == NatVal(2)


def test_eval_errors():
    state = make_state({"f": 1})
    with pytest.raises(SignatureError):
        eval_term(state, FunctionApp("nosuch"))
    with pytest.raises(SignatureError):
        eval_term(state, FunctionApp("f", ()))
    with pytest.raises(EvalError):
        eval_term(state, Variable("x"))


def test_strictness_of_function_application():
    rng = random.Random(0)
    state = make_state(
        {"f": 2, "n0": 0, "n1": 0, "a0": 0, "flag": 0, "u0": 1},
        {Location("f", (Atom("p"), Atom("q"))): NatVal(5)},
    )
    for _ in range(50):
        args = [random_term(rng) for _ in range(2)]
        position = rng.randrange(2)
        args[position] = Constant(UNDEF)
        assert eval_term(state, FunctionApp("f", tuple(args))) is UNDEF


def test_equality_is_total_on_undef():
    state = make_state()
    assert eval_term(state, Equality(Constant(UNDEF), Constant(UNDEF))) == TRUE
    assert eval_term(state, Equality(Constant(UNDEF), Constant(NatVal(1)))) == FALSE


def test_three_valued_connectives():
    state = make_state()
    undef = Constant(UNDEF)
    f = Constant(FALSE)
    t = Constant(TRUE)
    assert eval_term(state, BoolConnective("and", (f, undef))) == FALSE
    assert eval_term(state, BoolConnective("and", (t, undef))) is UNDEF
    assert eval_term(state, BoolConnective("or", (t, undef))) == TRUE
    assert eval_term(state, BoolConnective("or", (f, undef))) is UNDEF
    assert eval_term(state, BoolConnective("not", (undef,))) is UNDEF


def test_connectives_evaluate_every_operand():
    state = make_state({"n0": 0}, {Location("n0"): NatVal(1)})
    faulty = FunctionApp("+", (Constant(Atom("foo")), Constant(NatVal(1))))
    # a decided result does not skip a later operand: its error surfaces
    with pytest.raises(EvalError):
        eval_term(state, BoolConnective("and", (Constant(FALSE), faulty)))
    with pytest.raises(EvalError):
        eval_term(state, BoolConnective("or", (Constant(TRUE), faulty)))
    # and its reads are recorded, which the bounded-exploration probe uses
    reads = set()
    later = Equality(FunctionApp("n0"), Constant(NatVal(1)))
    assert eval_term(state, BoolConnective("and", (Constant(FALSE), later)), reads=reads) == FALSE
    assert Location("n0") in reads


def _iota_cases(labels):
    """(condition on w, oracle on (path, node)) pairs over the given labels."""
    w = Variable("w")
    for label in labels:
        has_label = Equality(FunctionApp("label", (w,)), Constant(Atom(label)))
        at_root = FunctionApp("child", (FunctionApp("root_node", ()), w))
        yield has_label, lambda path, node, label=label: node.label == label
        yield (
            BoolConnective("and", (at_root, has_label)),
            lambda path, node, label=label: len(path) == 1 and node.label == label,
        )


def test_iota_over_nodes_matches_a_preorder_scan():
    rng = random.Random(11)
    states = [parse(load_program("join")).initial_state]
    states += [generate.random_machine(rng).initial_state for _ in range(8)]
    outcomes = set()
    for state in states:
        nodes = list(reference_preorder(state.self_tree))
        labels = sorted({node.label for _, node in nodes}) + ["absent"]
        for condition, oracle in _iota_cases(labels):
            hits = [NodeRef(path) for path, node in nodes if oracle(path, node)]
            reads = set()
            value = eval_term(state, Iota("w", NODES_DOMAIN, condition), reads=reads)
            assert value == (hits[0] if len(hits) == 1 else UNDEF)
            assert SELF_LOCATION in reads
            outcomes.add(min(len(hits), 2))
    assert outcomes == {0, 1, 2}


def test_is_consistent():
    loc = Location("card")
    assert is_consistent(upd())
    assert is_consistent(upd((loc, NatVal(1)), (loc, NatVal(1))))
    assert not is_consistent(upd((loc, NatVal(1)), (loc, NatVal(2))))


def test_apply_empty_update_set():
    state = make_state({"card": 0}, {Location("card"): NatVal(3)})
    assert apply_update_set(state, upd()) == state


def test_apply_single_update():
    state = make_state({"card": 0}, {Location("card"): NatVal(3)})
    after = apply_update_set(state, upd((Location("card"), NatVal(0))))
    assert after.value_at(Location("card")) == NatVal(0)


def test_apply_inconsistent_set_is_identity():
    loc = Location("card")
    state = make_state({"card": 0}, {loc: NatVal(3)})
    delta = upd((loc, NatVal(1)), (loc, NatVal(2)))
    assert not is_consistent(delta)
    assert apply_update_set(state, delta) == state


def test_apply_undef_erases_location():
    loc = Location("card")
    state = make_state({"card": 0}, {loc: NatVal(3)})
    after = apply_update_set(state, upd((loc, UNDEF)))
    assert loc not in after.interp
    assert after.value_at(loc) is UNDEF


def test_diff_states_identity_and_single_change():
    state = make_state({"card": 0}, {Location("card"): NatVal(3)})
    assert diff_states(state, state) == upd()
    after = apply_update_set(state, upd((Location("card"), NatVal(9))))
    assert diff_states(state, after) == upd((Location("card"), NatVal(9)))


def test_diff_states_base_mismatch():
    s1 = make_state(base=(Atom("a"),))
    s2 = make_state(base=(Atom("b"),))
    with pytest.raises(StateError):
        diff_states(s1, s2)


def test_diff_apply_round_trip_reports_changing_updates_only():
    rng = random.Random(1)
    for _ in range(50):
        state = make_state(
            {"n0": 0, "u0": 1},
            {
                Location("n0"): NatVal(rng.randrange(3)),
                Location("u0", (Atom("p"),)): TRUE,
            },
            base=(Atom("p"), Atom("q")),
        )
        delta = upd(
            (Location("n0"), NatVal(rng.randrange(3))),
            (Location("u0", (Atom("q"),)), FALSE),
        )
        after = apply_update_set(state, delta)
        changing = UpdateSet(
            frozenset(u for u in delta if state.value_at(u.location) != u.value)
        )
        assert diff_states(state, after) == changing


def test_isomorphism_identity():
    state = make_state({"a0": 0}, {Location("a0"): Atom("p")}, base=(Atom("p"), Atom("q")))
    assert apply_isomorphism(state, {}) == state


def test_isomorphism_swap_renames_everything():
    a, b = Atom("a"), Atom("b")
    state = make_state(
        {"u0": 1, "a0": 0},
        {Location("u0", (a,)): TRUE, Location("a0"): b},
        base=(a, b),
        domains=(("D", (a, b)),),
    )
    swapped = apply_isomorphism(state, {a: b, b: a})
    assert swapped.value_at(Location("u0", (b,))) == TRUE
    assert swapped.value_at(Location("u0", (a,))) is UNDEF
    assert swapped.value_at(Location("a0")) == a
    assert dict(swapped.background.domains)["D"] == (a, b)


def test_isomorphism_requires_bijection():
    a, b = Atom("a"), Atom("b")
    state = make_state(base=(a, b))
    with pytest.raises(IsoError):
        apply_isomorphism(state, {a: b})  # two atoms collapse onto b


def test_isomorphism_commutes_with_update_application():
    rng = random.Random(2)
    atoms = (Atom("a"), Atom("b"), Atom("c"))
    for _ in range(50):
        state = make_state(
            {"a0": 0, "u0": 1},
            {
                Location("a0"): rng.choice(atoms),
                Location("u0", (rng.choice(atoms),)): TRUE,
            },
            base=atoms,
        )
        delta = upd(
            (Location("a0"), rng.choice(atoms)),
            (Location("u0", (rng.choice(atoms),)), rng.choice((TRUE, FALSE))),
        )
        perm = list(atoms)
        rng.shuffle(perm)
        sigma = dict(zip(atoms, perm))
        left = apply_isomorphism(apply_update_set(state, delta), sigma)
        right = apply_update_set(
            apply_isomorphism(state, sigma), rename_update_set(delta, sigma)
        )
        assert left == right


def test_isomorphism_commutes_with_evaluation():
    rng = random.Random(3)
    atoms = GEN_ATOMS[:3]
    for _ in range(80):
        state = make_state(
            {"n0": 0, "a0": 0, "u0": 1},
            {
                Location("n0"): NatVal(rng.randrange(3)),
                Location("a0"): rng.choice(atoms),
                Location("u0", (rng.choice(atoms),)): rng.choice((TRUE, FALSE)),
            },
            base=atoms,
        )
        term = random_term(rng)
        perm = list(atoms)
        rng.shuffle(perm)
        sigma = dict(zip(atoms, perm))
        left = rename_value(eval_term(state, term), sigma)
        right = eval_term(apply_isomorphism(state, sigma), rename_term(term, sigma))
        assert left == right


def test_set_values_are_order_insensitive():
    s1 = SetVal(frozenset({Atom("a"), Atom("b")}))
    s2 = SetVal(frozenset({Atom("b"), Atom("a")}))
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_state_requires_self_tree():
    from rsasm.structures import Signature, State, BackgroundConfig

    sig = Signature((__import__("rsasm.structures", fromlist=["SELF_SYMBOL"]).SELF_SYMBOL,))
    with pytest.raises(StateError):
        State(sig, frozenset(), {}, BackgroundConfig())


def test_iota_over_self_nodes():
    from rsasm.structures import Iota, NODES_DOMAIN, NodeRef, Variable

    state = make_state()
    # the unique child of the root labelled "rule"
    term = Iota(
        "o",
        NODES_DOMAIN,
        BoolConnective(
            "and",
            (
                Equality(FunctionApp("label", (Variable("o"),)), Constant(Atom("rule"))),
                FunctionApp("child", (FunctionApp("root_node", ()), Variable("o"))),
            ),
        ),
    )
    assert eval_term(state, term) == NodeRef((1,))


def test_sublocation_symbol_reads_self_subtree():
    from rsasm.reflect import drop, raise_
    from rsasm.structures import NodeRef, TreeValue

    state = make_state()
    term = raise_(NodeRef((1,)))
    value = eval_term(state, term)
    assert isinstance(value, TreeValue)
    assert value.tree.label == "rule"
    assert eval_term(state, raise_(NodeRef((9, 9)))) is UNDEF
    # at every node of generated self trees, and one path off each tree, the
    # raised node reads what subtree(node@p) reads
    rng = random.Random(5)
    for _ in range(20):
        state = generate.random_machine(rng).initial_state
        paths = [path for path, _ in state.self_tree.preorder()]
        for path in paths + [paths[-1] + (0,)]:
            node = NodeRef(path)
            raised_reads, subtree_reads = set(), set()
            raised = eval_term(state, raise_(node), None, raised_reads)
            subtree = FunctionApp("subtree", (Constant(node),))
            assert raised == eval_term(state, subtree, None, subtree_reads)
            found = state.self_tree.find(path)
            assert raised == (UNDEF if found is None else TreeValue(found))
            assert raised_reads == subtree_reads == {SELF_LOCATION}
            assert drop(raise_(node)) == node


# -- node refs carry their node; states keep their self tree -----------------------------


def _node_calls(tree, ref):
    """Every node function at each node of ``tree`` and its neighbours, the nodes named by ``ref(path, node)``."""
    root = ref((), tree)
    for path, node in tree.preorder():
        here = ref(path, node)
        yield "label", (here,)
        yield "n_children", (here,)
        yield "subtree", (here,)
        yield "context_of", (root, here)
        for i in range(len(node.children) + 2):
            yield "child_n", (here, NatVal(i))
        for i, child in enumerate(node.children):
            kid = ref(path + (i,), child)
            yield "child", (here, kid)
            yield "context_of", (here, kid)
            if i:
                yield "next_sib", (ref(path + (i - 1,), node.children[i - 1]), kid)
    yield "label", (ref((len(tree.children),), None),)  # a path off the tree


def test_a_carried_node_ref_reads_as_its_path_alone():
    rng = random.Random(17)
    states = [parse(load_program("parity")).initial_state]
    states += [generate.random_machine(rng).initial_state for _ in range(20)]
    stranger = Tree("elsewhere")
    for state in states:
        tree = state.self_tree
        carried = list(_node_calls(tree, lambda path, node: NodeRef(path, tree, node)))
        bare = list(_node_calls(tree, lambda path, node: NodeRef(path)))
        # a ref found in another tree object reads by its path in this one
        foreign = list(_node_calls(tree, lambda path, node: NodeRef(path, stranger, stranger)))
        for (name, with_node), (_, by_path), (_, elsewhere) in zip(carried, bare, foreign):
            assert with_node == by_path == elsewhere
            assert [hash(v) for v in with_node] == [hash(v) for v in by_path]
            assert [repr(v) for v in with_node] == [repr(v) for v in by_path]
            fn = TERM_FUNCTIONS[name].fn
            results, reads = [], []
            for vals in (with_node, by_path, elsewhere):
                reads.append(set())
                results.append(fn(state, vals, reads[-1]))
            assert results[0] == results[1] == results[2]
            assert reads[0] == reads[1] == reads[2]
            if isinstance(results[0], NodeRef):  # child_n carries the child it found
                for found in results:
                    assert found.tree is tree and found.node is tree.find(found.path)


def test_iota_over_nodes_returns_a_ref_carrying_its_node():
    state = parse(load_program("join")).initial_state
    condition = BoolConnective(
        "and",
        (
            FunctionApp("child", (FunctionApp("root_node"), Variable("w"))),
            Equality(FunctionApp("label", (Variable("w"),)), Constant(Atom("signature"))),
        ),
    )
    found = eval_term(state, Iota("w", NODES_DOMAIN, condition))
    assert found == NodeRef((0,))
    assert found.tree is state.self_tree and found.node is state.self_tree.children[0]
    assert value_to_json(found, TracePrinter()) == {"node": [0]} and repr(found) == "node@0"


STALE_REF_PROGRAM = """
SIGNATURE
  mode/0
  r/0
  lab/0
  kids/0
  sub/0
  first/0

INIT
  mode = find

RULE
  PAR
    IF mode = find THEN
      PAR
        r := IOTA w IN NODES . label(w) = let
        mode := rewrite
      ENDPAR
    ENDIF
    IF mode = rewrite THEN
      LET p = child_n(child_n(root_node(), 2), 1) IN
      PAR
        p <=[left_extend] subtree(child_n(p, 1))
        mode := read
      ENDPAR
    ENDIF
    IF mode = read THEN
      PAR
        lab := label(r)
        kids := n_children(r)
        sub := subtree(r)
        first := subtree(child_n(r, 1))
        mode := done
      ENDPAR
    ENDIF
  ENDPAR
"""


def test_a_stored_node_ref_reads_the_rewritten_self_tree():
    # Step 1 stores the LET node found by IOTA; step 2 puts a copy of the
    # first branch in front of the others, so the stored path now names a
    # node of that copy; step 3 reads the ref.
    trace = run(parse(STALE_REF_PROGRAM))
    assert trace.status == "fixpoint" and len(trace.steps) == 4
    found = trace.steps[0].after.value_at(Location("r"))
    before = trace.initial_state.self_tree
    assert found.tree is before and found.node.label == "let"
    after = trace.steps[1].after.self_tree
    node = after.find(found.path)
    assert node.label != "let"
    final = trace.final_state
    assert final.value_at(Location("lab")) == Atom(node.label)
    assert final.value_at(Location("kids")) == NatVal(len(node.children))
    assert len(node.children) != len(found.node.children)
    assert final.value_at(Location("sub")) == TreeValue(node)
    assert final.value_at(Location("first")) == TreeValue(node.children[0])
    assert final.value_at(Location("first")) != TreeValue(found.node.children[0])


def test_a_state_keeps_the_tree_bound_at_self():
    state = make_state({"n0": 0}, {Location("n0"): NatVal(1)})
    grown = generate.random_machine(random.Random(4)).initial_state.self_tree
    wider = Signature(state.signature.symbols + (FunctionSymbol("n1", 0),))
    successors = [
        state.with_signature(wider),
        apply_update_set(state, upd((SELF_LOCATION, TreeValue(grown)))),
        apply_update_set(state, upd((Location("n0"), NatVal(2)))),
        dataclasses.replace(state, interp={SELF_LOCATION: TreeValue(grown)}),
    ]
    for successor in [state] + successors:
        assert successor.self_tree is successor.value_at(SELF_LOCATION).tree
    assert successors[1].self_tree is grown and successors[3].self_tree is grown
    assert successors[0] != state and successors[2] != state
