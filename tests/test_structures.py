"""Term evaluation, update application, state difference, isomorphism action."""

import random

import pytest

from conftest import GEN_ATOMS, make_state, random_term, reference_preorder
from rsasm import generate
from rsasm.frontend import load_program, parse
from rsasm.errors import EvalError, IsoError, SignatureError, StateError
from rsasm.structures import (
    Atom,
    BoolConnective,
    Constant,
    Equality,
    FALSE,
    FunctionApp,
    Iota,
    Location,
    NODES_DOMAIN,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SetVal,
    TRUE,
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
    rename_update_set,
    rename_value,
)


def upd(*pairs):
    return UpdateSet(frozenset(Update(loc, v) for loc, v in pairs))


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
            apply_isomorphism(state, sigma), rename_update_set(delta, state, sigma)
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
    from rsasm.reflect import raise_
    from rsasm.structures import NodeRef, TreeValue

    state = make_state()
    term = raise_(NodeRef((1,)))
    value = eval_term(state, term)
    assert isinstance(value, TreeValue)
    assert value.tree.label == "rule"
    assert eval_term(state, raise_(NodeRef((9, 9)))) is UNDEF
