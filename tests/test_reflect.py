"""Encoding round-trips, raise/drop, extraction, selectors, reserve allocation."""

import random

import pytest

from conftest import make_state, random_rule, random_self_tree, random_signature, random_term
from rsasm.errors import ReflectError
from rsasm.reflect import (
    ReserveAllocator,
    beta,
    beta_of_rule,
    build_self_tree,
    decode_rule,
    decode_signature,
    drop,
    encode_rule,
    encode_signature,
    new_function,
    raise_,
    rule_of_self,
    signature_of_self,
)
from rsasm.rules import (
    Assign,
    If,
    Let,
    Par,
    PartialAssign,
    UpdateMultiset,
    collapse,
)
from rsasm.structures import (
    Atom,
    Constant,
    Equality,
    FunctionApp,
    NatVal,
    NodeRef,
    SELF_SYMBOL,
    Signature,
    SymbolName,
    TreeValue,
    TRUE,
    UpdateSet,
    Variable,
    term_substitute,
)
from rsasm.treealg import Tree


SAMPLE_RULES = [
    Par(()),
    Assign("card", (), Constant(NatVal(0))),
    If(Equality(FunctionApp("mode"), Constant(Atom("init"))), Assign("card", (), Constant(NatVal(0))), Par(())),
    Let("x", Constant(NatVal(2)), Assign("card", (), Variable("x"))),
    PartialAssign("card", (), "+", (Constant(NatVal(1)),)),
]


def test_encode_empty_par():
    tree = encode_rule(Par(()))
    assert tree == Tree("par")


def test_encode_assignment_shape():
    tree = encode_rule(Assign("card", (), Constant(NatVal(0))))
    assert tree.label == "update"
    func, args, rhs = tree.children
    assert func.label == "func" and func.value == SymbolName("card")
    assert args.label == "term" and args.children == () and args.value is None
    assert rhs.label == "term" and rhs.value == NatVal(0)


def test_round_trip_each_rule_kind():
    for rule in SAMPLE_RULES:
        assert decode_rule(encode_rule(rule)) == rule


def test_round_trip_random_rules():
    rng = random.Random(0)
    for _ in range(100):
        rule = random_rule(rng, 3)
        assert decode_rule(encode_rule(rule)) == rule


def test_decode_malformed_update_node():
    bad = Tree("update", (Tree("term", (), NatVal(1)), Tree("term", (), NatVal(0))))
    with pytest.raises(ReflectError):
        decode_rule(bad)
    missing_func = Tree(
        "update",
        (Tree("bool", (), NatVal(1)), Tree("term"), Tree("term", (), NatVal(0))),
    )
    with pytest.raises(ReflectError):
        decode_rule(missing_func)


def test_decoding_is_memoized_per_tree_object():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_self_tree(rng, extra_symbols=2)
        rule_tree, sig_tree = rule_of_self(tree), signature_of_self(tree)
        rule = decode_rule(rule_tree)
        assert decode_rule(rule_tree) is rule
        assert decode_signature(sig_tree) is decode_signature(sig_tree)
        # an equal tree built anew decodes on its own, to an equal rule
        rebuilt = encode_rule(rule)
        assert rebuilt is not rule_tree
        assert decode_rule(rebuilt) == rule


def test_malformed_tree_fails_on_every_decode():
    bad_rule = Tree("update", (Tree("term", (), NatVal(1)), Tree("term", (), NatVal(0))))
    entry = encode_signature(Signature((SELF_SYMBOL,))).children[0]
    bad_signature = Tree("signature", (entry, entry))
    for _ in range(2):
        with pytest.raises(ReflectError):
            decode_rule(bad_rule)
        with pytest.raises(ReflectError):
            decode_signature(bad_signature)


def test_encode_signature_minimal():
    tree = encode_signature(Signature((SELF_SYMBOL,)))
    assert tree.label == "signature"
    (entry,) = tree.children
    assert entry.children[0].value == SymbolName("self")
    assert entry.children[1].value == NatVal(0)


def test_signature_round_trip_random():
    rng = random.Random(1)
    for _ in range(50):
        sig = random_signature(rng, extra=rng.randrange(4))
        assert decode_signature(encode_signature(sig)) == sig


def test_decode_signature_rejects_duplicates():
    entry = Tree(
        "func",
        (Tree("name", (), SymbolName("self")), Tree("arity", (), NatVal(0))),
    )
    with pytest.raises(ReflectError):
        decode_signature(Tree("signature", (entry, entry)))


def test_raise_drop_inverse_on_terms():
    rng = random.Random(2)
    for _ in range(100):
        term = random_term(rng)
        assert raise_(drop(term)) == term


def test_drop_is_identity_on_base_constants():
    assert drop(Constant(NatVal(5))) == NatVal(5)
    assert drop(Constant(Atom("a"))) == Atom("a")
    assert raise_(NatVal(5)) == Constant(NatVal(5))


def test_drop_of_symbol_names():
    assert drop(FunctionApp("R1", ())) == SymbolName("R1")
    assert raise_(SymbolName("R1")) == FunctionApp("R1", ())


def test_drop_raise_inverse_on_liftable_values():
    rng = random.Random(3)
    values = [
        NatVal(3),
        Atom("a"),
        TRUE,
        SymbolName("f"),
        NodeRef((1, 0)),
        drop(random_term(rng)),
        drop(random_rule(rng)),
    ]
    for v in values:
        assert drop(raise_(v)) == v


def test_raise_of_node_value_is_sublocation_symbol():
    raised = raise_(NodeRef((1, 0, 2)))
    assert raised == FunctionApp("self@1.0.2", ())


def test_raise_rejects_unliftable():
    with pytest.raises(ReflectError):
        raise_(TreeValue(Tree("zzz")))


def test_beta_update_equation():
    t0, t1 = Constant(NatVal(0)), Constant(NatVal(1))
    tree = encode_rule(Assign("f", (t1,), t0))
    assert beta(tree) == (t0, t1)


def test_beta_empty_par():
    assert beta(encode_rule(Par(()))) == ()


def test_beta_partial_equation():
    t1 = Constant(NatVal(1))
    tp = Constant(NatVal(9))
    tree = encode_rule(PartialAssign("f", (t1,), "+", (tp,)))
    assert beta(tree) == (t1, FunctionApp("+", (FunctionApp("f", (t1,)), tp)))


def test_beta_if_and_let_equations():
    cond = Equality(FunctionApp("mode"), Constant(Atom("init")))
    then = Assign("card", (), Constant(NatVal(0)))
    other = Assign("card", (), Constant(NatVal(1)))
    assert beta(encode_rule(If(cond, then, other))) == (
        cond,
        Constant(NatVal(0)),
        Constant(NatVal(1)),
    )
    bound = Constant(NatVal(2))
    body = Assign("card", (), Variable("x"))
    assert beta(encode_rule(Let("x", bound, body))) == (bound, bound)


def _beta_oracle(rule, env):
    """Independent transcription of the extraction equations."""

    def subst(term):
        for var, rep in env.items():
            term = term_substitute(term, var, rep)
        return term

    if isinstance(rule, Assign):
        return (subst(rule.rhs),) + tuple(subst(a) for a in rule.args)
    if isinstance(rule, If):
        return (
            (subst(rule.cond),)
            + _beta_oracle(rule.then, env)
            + _beta_oracle(rule.orelse, env)
        )
    if isinstance(rule, Par):
        out = ()
        for b in rule.branches:
            out += _beta_oracle(b, env)
        return out
    if isinstance(rule, Let):
        bound = subst(rule.bound)
        return (bound,) + _beta_oracle(rule.body, {**env, rule.var: bound})
    if isinstance(rule, PartialAssign):
        args = tuple(subst(a) for a in rule.args)
        operands = tuple(subst(a) for a in rule.operands)
        if rule.target in env:
            head = FunctionApp("subtree", (env[rule.target],))
        else:
            head = FunctionApp(rule.target, args)
        return args + (FunctionApp(rule.op, (head,) + operands),)
    raise AssertionError(rule)


def test_beta_matches_oracle_on_random_rules():
    rng = random.Random(4)
    for _ in range(100):
        rule = random_rule(rng, 3)
        assert beta(encode_rule(rule)) == _beta_oracle(rule, {})


def test_beta_components_are_ground():
    from rsasm.structures import term_is_ground

    rng = random.Random(5)
    for _ in range(100):
        rule = random_rule(rng, 3)
        for t in beta_of_rule(rule):
            assert term_is_ground(t)


def test_self_selectors():
    sig = random_signature(random.Random(6))
    rule = Par(())
    t = build_self_tree(sig, rule)
    assert rule_of_self(t) == Tree("par")
    assert signature_of_self(t) == encode_signature(sig)


def test_selector_iota_equals_direct_scan():
    from rsasm.reflect import _first_root_child_scan, _unique_root_child

    rng = random.Random(7)
    for _ in range(30):
        t = build_self_tree(random_signature(rng), random_rule(rng))
        for label in ("signature", "rule"):
            assert _unique_root_child(t, label) == _first_root_child_scan(t, label)


def test_selectors_reject_missing_children():
    with pytest.raises(ReflectError):
        rule_of_self(Tree("self", (Tree("signature"),)))
    with pytest.raises(ReflectError):
        signature_of_self(Tree("zzz"))


def test_new_function_allocates_distinct_names():
    state = make_state({"index": 2, "R1": 1, "R2": 2})
    allocator = ReserveAllocator()
    name1, update1 = new_function(state, 2, allocator)
    name2, update2 = new_function(state, 3, allocator)
    assert name1 != name2
    assert name1.name.startswith("f$")
    assert update1.op == "right_extend"


def test_new_function_skips_names_in_the_signature():
    state = make_state({"f$0": 0})
    name, _ = new_function(state, 1)
    assert name == SymbolName("f$1")


def test_new_function_update_integrates_via_collapse():
    state = make_state({"R1": 1})
    name, update = new_function(state, 4)
    result = collapse(UpdateMultiset((update,)), state)
    assert isinstance(result, UpdateSet)
    (self_update,) = tuple(result)
    decoded = decode_signature(signature_of_self(self_update.value.tree))
    assert decoded.arity_of(name.name) == 4


def test_parity_rule_encoding_contains_right_extend_partial():
    from rsasm.frontend import load_program, parse

    machine = parse(load_program("parity"), "parity")
    tree = machine.initial_state.self_tree
    partial_ops = [
        node.children[1].value
        for _, _, node in tree.preorder()
        if node.label == "partial" and len(node.children) == 4
    ]
    assert SymbolName("right_extend") in partial_ops
