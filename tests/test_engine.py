"""Stepping, runs, traces, coincidence, and the postulate probes."""

import hashlib
import random

from conftest import FAULTY_PROGRAM, make_state
from rsasm.engine import (
    Machine,
    SELF_TERM,
    check_strong_coincidence,
    probe_bounded_exploration,
    probe_isomorphism_closure,
    run,
    step,
)
from rsasm.frontend import parse, load_program
from rsasm.reflect import (
    decode_rule,
    decode_signature,
    encode_rule,
    rule_of_self,
    signature_of_self,
)
from rsasm.rules import Assign, If, Let, Par, PartialAssign, compute_update_multiset
from rsasm.structures import (
    Atom,
    Constant,
    Equality,
    FunctionApp,
    Location,
    NatVal,
    NodeRef,
    TreeValue,
    UNDEF,
    Update,
    UpdateSet,
    apply_update_set,
    diff_states,
)
from rsasm.treealg import L_RULE, Tree


def parity_source(domain, marked):
    lines = [
        "DOMAINS",
        f"  D = {{{', '.join(domain)}}}",
        "",
        "SIGNATURE",
        "  mode/0",
        "  card/0",
        "  parity/0",
        "  set/1",
        "",
        "INIT",
        "  mode = init",
    ]
    for x in domain:
        lines.append(f"  set({x}) = {'true' if x in marked else 'false'}")
    body = load_program("parity")
    rule_text = body[body.index("RULE") :]
    return "\n".join(lines) + "\n" + rule_text


def small_parity(domain, marked):
    src = parity_source(domain, marked)
    # shrink the declared domain inside the reused RULE body
    return parse(src, "parity-small")


def test_init_step_counts_and_extends_self():
    machine = small_parity(["a", "b"], {"a", "b"})
    successor, record = step(machine.initial_state)
    assert successor.value_at(Location("card")) == NatVal(0)
    assert successor.value_at(Location("mode")) == Atom("count")
    rule = decode_rule(rule_of_self(successor.self_tree))
    # the count branch now carries one partial increment per marked element
    count_par = rule.orelse.then
    partials = [b for b in count_par.branches if isinstance(b, PartialAssign)]
    assert len(partials) == 2
    assert all(p.op == "+" for p in partials)


def test_fixpoint_on_empty_par():
    state = make_state(rule=Par(()))
    machine = Machine(state, max_steps=5)
    trace = run(machine)
    assert trace.status == "fixpoint"
    assert len(trace.steps) == 1
    assert trace.steps[0].result.is_empty()


def test_parity_run_counts_three_of_three():
    machine = small_parity(["a", "b", "c"], {"a", "b", "c"})
    trace = run(machine)
    assert trace.status == "fixpoint"
    final = trace.final_state
    assert final.value_at(Location("card")) == NatVal(3)
    assert final.value_at(Location("parity")) == NatVal(3 % 2)


def test_diff_states_over_init_step():
    machine = small_parity(["a", "b"], {"a"})
    before = machine.initial_state
    after, record = step(before)
    delta = diff_states(before, after)
    changed_symbols = {u.location.symbol for u in delta}
    assert changed_symbols == {"card", "mode", "self"}


def test_trace_steps_recheck_from_records():
    machine = small_parity(["a", "b", "c"], {"a", "c"})
    trace = run(machine)
    previous = trace.initial_state
    for record in trace.steps:
        assert record.before == previous.with_signature(record.before.signature)
        assert apply_update_set(record.before, record.result) == record.after
        previous = record.after


def test_signature_monotonicity_along_join_run():
    machine = parse(load_program("join"), "join")
    trace = run(machine)
    assert trace.status == "fixpoint"
    previous = decode_signature(signature_of_self(trace.initial_state.self_tree))
    for record in trace.steps:
        current = decode_signature(signature_of_self(record.after.self_tree))
        assert previous.is_subsignature_of(current)
        previous = current
    assert trace.steps[0].signature_added == ("J12", "hatJ12")


def test_join_init_extends_decoded_signature():
    machine = parse(load_program("join"), "join")
    successor, record = step(machine.initial_state)
    sig = decode_signature(signature_of_self(successor.self_tree))
    assert sig.arity_of("J12") == 3
    assert sig.arity_of("hatJ12") == 4


def test_clash_stalls_the_run():
    src = """
SIGNATURE
  card/0
INIT
  card = 0
RULE
  PAR
    card := 1
    card := 2
  ENDPAR
OPTIONS
  max_steps = 5
"""
    machine = parse(src, "clashing")
    trace = run(machine)
    assert trace.status == "error"
    assert trace.detail == "clash_stall"
    assert len(trace.steps) == 1
    assert trace.steps[0].clashed
    assert trace.final_state.value_at(Location("card")) == NatVal(0)


def test_run_respects_max_steps():
    src = """
SIGNATURE
  card/0
INIT
  card = 0
RULE
  card := card + 1
OPTIONS
  max_steps = 4
"""
    machine = parse(src, "counter")
    trace = run(machine)
    assert trace.status == "max_steps"
    assert len(trace.steps) == 4
    assert trace.final_state.value_at(Location("card")) == NatVal(4)


def test_strong_coincidence_reflexive():
    state = make_state(rule=Par(()))
    assert check_strong_coincidence(state, state, [SELF_TERM])


def test_strong_coincidence_ignores_unread_locations():
    machine = small_parity(["a", "b"], {"a"})
    s1 = machine.initial_state
    # parity is never read by the initial rule's extracted terms
    s2 = apply_update_set(
        s1, UpdateSet(frozenset({Update(Location("parity"), NatVal(7))}))
    )
    assert check_strong_coincidence(s1, s2, [SELF_TERM])
    rule = decode_rule(rule_of_self(s1.self_tree))
    assert compute_update_multiset(rule, s1) == compute_update_multiset(rule, s2)


def test_strong_coincidence_detects_read_location_change():
    machine = small_parity(["a", "b"], {"a"})
    s1 = machine.initial_state
    s2 = apply_update_set(
        s1, UpdateSet(frozenset({Update(Location("mode"), Atom("count"))}))
    )
    assert not check_strong_coincidence(s1, s2, [SELF_TERM])


def test_strong_coincidence_detects_self_change():
    s1 = make_state({"card": 0}, rule=Par(()))
    s2 = make_state(
        {"card": 0},
        rule=PartialAssign("card", (), "+", (Constant(NatVal(1)),)),
    )
    assert not check_strong_coincidence(s1, s2, [SELF_TERM])


def test_probe_bounded_exploration_clean():
    report = probe_bounded_exploration(trials=100, seed=11)
    assert report.checked == 100
    assert report.ok


def test_probe_isomorphism_closure_clean():
    report = probe_isomorphism_closure(trials=60, seed=12)
    assert report.checked == 60
    assert report.ok


def test_isomorphism_closure_on_parity_two_cycle():
    from rsasm.structures import apply_isomorphism

    machine = small_parity(["a", "b"], {"a"})
    state = machine.initial_state
    a, b = Atom("a"), Atom("b")
    sigma = {a: b, b: a}
    sigma.update({atom: atom for atom in state.base if atom not in (a, b)})
    left, _ = step(apply_isomorphism(state, sigma))
    right_state, _ = step(state)
    assert left == apply_isomorphism(right_state, sigma)


def test_trace_json_is_deterministic():
    src = load_program("parity")
    t1 = run(parse(src, "parity")).to_json()
    t2 = run(parse(src, "parity")).to_json()
    assert t1 == t2


def test_probe_trace_determinism_with_same_seed():
    from rsasm import generate

    rng1, rng2 = random.Random(99), random.Random(99)
    for _ in range(5):
        m1 = generate.random_machine(rng1)
        m2 = generate.random_machine(rng2)
        assert run(m1).to_json() == run(m2).to_json()


def test_join_on_single_attribute_relations():
    # two unary relations over one shared attribute: the join is their intersection
    src = """
DOMAINS
  D = {a, b}
  ATTRS = {A}
SIGNATURE
  mode/0
  index/2
  R1/1
  R2/1
INIT
  mode = init
  index(R1, A) = 1
  index(R2, A) = 1
  R1(a) = true
  R2(a) = true
  R2(b) = true
RULE
  PAR
    IF mode = init THEN
      LET ti = {X IN ATTRS | NOT index(DROP(R1), X) = undef} IN
      LET tj = {Y IN ATTRS | NOT index(DROP(R2), Y) = undef} IN
      LET n = CARD(union(ti, tj)) IN
      LET o = IOTA w IN NODES . child(root_node(), w) AND label(w) = signature IN
      PAR
        o <=[right_extend] func<name(DROP(J12)), arity(n)>, func<name(DROP(hatJ12)), arity(n + 1)>
        index(DROP(J12), A) := index(DROP(R1), A)
        mode := join
      ENDPAR
    ENDIF
    IF mode = join THEN
      PAR
        PARFOR x1 IN D
          IF R1(x1) = true AND R2(x1) = true THEN
            J12(x1) := true
          ENDIF
        ENDPARFOR
        mode := halt
      ENDPAR
    ENDIF
  ENDPAR
"""
    trace = run(parse(src, "join-unary"))
    assert trace.status == "fixpoint"
    final = trace.final_state
    rows = {loc.args for loc, v in final.interp.items() if loc.symbol == "J12"}
    assert rows == {(Atom("a"),)}  # oracle: {a} ∩ {a, b}
    sig = decode_signature(signature_of_self(final.self_tree))
    assert sig.arity_of("J12") == 1
    assert sig.arity_of("hatJ12") == 2


# sha256 of the trace JSON of each bundled program; a change of evaluation,
# decoding or stepping that alters any trace byte shows here
GOLDEN_TRACE_SHA256 = {
    "parity": "eaf5d99e09e22ebcc3e124fb2fddb74e5e5c0893047d6d29e2c09ba48f557c76",
    "join": "549805cc7fd82a90a52cbaf4136f4b8c95c3d5987b244f8dd9175ea51f97d1df",
}


def test_bundled_program_traces_match_golden_digests():
    for name, digest in GOLDEN_TRACE_SHA256.items():
        trace = run(parse(load_program(name)))
        assert hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest() == digest, name


def test_program_fault_ends_the_run_as_an_error_outcome():
    trace = run(parse(FAULTY_PROGRAM, "faulty"))
    assert trace.status == "error"
    assert trace.detail == "step 1: + expects a natural number, got foo"
    assert trace.steps == ()
    assert trace.final_state.value_at(Location("x")) == Atom("foo")


def test_rewritten_rule_takes_effect_at_the_next_step():
    # while n0 = 0, set n0 to 1 and append "n1 := 5" to the machine's own PAR
    appended = Tree(L_RULE, (encode_rule(Assign("n1", (), Constant(NatVal(5)))),))
    grow = Let(
        "o",
        Constant(NodeRef((1, 0))),
        PartialAssign("o", (), "right_extend", (Constant(TreeValue(appended)),)),
    )
    once = If(
        Equality(FunctionApp("n0"), Constant(NatVal(0))),
        Par((Assign("n0", (), Constant(NatVal(1))), grow)),
        Par(()),
    )
    state = make_state({"n0": 0, "n1": 0}, {Location("n0"): NatVal(0)}, rule=Par((once,)))
    assert decode_rule(rule_of_self(state.self_tree)) == Par((once,))
    first, _ = step(state)
    assert first.value_at(Location("n1")) is UNDEF
    grown = Par((once, Assign("n1", (), Constant(NatVal(5)))))
    assert decode_rule(rule_of_self(first.self_tree)) == grown
    second, _ = step(first)
    assert second.value_at(Location("n1")) == NatVal(5)
