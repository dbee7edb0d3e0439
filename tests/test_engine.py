"""Stepping, runs, traces, coincidence, and the postulate probes."""

import functools
import gc
import hashlib
import json
import random
import weakref
from collections import Counter

import pytest

from conftest import (
    FAULTY_PROGRAM,
    SHAPE_BREAKING_PROGRAM,
    make_state,
    old_tree_json,
    old_value_json,
)
from rsasm import frontend, generate, printer, reflect, rules, structures
from rsasm.engine import (
    Machine,
    SELF_TERM,
    check_strong_coincidence,
    probe_bounded_exploration,
    probe_isomorphism_closure,
    replay,
    run,
    step,
    trace_digest,
)
from rsasm.errors import EngineError, ReflectError
from rsasm.frontend import load_program, parse, trees_from_table, value_from_json
from rsasm.printer import TracePrinter
from rsasm.reflect import (
    decode_rule,
    decode_signature,
    encode_rule,
    rule_of_self,
    signature_of_self,
)
from rsasm.rules import (
    Assign,
    If,
    Let,
    Par,
    PartialAssign,
    SharedUpdate,
    compute_update_multiset,
    entry_to_json,
)
from rsasm.structures import (
    Atom,
    Constant,
    Equality,
    FunctionApp,
    Location,
    NatVal,
    NodeRef,
    Signature,
    TreeValue,
    UNDEF,
    Update,
    UpdateSet,
    apply_update_set,
    canonical_dumps,
    diff_states,
    eval_term,
    state_to_json,
    value_to_json,
)
from rsasm.treealg import L_BOOL, L_IF, L_LET, L_PAR, L_PARTIAL, L_RULE, L_UPDATE, Tree, subst_tt
from test_acceptance import JoinCase, join_source


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
        assert apply_update_set(previous, record.result) == record.after
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


def test_a_clash_at_several_tree_argument_locations_names_the_first_by_table_json():
    # Tree arguments order by their node-table JSON: ``b<a<>>`` (table
    # ``[["a",[]],["b",[0]]]``) sorts before ``c<>`` (``[["c",[]]]``).
    src = """
SIGNATURE
  f/1
RULE
  PAR
    f(label_hedge(c)) := 1
    f(label_hedge(c)) := 2
    f(label_hedge(b, label_hedge(a))) := 1
    f(label_hedge(b, label_hedge(a))) := 2
  ENDPAR
"""
    trace = run(parse(src, "tree_clash"))
    assert (trace.status, trace.detail) == ("error", "clash_stall")
    trace_obj = json.loads(trace.to_json())
    (arg,) = trace_obj["steps"][0]["clash"]["location"]["args"]
    assert trees_from_table(trace_obj["nodes"])[arg["tree"]] == Tree("b", (Tree("a"),))


def test_a_clash_ends_the_run_even_where_the_stored_signature_lags_self():
    # The self tree declares ``extra``, the stored signature does not, so the
    # step's state differs from the stored one; the clash still ends the run.
    clashing = Par(tuple(Assign("card", (), Constant(NatVal(n))) for n in (1, 2)))
    declared = make_state({"card": 0, "extra": 0}, {Location("card"): NatVal(0)}, rule=clashing)
    state = declared.with_signature(Signature(declared.signature.symbols[:-1]))
    assert state.signature.arity_of("extra") is None
    trace = run(Machine(state, max_steps=5))
    assert (trace.status, trace.detail) == ("error", "clash_stall")
    assert len(trace.steps) == 1 and trace.steps[0].clashed
    assert trace.final_state.interp == state.interp


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


def test_strong_coincidence_extracts_the_terms_of_a_bare_rule_encoding():
    # subtree(node@1.0) is the rule region alone, a rule encoding but not a self tree
    rule = Assign("x", (), FunctionApp("y"))
    symbols = {"x": 0, "y": 0, "z": 0}
    s1 = make_state(symbols, {Location("y"): NatVal(1)}, rule=rule)
    agreeing = apply_update_set(s1, UpdateSet(frozenset({Update(Location("z"), NatVal(2))})))
    differing = apply_update_set(s1, UpdateSet(frozenset({Update(Location("y"), NatVal(2))})))
    rule_region = FunctionApp("subtree", (Constant(NodeRef((1, 0))),))
    assert eval_term(s1, rule_region) == TreeValue(rule_of_self(s1.self_tree))
    assert check_strong_coincidence(s1, agreeing, [rule_region])
    assert not check_strong_coincidence(s1, differing, [rule_region])
    # the signature region is no rule encoding, so nothing is extracted from it
    signature_region = FunctionApp("subtree", (Constant(NodeRef((0,))),))
    assert check_strong_coincidence(s1, differing, [signature_region])


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table_of(tree: Tree) -> list:
    """The node table of ``tree`` alone, its root last."""
    doc = TracePrinter()
    value_to_json(TreeValue(tree), doc)
    return doc.entries


def _old_json(obj, trees: list, nested: dict):
    """A trace JSON fragment as format 1 wrote it: every tree nested, every term as term JSON.

    ``trees`` holds the tree of each id of the document's node table; a tree,
    a dropped term and a set are read back with the trace reader and written
    again with the reference writer of ``conftest``.
    """
    if isinstance(obj, list):
        return [_old_json(item, trees, nested) for item in obj]
    if not isinstance(obj, dict):
        return obj
    if obj.keys() in ({"tree"}, {"dropped"}, {"set"}):
        return old_value_json(value_from_json(obj, trees), nested)
    return {key: _old_json(value, trees, nested) for key, value in obj.items()}


def _old_shared(shared: list, trees: list, nested: dict) -> list:
    """A record's shared entries as format 1 wrote them: each one ``count`` times, in JSON order."""
    expanded = []
    for entry in shared:
        count = entry["count"]
        written = {k: v for k, v in entry.items() if k != "count"}
        expanded += [_old_json(written, trees, nested)] * count
    return sorted(expanded, key=canonical_dumps)


def _old_digest(tree: dict) -> str:
    """``self_digest`` as formats 1 to 3 defined it: the sha256 of the canonical nested JSON."""
    return _sha256(canonical_dumps(tree))


def _old_form(trace_obj: dict) -> dict:
    """The trace as format 1 wrote it: every self tree in full, the self update as a value.

    Every tree is nested JSON, every dropped term is term JSON, each shared
    entry is written as often as it occurs, updates, shared entries and set
    members are in the order that JSON sorts them, and each self tree has the
    ``self_digest`` that format 1 gave it.
    """
    trees = trees_from_table(trace_obj["nodes"])
    nested: dict = {}
    dropped = ("format", "steps", "nodes", "digest")
    old = {key: value for key, value in trace_obj.items() if key not in dropped}
    initial, *after = (old_tree_json(tree, nested) for tree in replay(trace_obj))
    old["initial"] = {"self_digest": _old_digest(initial), "self": initial}
    old["steps"] = []
    for record, tree in zip(trace_obj["steps"], after):
        old["steps"].append({
            **_old_json(record, trees, nested),
            "updates": sorted(_old_json(record["updates"], trees, nested), key=canonical_dumps),
            "shared": _old_shared(record["shared"], trees, nested),
            "self_digest": _old_digest(tree),
            "self": tree,
        })
    return old


# sha256 of the trace JSON of each bundled program, as format 1 wrote it (every
# step's self tree in full) and as written now; a change of evaluation,
# decoding, stepping or the trace format that alters any trace byte shows here
GOLDEN_TRACE_SHA256 = {
    "parity": (
        "eaf5d99e09e22ebcc3e124fb2fddb74e5e5c0893047d6d29e2c09ba48f557c76",
        "fd5da4a0bc6803d45ce41ae133d316439da3e6ef653137b20233ecac10c2d7d3",
    ),
    "join": (
        "549805cc7fd82a90a52cbaf4136f4b8c95c3d5987b244f8dd9175ea51f97d1df",
        "6ab08e47efb752376b62fc793c63126879dd8ac455d90234e2d84c7fb08fc7b0",
    ),
}


def test_bundled_program_traces_match_golden_digests():
    for name, (old_digest, digest) in GOLDEN_TRACE_SHA256.items():
        text = run(parse(load_program(name))).to_json()
        assert _sha256(text) == digest, name
        assert _sha256(canonical_dumps(_old_form(json.loads(text)))) == old_digest, name


def _emptied_condition_fault(whole: Tree, at) -> str:
    with pytest.raises(ReflectError) as raised:
        decode_rule(rule_of_self(subst_tt(whole, at, Tree(L_BOOL))), reflect.RULE_AT)
    return str(raised.value)


def test_step_1_runs_the_rule_that_parse_encoded_and_other_trees_still_decode(monkeypatch):
    calls = []
    original = reflect._decode_rule_at
    monkeypatch.setattr(reflect, "_decode_rule_at", lambda t: calls.append(t) or original(t))
    program = frontend.parse_program(load_program("join"), "join")
    state = frontend.build_machine(program).initial_state
    tree = state.self_tree
    step(state, 1)
    assert calls == []
    assert decode_rule(rule_of_self(tree), reflect.RULE_AT) is program.rule

    # the first if condition, emptied: the fault is named from the root of self
    at = next(p for p, n in tree.preorder() if n.label == L_BOOL)
    message = f"term leaf carries no value (at node@{'.'.join(map(str, at))})"
    assert _emptied_condition_fault(tree, at) == message

    # Equal trees are one object, so a node-table copy is a tree without the
    # memos encoding left only once the encoded tree is gone.  Then each
    # distinct rule node that holds no memo (a small rule such as ``par<>``
    # may live on in other trees) is decoded once, and the fault is the same.
    text = canonical_dumps(_table_of(tree))
    gone = weakref.ref(tree)
    del state, tree
    calls.clear()
    gc.collect()
    assert gone() is None
    copy = trees_from_table(json.loads(text))[-1]
    rule_labels = {L_UPDATE, L_IF, L_PAR, L_LET, L_PARTIAL}
    bare = {
        n for _, n in rule_of_self(copy).preorder()
        if n.label in rule_labels and "_decoded_rule" not in vars(n)
    }
    assert rule_of_self(copy) in bare
    assert decode_rule(rule_of_self(copy), reflect.RULE_AT) == program.rule
    assert sorted(map(id, calls)) == sorted(map(id, bare))
    assert _emptied_condition_fault(copy, at) == message


def test_a_trace_is_written_as_the_canonical_text_of_its_json_object():
    # to_json joins member texts it has also hashed; the text must still be
    # canonical_dumps of the object, key order included ("detail" < "digest")
    traces = [run(parse(load_program(name), name)) for name in ("parity", "join")]
    traces += [run(generate.random_machine(random.Random(seed))) for seed in range(30)]
    faulty = run(parse(FAULTY_PROGRAM, "faulty"))
    assert faulty.detail
    for trace in traces + [faulty]:
        assert trace.to_json() == canonical_dumps(trace.to_json_obj())
    assert list(json.loads(faulty.to_json()))[:2] == ["detail", "digest"]


@functools.cache
def _replay_traces() -> tuple:
    traces = [(name, run(parse(load_program(name)))) for name in ("parity", "join")]
    for seed in range(50):
        traces.append((f"machine {seed}", run(generate.random_machine(random.Random(seed)))))
    rng = random.Random(2024)
    for index in range(20):
        traces.append((f"join {index}", run(parse(join_source(JoinCase(rng)), f"join-{index}"))))
    return tuple(traces)


def test_replay_rebuilds_every_self_tree_from_the_trace_json():
    for name, trace in _replay_traces():
        trace_obj = json.loads(trace.to_json())
        assert trace_obj["format"] == 8
        assert trace_obj["digest"] == trace_digest(trace_obj), name
        expected = [trace.initial_state] + [s.after for s in trace.steps]
        replayed = list(replay(trace_obj))
        assert len(replayed) == len(expected), name
        for k, (tree, state) in enumerate(zip(replayed, expected)):
            assert tree is state.self_tree, (name, k)


def _shared_counter(shared: list, trees: list) -> Counter:
    """Shared entries as canonical format-1 JSON, each counted as often as it occurs."""
    counter: Counter = Counter()
    for entry in shared:
        written = {key: value for key, value in entry.items() if key != "count"}
        counter[canonical_dumps(_old_json(written, trees, {}))] += entry.get("count", 1)
    return counter


def test_shared_entries_read_back_with_their_counts_give_the_multiset():
    for name, trace in _replay_traces():
        trace_obj = json.loads(trace.to_json())
        trees = trees_from_table(trace_obj["nodes"])
        for record, step_record in zip(trace_obj["steps"], trace.steps):
            assert all(type(e["count"]) is int and e["count"] >= 1 for e in record["shared"])
            doc = TracePrinter()
            shared = [
                entry_to_json(e, doc)
                for e in step_record.multiset
                if isinstance(e, SharedUpdate)
            ]
            expected = _shared_counter(shared, trees_from_table(doc.entries))
            assert _shared_counter(record["shared"], trees) == expected, (name, record["index"])


def test_each_distinct_shared_entry_and_tree_is_written_once():
    trace = run(parse(load_program("parity")))
    trace_obj = json.loads(trace.to_json())
    shared = trace_obj["steps"][0]["shared"]
    assert any(e["count"] > 1 for e in shared)
    texts = [canonical_dumps(e) for e in shared]
    assert len(set(texts)) == len(texts)
    assert sum(e["count"] for e in shared) == sum(
        isinstance(e, SharedUpdate) for e in trace.steps[0].multiset
    )
    entries = [canonical_dumps(entry) for entry in trace_obj["nodes"]]
    assert len(set(entries)) == len(entries)


def test_every_update_is_written_as_entry_to_json_writes_it():
    for name, trace in _replay_traces():
        trace_obj = json.loads(trace.to_json())
        trees = trees_from_table(trace_obj["nodes"])
        for record, step_record in zip(trace_obj["steps"], trace.steps):
            assert all(u.keys() == {"location", "value"} for u in record["updates"]), name
            if step_record.clashed:
                continue
            doc = TracePrinter()
            written = [entry_to_json(u, doc) for u in step_record.result]
            own = trees_from_table(doc.entries)
            expected = sorted(canonical_dumps(_old_json(u, own, {})) for u in written)
            read = sorted(canonical_dumps(_old_json(u, trees, {})) for u in record["updates"])
            assert read == expected, (name, record["index"])


def _self_update(trace_obj) -> dict:
    """The first step's update of ``self``."""
    return next(u for u in trace_obj["steps"][0]["updates"] if u["location"]["symbol"] == "self")


def test_only_a_step_that_writes_self_carries_a_self_tree():
    trace = run(parse(load_program("parity")))
    trace_obj = json.loads(trace.to_json())
    writes = [
        [u for u in record["updates"] if u["location"] == {"symbol": "self", "args": []}]
        for record in trace_obj["steps"]
    ]
    assert [len(w) for w in writes] == [1, 0, 0, 0]
    trees = trees_from_table(trace_obj["nodes"])
    assert trees[_self_update(trace_obj)["value"]["tree"]] == trace.steps[0].after.self_tree
    assert all("self" not in record for record in trace_obj["steps"])


def test_a_step_that_extends_only_the_signature_keeps_the_replayed_rule_region():
    trace_obj = json.loads(run(parse(load_program("join"))).to_json())
    assert trace_obj["steps"][0]["signature_added"] == ["J12", "hatJ12"]
    initial, first, *_ = replay(trace_obj)
    assert signature_of_self(first) != signature_of_self(initial)
    assert first.children[1] is initial.children[1]


def test_replay_refuses_other_formats_and_mismatched_digests():
    trace_obj = _parity_trace_obj()
    without = {key: value for key, value in trace_obj.items() if key != "format"}
    for other, fmt in (
        (dict(trace_obj, format=7), 7),
        (dict(trace_obj, format=6), 6),
        (dict(trace_obj, format=5), 5),
        (dict(trace_obj, format=4), 4),
        (dict(trace_obj, format=3), 3),
        (dict(trace_obj, format=1), 1),
        (without, "missing"),
    ):
        with pytest.raises(EngineError, match=rf"^not a format 8 trace \(format: {fmt}\)$"):
            list(replay(other))
    zeroed = dict(trace_obj, digest="0" * 64)
    with pytest.raises(EngineError, match="^the trace does not match its digest$"):
        next(replay(zeroed))
    # a changed status is not malformed: resealed, the trace replays
    restatused = _resealed(dict(trace_obj, status="max_steps"))
    assert list(replay(restatused)) == list(replay(trace_obj))
    root = trace_obj["initial"]["self"]["tree"]
    for child in (-1, root):
        looped = json.loads(json.dumps(trace_obj))
        looped["nodes"][root][-1][0] = child
        with pytest.raises(EngineError, match="names a child that does not precede it"):
            list(replay(_resealed(looped)))
    with pytest.raises(EngineError, match="malformed trace"):
        list(replay({"format": 8, "steps": []}))


def _parity_trace_obj() -> dict:
    return json.loads(run(parse(load_program("parity"))).to_json())


def _set_initial_tree_id(nid):
    def damage(trace_obj):
        trace_obj["initial"]["self"]["tree"] = nid
    return damage


def _set_self_value(value):
    def damage(trace_obj):
        _self_update(trace_obj)["value"] = value
    return damage


def _initial_root(trace_obj) -> list:
    """The node table entry of the initial self tree's root."""
    return trace_obj["nodes"][trace_obj["initial"]["self"]["tree"]]


def _set_shared_count(count):
    def damage(trace_obj):
        next(r for r in trace_obj["steps"] if r["shared"])["shared"][0]["count"] = count
    return damage


def _resealed(trace_obj: dict) -> dict:
    """``trace_obj`` with its digest recomputed, so that replay reads past the digest check."""
    trace_obj["digest"] = trace_digest(trace_obj)
    return trace_obj


def _first_update(trace_obj) -> dict:
    """The first update, in step order, of a location other than ``self``."""
    return next(
        u for r in trace_obj["steps"] for u in r["updates"] if u["location"]["symbol"] != "self"
    )


TAMPERED_TRACES = {
    "no_digest": lambda obj: obj.pop("digest"),  # malformed, not a mismatch
    # the self update names another tree, one the node table holds
    "self_update_names_another_tree": lambda obj: _set_self_value(obj["initial"]["self"])(obj),
    "relabelled_node": lambda obj: obj["nodes"][0].__setitem__(0, "other"),
    "update_value": lambda obj: _first_update(obj).update(value={"atom": "other"}),
    "shared_count": _set_shared_count(7),
    "status": lambda obj: obj.update(status="max_steps"),
    "detail": lambda obj: obj.update(detail="clash_stall"),
}


@pytest.mark.parametrize("tamper", TAMPERED_TRACES.values(), ids=TAMPERED_TRACES.keys())
def test_replay_refuses_a_changed_trace_before_it_yields_a_tree(tamper):
    trace_obj = _parity_trace_obj()
    tampered = json.loads(json.dumps(trace_obj))
    tamper(tampered)
    assert tampered != trace_obj
    if "digest" in tampered:
        said = "^the trace does not match its digest$"
    else:
        said = "^malformed trace: KeyError: 'digest'$"
    with pytest.raises(EngineError, match=said):
        next(replay(tampered))


def _set_first_dropped_text(text):
    """Damage that writes ``text`` as the first dropped term of the node table."""
    def damage(trace_obj):
        next(e for e in trace_obj["nodes"] if len(e) == 3 and "dropped" in e[1])[1]["dropped"] = text
    return damage


# Each damage, and what its malformed-trace message says once the trace is resealed.
MALFORMED_TRACES = {
    # a dropped term whose text does not parse, or names a tree after its own entry
    "unparsable_dropped_term": (
        _set_first_dropped_text("mode() ="), "ParseError: unexpected end of input"
    ),
    "dropped_term_naming_a_later_tree": (
        _set_first_dropped_text('f({"tree":99999})'), "StateError: tree id 99999 names no"
    ),
    "dropped_term_not_a_string": (_set_first_dropped_text(7), "TypeError: "),
    "dropped_term_with_a_mark_of_a_term": (
        _set_first_dropped_text("f(set@(g(a)))"), "ParseError: set@(…) is not a mark of constants"
    ),
    "dropped_term_with_deep_json": (
        _set_first_dropped_text('f({"a":' + "[" * 100_000), "ParseError: not a value's JSON"
    ),
    # a negative id must not wrap around to the last entry
    "negative_tree_id": (_set_initial_tree_id(-1), "StateError: tree id -1 names no"),
    "out_of_range_tree_id": (
        lambda obj: _set_initial_tree_id(len(obj["nodes"]))(obj),
        "names no node table entry",
    ),
    "bool_tree_id": (_set_initial_tree_id(True), "tree id True names no"),
    "string_tree_id": (_set_initial_tree_id("0"), "tree id '0' names no"),
    "float_tree_id": (_set_initial_tree_id(0.0), "tree id 0.0 names no"),
    "negative_self_value_tree_id": (_set_self_value({"tree": -1}), "tree id -1 names no"),
    "self_value_not_a_tree": (_set_self_value({"atom": "other"}), "self is Atom, not a tree"),
    # node table entries that are not trees
    "non_string_label": (lambda obj: _initial_root(obj).__setitem__(0, 5), "got 5"),
    "empty_label": (lambda obj: _initial_root(obj).__setitem__(0, ""), "got ''"),
    "interior_entry_with_a_value": (
        lambda obj: _initial_root(obj).insert(1, {"atom": "x"}),
        "interior node 'self' cannot carry a leaf value",
    ),
    "later_value_tree_id": (
        lambda obj: obj["nodes"].__setitem__(0, [obj["nodes"][0][0], {"tree": 0}, []]),
        "tree id 0 names no",
    ),
    "zero_count": (_set_shared_count(0), "shared entry count 0"),
    "negative_count": (_set_shared_count(-2), "shared entry count -2"),
    "bool_count": (_set_shared_count(True), "shared entry count True"),
    "string_count": (_set_shared_count("3"), "shared entry count '3'"),
    "float_count": (_set_shared_count(3.0), "shared entry count 3.0"),
    "missing_count": (
        lambda obj: next(r for r in obj["steps"] if r["shared"])["shared"][0].pop("count"),
        "KeyError: 'count'",
    ),
}


@pytest.mark.parametrize("damage, said", MALFORMED_TRACES.values(), ids=MALFORMED_TRACES.keys())
def test_replay_reports_a_malformed_tree_id_entry_value_or_count_as_an_engine_error(damage, said):
    trace_obj = _parity_trace_obj()
    list(replay(trace_obj))  # the undamaged trace replays
    damage(trace_obj)
    with pytest.raises(EngineError, match="^the trace does not match its digest$"):
        list(replay(trace_obj))
    with pytest.raises(EngineError, match="^malformed trace: ") as raised:
        list(replay(_resealed(trace_obj)))
    assert said in str(raised.value)


def test_a_step_that_breaks_the_self_shape_ends_the_run_as_an_error():
    trace = run(parse(SHAPE_BREAKING_PROGRAM, "shape"))
    assert trace.status == "error"
    assert trace.detail == "step 1: step left self without the self-representation shape"
    assert trace.steps == ()
    assert json.loads(trace.to_json())["status"] == "error"


def test_program_fault_ends_the_run_as_an_error_outcome():
    trace = run(parse(FAULTY_PROGRAM, "faulty"))
    assert trace.status == "error"
    assert trace.detail == "step 1: + expects a natural number, got foo"
    assert trace.steps == ()
    assert trace.final_state.value_at(Location("x")) == Atom("foo")


@pytest.mark.parametrize("symbol", ["self@x", "self@0"])
def test_a_self_at_symbol_built_through_the_api_is_an_unknown_symbol(symbol):
    # a node of self is read as subtree(node@p); "self@…" names no symbol
    state = make_state({"x": 0}, rule=Assign("x", (), FunctionApp(symbol, ())))
    trace = run(Machine(state, max_steps=3, name="self-at"))
    assert trace.status == "error"
    assert trace.detail == f"step 1: unknown symbol {symbol!r}"
    assert trace.steps == ()


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


def test_extending_a_hole_ends_the_run_as_an_error():
    trace = run(parse("SIGNATURE\n  x/0\nRULE\n  x := right_extend(XI, a<>)\n"))
    assert trace.status == "error"
    assert trace.detail == "step 1: cannot extend below a hole; the root must be labelled"
    assert trace.steps == ()


NESTED_SET_PROGRAM = """SIGNATURE
  x/0
  seen/1
INIT
  x = 0
RULE
  PAR
    x := setadd(emptyset, x, true)
    seen(x) := true
  ENDPAR
"""


def test_a_run_that_nests_a_set_each_step_is_written_printed_and_replayed_in_quadratic_calls(
    monkeypatch,
):
    # each step's set holds the last one, so a sort key that wrote each member
    # anew would double its work with each step
    n = 100
    bound = 3 * n * n
    calls = 0
    keyed = structures.value_sort_key

    def counted(value):
        nonlocal calls
        calls += 1
        assert calls <= bound, "value_sort_key called more often than 3·n²"
        return keyed(value)

    for module in (structures, rules, printer, frontend):
        monkeypatch.setattr(module, "value_sort_key", counted)
    trace = run(parse(NESTED_SET_PROGRAM, "nested-set", max_steps=n))
    assert (trace.status, len(trace.steps)) == ("max_steps", n)
    text = trace.to_json()
    state_to_json(trace.final_state)
    repr(trace.final_state)
    assert len(list(replay(json.loads(text)))) == n + 1
    assert calls <= bound
