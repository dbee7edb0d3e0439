"""Program parsing, pretty-printing round-trips, and the command line."""

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from conftest import FAULTY_PROGRAM, SHAPE_BREAKING_PROGRAM
from test_acceptance import JoinCase, join_source
from test_engine import TAMPERED_TRACES, _initial_root, _resealed, _self_update, parity_source
from rsasm.cli import main as cli_main
from rsasm.engine import run
from rsasm.errors import ParseError, ReflectError
from rsasm import generate
from rsasm.frontend import (
    MAX_NESTING,
    ProgramSource,
    _collect_atoms_value,
    build_machine,
    load_program,
    parse,
    parse_program,
    trees_from_table,
)
from rsasm import reflect
from rsasm.printer import machine_to_source
from rsasm.reflect import (
    RULE_AT,
    build_self_tree,
    decode_rule,
    decode_signature,
    rule_of_self,
    signature_of_self,
    tree_diff,
)
from rsasm.rules import Assign, If, Let, Par, Rule
from rsasm.structures import (
    SELF_LOCATION,
    Atom,
    Constant,
    Equality,
    FunctionApp,
    Location,
    NatVal,
    SymbolName,
    TreeValue,
    UNDEF,
    Variable,
)
from rsasm.treealg import L_BOOL, L_LET, L_TERM, Tree


MINIMAL = """
SIGNATURE
RULE
  PAR ENDPAR
"""


def test_minimal_program_runs_to_fixpoint_in_one_step():
    machine = parse(MINIMAL, "minimal")
    trace = run(machine)
    assert trace.status == "fixpoint"
    assert len(trace.steps) == 1


def test_parity_program_decodes_to_mode_cascade():
    machine = parse(load_program("parity"), "parity")
    rule = decode_rule(rule_of_self(machine.initial_state.self_tree))
    assert isinstance(rule, If)  # mode = init
    assert isinstance(rule.orelse, If)  # mode = count
    assert isinstance(rule.orelse.orelse, If)  # mode = eval
    assert rule.orelse.orelse.orelse == Par(())


def _leaf_terms(rule: Rule) -> tuple[set, int, set]:
    """The (label, id of term) pairs of the term leaves of ``rule``, its LETs and its rule ids.

    Each distinct rule object counts once, as encoding meets it once.
    """
    pairs, lets, seen, stack = set(), 0, set(), [rule]
    while stack:
        r = stack.pop()
        if id(r) in seen:
            continue
        seen.add(id(r))
        if isinstance(r, Assign):
            pairs.update((L_TERM, id(t)) for t in r.args + (r.rhs,))
        elif isinstance(r, If):
            pairs.add((L_BOOL, id(r.cond)))
            stack += (r.then, r.orelse)
        elif isinstance(r, Par):
            stack.extend(r.branches)
        elif isinstance(r, Let):
            lets += 1
            pairs.add((L_TERM, id(r.bound)))
            stack.append(r.body)
        else:
            pairs.update((L_TERM, id(t)) for t in r.args + r.operands)
    return pairs, lets, seen


def test_the_copies_of_a_parfor_body_share_and_encode_once_what_omits_the_loop_variable(
    monkeypatch,
):
    program = parse_program(load_program("parity"), "parity")
    copies = program.rule.then.branches[1].branches  # PARFOR x IN D, one copy per member
    assert len(copies) == 6
    let = copies[0].then  # LET o = child_n(...) IN o <=[right_extend] ...
    assert isinstance(let, Let)
    assert all(c.then is let for c in copies)
    assert len({id(c.cond) for c in copies}) == 6  # set(x) = true differs per copy
    assert all(c.cond.right is copies[0].cond.right for c in copies)  # its `true` does not

    encoded = []
    original = reflect._encode_new_rule
    monkeypatch.setattr(
        reflect, "_encode_new_rule", lambda r, *rest: encoded.append(r) or original(r, *rest)
    )
    tree = build_self_tree(program.signature, program.rule)
    assert sum(r is let for r in encoded) == 1
    # rule<if<bool, rule<par<…, rule<par<copies>>, …>>, …>>; copy i's LET at i.0.1.0
    parfor = tree.find(RULE_AT + (1, 0, 1, 0))
    let_trees = [parfor.find((i, 0, 1, 0)) for i in range(6)]
    assert all(t is let_trees[0] for t in let_trees)
    assert let_trees[0].label == L_LET and decode_rule(let_trees[0]) == let


@pytest.mark.parametrize("name", ["parity", "join"])
def test_each_term_object_is_encoded_once_per_label_of_its_leaves(name, monkeypatch):
    program = parse_program(load_program(name), name)
    dropped = []
    original = reflect.drop
    monkeypatch.setattr(reflect, "drop", lambda t: dropped.append(t) or original(t))
    build_self_tree(program.signature, program.rule)
    pairs, lets, rules = _leaf_terms(program.rule)
    term_ids = {i for _, i in pairs}
    assert Counter(id(t) for t in dropped if id(t) in term_ids) == Counter(i for _, i in pairs)
    # a LET's variable is a term made at encoding, once per LET object
    made = [t for t in dropped if id(t) not in term_ids]
    assert len(made) == lets and all(isinstance(t, Variable) for t in made)
    # so it is no key: every key of the encode map is a part of the rule, which keeps its id
    reflect._encode_rule(program.rule, keys := {})
    assert {k if type(k) is int else k[1] for k in keys} <= term_ids | rules


def test_a_term_that_is_a_condition_and_an_argument_gets_a_leaf_of_each_label():
    cond = Equality(FunctionApp("a0"), Constant(Atom("p")))
    shared = If(cond, Assign("flag", (), cond), Par(()))
    apart = If(cond, Assign("flag", (), Equality(FunctionApp("a0"), Constant(Atom("p")))), Par(()))
    assert reflect.encode_rule(shared) == reflect.encode_rule(apart)


def test_join_program_parses_and_declares_projections():
    machine = parse(load_program("join"), "join")
    state = machine.initial_state
    assert dict(state.background.projections) == {"hatR1": "R1", "hatR2": "R2"}
    sig = decode_signature(signature_of_self(state.self_tree))
    assert sig.arity_of("index") == 2
    assert sig.arity_of("R1") == 2
    assert sig.arity_of("hatR1") == 3


def test_initial_self_tree_matches_parsed_sections():
    src = """
DOMAINS
  D = {a, b}
SIGNATURE
  mode/0
  f/1
INIT
  mode = start
RULE
  IF mode = start THEN f(a) := 1 ENDIF
"""
    program = parse_program(src, "t")
    machine = parse(src, "t")
    tree = machine.initial_state.self_tree
    assert decode_signature(signature_of_self(tree)) == program.signature
    assert decode_rule(rule_of_self(tree)) == program.rule


def test_projection_evaluates_as_derived_function():
    from rsasm.structures import eval_term, FunctionApp, Constant

    machine = parse(load_program("join"), "join")
    state = machine.initial_state
    term = FunctionApp(
        "hatR1",
        (Constant(Atom("attrB")), Constant(Atom("d0")), Constant(Atom("d1"))),
    )
    assert eval_term(state, term) == Atom("d1")
    missing = FunctionApp(
        "hatR1",
        (Constant(Atom("attrB")), Constant(Atom("d1")), Constant(Atom("d1"))),
    )
    assert eval_term(state, missing) is UNDEF


def test_projection_targets_are_read_only():
    src = """
SIGNATURE
  index/2
  R1/1
  hatR1/2
PROJECTIONS
  hatR1 = R1
RULE
  hatR1(a, b) := c
"""
    machine = parse(src, "t")
    from rsasm.errors import RuleError
    from rsasm.reflect import rule_of_self
    from rsasm.rules import compute_update_multiset

    rule = decode_rule(rule_of_self(machine.initial_state.self_tree))
    with pytest.raises(RuleError):
        compute_update_multiset(rule, machine.initial_state)


def test_pretty_print_parse_fixpoint_on_bundled_programs():
    for name in ("parity", "join"):
        machine = parse(load_program(name), name)
        printed = machine_to_source(machine)
        reparsed = parse(printed, name)
        assert reparsed.initial_state == machine.initial_state
        assert reparsed.max_steps == machine.max_steps
        # a second round stays stable
        assert machine_to_source(reparsed) == printed


@pytest.mark.parametrize(
    "rule",
    [
        "x := label_hedge(a, f(1))",
        "LET t = leaf(k, 1) IN\n    x := label_hedge(a, t)",
        "x := label_hedge(b, concat(leaf(k, 2), leaf(k, 3)))",
        "x := label_hedge(a, leaf(k, g))",
    ],
)
def test_pretty_print_parse_fixpoint_on_a_tree_whose_child_is_no_tree_literal(rule):
    # inside <…> a child reads back only as XI, l<…>, l(t) or l; anything else prints as a call
    machine = parse(f"SIGNATURE\n  x/0\n  f/1\n  g/0\nRULE\n  {rule}\n")
    printed = machine_to_source(machine)
    assert "label_hedge(" in printed
    reparsed = parse(printed)
    assert reparsed.initial_state == machine.initial_state
    assert machine_to_source(reparsed) == printed


@pytest.mark.parametrize("rule", ["x := RAISE(1)", "x := XI", "f(g) <=[+] 1", "x := D"])
def test_pretty_print_parse_fixpoint_on_rules_the_bundled_programs_do_not_write(rule):
    # ``D`` reads as a constant set, which prints as the name of the domain it equals
    machine = parse(f"DOMAINS\n  D = {{d0, d1}}\nSIGNATURE\n  x/0\n  f/1\n  g/0\nRULE\n  {rule}\n")
    printed = machine_to_source(machine)
    assert f"RULE\n  {rule}\n" in printed
    reparsed = parse(printed)
    assert reparsed.initial_state == machine.initial_state
    assert machine_to_source(reparsed) == printed


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse("SIGNATURE\n  f/1\nRULE\n  f(a := 1\n", "bad")
    assert "line" in str(exc.value)


def test_shadowing_is_rejected():
    src = """
SIGNATURE
  card/0
RULE
  LET x = 1 IN
    LET x = 2 IN
      card := x
"""
    with pytest.raises(ParseError):
        parse(src, "shadow")


def test_arity_mismatch_rejected_at_parse_time():
    src = """
SIGNATURE
  f/2
RULE
  f(a) := 1
"""
    with pytest.raises(ParseError):
        parse(src, "arity")


def test_unbounded_comprehension_rejected():
    src = """
SIGNATURE
  card/0
RULE
  card := CARD({x IN NOWHERE | x = a})
"""
    with pytest.raises(ParseError):
        parse(src, "unbounded")


def test_iota_requires_declared_domain():
    src = """
SIGNATURE
  card/0
RULE
  card := IOTA x IN NOWHERE . x = a
"""
    with pytest.raises(ParseError):
        parse(src, "iota")


def test_self_cannot_be_declared_or_initialized():
    with pytest.raises(ParseError):
        parse("SIGNATURE\n  self/0\nRULE\n  PAR ENDPAR\n", "t")
    with pytest.raises(ParseError):
        parse("SIGNATURE\n  f/0\nINIT\n  self = 1\nRULE\n  PAR ENDPAR\n", "t")


def test_options_and_env_cap():
    machine = parse(MINIMAL, "t")
    assert machine.max_steps == 1000
    machine = parse(MINIMAL + "OPTIONS\n  max_steps = 3\n", "t")
    assert machine.max_steps == 3
    with pytest.raises(ParseError, match="unknown option 'seed'"):
        parse(MINIMAL + "OPTIONS\n  seed = 3\n", "t")


def test_init_literals_resolve_symbols_and_atoms():
    src = """
SIGNATURE
  index/2
  R1/1
RULE
  PAR ENDPAR
INIT
"""
    # INIT must precede RULE
    with pytest.raises(ParseError):
        parse(src, "order")
    good = """
SIGNATURE
  index/2
  R1/1
INIT
  index(R1, attrA) = 1
RULE
  PAR ENDPAR
"""
    machine = parse(good, "t")
    loc = Location("index", (SymbolName("R1"), Atom("attrA")))
    assert machine.initial_state.value_at(loc) == NatVal(1)


# -- command line ---------------------------------------------------------------


def _program_path(name):
    from importlib import resources

    return str(resources.files("rsasm").joinpath("programs").joinpath(f"{name}.rsasm"))


def test_cli_run_parity(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code = cli_main(["run", _program_path("parity"), "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: fixpoint" in out
    assert "parity = 1" in out
    payload = json.loads(trace_path.read_text())
    assert payload["status"] == "fixpoint"
    assert len(payload["steps"]) == 4


def test_cli_check_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.rsasm"
    bad.write_text("SIGNATURE\n  f/\nRULE\n  PAR ENDPAR\n")
    code = cli_main(["check", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err
    good = tmp_path / "good.rsasm"
    good.write_text(MINIMAL)
    assert cli_main(["check", str(good)]) == 0


def test_cli_diff_self_prints_right_extend(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert cli_main(["diff-self", str(trace_path), "0", "1"]) == 0
    theta_text = capsys.readouterr().out
    assert "right_extend" in theta_text
    assert "FunctionApp(" not in theta_text and "Equality(" not in theta_text


@pytest.mark.parametrize("name", ["parity", "join"])
def test_cli_diff_self_prints_the_tree_difference_of_the_run(tmp_path, capsys, name):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path(name), "--trace", str(trace_path)]) == 0
    trace = run(parse(load_program(name)))
    points = [trace.initial_state.self_tree] + [s.after.self_tree for s in trace.steps]
    capsys.readouterr()
    for k, tree in enumerate(points):
        assert cli_main(["diff-self", str(trace_path), "0", str(k)]) == 0
        assert capsys.readouterr().out == repr(tree_diff(points[0], tree)) + "\n", (name, k)


def test_cli_diff_self_rejects_a_point_outside_the_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    for i, j in (("0", "9"), ("-1", "1")):
        assert cli_main(["diff-self", str(trace_path), i, j]) == 2
        assert capsys.readouterr().err.startswith("error: trace has 4 steps, no index ")


@pytest.mark.parametrize("fmt", [3, 4, 5, 6, 7])
def test_cli_diff_self_refuses_a_format_3_trace(tmp_path, capsys, fmt):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    trace_obj = json.loads(trace_path.read_text())
    trace_path.write_text(json.dumps(dict(trace_obj, format=fmt)))
    capsys.readouterr()
    assert cli_main(["diff-self", str(trace_path), "0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: not a format 8 trace (format: {fmt})\n"
    assert captured.out == ""


def test_cli_reports_unreadable_input_and_output_without_a_traceback(tmp_path, capsys):
    not_utf8 = tmp_path / "latin.rsasm"
    not_utf8.write_bytes(b"SIGNATURE\n  x/0\nRULE\n  x := \xff\xfe\n")
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    trace_obj = json.loads(trace_path.read_text())
    _self_update(trace_obj)["value"] = "VALUE"
    deep = '{"tuple": [' * 3000 + "]}" * 3000  # too deep for json.dumps too
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(trace_obj).replace('"VALUE"', deep))
    unwritable = str(tmp_path / "no" / "such" / "dir" / "t.json")
    fresh = tmp_path / "fresh.json"
    stale = tmp_path / "stale.json"
    stale.write_text('{"old": 1}')
    unfinished = tmp_path / "unfinished.rsasm"
    unfinished.write_text("SIGNATURE\n  x/0\nRULE\n  x := ")
    at_line_4 = f"{not_utf8}: not UTF-8 at byte 0xff (line 4, column 8)"
    cases = (  # each command, its exit code and what its error line names
        (["run", str(not_utf8)], 2, at_line_4),
        (["check", str(not_utf8)], 1, at_line_4),
        (["run", str(not_utf8), "--trace", str(fresh)], 2, at_line_4),
        (["run", _program_path("parity"), "--trace", unwritable], 2, unwritable),
        (["run", str(not_utf8), "--trace", unwritable], 2, unwritable),  # before the parse
        (["run", str(unfinished), "--trace", str(stale)], 2, "unexpected end of input"),
        (["run", str(unfinished), "--trace", str(unfinished)], 2, "is the program file"),
        (["diff-self", str(nested), "0", "1"], 2, "nested too deeply"),
    )
    capsys.readouterr()
    for argv, code, named in cases:
        assert cli_main(argv) == code, argv
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert named in err and "Traceback" not in err, argv
        assert captured.out == "", argv
    assert not fresh.exists()  # the trace path was checked, but nothing ran
    assert not stale.exists()  # an earlier run's trace does not pass for this one's
    assert unfinished.exists()  # the program is never taken for a stale trace


def _sealed(damage):
    """``damage``, then the digest recomputed, so that the damage itself is what replay meets."""

    def sealed(trace_obj):
        damage(trace_obj)
        _resealed(trace_obj)

    return sealed


# Changes that leave a consistent trace, so that only its digest shows them.
_CHANGED_TRACES = {
    "self_value_names_another_tree": TAMPERED_TRACES["self_update_names_another_tree"],
    "relabelled_node": TAMPERED_TRACES["relabelled_node"],
}
# Damage that replay meets in a resealed trace.
_DAMAGED_TRACES = {
    "self_value_not_a_tree": lambda obj: _self_update(obj).update(value={"atom": "other"}),
    "format_1": lambda obj: obj.update(format=1),
    "no_format": lambda obj: obj.pop("format"),
    "no_updates": lambda obj: obj["steps"][0].pop("updates"),
    "later_child_id": lambda obj: _initial_root(obj)[-1].append(len(obj["nodes"])),
    "negative_child_id": lambda obj: _initial_root(obj)[-1].__setitem__(0, -1),
    "empty_node_table": lambda obj: obj.update(nodes=[]),
    "negative_tree_id": lambda obj: obj["initial"]["self"].update(tree=-1),
    "out_of_range_tree_id": lambda obj: obj["initial"]["self"].update(tree=len(obj["nodes"])),
    "bool_tree_id": lambda obj: obj["initial"]["self"].update(tree=True),
    "string_tree_id": lambda obj: obj["initial"]["self"].update(tree="0"),
    "zero_count": lambda obj: obj["steps"][0]["shared"][0].update(count=0),
    "bool_count": lambda obj: obj["steps"][0]["shared"][0].update(count=True),
}


@pytest.mark.parametrize(
    "damage",
    [*_CHANGED_TRACES.values(), *map(_sealed, _DAMAGED_TRACES.values())],
    ids=[*_CHANGED_TRACES, *_DAMAGED_TRACES],
)
def test_cli_diff_self_rejects_a_damaged_trace_without_a_traceback(tmp_path, capsys, damage):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    trace_obj = json.loads(trace_path.read_text())
    damage(trace_obj)
    trace_path.write_text(json.dumps(trace_obj))
    capsys.readouterr()
    assert cli_main(["diff-self", str(trace_path), "0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("tamper", TAMPERED_TRACES.values(), ids=TAMPERED_TRACES.keys())
def test_cli_diff_self_reports_a_changed_trace_by_its_digest(tmp_path, capsys, tamper):
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", _program_path("parity"), "--trace", str(trace_path)]) == 0
    trace_obj = json.loads(trace_path.read_text())
    tamper(trace_obj)
    trace_path.write_text(json.dumps(trace_obj))
    capsys.readouterr()
    assert cli_main(["diff-self", str(trace_path), "0", "1"]) == 2
    captured = capsys.readouterr()
    if "digest" in trace_obj:
        said = "the trace does not match its digest"
    else:
        said = "malformed trace: KeyError: 'digest'"
    assert captured.err == f"error: {said}\n"
    assert captured.out == ""


def test_cli_run_reports_a_broken_self_shape_without_a_traceback(tmp_path, capsys):
    program = tmp_path / "shape.rsasm"
    program.write_text(SHAPE_BREAKING_PROGRAM)
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", str(program), "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert "status: error after 0 step(s)" in captured.out
    assert captured.err == (
        "error: step 1: step left self without the self-representation shape\n"
    )
    assert json.loads(trace_path.read_text())["status"] == "error"


def test_a_state_whose_self_tree_swaps_its_regions_cannot_be_built():
    # the signature a state has is decoded from its self tree, so a self tree
    # with its rule region before its signature region makes no state
    state = parse("SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  x := 1\n", "swapped").initial_state
    sig, wrapper = state.self_tree.children
    swapped = {**state.interp, SELF_LOCATION: TreeValue(Tree("self", (wrapper, sig)))}
    expected = "expected self<signature<...>, rule<R>>, found self<rule, signature>"
    with pytest.raises(ReflectError, match=re.escape(expected)):
        dataclasses.replace(state, interp=swapped)


# Programs that crashed ``rsasm run`` with a traceback: one writes a ``let``
# with an empty variable slot into its own rule, one nests its rule one level
# deeper each step, and one builds a value too deep to print.
EMPTY_LET_SLOT_PROGRAM = """
SIGNATURE
  mode/0
  x/0
INIT
  mode = init
RULE
  IF mode = init THEN
    PAR
      LET o = child_n(child_n(child_n(child_n(root_node(), 2), 1), 2), 1) IN
        o <=[right_extend] rule<let<term<>, term(1), rule<par<>>>>
      mode := go
    ENDPAR
  ELSE
    x := 1
  ENDIF
"""

SELF_NESTING_PROGRAM = """
SIGNATURE
  n/0
INIT
  n = 0
RULE
  PAR
    n := n + 1
    LET o = child_n(child_n(root_node(), 2), 1) IN
      o := label_hedge(par, label_hedge(rule, subtree(o)))
  ENDPAR
OPTIONS
  max_steps = 1000
"""

DEEP_VALUE_PROGRAM = """
SIGNATURE
  x/0
INIT
  x = 0
RULE
  x := leaf(a, x)
OPTIONS
  max_steps = 600
"""

# Each case's program and its error line.
RUN_ERRORS = {
    "empty_let_slot": (
        EMPTY_LET_SLOT_PROGRAM,
        "step 2: let variable slot must hold a name (at node@1.0.1.0.2.0.0)",
    ),
    "self_nesting": (
        SELF_NESTING_PROGRAM,
        f"step {MAX_NESTING}: rule nested deeper than {MAX_NESTING} levels",
    ),
    "too_deep_to_print": (
        DEEP_VALUE_PROGRAM,
        "the run ended max_steps after 600 step(s), but a value is nested too deeply to print",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_ERRORS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_run_reports_a_malformed_or_unprintable_run_without_a_traceback(
    case, fmt, tmp_path, capsys
):
    source, error = RUN_ERRORS[case]
    program, trace_path = tmp_path / "program.rsasm", tmp_path / "trace.json"
    program.write_text(source)
    if case == "too_deep_to_print" and fmt == "json":  # a stale trace from an earlier run
        trace_path.write_text('{"old": 1}')
    argv = ["run", str(program), "--format", fmt, "--trace", str(trace_path)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert "Traceback" not in captured.out + captured.err
    if case == "too_deep_to_print":
        assert captured.out == "" and not trace_path.exists()
        return
    assert json.loads(trace_path.read_text())["status"] == "error"
    if case == "self_nesting":
        assert cli_main(["diff-self", str(trace_path), "0", str(MAX_NESTING - 1)]) == 0


def test_cli_run_prints_values_in_program_syntax(tmp_path, capsys):
    program = tmp_path / "dropped.rsasm"
    program.write_text(
        "SIGNATURE\n  t/0\n  m/0\n  f/1\nRULE\n  PAR\n"
        "    t := leaf(a, DROP(m = 0))\n    f(DROP(m = 0)) := 1\n  ENDPAR\n"
    )
    assert cli_main(["run", str(program), "--max-steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "  t = leaf(a, DROP(m = 0))\n" in out
    assert "  f(DROP(m = 0)) = 1\n" in out
    assert "Equality(" not in out and "FunctionApp(" not in out


def test_cli_dump_self(capsys):
    code = cli_main(["run", _program_path("parity"), "--dump-self", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("self<signature<")
    assert "bool(DROP(mode = init))" in out
    assert "FunctionApp(" not in out and "Equality(" not in out


def test_cli_probe(capsys):
    assert cli_main(["probe", "--trials", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "bounded_exploration: 20 trials, ok" in out
    assert "isomorphism_closure: 20 trials, ok" in out


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "trials, message",
    [("-1", "expected at least 1, got -1"), ("0", "expected at least 1, got 0"), ("two", "invalid count value: 'two'")],
)
def test_cli_probe_rejects_fewer_than_one_trial(trials, message, capsys):
    err = _usage_error(["probe", "--trials", trials], capsys)
    assert f"argument --trials: {message}" in err


@pytest.mark.parametrize("steps", ["-3", "-1"])
def test_cli_run_rejects_a_negative_step_cap(steps, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    argv = ["run", _program_path("parity"), "--max-steps", steps, "--trace", str(trace_path)]
    err = _usage_error(argv, capsys)
    assert f"argument --max-steps: expected at least 0, got {steps}" in err
    assert not trace_path.exists()
    assert cli_main(["run", _program_path("parity"), "--max-steps", "0"]) == 0
    assert capsys.readouterr().out.startswith("status: max_steps after 0 step(s)")


def test_cli_run_exits_1_on_a_clash(tmp_path, capsys):
    clashing = tmp_path / "clash.rsasm"
    clashing.write_text(
        "SIGNATURE\n  card/0\nINIT\n  card = 0\n"
        "RULE\n  PAR\n    card := 1\n    card := 2\n  ENDPAR\n"
        "OPTIONS\n  max_steps = 5\n"
    )
    code = cli_main(["run", str(clashing)])
    capsys.readouterr()
    assert code == 1


def test_cli_run_prints_the_reason_of_a_stalled_clash(tmp_path, capsys):
    stalling = tmp_path / "stall.rsasm"
    stalling.write_text(
        "SIGNATURE\n  f/1\nRULE\n  PAR\n    f(a) := 1\n    f(a) := 2\n  ENDPAR\n"
    )
    trace_path = tmp_path / "trace.json"
    assert cli_main(["run", str(stalling), "--trace", str(trace_path)]) == 1
    assert capsys.readouterr().err == (
        "error: clash_stall\nclash at f(a): two plain updates write different values\n"
    )
    trace_obj = json.loads(trace_path.read_text())
    assert trace_obj["detail"] == "clash_stall"
    assert trace_obj["steps"][-1]["clash"]["reason"] == "two plain updates write different values"


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rsasm.cli", "check", _program_path("join")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_run_reports_a_program_fault_without_a_traceback(tmp_path, capsys):
    faulty = tmp_path / "faulty.rsasm"
    faulty.write_text(FAULTY_PROGRAM)
    assert cli_main(["run", str(faulty)]) == 1
    captured = capsys.readouterr()
    assert "status: error after 0 step(s)" in captured.out
    assert captured.err == "error: step 1: + expects a natural number, got foo\n"
    proc = subprocess.run(
        [sys.executable, "-m", "rsasm.cli", "run", str(faulty)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "step 1: + expects a natural number" in proc.stderr


def test_cli_run_json_format(capsys):
    code = cli_main(["run", _program_path("parity"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "fixpoint"
    locations = {tuple(loc["args"] and [a.get("atom") for a in loc["args"]] or []) or loc["symbol"]: None
                 for loc, _ in [(entry[0], entry[1]) for entry in payload["final"]["locations"]]}
    symbols = {entry[0]["symbol"] for entry in payload["final"]["locations"]}
    assert {"card", "parity", "self"} <= symbols


def test_cli_run_json_writes_the_final_self_tree_as_a_node_table(capsys):
    assert cli_main(["run", _program_path("join"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (value,) = [v for loc, v in payload["final"]["locations"] if loc["symbol"] == "self"]
    final = run(parse(load_program("join"))).final_state.self_tree
    assert trees_from_table(payload["final"]["nodes"])[value["tree"]] == final


def _base_from_self(program: ProgramSource) -> frozenset:
    """The atoms of a program's domains, initial values and encoded self tree."""
    atoms: set = set()
    for members in program.domains.values():
        for m in members:
            _collect_atoms_value(m, atoms)
    for loc, value in program.init.items():
        for v in loc.args + (value,):
            _collect_atoms_value(v, atoms)
    _collect_atoms_value(TreeValue(build_self_tree(program.signature, program.rule)), atoms)
    return frozenset(atoms)


def _base_programs():
    for name in ("parity", "join"):
        yield parse_program(load_program(name), name)
    rng = random.Random(7)
    for index in range(5):
        yield parse_program(join_source(JoinCase(rng)), f"join-{index}")
    names = [f"e{i}" for i in range(128)]
    yield parse_program(parity_source(names, frozenset(names[::3])), "parity-128")
    for seed in range(200):
        state = generate.random_machine(random.Random(seed)).initial_state
        rule = decode_rule(rule_of_self(state.self_tree))
        yield ProgramSource({}, state.signature, {}, {}, rule, {}, f"machine-{seed}")


def test_a_machine_base_holds_the_atoms_of_its_encoded_self_tree():
    # atoms are collected from the parsed rule, which the encoding holds in full
    for program in _base_programs():
        base = build_machine(program).initial_state.base
        assert base == _base_from_self(program), program.name


@pytest.mark.parametrize("program", ["parity", "join", "parity-128"])
def test_a_trace_does_not_depend_on_the_hash_seed(program, tmp_path):
    path = tmp_path / f"{program}.rsasm"
    if program == "parity-128":
        names = [f"e{i}" for i in range(128)]
        path.write_text(parity_source(names, frozenset(names[::3])))
    else:
        path.write_text(load_program(program))
    traces = []
    for seed in ("1", "3"):
        trace_path = tmp_path / f"trace_{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rsasm.cli", "run", str(path), "--trace", str(trace_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        traces.append(trace_path.read_bytes())
    assert traces[0] == traces[1]  # node ids follow write order, which no hash decides
    assert json.loads(traces[0])["status"] == "fixpoint"


# -- nesting cap ------------------------------------------------------------------


def _nested_ifs(n: int) -> str:
    """``n`` nested IFs around one assignment; its right side nests ``n + 2`` deep."""
    body = "x := 1"
    for _ in range(n):
        body = f"IF x = 0 THEN {body} ENDIF"
    return f"SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  {body}\n"


def _nested_sums(n: int) -> str:
    """``x := (1 + (1 + ... 1))`` with ``n`` parentheses under one IF: nesting ``n + 3``."""
    sum_text = "(1 + " * n + "1" + ")" * n
    return f"SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  IF x = 0 THEN x := {sum_text} ENDIF\n"


def _sum_chain(n: int) -> str:
    """``x := 1 + 1 + ... + 1`` with ``n`` operands under one IF: nesting ``n + 1``."""
    chain = " + ".join(["1"] * n)
    return f"SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  IF x = 0 THEN x := {chain} ENDIF\n"


def _comprehension(n: int) -> str:
    """A set comprehension over a domain of ``n`` members."""
    members = ", ".join(f"e{i}" for i in range(n))
    return f"DOMAINS\n  D = {{{members}}}\nSIGNATURE\n  s/0\nRULE\n  s := {{y IN D | y = e1}}\n"


DEEP_PROGRAMS = {
    "ifs": _nested_ifs(1000),
    "parentheses": "SIGNATURE\n  x/0\nRULE\n  x := " + "(" * 1000 + "1" + ")" * 1000 + "\n",
    "sum_chain": _sum_chain(1000),
    "comprehension": _comprehension(1000),
}


@pytest.mark.parametrize("kind", sorted(DEEP_PROGRAMS))
def test_deep_nesting_is_a_parse_error(kind):
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as info:
        parse(DEEP_PROGRAMS[kind])
    assert info.value.line is not None and info.value.column is not None


@pytest.mark.parametrize("kind", sorted(DEEP_PROGRAMS))
def test_cli_check_rejects_deep_nesting_without_a_traceback(kind, tmp_path):
    deep = tmp_path / "deep.rsasm"
    deep.write_text(DEEP_PROGRAMS[kind])
    proc = subprocess.run(
        [sys.executable, "-m", "rsasm.cli", "check", str(deep)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"nesting deeper than {MAX_NESTING} levels" in proc.stderr


def _connective_chain(op: str, flags: list[str]) -> str:
    """``x := f1 op f2 op ...`` under one IF: a flat chain, so one nesting level."""
    chain = f" {op} ".join(flags)
    return f"SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  IF x = 0 THEN x := {chain} ENDIF\n"


LONG_CONNECTIVES = {
    "and": (_connective_chain("AND", ["true"] * 1000), "true"),
    "or": (_connective_chain("OR", ["false"] * 999 + ["true"]), "true"),
    "and_undef": (_connective_chain("AND", ["true"] * 999 + ["undef"]), "undef"),
}


@pytest.mark.parametrize("kind", sorted(LONG_CONNECTIVES))
def test_a_long_connective_chain_runs_to_fixpoint(kind, tmp_path):
    source, final = LONG_CONNECTIVES[kind]
    trace = run(parse(source))
    assert trace.status == "fixpoint"
    assert repr(trace.final_state.value_at(Location("x"))) == final
    assert json.loads(trace.to_json())["status"] == "fixpoint"
    program = tmp_path / "chain.rsasm"
    program.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "rsasm.cli", "run", str(program)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_programs_at_the_nesting_cap_parse_run_and_serialize_their_trace():
    ifs, sums = MAX_NESTING - 2, MAX_NESTING - 3
    for source, x in ((_nested_ifs(ifs), 1), (_nested_sums(sums), sums + 1)):
        trace = run(parse(source))
        assert trace.status == "fixpoint"
        assert trace.final_state.value_at(Location("x")) == NatVal(x)
        assert json.loads(trace.to_json())["status"] == "fixpoint"
    for too_deep in (_nested_ifs(ifs + 1), _nested_sums(sums + 1)):
        with pytest.raises(ParseError):
            parse(too_deep)


RULE_NESTINGS = {
    "if": "IF x = 0 THEN {body} ENDIF",
    "par": "PAR {body} ENDPAR",
    "let": "LET v{i} = x IN {body}",
}


def _nested_rules(wrap: str, levels: int) -> str:
    """``levels`` rules, each but the innermost (an empty PAR) wrapping the next in ``wrap``."""
    body = "PAR ENDPAR"
    for i in range(levels - 1):
        body = wrap.format(i=i, body=body)
    return f"SIGNATURE\n  x/0\nINIT\n  x = 0\nRULE\n  {body}\n"


@pytest.mark.parametrize("kind", sorted(RULE_NESTINGS))
def test_every_program_at_the_rule_nesting_cap_decodes(kind):
    source = _nested_rules(RULE_NESTINGS[kind], MAX_NESTING)
    machine = parse(source)
    rule_tree = rule_of_self(machine.initial_state.self_tree)
    assert rule_tree.depth == 2 * (MAX_NESTING - 1)  # a wrapper and a rule per level below the root
    assert decode_rule(rule_tree) == parse_program(source).rule
    assert run(machine).status == "fixpoint"
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse(_nested_rules(RULE_NESTINGS[kind], MAX_NESTING + 1))


RAISED_DEEP_TREE_PROGRAM = """
SIGNATURE
  x/0
  y/0
  n/0
INIT
  n = 0
RULE
  PAR
    n := n + 1
    IF n = 0 THEN x := par<> ELSE
      IF n = 600 THEN y := RAISE(x) ELSE x := label_hedge(par, label_hedge(rule, x)) ENDIF
    ENDIF
  ENDPAR
"""


def test_raising_a_value_tree_built_over_600_steps_ends_the_run_in_error():
    trace = run(parse(RAISED_DEEP_TREE_PROGRAM))
    assert (trace.status, len(trace.steps)) == ("error", 600)
    assert trace.detail == f"step 601: rule nested deeper than {MAX_NESTING} levels"
    x = trace.final_state.value_at(Location("x"))
    assert x.tree.depth == 2 * 599


RAISED_LABEL_CHAIN_PROGRAM = """
SIGNATURE
  x/0
  y/0
  n/0
INIT
  n = 0
RULE
  PAR
    n := n + 1
    IF n = 0 THEN x := a<> ELSE
      IF n = {levels} THEN y := RAISE(x) ELSE x := label_hedge(a, x) ENDIF
    ENDIF
  ENDPAR
"""


@pytest.mark.parametrize("levels", [100, 300])
def test_raising_a_label_chain_names_its_root_label_at_any_depth(levels):
    trace = run(parse(RAISED_LABEL_CHAIN_PROGRAM.replace("{levels}", str(levels))))
    assert (trace.status, len(trace.steps)) == ("error", levels)
    assert trace.detail == f"step {levels + 1}: label 'a' does not start a rule encoding (at node@)"
    assert trace.final_state.value_at(Location("x")).tree.depth == levels - 1


def test_a_sum_chain_at_the_nesting_cap_parses_runs_and_serializes_its_trace():
    operands = MAX_NESTING - 1
    trace = run(parse(_sum_chain(operands)))
    assert trace.status == "fixpoint"
    assert trace.final_state.value_at(Location("x")) == NatVal(operands)
    assert json.loads(trace.to_json())["status"] == "fixpoint"
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse(_sum_chain(operands + 1))


# Programs whose faults and clashes carry terms, trees and node paths in their text.
DROPPED_OPERAND_PROGRAM = """
SIGNATURE
  x/0
  m/0
INIT
  x = 0
RULE
  x <=[+] DROP(m = 0)
"""

CARD_OF_TREE_PROGRAM = """
SIGNATURE
  n/0
  x/0
RULE
  n := CARD(leaf(a, DROP(x = 0)))
"""

TREE_CONDITION_PROGRAM = """
SIGNATURE
  n/0
  x/0
RULE
  IF leaf(a, DROP(x = 0)) THEN
    n := 1
  ENDIF
"""

NODE_CLASH_PROGRAM = """
SIGNATURE
  n/0
RULE
  LET o = child_n(root_node(), 1) IN
    PAR
      o := a<>
      o := b<>
    ENDPAR
"""


def _run_with_trace(tmp_path, source):
    program = tmp_path / "program.rsasm"
    program.write_text(source)
    trace_path = tmp_path / "trace.json"
    code = cli_main(["run", str(program), "--trace", str(trace_path)])
    return code, trace_path.read_text()


def test_a_node_clash_names_the_node_in_the_trace(tmp_path, capsys):
    code, trace_text = _run_with_trace(tmp_path, NODE_CLASH_PROGRAM)
    assert code == 1
    clash = json.loads(trace_text)["steps"][-1]["clash"]
    assert clash["reason"] == "conflicting writes at node@0 of self"
    assert capsys.readouterr().err == (
        "error: clash_stall\nclash at self: conflicting writes at node@0 of self\n"
    )


# Two writes of different trees at node@0 and two at node@1.0 of self.
WRITES_AT_0 = (
    "    LET o = child_n(root_node(), 1) IN\n      o := signature<>\n"
    "    LET o = child_n(root_node(), 1) IN\n      o := sig<>\n"
)
WRITES_AT_1_0 = (
    "    LET o = child_n(child_n(root_node(), 2), 1) IN\n      o := par<>\n"
    "    LET o = child_n(child_n(root_node(), 2), 1) IN\n      o := pa<>\n"
)


@pytest.mark.parametrize(
    "writes, named",
    [((WRITES_AT_0, WRITES_AT_1_0), "node@0"), ((WRITES_AT_1_0, WRITES_AT_0), "node@1.0")],
    ids=["node_0_first", "node_1_0_first"],
)
def test_a_clash_reason_does_not_depend_on_the_hash_seed(writes, named, tmp_path):
    program = tmp_path / "clashes.rsasm"
    program.write_text("SIGNATURE\n  n/0\nRULE\n  PAR\n" + "".join(writes) + "  ENDPAR\n")
    traces = []
    for seed in ("1", "3"):
        trace_path = tmp_path / f"trace_{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rsasm.cli", "run", str(program), "--trace", str(trace_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 1
        traces.append(trace_path.read_bytes())
    assert traces[0] == traces[1]  # the same bytes under either hash seed
    clash = json.loads(traces[0])["steps"][-1]["clash"]
    assert clash["reason"] == f"conflicting writes at {named} of self"  # the first pair


@pytest.mark.parametrize(
    "source",
    [
        DROPPED_OPERAND_PROGRAM,
        CARD_OF_TREE_PROGRAM,
        TREE_CONDITION_PROGRAM,
        NODE_CLASH_PROGRAM,
        FAULTY_PROGRAM,
        SHAPE_BREAKING_PROGRAM,
    ],
    ids=["dropped_operand", "card_of_tree", "tree_condition", "node_clash", "faulty", "shape"],
)
def test_messages_and_traces_print_no_dataclass_repr(source, tmp_path, capsys):
    code, trace_text = _run_with_trace(tmp_path, source)
    captured = capsys.readouterr()
    assert code == 1
    dataclass_repr = re.compile(r"\b[A-Z]\w*\(\w+=")
    for text in (captured.out, captured.err, trace_text):
        assert not dataclass_repr.search(text), text


def test_a_dropped_operand_clash_prints_the_term_in_program_syntax(tmp_path, capsys):
    _, trace_text = _run_with_trace(tmp_path, DROPPED_OPERAND_PROGRAM)
    clash = json.loads(trace_text)["steps"][-1]["clash"]
    assert clash["reason"] == "+ expects a natural number, got DROP(m = 0)"
    assert capsys.readouterr().err.endswith(
        "clash at x: + expects a natural number, got DROP(m = 0)\n"
    )


def test_a_printed_leaf_application_reparses_and_runs_alike(tmp_path, capsys):
    machine = parse("SIGNATURE\n  t/0\nRULE\n  t := leaf(a, 1)\nOPTIONS\n  max_steps = 3\n")
    printed = machine_to_source(machine)
    assert "t := leaf(a, 1)" in printed
    reparsed = parse(printed)
    original, again = run(machine), run(reparsed)
    # the step writes t again each time, so both runs end at the step cap, not in an error
    assert (again.status, again.detail) == (original.status, original.detail) == ("max_steps", "")
    t = original.final_state.value_at(Location("t"))
    assert again.final_state.value_at(Location("t")) == t
    # the value prints as the same application, and so does a leaf inside a tree literal
    path = tmp_path / "leaf.rsasm"
    path.write_text(printed)
    assert cli_main(["run", str(path)]) == 0
    assert "  t = leaf(a, 1)\n" in capsys.readouterr().out
    nested = parse("SIGNATURE\n  t/0\nRULE\n  t := b<a(1), c<d(2)>>\n")
    assert "t := b<a(1), c<d(2)>>" in machine_to_source(nested)
    assert repr(run(nested).final_state.value_at(Location("t"))) == "b<a(1), c<d(2)>>"


@pytest.mark.parametrize(
    "hedge",
    [
        "concat(a<>, b<>)",
        "concat(concat(a<>, b<>), c<>)",
        "concat(a<b<>>, concat(XI, d<e<>, f<>>))",
    ],
)
def test_a_printed_hedge_parses_back_to_the_same_value(hedge, tmp_path, capsys):
    program = "SIGNATURE\n  h/0\nRULE\n  h := {}\nOPTIONS\n  max_steps = 1\n"
    path = tmp_path / "hedge.rsasm"
    path.write_text(program.format(hedge))
    assert cli_main(["run", str(path)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  h = ")]
    printed = line[len("  h = ") :]
    value = run(parse(program.format(hedge))).final_state.value_at(Location("h"))
    reparsed = run(parse(program.format(printed))).final_state.value_at(Location("h"))
    assert reparsed == value
    assert repr(value) == printed
