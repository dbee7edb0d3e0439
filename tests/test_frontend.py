"""Program parsing, pretty-printing round-trips, and the command line."""

import json
import subprocess
import sys

import pytest

from conftest import FAULTY_PROGRAM
from rsasm.cli import main as cli_main
from rsasm.engine import run
from rsasm.errors import ParseError
from rsasm.frontend import (
    load_program,
    machine_to_source,
    parse,
    parse_program,
)
from rsasm.reflect import decode_rule, decode_signature, rule_of_self, signature_of_self
from rsasm.rules import If, Par
from rsasm.structures import Atom, Location, NatVal, SymbolName, UNDEF


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


def test_options_and_env_cap(monkeypatch):
    machine = parse(MINIMAL, "t")
    assert machine.max_steps == 1000
    monkeypatch.setenv("RSASM_MAX_STEPS", "17")
    machine = parse(MINIMAL, "t")
    assert machine.max_steps == 17
    machine = parse(MINIMAL + "OPTIONS\n  max_steps = 3\n", "t")
    assert machine.max_steps == 3


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


def test_cli_dump_self(capsys):
    code = cli_main(["run", _program_path("parity"), "--dump-self", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("self<signature<")


def test_cli_probe(capsys):
    assert cli_main(["probe", "--trials", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "bounded_exploration: 20 trials, ok" in out
    assert "isomorphism_closure: 20 trials, ok" in out


def test_cli_strict_flags_clash(tmp_path, capsys):
    clashing = tmp_path / "clash.rsasm"
    clashing.write_text(
        "SIGNATURE\n  card/0\nINIT\n  card = 0\n"
        "RULE\n  PAR\n    card := 1\n    card := 2\n  ENDPAR\n"
        "OPTIONS\n  max_steps = 5\n"
    )
    code = cli_main(["run", str(clashing), "--strict"])
    capsys.readouterr()
    assert code == 1


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
