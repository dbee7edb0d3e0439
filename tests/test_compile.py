"""Compiled terms against the type-table interpreter they replaced.

The interpreter below is the evaluator the engine used before terms were
compiled into closures; it stays here as the differential oracle.  The
compiled path must agree with it on the value, on the ``reads`` set, and on
the type and message of any error, for every subterm of every rule, and the
rule walk must yield the same multiset in the same order.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_state
from test_acceptance import JoinCase, join_source
from rsasm import background as bg
from rsasm import generate, structures
from rsasm.engine import run
from rsasm.errors import EvalError, RuleError, SignatureError
from rsasm.frontend import load_program, parse
from rsasm.reflect import decode_rule, raise_, rule_of_self
from rsasm.rules import (
    Assign,
    If,
    Let,
    Par,
    PartialAssign,
    SharedUpdate,
    UpdateMultiset,
    compute_update_multiset,
)
from rsasm.structures import (
    FALSE,
    NODES_DOMAIN,
    SELF_LOCATION,
    TRUE,
    UNDEF,
    Atom,
    BackgroundConfig,
    BoolConnective,
    BoolVal,
    Constant,
    Equality,
    FunctionApp,
    Iota,
    Location,
    NatVal,
    NodeRef,
    State,
    SymbolName,
    Term,
    Update,
    Variable,
    compile_term,
    eval_term,
    term_children,
)

# -- the oracle: the type-table interpreter ----------------------------------------


def interpret(state, term, env=None, reads=None):
    evaluate = _EVALUATORS.get(type(term))
    if evaluate is None:
        raise EvalError(f"unknown term {term!r}")
    return evaluate(state, term, env, reads)


def _eval_constant(state, term, env, reads):
    return term.value


def _eval_variable(state, term, env, reads):
    if env and term.name in env:
        return env[term.name]
    raise EvalError(f"unbound variable {term.name!r}")


def _eval_equality(state, term, env, reads):
    left = interpret(state, term.left, env, reads)
    right = interpret(state, term.right, env, reads)
    return TRUE if left == right else FALSE


def _eval_connective(state, term, env, reads):
    flags = []
    for a in term.operands:
        v = interpret(state, a, env, reads)
        flags.append(v.flag if isinstance(v, BoolVal) else None)
    if term.op == "not":
        return UNDEF if flags[0] is None else FALSE if flags[0] else TRUE
    if term.op == "and":
        if False in flags:
            return FALSE
        return UNDEF if None in flags else TRUE
    if True in flags:
        return TRUE
    return UNDEF if None in flags else FALSE


def _eval_iota(state, term, env, reads):
    if term.domain == NODES_DOMAIN:
        if reads is not None:
            reads.add(SELF_LOCATION)
        members = (NodeRef(path) for path, _ in state.self_tree.preorder())
    else:
        members = state.background.domain(term.domain)
        if members is None:
            raise EvalError(f"unknown search domain {term.domain!r}")
    inner = dict(env) if env else {}
    witnesses = []
    for m in members:
        inner[term.var] = m
        if interpret(state, term.condition, inner, reads) == TRUE:
            witnesses.append(m)
            if len(witnesses) > 1:
                return UNDEF
    return witnesses[0] if witnesses else UNDEF


def _eval_args(state, args, env, reads):
    vals = tuple([interpret(state, a, env, reads) for a in args])
    for v in vals:
        if v is UNDEF:
            return None
    return vals


def _eval_app(state, term, env, reads):
    sym = term.symbol
    arity = state.signature.arity_of(sym)
    if arity is not None:
        if len(term.args) != arity:
            raise SignatureError(f"{sym!r} has arity {arity}, got {len(term.args)} arguments")
        vals = _eval_args(state, term.args, env, reads)
        if vals is None:
            return UNDEF
        base_name = state.background.projection_base(sym)
        if base_name is not None:
            return _eval_projection(state, base_name, vals, reads)
        loc = Location(sym, vals)
        if reads is not None:
            reads.add(loc)
        return state.value_at(loc)

    fn = bg.TERM_FUNCTIONS.get(sym)
    if fn is not None:
        if fn.arity is not None and len(term.args) != fn.arity:
            raise SignatureError(f"background function {sym!r} takes {fn.arity} arguments")
        vals = _eval_args(state, term.args, env, reads)
        if vals is None:
            return UNDEF
        if sym == "raise_eval":  # the raised term is interpreted here too
            raised = raise_(vals[0])
            if not isinstance(raised, Term):
                raise EvalError("RAISE produced a rule; only terms can be evaluated here")
            return interpret(state, raised, None, reads)
        return fn.fn(state, vals, reads)

    raise SignatureError(f"unknown symbol {sym!r}")


def _eval_projection(state, base_name, vals, reads):
    attr, row = vals[0], vals[1:]
    index_loc = Location("index", (SymbolName(base_name), attr))
    member_loc = Location(base_name, row)
    if reads is not None:
        reads.add(index_loc)
        reads.add(member_loc)
    pos = state.value_at(index_loc)
    if not isinstance(pos, NatVal) or not (1 <= pos.n <= len(row)):
        return UNDEF
    if state.value_at(member_loc) != TRUE:
        return UNDEF
    return row[pos.n - 1]


_EVALUATORS = {
    Constant: _eval_constant,
    Variable: _eval_variable,
    Equality: _eval_equality,
    BoolConnective: _eval_connective,
    Iota: _eval_iota,
    FunctionApp: _eval_app,
}


def _target_location(target, args, state, env):
    if env and target in env:
        v = env[target]
        if isinstance(v, NodeRef):
            if args:
                raise RuleError(f"tree-node target {target!r} takes no arguments")
            return v
        raise RuleError(f"bound target {target!r} does not hold a tree node")
    arity = state.signature.arity_of(target)
    if arity is None:
        raise SignatureError(f"unknown update target {target!r}")
    if arity != len(args):
        raise SignatureError(f"{target!r} has arity {arity}, got {len(args)} arguments")
    if state.background.projection_base(target) is not None:
        raise RuleError(f"derived function {target!r} is read-only")
    return Location(target, tuple(interpret(state, a, env) for a in args))


def interpret_rule(rule, state, env=None):
    """The recursive rule walk over the oracle interpreter."""
    if isinstance(rule, Assign):
        loc = _target_location(rule.target, rule.args, state, env)
        return UpdateMultiset((Update(loc, interpret(state, rule.rhs, env)),))
    if isinstance(rule, If):
        cond = interpret(state, rule.cond, env)
        if not isinstance(cond, BoolVal):
            raise RuleError(f"branch condition evaluated to non-Boolean {cond!r}")
        return interpret_rule(rule.then if cond.flag else rule.orelse, state, env)
    if isinstance(rule, Par):
        entries = ()
        for b in rule.branches:
            entries += interpret_rule(b, state, env).entries
        return UpdateMultiset(entries)
    if isinstance(rule, Let):
        inner = dict(env) if env else {}
        inner[rule.var] = interpret(state, rule.bound, env)
        return interpret_rule(rule.body, state, inner)
    if isinstance(rule, PartialAssign):
        if rule.op not in bg.COLLAPSE_OPERATORS:
            raise RuleError(f"operator {rule.op!r} is not registered")
        loc = _target_location(rule.target, rule.args, state, env)
        vals = tuple(interpret(state, a, env) for a in rule.operands)
        return UpdateMultiset((SharedUpdate(loc, rule.op, vals),))
    raise RuleError(f"unknown rule {rule!r}")


# -- agreement ------------------------------------------------------------------------


def _outcome(evaluate):
    """What an evaluation gave: its value, or the type and message of its error."""
    try:
        return ("value", evaluate())
    except Exception as exc:  # the oracle and the compiled path must fail alike
        return ("error", type(exc), str(exc))


def assert_term_agrees(state, term, env=None):
    compiled_reads, oracle_reads = set(), set()
    got = _outcome(lambda: eval_term(state, term, env, compiled_reads))
    want = _outcome(lambda: interpret(state, term, env, oracle_reads))
    assert got == want, term
    assert compiled_reads == oracle_reads, term
    return got


def assert_rule_agrees(rule, state):
    got = _outcome(lambda: compute_update_multiset(rule, state).entries)
    want = _outcome(lambda: interpret_rule(rule, state).entries)
    assert got == want


def _subterms(term):
    yield term
    for child in term_children(term):
        yield from _subterms(child)


def _rule_children(rule):
    """The terms and the subrules of a rule, in source order."""
    if isinstance(rule, Assign):
        return rule.args + (rule.rhs,), ()
    if isinstance(rule, PartialAssign):
        return rule.args + rule.operands, ()
    if isinstance(rule, If):
        return (rule.cond,), (rule.then, rule.orelse)
    if isinstance(rule, Let):
        return (rule.bound,), (rule.body,)
    return (), rule.branches  # Par


def _terms_with_envs(rule, env=None):
    """Every subterm of every term of ``rule``, each branch included, with its Let scope.

    The scope maps each Let-bound variable to its bound term; all the terms of
    one scope share one scope object.
    """
    terms, subrules = _rule_children(rule)
    for term in terms:
        for sub in _subterms(term):
            yield sub, env
    if isinstance(rule, Let):
        yield from _terms_with_envs(rule.body, {**(env or {}), rule.var: rule.bound})
        return
    for sub in subrules:
        yield from _terms_with_envs(sub, env)


def assert_state_agrees(state):
    """The decoded rule of ``state`` and every subterm of it, compiled against the oracle."""
    rule = decode_rule(rule_of_self(state.self_tree))
    assert_rule_agrees(rule, state)
    scopes = {}  # id of a scope -> (the scope, its environment)
    seen = set()
    for term, scope in _terms_with_envs(rule):
        if id(scope) not in scopes:
            # a Let-bound variable holds the oracle's value of its bound term
            env = {}
            for var, bound in (scope or {}).items():
                outcome = _outcome(lambda: interpret(state, bound, env))
                env[var] = outcome[1] if outcome[0] == "value" else UNDEF
            scopes[id(scope)] = (scope, env)
        env = scopes[id(scope)][1]
        if (id(term), id(scope)) not in seen:
            seen.add((id(term), id(scope)))
            assert_term_agrees(state, term, env)


def _states_of_run(machine):
    trace = run(machine)
    return [machine.initial_state] + [record.after for record in trace.steps]


@pytest.mark.parametrize("program", ["parity", "join"])
def test_compiled_terms_agree_with_the_interpreter_on_the_bundled_programs(program):
    for state in _states_of_run(parse(load_program(program))):
        assert_state_agrees(state)


def test_compiled_terms_agree_with_the_interpreter_on_join_draws():
    rng = random.Random(2024)  # criterion 2's draws
    for index in range(4):
        machine = parse(join_source(JoinCase(rng)), f"join-{index}")
        for state in _states_of_run(machine):
            assert_state_agrees(state)


@given(st.integers(0, 2**32 - 1))
def test_compiled_terms_agree_with_the_interpreter_on_generated_machines(seed):
    rng = random.Random(seed)
    machine = generate.random_machine(rng)
    assert_state_agrees(machine.initial_state)
    assert_state_agrees(generate.perturb_state(machine.initial_state, rng))


# -- hand cases -------------------------------------------------------------------------


def _state_with_domains(**domains):
    return make_state(
        {"n0": 0, "a0": 0, "u0": 1},
        {Location("n0"): NatVal(1), Location("a0"): Atom("p")},
        domains=tuple((name, tuple(members)) for name, members in domains.items()),
    )


FAULTY = FunctionApp("+", (FunctionApp("a0"), Constant(NatVal(1))))  # + of an atom


def test_a_hoisted_subterm_that_raises_is_evaluated_only_over_a_non_empty_domain():
    state = _state_with_domains(E=(), D=(NatVal(0), NatVal(2)))
    x = Variable("x")
    for domain in ("E", "D"):
        term = Iota("x", domain, Equality(x, FAULTY))
        outcome = assert_term_agrees(state, term)
        if domain == "E":
            assert outcome == ("value", UNDEF)
        else:
            assert outcome == ("error", EvalError, "+ expects a natural number, got p")


def test_a_hoisted_subterm_raises_only_at_its_first_use():
    # the first conjunct fails before the hoisted one is reached
    state = _state_with_domains(D=(NatVal(0),))
    unbound = Equality(Variable("x"), Variable("y"))
    term = Iota("x", "D", BoolConnective("and", (unbound, Equality(FAULTY, Variable("x")))))
    assert assert_term_agrees(state, term) == ("error", EvalError, "unbound variable 'y'")


def test_a_subterm_free_of_the_iota_variable_is_evaluated_once_per_iota(monkeypatch):
    calls = []

    def tick(state, vals, reads):
        calls.append(vals)
        return NatVal(len(calls))

    monkeypatch.setitem(bg.TERM_FUNCTIONS, "tick", bg.TermFunction("tick", 0, tick))
    state = _state_with_domains(D=(NatVal(0), NatVal(1), NatVal(2)))
    x, y = Variable("x"), Variable("y")
    tick_term = FunctionApp("tick", ())
    # tick() mentions neither variable; lt(x, 1) mentions only the outer one
    below_one = FunctionApp("lt", (x, Constant(NatVal(1))))
    inner = Iota("y", "D", BoolConnective("and", (Equality(y, tick_term), below_one)))
    outer = Iota("x", "D", Equality(inner, Constant(NatVal(1))))
    assert eval_term(state, outer) == NatVal(0)
    # once per evaluation of the inner IOTA, which runs once per outer member
    assert len(calls) == 3


def test_an_arity_fault_in_an_untaken_branch_raises_nothing():
    state = _state_with_domains()
    bad = FunctionApp("u0", ())  # u0 has arity 1
    cases = (
        (TRUE, ("value", (Update(Location("n0"), NatVal(1)),))),
        (FALSE, ("error", SignatureError, "'u0' has arity 1, got 0 arguments")),
    )
    for cond, expected in cases:
        rule = If(Constant(cond), Assign("n0", (), Constant(NatVal(1))), Assign("n0", (), bad))
        assert _outcome(lambda: compute_update_multiset(rule, state).entries) == expected
        assert_rule_agrees(rule, state)
    # nor in a condition an empty domain never evaluates
    state = _state_with_domains(E=())
    assert assert_term_agrees(state, Iota("x", "E", Equality(bad, Variable("x")))) == (
        "value", UNDEF
    )


def test_false_and_an_evaluation_error_still_raises():
    state = _state_with_domains()
    term = BoolConnective("and", (Constant(FALSE), FAULTY))
    assert assert_term_agrees(state, term) == (
        "error", EvalError, "+ expects a natural number, got p"
    )


def test_a_compiled_term_is_kept_per_signature_and_reads_the_background_when_run(monkeypatch):
    compiles = []

    def counted(term, signature):
        compiles.append(signature)
        return compile_term(term, signature)

    monkeypatch.setattr(structures, "compile_term", counted)
    term = FunctionApp("f", (Constant(Atom("a")), Constant(Atom("b"))))
    without = make_state({"n0": 0})
    with_f = make_state({"f": 2, "R": 1, "index": 2}, {
        Location("R", (Atom("b"),)): TRUE,
        Location("index", (SymbolName("R"), Atom("a"))): NatVal(1),
        Location("f", (Atom("a"), Atom("b"))): NatVal(7),
    })
    for _ in range(2):
        assert _outcome(lambda: eval_term(without, term)) == (
            "error", SignatureError, "unknown symbol 'f'"
        )
        assert eval_term(with_f, term) == NatVal(7)
    assert compiles == [without.signature, with_f.signature]
    # the same signature with f declared a projection of R: the background is
    # read when the closure runs, so the kept closure serves this state too
    projected = State(with_f.base, with_f.interp, BackgroundConfig(projections=(("f", "R"),)))
    assert eval_term(projected, term) == Atom("b")
    assert len(compiles) == 2
    for state in (without, with_f, projected):
        assert_term_agrees(state, term)


_T, _F, _U, _N = (FunctionApp(s) for s in ("b0", "c0", "d0", "n0"))  # true, false, undef, 1
_READS = {_T: "b0", _F: "c0", _U: "d0", _N: "n0", FAULTY: "a0"}
_RAISED = ("error", EvalError, "+ expects a natural number, got p")


@pytest.mark.parametrize(
    "op, operands, expected",
    [
        ("and", (_T, _T, _T), ("value", TRUE)),
        ("and", (_T, _U, _T), ("value", UNDEF)),
        ("and", (_T, _N, _F), ("value", FALSE)),
        ("and", (_U, _N, _T, _T), ("value", UNDEF)),
        ("and", (_T, _T, _T, _F), ("value", FALSE)),
        ("and", (_F, _U, _N, FAULTY), _RAISED),
        ("and", (_T, FAULTY, _F), _RAISED),
        ("or", (_F, _F, _F), ("value", FALSE)),
        ("or", (_F, _U, _F), ("value", UNDEF)),
        ("or", (_U, _N, _T), ("value", TRUE)),
        ("or", (_F, _N, _U, _F), ("value", UNDEF)),
        ("or", (_F, _F, _F, _T), ("value", TRUE)),
        ("or", (FAULTY, _T, _T), _RAISED),
        ("or", (_T, _U, FAULTY, _N), _RAISED),
        # fewer than two operands, built through the API
        ("and", (), ("value", TRUE)),
        ("or", (), ("value", FALSE)),
        ("and", (_N,), ("value", UNDEF)),
        ("or", (_T,), ("value", TRUE)),
        ("and", (_F,), ("value", FALSE)),
    ],
)
def test_a_connective_of_any_operand_count_evaluates_every_operand_left_to_right(
    op, operands, expected
):
    state = make_state(
        {"n0": 0, "a0": 0, "b0": 0, "c0": 0, "d0": 0},
        {
            Location("n0"): NatVal(1),
            Location("a0"): Atom("p"),
            Location("b0"): TRUE,
            Location("c0"): FALSE,
        },
    )
    term = BoolConnective(op, operands)
    reads = set()
    assert _outcome(lambda: eval_term(state, term, None, reads)) == expected
    evaluated = operands[: operands.index(FAULTY) + 1] if FAULTY in operands else operands
    assert reads == {Location(_READS[o]) for o in evaluated}
    assert assert_term_agrees(state, term) == expected
