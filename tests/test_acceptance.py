"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line.

Expected values come from independent oracles computed in this module: direct
counting for the parity fixture, a brute-force natural join for the join
fixture, hand transcriptions of the extraction equations, and exhaustive
checks of the algebra laws on randomized inputs.
"""

import gc
import itertools
import json
import random
import time
import weakref
from contextlib import contextmanager

import pytest

from conftest import (
    make_state,
    random_context,
    random_rule,
    random_signature,
    random_self_tree,
    random_term,
    random_tree,
)
from rsasm.engine import (
    probe_bounded_exploration,
    probe_isomorphism_closure,
    run,
)
from rsasm.frontend import load_program, parse
from rsasm.reflect import (
    beta,
    build_self_tree,
    decode_rule,
    decode_signature,
    drop,
    encode_rule,
    encode_signature,
    eval_algebra,
    raise_,
    rule_of_self,
    signature_of_self,
    tree_diff,
    tree_update_rule,
)
from rsasm.rules import (
    Assign,
    If,
    Let,
    Par,
    PartialAssign,
    execute,
)
from rsasm.structures import (
    Atom,
    FunctionApp,
    FunctionSymbol,
    Location,
    NatVal,
    SELF_LOCATION,
    SELF_SYMBOL,
    Signature,
    SymbolName,
    TreeValue,
    TRUE,
    Update,
    UpdateSet,
    DroppedTerm,
    canonical_dumps,
    term_substitute,
    value_to_json,
)
from rsasm.frontend import trees_from_table, value_from_json
from rsasm.printer import TracePrinter
from rsasm.treealg import (
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


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# -- criterion 1: parity fixture over every subset of a 6-element domain ----------


PARITY_DOMAIN = ("a", "b", "c", "d", "e", "f")


def parity_source(marked: frozenset) -> str:
    base = load_program("parity")
    init_lines = ["INIT", "  mode = init"]
    for x in PARITY_DOMAIN:
        init_lines.append(f"  set({x}) = {'true' if x in marked else 'false'}")
    head, _, tail = base.partition("INIT")
    _, _, rule_part = tail.partition("RULE")
    return head + "\n".join(init_lines) + "\nRULE" + rule_part


def test_criterion_1_parity_all_subsets():
    with criterion(1, "parity over all 64 subsets: card, parity, steps, time"):
        for bits in range(64):
            marked = frozenset(
                x for i, x in enumerate(PARITY_DOMAIN) if bits & (1 << i)
            )
            expected_card = len(marked)  # oracle: direct counting
            machine = parse(parity_source(marked), "parity-case")
            started = time.perf_counter()
            trace = run(machine)
            elapsed = time.perf_counter() - started
            assert trace.status == "fixpoint", f"subset {sorted(marked)} did not halt"
            assert len(trace.steps) <= 6
            assert elapsed <= 0.050, f"run took {elapsed * 1000:.1f} ms"
            final = trace.final_state
            assert final.value_at(Location("card")) == NatVal(expected_card)
            assert final.value_at(Location("parity")) == NatVal(expected_card % 2)


# -- criterion 2: join fixture against a brute-force natural-join oracle -----------


JOIN_DOMAIN = ("d0", "d1", "d2")
JOIN_ATTRS = ("attrA", "attrB", "attrC")


class JoinCase:
    def __init__(self, rng: random.Random):
        self.t1 = rng.sample(JOIN_ATTRS, rng.randint(1, 3))
        self.t2 = rng.sample(JOIN_ATTRS, rng.randint(1, 3))
        self.idx1 = {a: i + 1 for i, a in enumerate(self.t1)}
        self.idx2 = {a: i + 1 for i, a in enumerate(self.t2)}
        self.rows1 = self._rows(rng, len(self.t1))
        self.rows2 = self._rows(rng, len(self.t2))

    @staticmethod
    def _rows(rng, width):
        universe = list(itertools.product(JOIN_DOMAIN, repeat=width))
        count = rng.randint(0, min(8, len(universe)))
        return frozenset(tuple(r) for r in rng.sample(universe, count))

    def positions(self):
        """Column positions of the join relation, per the index construction."""
        shared = set(self.t1) & set(self.t2)
        n = len(set(self.t1) | set(self.t2))
        pos = dict(self.idx1)
        for a in self.t2:
            if a not in pos:
                before = len([b for b in shared if self.idx2[b] < self.idx2[a]])
                pos[a] = len(self.t1) + self.idx2[a] - before
        return pos, n

    def oracle_rows(self):
        """Brute-force natural join over the full tuple space."""
        pos, n = self.positions()
        r1_order = sorted(self.t1, key=self.idx1.get)
        r2_order = sorted(self.t2, key=self.idx2.get)
        result = set()
        for u in itertools.product(JOIN_DOMAIN, repeat=n):
            row1 = tuple(u[pos[a] - 1] for a in r1_order)
            row2 = tuple(u[pos[a] - 1] for a in r2_order)
            if row1 in self.rows1 and row2 in self.rows2:
                result.add(u)
        return result, n


def join_source(case: JoinCase) -> str:
    pos, n = case.positions()
    n1, n2 = len(case.t1), len(case.t2)
    lines = [
        "DOMAINS",
        f"  D = {{{', '.join(JOIN_DOMAIN)}}}",
        f"  ATTRS = {{{', '.join(JOIN_ATTRS)}}}",
        "",
        "SIGNATURE",
        "  mode/0",
        "  index/2",
        f"  R1/{n1}",
        f"  R2/{n2}",
        "",
        "INIT",
        "  mode = init",
    ]
    for a, p in sorted(case.idx1.items()):
        lines.append(f"  index(R1, {a}) = {p}")
    for a, p in sorted(case.idx2.items()):
        lines.append(f"  index(R2, {a}) = {p}")
    for row in sorted(case.rows1):
        lines.append(f"  R1({', '.join(row)}) = true")
    for row in sorted(case.rows2):
        lines.append(f"  R2({', '.join(row)}) = true")

    xs = [f"x{i}" for i in range(1, n + 1)]
    r1_args = ", ".join(xs[pos[a] - 1] for a in sorted(case.t1, key=case.idx1.get))
    r2_args = ", ".join(xs[pos[a] - 1] for a in sorted(case.t2, key=case.idx2.get))

    body = [
        "",
        "RULE",
        "  PAR",
        "    IF mode = init THEN",
        "      LET ti = {X IN ATTRS | NOT index(DROP(R1), X) = undef} IN",
        "      LET tj = {Y IN ATTRS | NOT index(DROP(R2), Y) = undef} IN",
        "      LET n = CARD(union(ti, tj)) IN",
        "      LET o = IOTA w IN NODES . child(root_node(), w) AND label(w) = signature IN",
        "      PAR",
        "        o <=[right_extend] func<name(DROP(J12)), arity(n)>, func<name(DROP(hatJ12)), arity(n + 1)>",
        "        PARFOR X IN ATTRS",
        "          IF member(X, ti) THEN",
        "            index(DROP(J12), X) := index(DROP(R1), X)",
        "          ELSE",
        "            IF member(X, tj) THEN",
        f"              index(DROP(J12), X) := {n1} + index(DROP(R2), X) - CARD({{Z IN ATTRS | member(Z, inter(ti, tj)) AND lt(index(DROP(R2), Z), index(DROP(R2), X))}})",
        "            ENDIF",
        "          ENDIF",
        "        ENDPARFOR",
        "        mode := join",
        "      ENDPAR",
        "    ENDIF",
        "    IF mode = join THEN",
        "      PAR",
    ]
    indent = "        "
    for i, x in enumerate(xs):
        body.append(f"{indent}{'  ' * i}PARFOR {x} IN D")
    guard_indent = indent + "  " * n
    body.append(f"{guard_indent}IF R1({r1_args}) = true AND R2({r2_args}) = true THEN")
    body.append(f"{guard_indent}  PAR")
    body.append(f"{guard_indent}    J12({', '.join(xs)}) := true")
    for a in sorted(set(case.t1) | set(case.t2)):
        for p in range(1, n + 1):
            body.append(
                f"{guard_indent}    IF index(DROP(J12), {a}) = {p} "
                f"THEN hatJ12({a}, {', '.join(xs)}) := x{p} ENDIF"
            )
    body.append(f"{guard_indent}  ENDPAR")
    body.append(f"{guard_indent}ENDIF")
    for i in reversed(range(n)):
        body.append(f"{indent}{'  ' * i}ENDPARFOR")
    body += [
        "        mode := halt",
        "      ENDPAR",
        "    ENDIF",
        "  ENDPAR",
        "",
        "OPTIONS",
        "  max_steps = 10",
    ]
    return "\n".join(lines + body)


def test_criterion_2_join_against_oracle():
    rng = random.Random(2024)
    with criterion(2, "natural join matches the brute-force oracle on 200 cases"):
        for case_index in range(200):
            case = JoinCase(rng)
            expected_rows, n = case.oracle_rows()
            machine = parse(join_source(case), f"join-{case_index}")
            trace = run(machine)
            assert trace.status == "fixpoint"
            final = trace.final_state
            sig = decode_signature(signature_of_self(final.self_tree))
            assert sig.arity_of("J12") == n
            assert sig.arity_of("hatJ12") == n + 1
            actual = {
                tuple(a.name for a in loc.args)
                for loc, v in final.interp.items()
                if loc.symbol == "J12" and v == TRUE
            }
            assert actual == expected_rows, f"case {case_index} differs"


# -- criterion 3: tree algebra laws on randomized inputs ---------------------------


def _count_holes(tree):
    return sum(1 for _, node in tree.preorder() if node.label == XI)


def test_criterion_3_tree_algebra_laws():
    rng = random.Random(3)
    with criterion(3, "substitution and operator laws on 1000 random trees/contexts"):
        for _ in range(1000):
            t = random_tree(rng, 20)
            o = [path for path, _ in t.preorder()][rng.randrange(t.size)]

            # subtree embeds back where it came from
            assert subst_tt(t, o, subtree(t, o)) == t
            # tree-to-context then context-to-tree round trip
            assert subst_ct(subst_tc(t, o), subtree(t, o)) == t
            if o != ():
                assert inject_hedge(context_of(t, (), o), (subtree(t, o),)) == t

            c1 = random_context(rng, 12)
            c2 = random_context(rng, 8)
            # one hole, always
            assert _count_holes(label_context("w", c1).tree) == 1
            assert _count_holes(subst_cc(c1, c2).tree) == 1
            assert _count_holes(inject_context(c1, c2).tree) == 1
            h = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
            if h and c1.is_trivial:
                # extending below the hole is rejected, the hole stays a leaf
                with pytest.raises(Exception):
                    left_extend(h, c1)
            else:
                assert _count_holes(left_extend(h, c1).tree) == 1
                assert _count_holes(right_extend(h, c1).tree) == 1

            # hedge laws
            g = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
            k = tuple(random_tree(rng, 4) for _ in range(rng.randrange(0, 3)))
            assert concat(concat(h, g), k) == concat(h, concat(g, k))
            assert concat((), h) == h
            built = label_hedge("z", h)
            assert built.children == h
            assert right_extend(g, built).children == h + g
            assert left_extend(g, built).children == g + h


# -- criterion 4: tree difference and the derived update rule ----------------------


def _self_pair(rng: random.Random):
    kind = rng.randrange(3)
    t = random_self_tree(rng, extra_symbols=rng.randrange(2))
    if kind == 0:
        return t, t
    if kind == 1:
        # grow the signature and extend the rule in place
        sig = decode_signature(signature_of_self(t))
        rule = decode_rule(rule_of_self(t))
        grown = Signature(sig.symbols + (FunctionSymbol(f"new{rng.randrange(100)}", rng.randrange(3)),))
        extended = Par((rule, random_rule(rng, 1)))
        return t, build_self_tree(grown, extended)
    return t, random_self_tree(rng, extra_symbols=rng.randrange(2))


def test_criterion_4_tree_diff_and_update_rule():
    rng = random.Random(4)
    with criterion(4, "tree difference and derived update rule on 200 self pairs"):
        for _ in range(200):
            t, t2 = _self_pair(rng)
            theta = tree_diff(t, t2)
            assert eval_algebra(theta, t) == t2

            rule = tree_update_rule(t, t2)
            state = make_state(signature=Signature((SELF_SYMBOL,)), rule=Par(()))
            state = state.__class__(
                state.signature,
                state.base,
                {SELF_LOCATION: TreeValue(t)},
                state.background,
            )
            result, _ = execute(rule, state)
            expected = UpdateSet(frozenset({Update(SELF_LOCATION, TreeValue(t2))}))
            assert result == expected


def test_criterion_4_difference_terms_replay_after_json():
    rng = random.Random(4)
    for _ in range(200):
        t, t2 = _self_pair(rng)
        doc = TracePrinter()
        written = value_to_json(DroppedTerm(tree_diff(t, t2)), doc)
        obj, table = json.loads(canonical_dumps([written, doc.entries]))
        theta = value_from_json(obj, trees_from_table(table)).term
        assert eval_algebra(theta, t) == t2


# -- criterion 5: reflection round trips and the extraction equations --------------


def _extraction_oracle(rule, env):
    """Independent transcription of the five extraction equations."""

    def subst(term):
        for var, rep in env.items():
            term = term_substitute(term, var, rep)
        return term

    if isinstance(rule, Assign):
        return (subst(rule.rhs),) + tuple(subst(a) for a in rule.args)
    if isinstance(rule, If):
        return (
            (subst(rule.cond),)
            + _extraction_oracle(rule.then, env)
            + _extraction_oracle(rule.orelse, env)
        )
    if isinstance(rule, Par):
        out = ()
        for b in rule.branches:
            out += _extraction_oracle(b, env)
        return out
    if isinstance(rule, Let):
        bound = subst(rule.bound)
        return (bound,) + _extraction_oracle(rule.body, {**env, rule.var: bound})
    if isinstance(rule, PartialAssign):
        args = tuple(subst(a) for a in rule.args)
        operands = tuple(subst(a) for a in rule.operands)
        if rule.target in env:
            head = FunctionApp("subtree", (env[rule.target],))
        else:
            head = FunctionApp(rule.target, args)
        return args + (FunctionApp(rule.op, (head,) + operands),)
    raise AssertionError(rule)


def test_criterion_5_reflection_round_trips():
    rng = random.Random(5)
    with criterion(5, "encode/decode, raise/drop, and extraction on 500 rule trees"):
        for _ in range(500):
            rule = random_rule(rng, 3)
            tree = encode_rule(rule)
            assert decode_rule(tree) == rule

            sig = random_signature(rng, extra=rng.randrange(3))
            assert decode_signature(encode_signature(sig)) == sig

            term = random_term(rng)
            assert raise_(drop(term)) == term
            for value in (drop(term), drop(rule), SymbolName("g0"), NatVal(7), Atom("v0")):
                assert drop(raise_(value)) == value

            assert beta(tree) == _extraction_oracle(rule, {})


# -- criteria 6 and 7: the postulate probes ----------------------------------------


def test_criterion_6_bounded_exploration_witness():
    with criterion(6, "strong coincidence on {self} forces equal multisets (500 trials)"):
        report = probe_bounded_exploration(trials=500, seed=2025)
        assert report.checked == 500
        assert report.violations == []


def test_criterion_7_isomorphism_closure():
    with criterion(7, "stepping commutes with base renaming (200 trials)"):
        report = probe_isomorphism_closure(trials=200, seed=2026)
        assert report.checked == 200
        assert report.violations == []


# -- criterion 8: monotone signatures and deterministic traces ---------------------


def test_criterion_8_monotonicity_and_determinism():
    from rsasm import generate

    with criterion(8, "signature monotonicity and byte-identical reruns"):
        sources = {
            "parity": load_program("parity"),
            "join": load_program("join"),
        }
        for name, src in sources.items():
            _assert_monotone_and_rerun_alike(lambda: run(parse(src, name)))
        for seed in range(10):
            _assert_monotone_and_rerun_alike(
                lambda: run(generate.random_machine(random.Random(seed)))
            )


def _assert_monotone_and_rerun_alike(make) -> None:
    """The trace ``make()`` only grows its signature, and a second ``make()`` writes it alike.

    Equal trees are one object, so a rerun beside the live first run would
    meet its trees and the decoded rules and compiled terms kept on them.
    The first run is gone before the second starts, so the rerun builds every
    tree and memo anew.
    """
    first = make()
    states = [first.initial_state] + [record.after for record in first.steps]
    signatures = [decode_signature(signature_of_self(s.self_tree)) for s in states]
    assert all(a.is_subsignature_of(b) for a, b in zip(signatures, signatures[1:]))
    text = first.to_json()
    gone = weakref.ref(first.initial_state.self_tree)
    del first, states
    gc.collect()
    assert gone() is None
    assert make().to_json() == text
