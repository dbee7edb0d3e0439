"""The benchmark's workloads: seeded case generators, the timed case, and oracles.

Each workload turns the run seed into an endless stream of cases.  A case is
one input; ``run_case`` is the timed part and drives only the public API, and
``check`` compares the output with an oracle computed here, independently of
the engine.  The join generator and its oracle are this benchmark's own copy
of the criterion-2 construction, so edits to the test suite cannot change the
workload.

Draws are stratified on the property that sets a case's cost (the two
attribute-set sizes for ``join``, the domain size for ``grow``): every block of
cases visits each stratum once, in a shuffled order, and draws the rest of the
case freely.  That keeps each stratum's share exact, so medians of different
seeds agree closely without repeating any input.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from rsasm import engine, frontend
from rsasm.reflect import decode_signature, signature_of_self
from rsasm.structures import Location, NatVal, TRUE, canonical_dumps

JOIN_DOMAIN = ("d0", "d1", "d2")
JOIN_ATTRS = ("attrA", "attrB", "attrC")
JOIN_STRATA = tuple(itertools.product((1, 2, 3), repeat=2))

GROW_SIZES = (64, 193)  # domain size range, upper end exclusive
GROW_STRATA = 16
GROW_MAX_STEPS = 6


def _strata(rng: random.Random, strata):
    """Cycle through the strata forever, reshuffled for every block."""
    while True:
        block = list(strata)
        rng.shuffle(block)
        yield from block


@dataclass
class Outcome:
    """What one case produced: the figures the benchmark reports and checks."""

    case_s: float
    run_s: float
    text: str  # the JSON the case writes; compared between traced and untraced runs
    result: object  # the Trace, or the probe reports


# -- join --------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinCase:
    t1: tuple[str, ...]  # attributes of R1, in column order
    t2: tuple[str, ...]
    rows1: frozenset
    rows2: frozenset

    def positions(self) -> tuple[dict[str, int], int]:
        """Column of each attribute in J12: R1's columns, then R2's unshared ones."""
        pos = {a: i + 1 for i, a in enumerate(self.t1)}
        for a in self.t2:
            if a not in pos:
                pos[a] = len(pos) + 1
        return pos, len(pos)

    def expected_rows(self) -> set[tuple[str, ...]]:
        """Brute-force natural join over the full tuple space."""
        pos, n = self.positions()
        rows = set()
        for u in itertools.product(JOIN_DOMAIN, repeat=n):
            row1 = tuple(u[pos[a] - 1] for a in self.t1)
            row2 = tuple(u[pos[a] - 1] for a in self.t2)
            if row1 in self.rows1 and row2 in self.rows2:
                rows.add(u)
        return rows


def _join_rows(rng: random.Random, width: int) -> frozenset:
    universe = list(itertools.product(JOIN_DOMAIN, repeat=width))
    return frozenset(rng.sample(universe, rng.randint(0, min(8, len(universe)))))


def join_cases(seed: int):
    rng = random.Random(seed)
    for k1, k2 in _strata(rng, JOIN_STRATA):
        t1 = tuple(rng.sample(JOIN_ATTRS, k1))
        t2 = tuple(rng.sample(JOIN_ATTRS, k2))
        case = JoinCase(t1, t2, _join_rows(rng, k1), _join_rows(rng, k2))
        yield case, join_source(case)


def join_source(case: JoinCase) -> str:
    """The reflective join program for one case, as criterion 2 renders it."""
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
    for rel, attrs in (("R1", case.t1), ("R2", case.t2)):
        for a in sorted(attrs):
            lines.append(f"  index({rel}, {a}) = {attrs.index(a) + 1}")
    for rel, rows in (("R1", case.rows1), ("R2", case.rows2)):
        for row in sorted(rows):
            lines.append(f"  {rel}({', '.join(row)}) = true")

    xs = [f"x{i}" for i in range(1, n + 1)]
    r1_args = ", ".join(xs[pos[a] - 1] for a in case.t1)
    r2_args = ", ".join(xs[pos[a] - 1] for a in case.t2)
    lines += [
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
        lines.append(f"{indent}{'  ' * i}PARFOR {x} IN D")
    guard = indent + "  " * n
    lines.append(f"{guard}IF R1({r1_args}) = true AND R2({r2_args}) = true THEN")
    lines.append(f"{guard}  PAR")
    lines.append(f"{guard}    J12({', '.join(xs)}) := true")
    for a in sorted(pos):
        for p in range(1, n + 1):
            lines.append(
                f"{guard}    IF index(DROP(J12), {a}) = {p} "
                f"THEN hatJ12({a}, {', '.join(xs)}) := x{p} ENDIF"
            )
    lines.append(f"{guard}  ENDPAR")
    lines.append(f"{guard}ENDIF")
    for i in reversed(range(n)):
        lines.append(f"{indent}{'  ' * i}ENDPARFOR")
    lines += [
        "        mode := halt",
        "      ENDPAR",
        "    ENDIF",
        "  ENDPAR",
        "",
        "OPTIONS",
        "  max_steps = 10",
    ]
    return "\n".join(lines)


def check_join(case: JoinCase, trace) -> str | None:
    """None if the trace holds the natural join, else what is wrong."""
    if trace.status != "fixpoint":
        return f"status {trace.status!r}"
    final = trace.final_state
    _, n = case.positions()
    sig = decode_signature(signature_of_self(final.self_tree))
    if sig.arity_of("J12") != n or sig.arity_of("hatJ12") != n + 1:
        return f"J12/hatJ12 arities {sig.arity_of('J12')}/{sig.arity_of('hatJ12')}, expected {n}/{n + 1}"
    actual = {
        tuple(a.name for a in loc.args)
        for loc, v in final.interp.items()
        if loc.symbol == "J12" and v == TRUE
    }
    if actual != case.expected_rows():
        return "J12 rows differ from the natural join"
    return None


# -- grow --------------------------------------------------------------------------


def element_names(count: int) -> list[str]:
    """a, b, ..., z, aa, ab, ...: the first six are criterion 1's domain."""
    names: list[str] = []
    width = 1
    while len(names) < count:
        words = itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=width)
        names += ("".join(w) for w in itertools.islice(words, count - len(names)))
        width += 1
    return names


def grow_source(template: str, domain: list[str], marked: frozenset) -> str:
    """The bundled parity program over another domain and marking."""
    head, _, tail = template.partition("DOMAINS")
    _, _, tail = tail.partition("SIGNATURE")
    _, _, rule = tail.partition("RULE")
    signature = tail.partition("INIT")[0]
    init = ["INIT", "  mode = init"]
    for x in domain:
        init.append(f"  set({x}) = {'true' if x in marked else 'false'}")
    return (
        f"{head}DOMAINS\n  D = {{{', '.join(domain)}}}\n\nSIGNATURE{signature}"
        + "\n".join(init)
        + "\n\nRULE"
        + rule
    )


def grow_cases(seed: int):
    rng = random.Random(seed)
    template = frontend.load_program("parity")
    lo, hi = GROW_SIZES
    edges = [lo + (hi - lo) * s // GROW_STRATA for s in range(GROW_STRATA + 1)]
    for stratum in _strata(rng, range(GROW_STRATA)):
        domain = element_names(rng.randrange(edges[stratum], edges[stratum + 1]))
        marked = frozenset(x for x in domain if rng.random() < 0.5)
        yield len(marked), grow_source(template, domain, marked)


def check_grow(marked: int, trace) -> str | None:
    if trace.status != "fixpoint":
        return f"status {trace.status!r}"
    if len(trace.steps) > GROW_MAX_STEPS:
        return f"{len(trace.steps)} steps"
    final = trace.final_state
    if final.value_at(Location("card", ())) != NatVal(marked):
        return f"card is {final.value_at(Location('card', ()))!r}, expected {marked}"
    if final.value_at(Location("parity", ())) != NatVal(marked % 2):
        return "parity is not card mod 2"
    return None


# -- probe -------------------------------------------------------------------------


def probe_cases(seed: int):
    rng = random.Random(seed)
    while True:
        yield None, (rng.getrandbits(32), rng.getrandbits(32))


def check_probe(_, reports) -> str | None:
    for report in reports:
        if report.checked != report.trials or report.violations:
            return f"{report.probe}: {report.checked}/{report.trials} checked, {report.violations}"
    return None


# -- the timed case ----------------------------------------------------------------


def run_program(source: str) -> Outcome:
    """parse -> run -> trace JSON, the ``rsasm run --trace`` path without file I/O."""
    t0 = time.perf_counter()
    machine = frontend.parse(source)
    t1 = time.perf_counter()
    trace = engine.run(machine)
    t2 = time.perf_counter()
    text = trace.to_json()
    t3 = time.perf_counter()
    return Outcome(t3 - t0, t2 - t1, text, trace)


def run_probes(seeds: tuple[int, int]) -> Outcome:
    """One trial of each postulate probe; the whole case is engine time."""
    t0 = time.perf_counter()
    reports = (
        engine.probe_bounded_exploration(trials=1, seed=seeds[0]),
        engine.probe_isomorphism_closure(trials=1, seed=seeds[1]),
    )
    t1 = time.perf_counter()
    text = "\n".join(canonical_dumps(r.to_json_obj()) for r in reports)
    return Outcome(t1 - t0, t1 - t0, text, reports)


# -- warm-up: fixed inputs, so set-up time does not depend on the seed ---------------

BUNDLED_JOIN = JoinCase(
    ("attrA", "attrB"),
    ("attrB", "attrC"),
    frozenset({("d0", "d0"), ("d0", "d1"), ("d2", "d1")}),
    frozenset({("d0", "d2"), ("d1", "d0"), ("d1", "d1")}),
)
BUNDLED_PARITY_MARKED = 3  # the bundled parity program marks a, c and e


def join_warmup():
    return [(BUNDLED_JOIN, frontend.load_program("join"))]


def grow_warmup():
    return [(BUNDLED_PARITY_MARKED, frontend.load_program("parity"))]


def probe_warmup():
    return [(None, (seed, seed)) for seed in range(20)]


@dataclass(frozen=True)
class Workload:
    cases: object  # seed -> iterator of (oracle input, case input)
    run_case: object  # case input -> Outcome
    check: object  # (oracle input, Outcome.result) -> None or a failure reason
    warmup: object  # () -> (oracle input, case input) pairs run before timing


WORKLOADS = {
    "join": Workload(join_cases, run_program, check_join, join_warmup),
    "grow": Workload(grow_cases, run_program, check_grow, grow_warmup),
    "probe": Workload(probe_cases, run_probes, check_probe, probe_warmup),
}
