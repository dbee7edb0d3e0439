"""Seeded random machines and state perturbations for the postulate probes.

Generated programs keep a simple type discipline per location (naturals,
atoms, booleans) so that rule evaluation is total; some of them also append
rules to their own parallel body through a node-addressed partial update.
"""

from __future__ import annotations

import random

from .reflect import build_self_tree, encode_rule
from .rules import Assign, If, Let, Par, PartialAssign, Rule
from .structures import (
    Atom,
    BackgroundConfig,
    Constant,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    Location,
    Machine,
    NatVal,
    SELF_LOCATION,
    SELF_SYMBOL,
    Signature,
    State,
    TreeValue,
    TRUE,
    Variable,
)
from .treealg import L_RULE, Tree

ATOMS = tuple(Atom(f"v{i}") for i in range(4))

SIGNATURE = Signature(
    (
        SELF_SYMBOL,
        FunctionSymbol("n0", 0),
        FunctionSymbol("n1", 0),
        FunctionSymbol("a0", 0),
        FunctionSymbol("flag", 0),
        FunctionSymbol("u0", 1),
    )
)

BACKGROUND = BackgroundConfig(domains=(("D", ATOMS),))


def _nat_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return Constant(NatVal(rng.randrange(4)))
    if roll < 0.7:
        return FunctionApp("n0")
    return FunctionApp("+", (FunctionApp("n0"), Constant(NatVal(rng.randrange(3)))))


def _atom_term(rng: random.Random):
    if rng.random() < 0.6:
        return Constant(rng.choice(ATOMS))
    return FunctionApp("a0")


def _bool_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return Equality(FunctionApp("a0"), Constant(rng.choice(ATOMS)))
    if roll < 0.7:
        return Equality(FunctionApp("u0", (_atom_term(rng),)), Constant(TRUE))
    return Equality(FunctionApp("n0"), Constant(NatVal(rng.randrange(4))))


def _self_extension(rng: random.Random) -> Rule:
    # append one more assignment to the machine's own parallel body
    appended = Tree(L_RULE, (encode_rule(Assign("n1", (), Constant(NatVal(rng.randrange(4))))),))
    locate = FunctionApp(
        "child_n",
        (
            FunctionApp("child_n", (FunctionApp("root_node"), Constant(NatVal(2)))),
            Constant(NatVal(1)),
        ),
    )
    return Let(
        "onode",
        locate,
        PartialAssign("onode", (), "right_extend", (Constant(TreeValue(appended)),)),
    )


def _random_rule(rng: random.Random, depth: int, counter: list[int]) -> Rule:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        kind = rng.randrange(5)
        if kind == 0:
            return Assign("n0", (), _nat_term(rng))
        if kind == 1:
            return Assign("a0", (), _atom_term(rng))
        if kind == 2:
            return Assign("u0", (_atom_term(rng),), Constant(rng.choice((TRUE, FALSE))))
        if kind == 3:
            return PartialAssign("n1", (), "+", (Constant(NatVal(rng.randrange(1, 3))),))
        return Assign("flag", (), _bool_term(rng))
    if roll < 0.55:
        return If(
            _bool_term(rng),
            _random_rule(rng, depth - 1, counter),
            _random_rule(rng, depth - 1, counter),
        )
    if roll < 0.7:
        counter[0] += 1
        var = f"x{counter[0]}"
        body_target = rng.choice(("n0", "a0"))
        if body_target == "n0":
            bound = _nat_term(rng)
            body: Rule = Assign("n0", (), Variable(var))
        else:
            bound = _atom_term(rng)
            body = Assign("a0", (), Variable(var))
        return Let(var, bound, body)
    if roll < 0.78:
        return _self_extension(rng)
    return Par(
        tuple(_random_rule(rng, depth - 1, counter) for _ in range(rng.randrange(0, 3)))
    )


def random_machine(rng: random.Random) -> Machine:
    rule = Par(
        tuple(_random_rule(rng, 2, [0]) for _ in range(rng.randrange(1, 4)))
    )
    self_tree = build_self_tree(SIGNATURE, rule)
    interp = {SELF_LOCATION: TreeValue(self_tree)}
    state = State(SIGNATURE, frozenset(ATOMS), interp, BACKGROUND)
    machine = Machine(perturb_state(state, rng), max_steps=6, name=f"m{rng.getrandbits(24)}")
    return machine


def _pools(rng: random.Random):
    return {
        "n0": lambda: NatVal(rng.randrange(5)),
        "n1": lambda: NatVal(rng.randrange(5)),
        "a0": lambda: rng.choice(ATOMS),
        "flag": lambda: rng.choice((TRUE, FALSE)),
        "u0": lambda: rng.choice((TRUE, FALSE)),
    }


def perturb_state(state: State, rng: random.Random) -> State:
    """Randomize the non-self locations while keeping the type discipline."""
    pools = _pools(rng)
    interp = {SELF_LOCATION: state.value_at(SELF_LOCATION)}
    for sym in ("n0", "n1", "flag"):
        interp[Location(sym, ())] = pools[sym]()
    if rng.random() < 0.9:
        interp[Location("a0", ())] = pools["a0"]()
    for atom in ATOMS:
        if rng.random() < 0.8:
            interp[Location("u0", (atom,))] = pools["u0"]()
    return State(state.signature, state.base, interp, state.background)


def mutate_outside(state: State, reads: set, rng: random.Random) -> State:
    """A copy of the state changed only at locations outside the read set."""
    pools = _pools(rng)
    candidates = [
        loc
        for loc in [
            Location("n0", ()),
            Location("n1", ()),
            Location("a0", ()),
            Location("flag", ()),
            *[Location("u0", (a,)) for a in ATOMS],
        ]
        if loc not in reads and loc != SELF_LOCATION
    ]
    rng.shuffle(candidates)
    interp = dict(state.interp)
    for loc in candidates[: rng.randrange(0, 3)]:
        old = state.value_at(loc)
        for _ in range(8):
            new = pools[loc.symbol]()
            if new != old:
                interp[loc] = new
                break
    return State(state.signature, state.base, interp, state.background)


def random_permutation(state: State, rng: random.Random) -> dict[Atom, Atom]:
    atoms = sorted(state.base, key=lambda a: a.name)
    shuffled = atoms[:]
    rng.shuffle(shuffled)
    return dict(zip(atoms, shuffled))
