"""Shared builders for states, random trees, and random self representations."""

from __future__ import annotations

import random

from rsasm.reflect import build_self_tree
from rsasm.rules import Assign, If, Let, Par, PartialAssign, Rule
from rsasm.structures import (
    Atom,
    BackgroundConfig,
    Constant,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    NatVal,
    SELF_LOCATION,
    SELF_SYMBOL,
    Signature,
    State,
    TreeValue,
    TRUE,
    Variable,
)
from rsasm.treealg import Context, Tree


def make_state(
    symbols: dict[str, int] | None = None,
    interp: dict | None = None,
    rule: Rule = Par(()),
    domains=(),
    base=(),
    signature: Signature | None = None,
) -> State:
    if signature is None:
        symbols = symbols or {}
        signature = Signature(
            (SELF_SYMBOL,) + tuple(FunctionSymbol(n, a) for n, a in symbols.items())
        )
    tree = build_self_tree(signature, rule)
    full = dict(interp or {})
    full[SELF_LOCATION] = TreeValue(tree)
    return State(signature, frozenset(base), full, BackgroundConfig(domains=tuple(domains)))


LABELS = ("alpha", "beta", "gamma", "delta")
LEAF_VALUES = (NatVal(0), NatVal(1), Atom("p"), Atom("q"), TRUE)


def random_tree(rng: random.Random, max_nodes: int = 20) -> Tree:
    budget = rng.randrange(1, max_nodes + 1)

    def build(remaining: list[int]) -> Tree:
        remaining[0] -= 1
        label = rng.choice(LABELS)
        n_children = 0
        if remaining[0] > 0 and rng.random() < 0.6:
            n_children = rng.randrange(1, min(4, remaining[0] + 1))
        if n_children == 0:
            value = rng.choice(LEAF_VALUES) if rng.random() < 0.5 else None
            return Tree(label, (), value)
        children = []
        for _ in range(n_children):
            if remaining[0] <= 0:
                break
            children.append(build(remaining))
        return Tree(label, tuple(children))

    return build([budget])


def random_context(rng: random.Random, max_nodes: int = 20) -> Context:
    tree = random_tree(rng, max_nodes)
    leaf_ids = [nid for nid, _, node in tree.preorder() if node.is_leaf]
    target = rng.choice(leaf_ids)
    from rsasm.treealg import subst_tc

    return subst_tc(tree, target)


GEN_SYMBOLS = {"n0": 0, "n1": 0, "a0": 0, "flag": 0, "u0": 1}
GEN_ATOMS = tuple(Atom(f"v{i}") for i in range(4))


def random_term(rng: random.Random, bound: tuple[str, ...] = ()) -> "FunctionApp":
    roll = rng.random()
    if bound and roll < 0.15:
        return Variable(rng.choice(bound))
    if roll < 0.35:
        return Constant(rng.choice((NatVal(rng.randrange(4)), rng.choice(GEN_ATOMS), TRUE, FALSE)))
    if roll < 0.55:
        return FunctionApp(rng.choice(("n0", "a0")), ())
    if roll < 0.7:
        return FunctionApp("u0", (Constant(rng.choice(GEN_ATOMS)),))
    if roll < 0.85:
        return Equality(FunctionApp("n0"), Constant(NatVal(rng.randrange(3))))
    return FunctionApp("+", (FunctionApp("n0"), Constant(NatVal(rng.randrange(3)))))


def random_rule(rng: random.Random, depth: int = 2, counter=None, bound: tuple[str, ...] = ()) -> Rule:
    counter = counter if counter is not None else [0]
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        kind = rng.randrange(4)
        if kind == 0:
            return Assign("n0", (), random_term(rng, bound))
        if kind == 1:
            return Assign("u0", (Constant(rng.choice(GEN_ATOMS)),), Constant(rng.choice((TRUE, FALSE))))
        if kind == 2:
            return PartialAssign("n1", (), "+", (Constant(NatVal(rng.randrange(1, 3))),))
        return Assign("a0", (), Constant(rng.choice(GEN_ATOMS)))
    if roll < 0.6:
        return If(
            Equality(FunctionApp("a0"), Constant(rng.choice(GEN_ATOMS))),
            random_rule(rng, depth - 1, counter, bound),
            random_rule(rng, depth - 1, counter, bound),
        )
    if roll < 0.75:
        counter[0] += 1
        var = f"x{counter[0]}"
        return Let(
            var,
            random_term(rng, bound),
            random_rule(rng, depth - 1, counter, bound + (var,)),
        )
    return Par(tuple(random_rule(rng, depth - 1, counter, bound) for _ in range(rng.randrange(0, 3))))


def random_signature(rng: random.Random, extra: int = 0) -> Signature:
    symbols = [SELF_SYMBOL] + [FunctionSymbol(n, a) for n, a in GEN_SYMBOLS.items()]
    for i in range(extra):
        symbols.append(FunctionSymbol(f"g{i}", rng.randrange(3)))
    return Signature(tuple(symbols))


def random_self_tree(rng: random.Random, extra_symbols: int = 0) -> Tree:
    return build_self_tree(random_signature(rng, extra_symbols), random_rule(rng))


def reference_preorder(tree: Tree, path: tuple[int, ...] = ()):
    """(path, node) pairs in preorder, by the recursive definition."""
    yield path, tree
    for i, child in enumerate(tree.children):
        yield from reference_preorder(child, path + (i,))


# A program whose first step faults: ``+`` on an atom raises an EvalError.
FAULTY_PROGRAM = """
SIGNATURE
  x/0
INIT
  x = foo
RULE
  x := x + 1
"""
