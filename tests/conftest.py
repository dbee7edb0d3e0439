"""Shared builders for states, random trees, and random self representations."""

from __future__ import annotations

import random

from hypothesis import settings

from rsasm.reflect import build_self_tree
from rsasm.rules import Assign, If, Let, Par, PartialAssign, Rule
from rsasm.structures import (
    Atom,
    BackgroundConfig,
    BoolConnective,
    BoolVal,
    Constant,
    DroppedTerm,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    Iota,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SELF_SYMBOL,
    SetVal,
    Signature,
    State,
    SymbolName,
    TreeValue,
    TRUE,
    TupleVal,
    UNDEF,
    Variable,
    canonical_dumps,
)
from rsasm.treealg import Context, Tree

# Property tests draw the same examples on every run and stay small, so the
# suite's verdict and running time do not vary between runs.
settings.register_profile(
    "rsasm", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("rsasm")


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
    leaf_paths = [path for path, node in tree.preorder() if node.is_leaf]
    target = rng.choice(leaf_paths)
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

# Appends a third child to the root of the self tree, so the successor no
# longer has the self-tree layout and its signature cannot be read.
SHAPE_BREAKING_PROGRAM = """
SIGNATURE
  mode/0
INIT
  mode = init
RULE
  IF mode = init THEN
    LET o = root_node() IN
    PAR
      o <=[right_extend] extra<>
      mode := done
    ENDPAR
  ENDIF
"""


# -- the JSON of formats 1 to 7: the reference for what a trace's values mean -------------

_OLD_RANKS = {"atom": 0, "nat": 1, "bool": 2, "undef": 3, "symbol": 4, "node": 5}


def old_sort_key(member) -> tuple:
    """The ``value_sort_key`` format 1 ordered a set by, read off a member's format-1 JSON."""
    ((kind, inner),) = member.items()
    rank = _OLD_RANKS.get(kind)
    if rank is None:
        return (6, canonical_dumps(member))
    return (3,) if kind == "undef" else (rank, tuple(inner) if kind == "node" else inner)


def old_value_json(value, nested: dict) -> dict:
    """``value`` as format 1 wrote it: every tree nested, every dropped term as term JSON.

    ``nested`` keeps the JSON of each tree written so far, so a tree that
    many others share is built once.
    """
    if value is UNDEF:
        return {"undef": True}
    for kind, key, field in (
        (Atom, "atom", "name"),
        (BoolVal, "bool", "flag"),
        (NatVal, "nat", "n"),
        (SymbolName, "symbol", "name"),
    ):
        if isinstance(value, kind):
            return {key: getattr(value, field)}
    if isinstance(value, DroppedTerm):
        return {"dropped": old_term_json(value.term, nested)}
    if isinstance(value, TreeValue):
        return {"tree": old_tree_json(value.tree, nested)}
    if isinstance(value, TupleVal):
        return {"tuple": [old_value_json(v, nested) for v in value.items]}
    if isinstance(value, SetVal):
        members = [old_value_json(v, nested) for v in value.members]
        return {"set": sorted(members, key=old_sort_key)}
    assert isinstance(value, NodeRef), value
    return {"node": list(value.path)}


def old_tree_json(tree: Tree, nested: dict) -> dict:
    """A tree as format 1 wrote it: ``{"children", "label", "value"?}``."""
    out = nested.get(tree)
    if out is None:
        out = {"label": tree.label, "children": [old_tree_json(c, nested) for c in tree.children]}
        if tree.value is not None:
            out["value"] = old_value_json(tree.value, nested)
        nested[tree] = out
    return out


def old_term_json(term, nested: dict) -> dict:
    """A term as ``structures.term_to_json`` wrote it up to format 7, its trees nested."""
    if isinstance(term, Constant):
        return {"const": old_value_json(term.value, nested)}
    if isinstance(term, FunctionApp):
        return {"app": term.symbol, "args": [old_term_json(a, nested) for a in term.args]}
    if isinstance(term, Equality):
        return {"eq": [old_term_json(term.left, nested), old_term_json(term.right, nested)]}
    if isinstance(term, BoolConnective):
        return {"conn": term.op, "args": [old_term_json(a, nested) for a in term.operands]}
    if isinstance(term, Iota):
        cond = old_term_json(term.condition, nested)
        return {"iota": term.var, "domain": term.domain, "cond": cond}
    assert isinstance(term, Variable), term
    return {"var": term.name}
