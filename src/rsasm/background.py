"""Background functions and partial-update operators.

Two registries live here: term-level background functions available to rule
terms, and the whitelist of collapse operators usable in partial assignments.
Collapse operators are applied as ``op(current_location_value, *operands)``;
the tree-extending operators therefore take the tree being extended first,
unlike their hedge-first counterparts in :mod:`rsasm.treealg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import treealg
from .errors import EvalError, RuleError
from .structures import (
    FALSE,
    TRUE,
    UNDEF,
    Atom,
    BoolVal,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SetVal,
    State,
    TreeValue,
    TupleVal,
    Value,
)
from .treealg import Tree


@dataclass(frozen=True)
class TermFunction:
    name: str
    arity: int | None  # None means variadic
    fn: Callable  # (state, argument values, reads) -> value


TERM_FUNCTIONS: dict[str, TermFunction] = {}


def _register(name: str, arity: int | None):
    def deco(fn):
        TERM_FUNCTIONS[name] = TermFunction(name, arity, fn)
        return fn

    return deco


def _nat(v: Value, what: str) -> int:
    if not isinstance(v, NatVal):
        raise EvalError(f"{what} expects a natural number, got {v!r}")
    return v.n


def _set(v: Value, what: str) -> frozenset:
    if not isinstance(v, SetVal):
        raise EvalError(f"{what} expects a set value, got {v!r}")
    return v.members


@_register("+", 2)
def _add(state, vals, reads):
    return NatVal(_nat(vals[0], "+") + _nat(vals[1], "+"))


@_register("-", 2)
def _sub(state, vals, reads):
    return NatVal(max(0, _nat(vals[0], "-") - _nat(vals[1], "-")))


@_register("mod", 2)
def _mod(state, vals, reads):
    b = _nat(vals[1], "mod")
    if b == 0:
        return UNDEF
    return NatVal(_nat(vals[0], "mod") % b)


@_register("lt", 2)
def _lt(state, vals, reads):
    return TRUE if _nat(vals[0], "lt") < _nat(vals[1], "lt") else FALSE


@_register("card_of", 1)
def _card_of(state, vals, reads):
    return NatVal(len(_set(vals[0], "card_of")))


@_register("member", 2)
def _member(state, vals, reads):
    return TRUE if vals[0] in _set(vals[1], "member") else FALSE


@_register("union", 2)
def _union(state, vals, reads):
    return SetVal(_set(vals[0], "union") | _set(vals[1], "union"))


@_register("inter", 2)
def _inter(state, vals, reads):
    return SetVal(_set(vals[0], "inter") & _set(vals[1], "inter"))


@_register("setminus", 2)
def _setminus(state, vals, reads):
    return SetVal(_set(vals[0], "setminus") - _set(vals[1], "setminus"))


@_register("setadd", 3)
def _setadd(state, vals, reads):
    items = _set(vals[0], "setadd")
    if not isinstance(vals[2], BoolVal):
        raise EvalError("setadd expects a Boolean flag")
    if vals[2].flag:
        return SetVal(items | {vals[1]})
    return SetVal(items)


@_register("emptyset", 0)
def _emptyset(state, vals, reads):
    return SetVal(frozenset())


@_register("raise_eval", 1)
def _raise_eval(state, vals, reads):
    # lift a term-as-value and interpret it in the current state
    from .reflect import raise_
    from .structures import Term, eval_term

    raised = raise_(vals[0])
    if not isinstance(raised, Term):
        raise EvalError("RAISE produced a rule; only terms can be evaluated here")
    return eval_term(state, raised, None, reads)


# -- node functions over the current self tree ---------------------------------


def _node(v: Value, what: str) -> tuple[int, ...]:
    if not isinstance(v, NodeRef):
        raise EvalError(f"{what} expects a tree node, got {v!r}")
    return v.path


def _self_tree(state: State, reads) -> Tree:
    if reads is not None:
        reads.add(SELF_LOCATION)
    return state.self_tree


@_register("root_node", 0)
def _root_node(state, vals, reads):
    return NodeRef(())


@_register("label", 1)
def _label(state, vals, reads):
    tree = _self_tree(state, reads)
    node = tree.find(_node(vals[0], "label"))
    return UNDEF if node is None else Atom(node.label)


@_register("child", 2)
def _child(state, vals, reads):
    p1, p2 = _node(vals[0], "child"), _node(vals[1], "child")
    return TRUE if len(p2) == len(p1) + 1 and p2[: len(p1)] == p1 else FALSE


@_register("next_sib", 2)
def _next_sib(state, vals, reads):
    p1, p2 = _node(vals[0], "next_sib"), _node(vals[1], "next_sib")
    ok = (
        len(p1) == len(p2) >= 1
        and p1[:-1] == p2[:-1]
        and p2[-1] == p1[-1] + 1
    )
    return TRUE if ok else FALSE


@_register("child_n", 2)
def _child_n(state, vals, reads):
    tree = _self_tree(state, reads)
    path = _node(vals[0], "child_n")
    i = _nat(vals[1], "child_n")
    if i < 1:
        return UNDEF
    target = path + (i - 1,)
    return UNDEF if tree.find(target) is None else NodeRef(target)


@_register("n_children", 1)
def _n_children(state, vals, reads):
    tree = _self_tree(state, reads)
    node = tree.find(_node(vals[0], "n_children"))
    return UNDEF if node is None else NatVal(len(node.children))


@_register("subtree", 1)
def _subtree(state, vals, reads):
    tree = _self_tree(state, reads)
    node = tree.find(_node(vals[0], "subtree"))
    return UNDEF if node is None else TreeValue(node)


@_register("context_of", 2)
def _context_of(state, vals, reads):
    tree = _self_tree(state, reads)
    p1, p2 = _node(vals[0], "context_of"), _node(vals[1], "context_of")
    if not (len(p1) < len(p2) and p2[: len(p1)] == p1):
        return UNDEF
    sub, rel = tree.find(p1), p2[len(p1) :]
    if sub is None or sub.find(rel) is None:
        return UNDEF
    return TreeValue(treealg.punch_hole(sub, rel).tree)


# -- tree construction functions -------------------------------------------------


def as_hedge(v: Value, what: str) -> tuple[Tree, ...]:
    """Read a value as a hedge: a tree is a singleton, a tuple of trees a list."""
    if isinstance(v, TreeValue):
        return (v.tree,)
    if isinstance(v, TupleVal):
        out = []
        for item in v.items:
            if not isinstance(item, TreeValue):
                raise EvalError(f"{what}: hedge element {item!r} is not a tree")
            out.append(item.tree)
        return tuple(out)
    raise EvalError(f"{what} expects trees, got {v!r}")


def _label_name(v: Value, what: str) -> str:
    if isinstance(v, Atom):
        return v.name
    raise EvalError(f"{what} expects a label, got {v!r}")


@_register("hole", 0)
def _hole(state, vals, reads):
    return TreeValue(Tree(treealg.XI))


@_register("leaf", 2)
def _leaf(state, vals, reads):
    return TreeValue(Tree(_label_name(vals[0], "leaf"), (), vals[1]))


@_register("label_hedge", None)
def _label_hedge(state, vals, reads):
    if not vals:
        raise EvalError("label_hedge needs a label")
    hedge: list[Tree] = []
    for v in vals[1:]:
        hedge.extend(as_hedge(v, "label_hedge"))
    return TreeValue(Tree(_label_name(vals[0], "label_hedge"), tuple(hedge)))


@_register("label_context", 2)
def _label_context(state, vals, reads):
    if not isinstance(vals[1], TreeValue):
        raise EvalError("label_context expects a context tree")
    return TreeValue(Tree(_label_name(vals[0], "label_context"), (vals[1].tree,)))


def _extend(vals, right: bool, what: str) -> Value:
    if not vals or not isinstance(vals[0], TreeValue):
        raise EvalError(f"{what} expects a tree or context first")
    base = vals[0].tree
    hedge: list[Tree] = []
    for v in vals[1:]:
        hedge.extend(as_hedge(v, what))
    if right:
        return TreeValue(Tree(base.label, base.children + tuple(hedge), base.value))
    return TreeValue(Tree(base.label, tuple(hedge) + base.children, base.value))


@_register("right_extend", None)
def _right_extend_fn(state, vals, reads):
    return _extend(vals, True, "right_extend")


@_register("left_extend", None)
def _left_extend_fn(state, vals, reads):
    return _extend(vals, False, "left_extend")


@_register("concat", 2)
def _concat_fn(state, vals, reads):
    h = as_hedge(vals[0], "concat") + as_hedge(vals[1], "concat")
    return TupleVal(tuple(TreeValue(t) for t in h))


@_register("inject_hedge", None)
def _inject_hedge_fn(state, vals, reads):
    if not vals or not isinstance(vals[0], TreeValue):
        raise EvalError("inject_hedge expects a context first")
    ctx = treealg.Context(vals[0].tree)
    hedge: list[Tree] = []
    for v in vals[1:]:
        hedge.extend(as_hedge(v, "inject_hedge"))
    return TreeValue(treealg.inject_hedge(ctx, tuple(hedge)))


@_register("inject_context", 2)
def _inject_context_fn(state, vals, reads):
    if not isinstance(vals[0], TreeValue) or not isinstance(vals[1], TreeValue):
        raise EvalError("inject_context expects two contexts")
    c1, c2 = treealg.Context(vals[0].tree), treealg.Context(vals[1].tree)
    return TreeValue(treealg.inject_context(c1, c2).tree)


# -- collapse operators -----------------------------------------------------------


@dataclass(frozen=True)
class SpliceOp:
    """Operator rewriting one node of a tree-valued location.

    ``inner`` is None for a plain overwrite of the addressed subtree, or the
    name of a registered operator to fold into that subtree.
    """

    path: tuple[int, ...]
    inner: str | None = None

    def __repr__(self) -> str:
        at = ".".join(map(str, self.path))
        return f"splice@({at})" + (f":{self.inner}" if self.inner else "")


class OperatorFailure(RuleError):
    """Internal: operator application failed; collapse turns this into a clash."""


COLLAPSE_OPERATORS: dict[str, Callable] = {}
COMMUTATIVE_OPERATORS = frozenset({"+", "union"})


def _collapse(name: str):
    def deco(fn):
        COLLAPSE_OPERATORS[name] = fn
        return fn

    return deco


def is_registered_operator(name: str) -> bool:
    return name in COLLAPSE_OPERATORS


@_collapse("+")
def _c_add(state, current, args):
    if not isinstance(current, NatVal) or len(args) != 1 or not isinstance(args[0], NatVal):
        raise OperatorFailure(f"+ expects naturals, got {current!r} and {args!r}")
    return NatVal(current.n + args[0].n)


@_collapse("-")
def _c_sub(state, current, args):
    if not isinstance(current, NatVal) or len(args) != 1 or not isinstance(args[0], NatVal):
        raise OperatorFailure(f"- expects naturals, got {current!r} and {args!r}")
    return NatVal(max(0, current.n - args[0].n))


@_collapse("union")
def _c_union(state, current, args):
    if not isinstance(current, SetVal):
        raise OperatorFailure(f"union expects a set location, got {current!r}")
    members = current.members
    for a in args:
        if not isinstance(a, SetVal):
            raise OperatorFailure(f"union expects set operands, got {a!r}")
        members = members | a.members
    return SetVal(members)


def _current_tree(current) -> Tree:
    if not isinstance(current, TreeValue):
        raise OperatorFailure(f"tree operator applied to non-tree value {current!r}")
    return current.tree


@_collapse("right_extend")
def _c_right_extend(state, current, args):
    base = _current_tree(current)
    hedge: list[Tree] = []
    for a in args:
        try:
            hedge.extend(as_hedge(a, "right_extend"))
        except EvalError as exc:
            raise OperatorFailure(str(exc)) from exc
    return TreeValue(Tree(base.label, base.children + tuple(hedge), base.value))


@_collapse("left_extend")
def _c_left_extend(state, current, args):
    base = _current_tree(current)
    hedge: list[Tree] = []
    for a in args:
        try:
            hedge.extend(as_hedge(a, "left_extend"))
        except EvalError as exc:
            raise OperatorFailure(str(exc)) from exc
    return TreeValue(Tree(base.label, tuple(hedge) + base.children, base.value))


@_collapse("concat")
def _c_concat(state, current, args):
    try:
        h = as_hedge(current, "concat")
        for a in args:
            h = h + as_hedge(a, "concat")
    except EvalError as exc:
        raise OperatorFailure(str(exc)) from exc
    return TupleVal(tuple(TreeValue(t) for t in h))


def apply_operator(state: State, op, current: Value, args: tuple[Value, ...]) -> Value:
    """Apply a collapse operator to a location's current value."""
    if isinstance(op, SpliceOp):
        tree = _current_tree(current)
        node = tree.find(op.path)
        if node is None:
            # Writes at vanished nodes are absorbed; needed so that folds of
            # nested node updates are total in every order.
            return current
        if op.inner is None:
            if len(args) != 1 or not isinstance(args[0], TreeValue):
                raise OperatorFailure(f"splice expects one tree operand, got {args!r}")
            new_sub = args[0].tree
        else:
            inner = COLLAPSE_OPERATORS.get(op.inner)
            if inner is None:
                raise OperatorFailure(f"unknown operator {op.inner!r}")
            result = inner(state, TreeValue(node), args)
            if not isinstance(result, TreeValue):
                raise OperatorFailure(f"operator {op.inner!r} did not produce a tree")
            new_sub = result.tree
        if not op.path:
            return TreeValue(new_sub)
        return TreeValue(treealg._replace_at_path(tree, op.path, new_sub))
    fn = COLLAPSE_OPERATORS.get(op)
    if fn is None:
        raise OperatorFailure(f"unknown operator {op!r}")
    return fn(state, current, args)
