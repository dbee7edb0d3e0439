"""Background term functions, which are also the partial-update operators.

``TERM_FUNCTIONS`` holds the functions rule terms may call.  A partial update
``f <=[op] a1, ..., an`` applies the same function ``op`` to the location's
current value and the operands (Gurevich & Tillmann, "Partial updates", 2005);
``COLLAPSE_OPERATORS`` names the functions allowed there.  The tree-building
functions adapt values to :mod:`rsasm.treealg`, whose operators take the hedge
first and hold the only hedge extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import treealg
from .errors import EvalError, RuleError, TreeError
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


def _node(v: Value, what: str) -> NodeRef:
    if not isinstance(v, NodeRef):
        raise EvalError(f"{what} expects a tree node, got {v!r}")
    return v


def _self_tree(state: State, reads) -> Tree:
    if reads is not None:
        reads.add(SELF_LOCATION)
    return state.self_tree


def _find(tree: Tree, ref: NodeRef) -> Tree | None:
    """The node ``ref`` names in ``tree``, or None; the node it carries serves only the tree it was found in."""
    return ref.node if ref.tree is tree else tree.find(ref.path)


@_register("root_node", 0)
def _root_node(state, vals, reads):
    return NodeRef(())


@_register("label", 1)
def _label(state, vals, reads):
    tree = _self_tree(state, reads)
    node = _find(tree, _node(vals[0], "label"))
    return UNDEF if node is None else Atom(node.label)


@_register("child", 2)
def _child(state, vals, reads):
    p1, p2 = _node(vals[0], "child").path, _node(vals[1], "child").path
    return TRUE if len(p2) == len(p1) + 1 and p2[: len(p1)] == p1 else FALSE


@_register("next_sib", 2)
def _next_sib(state, vals, reads):
    p1, p2 = _node(vals[0], "next_sib").path, _node(vals[1], "next_sib").path
    ok = (
        len(p1) == len(p2) >= 1
        and p1[:-1] == p2[:-1]
        and p2[-1] == p1[-1] + 1
    )
    return TRUE if ok else FALSE


@_register("child_n", 2)
def _child_n(state, vals, reads):
    tree = _self_tree(state, reads)
    ref = _node(vals[0], "child_n")
    i = _nat(vals[1], "child_n")
    node = _find(tree, ref) if i >= 1 else None
    if node is None or i > len(node.children):
        return UNDEF
    return NodeRef(ref.path + (i - 1,), tree, node.children[i - 1])


@_register("n_children", 1)
def _n_children(state, vals, reads):
    tree = _self_tree(state, reads)
    node = _find(tree, _node(vals[0], "n_children"))
    return UNDEF if node is None else NatVal(len(node.children))


@_register("subtree", 1)
def _subtree(state, vals, reads):
    tree = _self_tree(state, reads)
    node = _find(tree, _node(vals[0], "subtree"))
    return UNDEF if node is None else TreeValue(node)


@_register("context_of", 2)
def _context_of(state, vals, reads):
    tree = _self_tree(state, reads)
    r1, r2 = _node(vals[0], "context_of"), _node(vals[1], "context_of")
    p1, p2 = r1.path, r2.path
    if len(p1) >= len(p2) or p2[: len(p1)] != p1 or _find(tree, r2) is None:
        return UNDEF
    return TreeValue(treealg.context_of(tree, p1, p2).tree)


# -- tree construction functions: thin adapters over the tree algebra ----------


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


def _hedge(vals, what: str) -> tuple[Tree, ...]:
    """The hedges of several values, concatenated."""
    return tuple(t for v in vals for t in as_hedge(v, what))


def _label_name(v: Value, what: str) -> str:
    if isinstance(v, Atom):
        return v.name
    raise EvalError(f"{what} expects a label, got {v!r}")


def _context(v: Value, what: str) -> treealg.Context:
    if not isinstance(v, TreeValue):
        raise EvalError(f"{what} expects a context tree, got {v!r}")
    return treealg.Context(v.tree)


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
    label = _label_name(vals[0], "label_hedge")
    return TreeValue(treealg.label_hedge(label, _hedge(vals[1:], "label_hedge")))


@_register("label_context", 2)
def _label_context(state, vals, reads):
    label = _label_name(vals[0], "label_context")
    return TreeValue(treealg.label_context(label, _context(vals[1], "label_context")).tree)


def _extend(extend, vals, what: str) -> Value:
    if not vals or not isinstance(vals[0], TreeValue):
        raise EvalError(f"{what} expects a tree or context first")
    return TreeValue(extend(_hedge(vals[1:], what), vals[0].tree))


@_register("right_extend", None)
def _right_extend(state, vals, reads):
    return _extend(treealg.right_extend, vals, "right_extend")


@_register("left_extend", None)
def _left_extend(state, vals, reads):
    return _extend(treealg.left_extend, vals, "left_extend")


@_register("concat", 2)
def _concat(state, vals, reads):
    h = treealg.concat(as_hedge(vals[0], "concat"), as_hedge(vals[1], "concat"))
    return TupleVal(tuple(TreeValue(t) for t in h))


@_register("inject_hedge", None)
def _inject_hedge(state, vals, reads):
    if not vals:
        raise EvalError("inject_hedge expects a context first")
    ctx = _context(vals[0], "inject_hedge")
    return TreeValue(treealg.inject_hedge(ctx, _hedge(vals[1:], "inject_hedge")))


@_register("inject_context", 2)
def _inject_context(state, vals, reads):
    c1, c2 = _context(vals[0], "inject_context"), _context(vals[1], "inject_context")
    return TreeValue(treealg.inject_context(c1, c2).tree)


# -- partial-update operators ---------------------------------------------------------


@dataclass(frozen=True)
class SpliceOp:
    """Operator rewriting one node of a tree-valued location.

    ``inner`` is None for a plain overwrite of the addressed subtree, or the
    name of a partial-update operator to apply to that subtree.
    """

    path: tuple[int, ...]
    inner: str | None = None


class OperatorFailure(RuleError):
    """Internal: operator application failed; collapse turns this into a clash."""


# The term functions a partial update may name as its operator.
COLLAPSE_OPERATORS = frozenset({"+", "-", "union", "right_extend", "left_extend", "concat"})
COMMUTATIVE_OPERATORS = frozenset({"+", "union"})


def _apply_named(state: State, name: str, current: Value, args: tuple[Value, ...]) -> Value:
    """``name``'s term function over the current value and the operands.

    A variadic function takes them all in one call; a binary one folds the
    operands in from the left.
    """
    if name not in COLLAPSE_OPERATORS:
        raise OperatorFailure(f"unknown operator {name!r}")
    fn = TERM_FUNCTIONS[name]
    try:
        if fn.arity is None:
            return fn.fn(state, (current,) + args, None)
        for a in args:
            current = fn.fn(state, (current, a), None)
        return current
    except (EvalError, TreeError) as exc:
        raise OperatorFailure(str(exc)) from exc


def apply_operator(state: State, op, current: Value, args: tuple[Value, ...]) -> Value:
    """Apply a partial-update operator to a location's current value."""
    if not isinstance(op, SpliceOp):
        return _apply_named(state, op, current, args)
    if not isinstance(current, TreeValue):
        raise OperatorFailure(f"tree operator applied to non-tree value {current!r}")
    node = current.tree.find(op.path)
    if node is None:
        # Writes at vanished nodes are absorbed; needed so that folds of
        # nested node updates are total in every order.
        return current
    if op.inner is None:
        if len(args) != 1 or not isinstance(args[0], TreeValue):
            raise OperatorFailure(f"splice expects one tree operand, got {args!r}")
        new_sub = args[0]
    else:
        new_sub = _apply_named(state, op.inner, TreeValue(node), args)
        if not isinstance(new_sub, TreeValue):
            raise OperatorFailure(f"operator {op.inner!r} did not produce a tree")
    return TreeValue(treealg.subst_tt(current.tree, op.path, new_sub.tree))
