"""Unranked labelled trees, hedges, contexts, substitutions, and the tree algebra.

Trees are immutable recursive values, and hash-consed: trees that are
isomorphic as ordered labelled value-carrying trees are one object, however
they were built, so tree equality is identity.  A node is its path, the child
indices that lead to it from the root: the selectors and substitutions take
paths, so every operator output carries its own addresses.  Leaf values are
opaque to this module; a leaf may also carry no value at all (it then reads
as undefined at higher layers).

A context is a tree with exactly one leaf carrying the reserved hole label;
the hole leaf never carries a value.

Tree difference, the rule term that rebuilds one self tree from another out
of these operators, lives in :mod:`rsasm.reflect` with the self-representation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import TreeError

# Reserved hole label for contexts.  Not representable as a program identifier,
# so it cannot collide with user labels.
XI = "ξ"

# Label vocabulary of the self-representation.
L_SELF = "self"
L_SIGNATURE = "signature"
L_RULE = "rule"
L_FUNC = "func"
L_NAME = "name"
L_ARITY = "arity"
L_UPDATE = "update"
L_TERM = "term"
L_IF = "if"
L_BOOL = "bool"
L_PAR = "par"
L_LET = "let"
L_PARTIAL = "partial"

Path = tuple[int, ...]


# Every live tree, keyed by ``(label, value, children)``: equal trees are one
# object (Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).  An
# entry is a weak reference that carries its key, and it drops its entry when
# its tree dies, so the table holds no tree alive.  A miss looks the key up and
# then stores it without a lock, so trees are built on one thread at a time.
_live: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)  # so the callback needs no closure, which would double an entry's size


def _forget(ref: _Ref) -> None:
    """Drop the entry of a dead tree, unless an equal tree has taken its place."""
    current = _live.pop(ref.key, ref)
    if current is not ref:
        _live[ref.key] = current


@dataclass(frozen=True, eq=False, init=False)
class Tree:
    """An ordered labelled tree; ``value`` is only meaningful on leaves.

    ``Tree(label, children, value)`` returns the live tree equal to the one
    asked for, if there is one, so ``==`` and ``hash`` are identity.
    """

    label: str
    children: tuple["Tree", ...] = ()
    value: object | None = None

    def __new__(cls, label: str, children: tuple = (), value: object | None = None) -> "Tree":
        if not isinstance(label, str) or not label:
            raise TreeError(f"tree label must be a non-empty string, got {label!r}")
        if not isinstance(children, tuple):
            raise TreeError("tree children must be a tuple")
        if children and value is not None:
            raise TreeError(f"interior node {label!r} cannot carry a leaf value")
        key = (label, value, children)
        ref = _live.get(key)
        tree = ref and ref()
        if tree is None:
            size, depth = 1, 0  # cached so no reader re-walks the tree
            for c in children:
                size += c.size
                depth = max(depth, c.depth + 1)
            tree = object.__new__(cls)
            set_ = object.__setattr__
            set_(tree, "label", label)
            set_(tree, "children", children)
            set_(tree, "value", value)
            set_(tree, "size", size)  # nodes
            set_(tree, "depth", depth)  # edges to the deepest leaf
            ref = _live[key] = _Ref(tree, _forget)
            ref.key = key
        return tree

    def __reduce__(self):  # copies and pickles are rebuilt, so they are the live tree
        return Tree, (self.label, self.children, self.value)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- node addressing: a node is its path ---------------------------------

    def preorder(self):
        """Yield (path, subtree) for every node in preorder; a node is its path."""
        stack: list[tuple[Path, Tree]] = [((), self)]
        push = stack.append
        while stack:
            path, node = stack.pop()
            yield path, node
            kids = node.children
            for i in range(len(kids) - 1, -1, -1):
                push((path + (i,), kids[i]))

    def find(self, path: Path) -> "Tree | None":
        """The node at ``path``, or None if the path leaves the tree."""
        node = self
        try:
            for i in path:
                if i < 0:
                    return None
                node = node.children[i]
        except IndexError:
            return None
        return node


def memoized(t, key: str, compute):
    """``compute(t)``, computed once per object and kept on it; it is never None.

    ``t`` is an immutable tree, term, rule or value, so the result lives
    exactly as long as the object: a tree keeps its decoded rule, a term its
    compiled closures and free variables, a rule its free variables, a
    composite value its sort key; equal trees are one object, so a tree's
    memo serves every build of it while it lives.  The decoded rule is set by
    ``reflect.decode_rule`` or, on a tree that held none, by the encoder,
    which leaves there the rule it encoded.  A computation that raises raises
    again on every call.  The memo is an attribute, since reading
    ``t.__dict__`` would slow every later read.
    """
    value = getattr(t, key, None)
    if value is None:
        object.__setattr__(t, key, value := compute(t))
    return value


Hedge = tuple[Tree, ...]
EMPTY_HEDGE: Hedge = ()

_HOLE_LEAF = Tree(XI)


def _count_holes(t: Tree) -> int:
    n = 1 if t.label == XI else 0
    return n + sum(_count_holes(c) for c in t.children)


@dataclass(frozen=True)
class Context:
    """A tree with exactly one hole leaf labelled ``XI``."""

    tree: Tree

    def __post_init__(self) -> None:
        holes = [
            (path, node)
            for path, node in self.tree.preorder()
            if node.label == XI
        ]
        if len(holes) != 1:
            raise TreeError(f"a context needs exactly one hole, found {len(holes)}")
        path, node = holes[0]
        if node.children or node.value is not None:
            raise TreeError("the hole must be a bare leaf")
        object.__setattr__(self, "_hole_path", path)

    @property
    def hole_path(self) -> Path:
        return self._hole_path  # type: ignore[attr-defined]

    @property
    def is_trivial(self) -> bool:
        return self.tree.label == XI


TRIVIAL_CONTEXT = Context(_HOLE_LEAF)


def _replace_at_path(t: Tree, path: Path, repl: Tree | Hedge) -> Tree:
    """Replace the subtree at ``path`` by a tree, or splice a hedge there."""
    if not path:
        if isinstance(repl, Tree):
            return repl
        raise TreeError("cannot splice a hedge at the root")
    i = path[0]
    if i < 0 or i >= len(t.children):
        raise TreeError(f"path component {i} out of range")
    kids = t.children
    if len(path) == 1 and not isinstance(repl, Tree):
        new_kids = kids[:i] + tuple(repl) + kids[i + 1 :]
    else:
        new_kids = kids[:i] + (_replace_at_path(kids[i], path[1:], repl),) + kids[i + 1 :]
    return Tree(t.label, new_kids, t.value)


# -- selectors ----------------------------------------------------------------


def subtree(t: Tree, p: Path) -> Tree:
    """The largest subtree rooted at node ``p``; a path that leaves the tree raises TreeError."""
    node = t.find(p)
    if node is None:
        depth = next(d for d in range(len(p)) if t.find(p[: d + 1]) is None)
        raise TreeError(f"path {p} leaves the tree at index {p[depth]}")
    return node


def context_of(t: Tree, p1: Path, p2: Path) -> Context:
    """The context obtained from the subtree at ``p1`` by punching out ``p2``.

    Requires ``p1`` to be a strict ancestor of ``p2``.
    """
    if not (len(p1) < len(p2) and p2[: len(p1)] == p1):
        raise TreeError(f"node {p1} is not a strict ancestor of node {p2}")
    return subst_tc(subtree(t, p1), p2[len(p1) :])


# -- the four substitutions ---------------------------------------------------


def subst_tt(t1: Tree, p: Path, t2: Tree) -> Tree:
    """Replace the subtree of ``t1`` rooted at ``p`` by ``t2``."""
    return _replace_at_path(t1, p, t2)


def subst_tc(t1: Tree, p: Path, c: Context = TRIVIAL_CONTEXT) -> Context:
    """Replace the subtree of ``t1`` rooted at ``p`` by a context (default: the hole)."""
    return Context(_replace_at_path(t1, p, c.tree))


def subst_cc(c1: Context, c2: Context) -> Context:
    """Substitute context ``c2`` for the hole of ``c1``."""
    return Context(_replace_at_path(c1.tree, c1.hole_path, c2.tree))


def subst_ct(c1: Context, t2: Tree) -> Tree:
    """Substitute tree ``t2`` for the hole of ``c1``."""
    result = _replace_at_path(c1.tree, c1.hole_path, t2)
    if _count_holes(result) != 0:
        raise TreeError("substituted tree still contains a hole")
    return result


# -- the seven algebra operators ----------------------------------------------


def label_hedge(a: str, h: Hedge = EMPTY_HEDGE) -> Tree:
    """Turn a hedge into a tree with a new root labelled ``a``."""
    return Tree(a, tuple(h))


def label_context(a: str, c: Context) -> Context:
    """Turn a context into a context with a new root labelled ``a``."""
    return Context(Tree(a, (c.tree,)))


def _extendable_root(c) -> Tree:
    root = c.tree if isinstance(c, Context) else c
    if root.label == XI:
        raise TreeError("cannot extend below a hole; the root must be labelled")
    if root.value is not None:
        raise TreeError("cannot extend a value-carrying leaf")
    return root


def left_extend(h: Hedge, c):
    """Prepend the trees of ``h`` to the root's child list of a context or tree."""
    if not h:
        return c
    root = _extendable_root(c)
    grown = Tree(root.label, tuple(h) + root.children)
    return Context(grown) if isinstance(c, Context) else grown


def right_extend(h: Hedge, c):
    """Append the trees of ``h`` to the root's child list of a context or tree."""
    if not h:
        return c
    root = _extendable_root(c)
    grown = Tree(root.label, root.children + tuple(h))
    return Context(grown) if isinstance(c, Context) else grown


def concat(h1: Hedge, h2: Hedge) -> Hedge:
    """Concatenate two hedges."""
    return tuple(h1) + tuple(h2)


def inject_hedge(c: Context, h: Hedge) -> Tree:
    """Turn a context into a tree by substituting a hedge for the hole."""
    if c.is_trivial:
        if len(h) != 1:
            raise TreeError("injecting into the trivial context needs a single tree")
        return h[0]
    return _replace_at_path(c.tree, c.hole_path, tuple(h))


def inject_context(c1: Context, c2: Context) -> Context:
    """Substitute a context for the hole (same operation as ``subst_cc``)."""
    return subst_cc(c1, c2)
