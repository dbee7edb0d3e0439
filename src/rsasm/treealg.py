"""Unranked labelled trees, hedges, contexts, substitutions, and the tree algebra.

Trees are immutable recursive values.  Node identifiers are preorder indices
derived from the structure, so every operator output automatically carries
fresh identifiers, and value equality is isomorphism of ordered labelled
value-carrying trees.  Leaf values are opaque to this module; a leaf may also
carry no value at all (it then reads as undefined at higher layers).

A context is a tree with exactly one leaf carrying the reserved hole label;
the hole leaf never carries a value.
"""

from __future__ import annotations

import itertools
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

BASE_LABELS = frozenset(
    {
        L_SELF,
        L_SIGNATURE,
        L_RULE,
        L_FUNC,
        L_NAME,
        L_ARITY,
        L_UPDATE,
        L_TERM,
        L_IF,
        L_BOOL,
        L_PAR,
        L_LET,
        L_PARTIAL,
    }
)

Path = tuple[int, ...]


@dataclass(frozen=True)
class Tree:
    """An ordered labelled tree; ``value`` is only meaningful on leaves."""

    label: str
    children: tuple["Tree", ...] = ()
    value: object | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise TreeError(f"tree label must be a non-empty string, got {self.label!r}")
        if not isinstance(self.children, tuple):
            raise TreeError("tree children must be a tuple")
        if self.children and self.value is not None:
            raise TreeError(f"interior node {self.label!r} cannot carry a leaf value")
        size = 1 + sum(c.size for c in self.children)
        object.__setattr__(self, "_size", size)
        h = hash((self.label, self.value, tuple(c._hash for c in self.children)))
        object.__setattr__(self, "_hash", h)

    # Structural hash cached at construction; avoids re-walking the tree.
    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return self._size  # type: ignore[attr-defined]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- node addressing: preorder index <-> path ----------------------------

    def preorder(self):
        """Yield (node_id, path, subtree) in preorder; node_id is 0-based."""
        stack: list[tuple[Path, Tree]] = [((), self)]
        nid = 0
        while stack:
            path, node = stack.pop()
            yield nid, path, node
            nid += 1
            stack.extend(reversed([(path + (i,), c) for i, c in enumerate(node.children)]))

    def node_ids(self) -> range:
        return range(self.size)

    def path_of(self, o: int) -> Path:
        for nid, path, _ in self.preorder():
            if nid == o:
                return path
        raise TreeError(f"no node with id {o} (tree has {self.size} nodes)")

    def node_at(self, o: int) -> "Tree":
        for nid, _, node in self.preorder():
            if nid == o:
                return node
        raise TreeError(f"no node with id {o} (tree has {self.size} nodes)")

    def find(self, path: Path) -> "Tree | None":
        """The node at ``path``, or None if the path leaves the tree."""
        node = self
        for i in path:
            kids = node.children
            if i < 0 or i >= len(kids):
                return None
            node = kids[i]
        return node

    def node_at_path(self, path: Path) -> "Tree":
        """The node at ``path``; a path that leaves the tree raises TreeError."""
        node = self.find(path)
        if node is None:
            depth = next(d for d in range(len(path)) if self.find(path[: d + 1]) is None)
            raise TreeError(f"path {path} leaves the tree at index {path[depth]}")
        return node

    def label_of(self, o: int) -> str:
        return self.node_at(o).label

    def leaf_value(self, o: int) -> object | None:
        node = self.node_at(o)
        if node.children:
            raise TreeError(f"node {o} is not a leaf")
        return node.value

    # -- relational views (child and next-sibling relations) -----------------

    def child_pairs(self) -> list[tuple[int, int]]:
        paths = {path: nid for nid, path, _ in self.preorder()}
        return [
            (paths[path[:-1]], nid)
            for nid, path, _ in self.preorder()
            if path
        ]

    def sibling_pairs(self) -> list[tuple[int, int]]:
        paths = {path: nid for nid, path, _ in self.preorder()}
        pairs = []
        for nid, path, node in self.preorder():
            for i in range(len(node.children) - 1):
                pairs.append((paths[path + (i,)], paths[path + (i + 1,)]))
        return pairs

    def parent_of(self, o: int) -> int | None:
        path = self.path_of(o)
        if not path:
            return None
        paths = {p: nid for nid, p, _ in self.preorder()}
        return paths[path[:-1]]


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
            for _, path, node in self.tree.preorder()
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


def punch_hole(t: Tree, path: Path) -> Context:
    """The context obtained from ``t`` by replacing the subtree at ``path`` by the hole."""
    return Context(_replace_at_path(t, path, _HOLE_LEAF))


# -- selectors ----------------------------------------------------------------


def subtree(t: Tree, o: int) -> Tree:
    """The largest subtree rooted at node ``o``."""
    return t.node_at(o)


def context_of(t: Tree, o1: int, o2: int) -> Context:
    """The context obtained from the subtree at ``o1`` by punching out ``o2``.

    Requires ``o1`` to be a strict ancestor of ``o2``.
    """
    p1, p2 = t.path_of(o1), t.path_of(o2)
    if not (len(p1) < len(p2) and p2[: len(p1)] == p1):
        raise TreeError(f"node {o1} is not a strict ancestor of node {o2}")
    return punch_hole(t.node_at_path(p1), p2[len(p1) :])


# -- the four substitutions ---------------------------------------------------


def subst_tt(t1: Tree, o: int, t2: Tree) -> Tree:
    """Replace the subtree of ``t1`` rooted at ``o`` by ``t2``."""
    return _replace_at_path(t1, t1.path_of(o), t2)


def subst_tc(t1: Tree, o: int, c: Context = TRIVIAL_CONTEXT) -> Context:
    """Replace the subtree of ``t1`` rooted at ``o`` by a context (default: the hole)."""
    return Context(_replace_at_path(t1, t1.path_of(o), c.tree))


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


def hedge_of(t: Tree) -> Hedge:
    """The root's child list as a hedge."""
    return t.children


# -- shallow self-representation shape check ----------------------------------


def is_self_shaped(t: Tree) -> bool:
    """Check the outer shape of a self-representation tree.

    Root labelled ``self`` with exactly a signature child (func entries, each
    with name and arity leaves) followed by a rule child wrapping one subtree.
    Rule well-formedness is a concern of the reflection layer.
    """
    if t.label != L_SELF or len(t.children) != 2 or t.value is not None:
        return False
    sig, rule = t.children
    if sig.label != L_SIGNATURE or rule.label != L_RULE:
        return False
    if len(rule.children) != 1:
        return False
    for entry in sig.children:
        if entry.label != L_FUNC or len(entry.children) != 2:
            return False
        name, arity = entry.children
        if name.label != L_NAME or arity.label != L_ARITY:
            return False
        if name.children or arity.children:
            return False
    return True


def _require_self_shaped(t: Tree, what: str) -> None:
    if not is_self_shaped(t):
        raise TreeError(f"{what} is not a self-representation tree")


# -- algebra terms ------------------------------------------------------------


class AlgebraTerm:
    """Expression over the tree algebra; evaluated against a subject tree."""

    __slots__ = ()


@dataclass(frozen=True)
class TreeLiteral(AlgebraTerm):
    tree: Tree

    def __str__(self) -> str:
        return format_tree(self.tree)


@dataclass(frozen=True)
class SubtreePath(AlgebraTerm):
    """Subtree selector by absolute child-index path in the subject tree."""

    path: Path

    def __str__(self) -> str:
        return "subtree@(" + ".".join(map(str, self.path)) + ")"


@dataclass(frozen=True)
class SubtreeKL(AlgebraTerm):
    """Subtree selector by depth below the rule wrapper and left-sibling count.

    Resolves to the leftmost (preorder-first) matching node; the subject tree
    must be self-shaped.
    """

    depth: int
    sibling_index: int

    def __str__(self) -> str:
        return f"subtree@(k={self.depth},l={self.sibling_index})"


@dataclass(frozen=True)
class ContextSelector(AlgebraTerm):
    """Context between two absolute paths of the subject tree."""

    outer: Path
    inner: Path

    def __str__(self) -> str:
        o = ".".join(map(str, self.outer))
        i = ".".join(map(str, self.inner))
        return f"context@({o})->({i})"


@dataclass(frozen=True)
class LabelHedgeOp(AlgebraTerm):
    label: str
    parts: tuple[AlgebraTerm, ...]

    def __str__(self) -> str:
        return f"label_hedge({self.label}, {', '.join(map(str, self.parts))})"


@dataclass(frozen=True)
class LabelContextOp(AlgebraTerm):
    label: str
    part: AlgebraTerm

    def __str__(self) -> str:
        return f"label_context({self.label}, {self.part})"


@dataclass(frozen=True)
class LeftExtendOp(AlgebraTerm):
    base: AlgebraTerm
    parts: tuple[AlgebraTerm, ...]

    def __str__(self) -> str:
        return f"left_extend({self.base}, {', '.join(map(str, self.parts))})"


@dataclass(frozen=True)
class RightExtendOp(AlgebraTerm):
    base: AlgebraTerm
    parts: tuple[AlgebraTerm, ...]

    def __str__(self) -> str:
        return f"right_extend({self.base}, {', '.join(map(str, self.parts))})"


@dataclass(frozen=True)
class ConcatOp(AlgebraTerm):
    parts: tuple[AlgebraTerm, ...]

    def __str__(self) -> str:
        return f"concat({', '.join(map(str, self.parts))})"


@dataclass(frozen=True)
class InjectHedgeOp(AlgebraTerm):
    context: AlgebraTerm
    parts: tuple[AlgebraTerm, ...]

    def __str__(self) -> str:
        return f"inject_hedge({self.context}, {', '.join(map(str, self.parts))})"


@dataclass(frozen=True)
class InjectContextOp(AlgebraTerm):
    outer: AlgebraTerm
    inner: AlgebraTerm

    def __str__(self) -> str:
        return f"inject_context({self.outer}, {self.inner})"


def format_tree(t: Tree) -> str:
    """Render a tree in the program literal syntax."""
    if t.label == XI:
        return "XI"
    if t.children:
        return f"{t.label}<{', '.join(format_tree(c) for c in t.children)}>"
    if t.value is not None:
        return f"{t.label}({t.value})"
    return t.label


def _resolve_kl(t: Tree, depth: int, sibling_index: int) -> Tree:
    _require_self_shaped(t, "subject of a (k,l) selector")
    wrapper = t.children[1]
    for _, path, node in wrapper.preorder():
        if len(path) == depth and path and path[-1] == sibling_index:
            return node
    raise TreeError(f"no node at depth {depth} with {sibling_index} left siblings")


def _as_hedge(v) -> Hedge:
    if isinstance(v, Tree):
        return (v,)
    if isinstance(v, Context):
        raise TreeError("a context cannot be used as a hedge element")
    return tuple(v)


def eval_algebra(term: AlgebraTerm, subject: Tree):
    """Evaluate an algebra term against a subject tree.

    Returns a Tree, a Context, or a hedge depending on the term kind.
    """
    if isinstance(term, TreeLiteral):
        return term.tree
    if isinstance(term, SubtreePath):
        node = subject.find(term.path)
        if node is None:
            raise TreeError(f"selector path {term.path} missing from subject")
        return node
    if isinstance(term, SubtreeKL):
        return _resolve_kl(subject, term.depth, term.sibling_index)
    if isinstance(term, ContextSelector):
        sub = subject.node_at_path(term.outer)
        rel = term.inner[len(term.outer) :]
        if term.inner[: len(term.outer)] != term.outer or not rel:
            raise TreeError("context selector paths are not nested")
        return punch_hole(sub, rel)
    if isinstance(term, LabelHedgeOp):
        h: list[Tree] = []
        for p in term.parts:
            h.extend(_as_hedge(eval_algebra(p, subject)))
        return Tree(term.label, tuple(h))
    if isinstance(term, LabelContextOp):
        inner = eval_algebra(term.part, subject)
        if not isinstance(inner, Context):
            raise TreeError("label_context needs a context operand")
        return label_context(term.label, inner)
    if isinstance(term, (LeftExtendOp, RightExtendOp)):
        base = eval_algebra(term.base, subject)
        h = []
        for p in term.parts:
            h.extend(_as_hedge(eval_algebra(p, subject)))
        op = left_extend if isinstance(term, LeftExtendOp) else right_extend
        return op(tuple(h), base)
    if isinstance(term, ConcatOp):
        h = []
        for p in term.parts:
            h.extend(_as_hedge(eval_algebra(p, subject)))
        return tuple(h)
    if isinstance(term, InjectHedgeOp):
        c = eval_algebra(term.context, subject)
        if not isinstance(c, Context):
            raise TreeError("inject_hedge needs a context operand")
        h = []
        for p in term.parts:
            h.extend(_as_hedge(eval_algebra(p, subject)))
        return inject_hedge(c, tuple(h))
    if isinstance(term, InjectContextOp):
        outer = eval_algebra(term.outer, subject)
        inner = eval_algebra(term.inner, subject)
        if not isinstance(outer, Context) or not isinstance(inner, Context):
            raise TreeError("inject_context needs two context operands")
        return inject_context(outer, inner)
    raise TreeError(f"unknown algebra term {term!r}")


# -- tree difference ----------------------------------------------------------


def _kl_of_path(path: Path) -> tuple[int, int]:
    # path is relative to the rule wrapper; depth = length, l = last index
    return len(path), path[-1]


def _rule_region_index(t: Tree) -> dict[Tree, list[Path]]:
    wrapper = t.children[1]
    index: dict[Tree, list[Path]] = {}
    for _, path, node in wrapper.preorder():
        if path:
            index.setdefault(node, []).append(path)
    return index


def tree_diff(t: Tree, t2: Tree) -> AlgebraTerm:
    """An algebra term that rebuilds ``t2`` when evaluated against ``t``.

    Both trees must be self-shaped.  New assignment and partial-assignment
    subtrees become literals, subtrees that already occur in the rule region
    of ``t`` are reused through (k,l) selectors, grown child lists become
    right-extensions, and remaining interior nodes are rebuilt label by label.
    """
    _require_self_shaped(t, "first tree")
    _require_self_shaped(t2, "second tree")
    reuse = _rule_region_index(t)

    def locate(node: Tree) -> SubtreeKL | None:
        for path in reuse.get(node, ()):
            k, l = _kl_of_path(path)
            if _resolve_kl(t, k, l) == node:
                return SubtreeKL(k, l)
        return None

    def diff_node(node2: Tree, path2: Path) -> AlgebraTerm:
        hit = locate(node2)
        if hit is not None:
            return hit
        # grown child list at the structurally corresponding position
        old = t.find(path2)
        if (
            old is not None
            and old.label == node2.label
            and old.value == node2.value
            and len(old.children) < len(node2.children)
            and old.children == node2.children[: len(old.children)]
        ):
            base = locate(old) or SubtreePath(path2)
            appended = tuple(
                diff_node(c, path2 + (len(old.children) + i,))
                for i, c in enumerate(node2.children[len(old.children) :])
            )
            return RightExtendOp(base, appended)
        if node2.label in (L_UPDATE, L_PARTIAL) or node2.is_leaf:
            return TreeLiteral(node2)
        return LabelHedgeOp(
            node2.label,
            tuple(
                diff_node(c, path2 + (i,)) for i, c in enumerate(node2.children)
            ),
        )

    t_sig, t2_sig = t.children[0], t2.children[0]
    if t_sig == t2_sig:
        sig_term: AlgebraTerm = SubtreePath((0,))
    elif (
        len(t_sig.children) < len(t2_sig.children)
        and t_sig.children == t2_sig.children[: len(t_sig.children)]
    ):
        sig_term = RightExtendOp(
            SubtreePath((0,)),
            tuple(TreeLiteral(e) for e in t2_sig.children[len(t_sig.children) :]),
        )
    else:
        sig_term = TreeLiteral(t2_sig)

    rule_term = diff_node(t2.children[1].children[0], (1, 0))
    return LabelHedgeOp(L_SELF, (sig_term, LabelHedgeOp(L_RULE, (rule_term,))))


def tree_update_rule(t: Tree, t2: Tree):
    """A parallel rule of node-level assignments turning ``self`` = ``t`` into ``t2``.

    Executed on a state whose ``self`` holds ``t`` the rule's update multiset
    collapses to exactly the single update assigning ``t2`` to ``self``.
    """
    from .structures import Atom, Constant, FunctionApp, NodeRef, TreeValue
    from .rules import Assign, Let, Par

    _require_self_shaped(t, "first tree")
    _require_self_shaped(t2, "second tree")
    reuse = _rule_region_index(t)
    wrapper_paths = {
        node: path for _, path, node in t.children[1].preorder() if path
    }

    counter = itertools.count()
    branches = []

    def node_branch(path: Path, rhs) -> None:
        var = f"o{next(counter)}"
        branches.append(Let(var, Constant(NodeRef(path)), Assign(var, (), rhs)))

    def rhs_for(node2: Tree):
        if node2 in reuse:
            source = (1,) + wrapper_paths[node2]
            return FunctionApp("subtree", (Constant(NodeRef(source)),))
        if node2.label in (L_UPDATE, L_PARTIAL) or node2.is_leaf:
            return Constant(TreeValue(node2))
        return FunctionApp(
            "label_hedge",
            (Constant(Atom(node2.label)),) + tuple(rhs_for(c) for c in node2.children),
        )

    t_sig, t2_sig = t.children[0], t2.children[0]
    if t_sig != t2_sig:
        if (
            len(t_sig.children) < len(t2_sig.children)
            and t_sig.children == t2_sig.children[: len(t_sig.children)]
        ):
            appended = t2_sig.children[len(t_sig.children) :]
            rhs = FunctionApp(
                "right_extend",
                (FunctionApp("subtree", (Constant(NodeRef((0,))),)),)
                + tuple(Constant(TreeValue(e)) for e in appended),
            )
        else:
            rhs = Constant(TreeValue(t2_sig))
        node_branch((0,), rhs)

    def emit(node2: Tree, path2: Path) -> None:
        node_branch(path2, rhs_for(node2))
        if not (node2 in reuse or node2.label in (L_UPDATE, L_PARTIAL) or node2.is_leaf):
            for i, c in enumerate(node2.children):
                emit(c, path2 + (i,))

    emit(t2.children[1].children[0], (1, 0))
    return Par(tuple(branches))
