"""The self-representation: rules and signatures as trees, raise/drop, extraction.

A self tree is exactly ``self<signature<…>, rule<R>>``: a root labelled
``self`` whose two children are the signature tree and a rule wrapper holding
the one rule tree ``R``; an interior node carries no value, so neither does
the root.  The signature tree holds one ``func<name, arity>`` entry per
symbol, whose two leaves hold the symbol's name and its arity.  The signature
is at ``node@0`` and the rule at ``node@1.0``; ``_regions`` is the one reader
of this layout, and every other check goes through it and the decoders.

Rules encode as syntax trees over the reserved label vocabulary; the terms
inside them are stored as dropped values on leaves.  ``raise_`` and ``drop``
mediate between terms/rules and their value-level form.  ``beta`` extracts
from a rule encoding the tuple of standard terms the rule evaluates, which is
what bounded exploration of a reflective machine rests on.  Tree difference
lives here too: ``tree_diff`` writes the change from one self tree to another
as a rule term over the tree-algebra functions, ``eval_algebra`` replays it,
and ``tree_update_rule`` turns it into node-level assignments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import ReflectError, TreeError
from .rules import Assign, If, Let, Par, PartialAssign, Rule, SharedUpdate
from .structures import (
    Atom,
    BoolVal,
    Constant,
    DroppedTerm,
    FunctionApp,
    NatVal,
    NodeRef,
    SELF_LOCATION,
    SetVal,
    Signature,
    FunctionSymbol,
    State,
    SymbolName,
    Term,
    TreeValue,
    TupleVal,
    UNDEF,
    Variable,
    eval_term,
    term_substitute,
)
from .treealg import (
    L_ARITY,
    L_BOOL,
    L_FUNC,
    L_IF,
    L_LET,
    L_NAME,
    L_PAR,
    L_PARTIAL,
    L_RULE,
    L_SELF,
    L_SIGNATURE,
    L_TERM,
    L_UPDATE,
    Path,
    Tree,
    memoized,
)

# Deepest nesting of rules, parenthesised terms, negations and tree literals a
# program may use; operators chained after the first in a ``+``/``-`` or
# ``MOD`` chain and the members a set comprehension expands over count one
# level each, since each nests the term built so far one level deeper.  A rule
# that rewrites itself can nest deeper at run time; the decoder reads that off
# the rule tree's cached depth, two tree levels a rule level.  Parsing,
# evaluation, encoding, decoding and trace serialization each recurse a few
# frames per level; at this depth all of them stay well inside Python's
# default recursion limit of 1000.
MAX_NESTING = 64

# -- raise and drop ---------------------------------------------------------------


# value kinds on which drop/raise act as the identity (base-set constants)
_PLAIN_VALUE_KINDS = (Atom, NatVal, BoolVal, TupleVal, SetVal)


def _subtree_at(path: Path) -> Term:
    return FunctionApp("subtree", (Constant(NodeRef(path)),))


def drop(x: Term | Rule):
    """Turn a term or rule into a value.

    Base-set constants drop to themselves, a bare nullary application drops
    to the name of its function symbol (names used as values), and
    ``subtree(node@p)``, the term ``raise_`` makes of a node, drops to that
    node; every other term drops to a term-as-value, and a rule drops to its
    encoding tree.  Symbol-name, node, and tree constants keep their term
    wrapper so that raising is unambiguous.
    """
    if isinstance(x, Rule):
        return TreeValue(encode_rule(x))
    if isinstance(x, Constant):
        if x.value is UNDEF or isinstance(x.value, _PLAIN_VALUE_KINDS):
            return x.value
        return DroppedTerm(x)
    if isinstance(x, FunctionApp) and not x.args:
        return SymbolName(x.symbol)
    if isinstance(x, FunctionApp) and x.symbol == "subtree" and len(x.args) == 1:
        node = x.args[0]
        if isinstance(node, Constant) and isinstance(node.value, NodeRef):
            return node.value
    if isinstance(x, Term):
        return DroppedTerm(x)
    raise ReflectError(f"drop is defined on terms and rules, got {x!r}")


def raise_(v) -> Term | Rule:
    """Turn a value back into a term or rule (inverse of ``drop``).

    A node value ``node@p`` raises to ``subtree(node@p)``, the term that
    reads the node's subtree of ``self``; tree values of rule shape raise to
    the rule they encode.
    """
    if isinstance(v, DroppedTerm):
        return v.term
    if isinstance(v, SymbolName):
        return FunctionApp(v.name, ())
    if isinstance(v, NodeRef):
        return _subtree_at(v.path)
    if isinstance(v, TreeValue):
        return decode_rule(v.tree)
    if isinstance(v, Rule) or isinstance(v, Term):
        raise ReflectError(f"{v!r} is already raised")
    return Constant(v)


# -- rule encoding -----------------------------------------------------------------


def _term_leaf(t: Term, encoded: dict, label: str = L_TERM) -> Tree:
    """The leaf labelled ``label`` that holds ``t``, built once per term object and label."""
    key = (label, id(t))
    leaf = encoded.get(key)
    if leaf is None:
        leaf = encoded[key] = Tree(label, (), drop(t))
    return leaf


def _term_wrapper(terms: tuple[Term, ...], encoded: dict) -> Tree:
    """Encode a term list: a single term becomes a leaf, otherwise a node of leaves."""
    if len(terms) == 1:
        return _term_leaf(terms[0], encoded)
    return Tree(L_TERM, tuple(_term_leaf(t, encoded) for t in terms))


def encode_rule(r: Rule) -> Tree:
    """Encode a rule as a tree over the reserved label vocabulary."""
    return _encode_rule(r, {})


def _encode_rule(r: Rule, encoded: dict) -> Tree:
    """``encode_rule``; ``encoded`` holds what this encoding has built so far.

    It maps each rule object met so far to its tree, and each term object,
    under its leaf's label, to its leaf, so a subrule or term that several
    rules share (the copies of a ``PARFOR`` body share every part without the
    loop variable) is encoded, and its term dropped and hashed, once.  Every
    key is the id of a part of the rule being encoded, which outlives the map.

    Each rule is left on its tree as the ``decode_rule`` memo, unless the tree
    holds one (an equal rule encoded before), so decoding a tree built here
    reads no node; the depth cap of ``decode_rule`` still applies.
    """
    tree = encoded.get(id(r))
    if tree is None:
        tree = encoded[id(r)] = _encode_new_rule(r, encoded)
        memoized(tree, "_decoded_rule", lambda _: r)
    return tree


def _encode_new_rule(r: Rule, encoded: dict) -> Tree:
    if isinstance(r, Assign):
        return Tree(
            L_UPDATE,
            (
                Tree(L_FUNC, (), SymbolName(r.target)),
                _term_wrapper(r.args, encoded),
                _term_wrapper((r.rhs,), encoded),
            ),
        )
    if isinstance(r, If):
        return Tree(
            L_IF,
            (
                _term_leaf(r.cond, encoded, L_BOOL),
                Tree(L_RULE, (_encode_rule(r.then, encoded),)),
                Tree(L_RULE, (_encode_rule(r.orelse, encoded),)),
            ),
        )
    if isinstance(r, Par):
        return Tree(L_PAR, tuple(Tree(L_RULE, (_encode_rule(b, encoded),)) for b in r.branches))
    if isinstance(r, Let):
        return Tree(
            L_LET,
            (
                # the variable's term is made here, so its id is no key
                Tree(L_TERM, (), drop(Variable(r.var))),
                _term_leaf(r.bound, encoded),
                Tree(L_RULE, (_encode_rule(r.body, encoded),)),
            ),
        )
    if isinstance(r, PartialAssign):
        return Tree(
            L_PARTIAL,
            (
                Tree(L_FUNC, (), SymbolName(r.target)),
                Tree(L_FUNC, (), SymbolName(r.op)),
                _term_wrapper(r.args, encoded),
                _term_wrapper(r.operands, encoded),
            ),
        )
    raise ReflectError(f"cannot encode rule {r!r}")


class _Fault(ReflectError):
    """A malformed node at ``path``, which grows by the enclosing positions as the fault rises."""

    def __init__(self, path: Path, message: str):
        self.path, self.message = path, message

    def __str__(self) -> str:
        return f"{self.message} (at {NodeRef(self.path)!r})"


def _decode_term_value(value, path) -> Term:
    """The term a leaf's value stands for; a tree value is a constant, not a raised rule."""
    if value is None:
        raise _Fault(path, "term leaf carries no value")
    if isinstance(value, TreeValue):
        return Constant(value)
    return raise_(value)


def _decode_term_wrapper(t: Tree, path) -> tuple[Term, ...]:
    if t.label != L_TERM:
        raise _Fault(path, f"expected a term node, found {t.label!r}")
    if t.is_leaf and t.value is not None:
        return (_decode_term_value(t.value, path),)
    terms = []
    for i, child in enumerate(t.children):
        if child.label != L_TERM or child.children:
            raise _Fault(path + (i,), "term list entries must be term leaves")
        terms.append(_decode_term_value(child.value, path + (i,)))
    return tuple(terms)


def _decode_symbol_leaf(t: Tree, path) -> str:
    if t.label != L_FUNC or t.children or not isinstance(t.value, SymbolName):
        raise _Fault(path, "expected a func leaf holding a symbol name")
    return t.value.name


def _decode_rule_wrapper(t: Tree, path) -> Rule:
    if t.label != L_RULE or len(t.children) != 1:
        raise _Fault(path, "expected a rule wrapper with one subtree")
    try:
        return memoized(t.children[0], "_decoded_rule", _decode_rule_at)
    except _Fault as fault:
        fault.path = path + (0,) + fault.path
        raise


_RULE_ARITY = {L_UPDATE: 3, L_IF: 3, L_LET: 3, L_PARTIAL: 4}  # par takes any number
_RULE_LABELS = frozenset(_RULE_ARITY) | {L_PAR}


def _decode_rule_at(t: Tree) -> Rule:
    if t.label not in _RULE_LABELS:
        raise _Fault((), f"label {t.label!r} does not start a rule encoding")
    arity = _RULE_ARITY.get(t.label, len(t.children))
    if len(t.children) != arity:
        raise _Fault((), f"{t.label} node needs {arity} children, found {len(t.children)}")
    if t.label == L_UPDATE:
        target = _decode_symbol_leaf(t.children[0], (0,))
        args = _decode_term_wrapper(t.children[1], (1,))
        rhs = _decode_term_wrapper(t.children[2], (2,))
        if len(rhs) != 1:
            raise _Fault((2,), "update right side must be a single term")
        return Assign(target, args, rhs[0])
    if t.label == L_IF:
        cond_leaf = t.children[0]
        if cond_leaf.label != L_BOOL or cond_leaf.children:
            raise _Fault((0,), "if condition must be a bool leaf")
        cond = _decode_term_value(cond_leaf.value, (0,))
        return If(cond, *(_decode_rule_wrapper(t.children[i], (i,)) for i in (1, 2)))
    if t.label == L_PAR:
        return Par(tuple(_decode_rule_wrapper(c, (i,)) for i, c in enumerate(t.children)))
    if t.label == L_LET:
        var_terms = _decode_term_wrapper(t.children[0], (0,))
        var = var_terms[0] if len(var_terms) == 1 else None
        if isinstance(var, Variable):
            name = var.name
        elif isinstance(var, FunctionApp) and not var.args:
            name = var.symbol
        else:
            raise _Fault((0,), "let variable slot must hold a name")
        bound = _decode_term_wrapper(t.children[1], (1,))
        if len(bound) != 1:
            raise _Fault((1,), "let binds a single term")
        return Let(name, bound[0], _decode_rule_wrapper(t.children[2], (2,)))
    target, op = (_decode_symbol_leaf(t.children[i], (i,)) for i in (0, 1))
    args, operands = (_decode_term_wrapper(t.children[i], (i,)) for i in (2, 3))
    return PartialAssign(target, args, op, operands)


def decode_rule(t: Tree, at: Path = ()) -> Rule:
    """Decode a rule tree (inverse of ``encode_rule`` up to isomorphism), each rule node once.

    The decoded rule is kept on each rule node, and equal trees are one
    object, so a node that encoding built or a decode met holds its rule; only
    other nodes (node table reads, update splices, hand-made trees) are read
    here.  The depth cap is checked first in either case.
    A fault names its node as ``node@p`` below ``at``, the tree's position in ``self``.
    A root whose label starts no rule fails on that label, before any recursion,
    however deep the tree.
    """
    if t.label in _RULE_LABELS and t.depth > 2 * MAX_NESTING + 2:
        raise ReflectError(f"rule nested deeper than {MAX_NESTING} levels")
    try:
        return memoized(t, "_decoded_rule", _decode_rule_at)
    except _Fault as fault:
        fault.path = at + fault.path
        raise


def is_rule_encoding(t: Tree) -> bool:
    try:
        decode_rule(t)
        return True
    except ReflectError:
        return False


# -- signature encoding -------------------------------------------------------------


def encode_signature(sig: Signature) -> Tree:
    """Encode a signature as a tree of func entries."""
    return Tree(L_SIGNATURE, tuple(_signature_entry(s) for s in sig.symbols))


def _signature_entry(s: FunctionSymbol) -> Tree:
    return Tree(L_FUNC, (Tree(L_NAME, (), SymbolName(s.name)), Tree(L_ARITY, (), NatVal(s.arity))))


def decode_signature(t: Tree) -> Signature:
    """Decode a signature tree; memoized on the tree object like ``decode_rule``."""
    return memoized(t, "_decoded_signature", _decode_signature)


def _decode_signature(t: Tree) -> Signature:
    if t.label != L_SIGNATURE:
        raise ReflectError(f"expected a signature tree, found {t.label!r}")
    symbols = []
    for i, entry in enumerate(t.children):
        at = SIGNATURE_AT + (i,)
        # two children and three nodes: the children are leaves
        if entry.label != L_FUNC or len(entry.children) != 2 or entry.size != 3:
            raise _Fault(at, "signature entries must be func nodes with name and arity")
        name_leaf, arity_leaf = entry.children
        if name_leaf.label != L_NAME or not isinstance(name_leaf.value, SymbolName):
            raise _Fault(at + (0,), "func entry needs a name leaf holding a symbol name")
        if arity_leaf.label != L_ARITY or not isinstance(arity_leaf.value, NatVal):
            raise _Fault(at + (1,), "func entry needs an arity leaf holding a natural number")
        symbols.append(FunctionSymbol(name_leaf.value.name, arity_leaf.value.n))
    if len({s.name for s in symbols}) != len(symbols):
        raise ReflectError("signature tree declares a symbol twice")
    return Signature(tuple(symbols))


def build_self_tree(sig: Signature, rule: Rule) -> Tree:
    """The self tree of a signature and a rule."""
    return Tree(L_SELF, (encode_signature(sig), Tree(L_RULE, (encode_rule(rule),))))


# -- selectors on the self tree --------------------------------------------------------

SIGNATURE_AT: Path = (0,)
RULE_AT: Path = (1, 0)


def _regions(t: Tree) -> tuple[Tree, Tree]:
    """The signature tree and the rule tree of a self tree laid out as the module docstring says."""
    labels = tuple(c.label for c in t.children)
    if (t.label, labels) != (L_SELF, (L_SIGNATURE, L_RULE)):
        found = f"{t.label}<{', '.join(labels)}>"
        raise ReflectError(f"expected self<signature<...>, rule<R>>, found {found}")
    if len(t.children[1].children) != 1:
        raise ReflectError("the rule wrapper of a self tree must hold exactly one subtree")
    return t.find(SIGNATURE_AT), t.find(RULE_AT)


def signature_of_self(t: Tree) -> Tree:
    """The signature subtree of a self tree."""
    return _regions(t)[0]


def rule_of_self(t: Tree) -> Tree:
    """The rule subtree of a self tree (the wrapper's single content tree)."""
    return _regions(t)[1]


# -- extraction ---------------------------------------------------------------------


def _subst_env(term: Term, env: dict[str, Term]) -> Term:
    for var, rep in env.items():
        term = term_substitute(term, var, rep)
    return term


def _beta_rule(rule: Rule, env: dict[str, Term]) -> tuple[Term, ...]:
    if isinstance(rule, Assign):
        args = tuple(_subst_env(a, env) for a in rule.args)
        return (_subst_env(rule.rhs, env),) + args
    if isinstance(rule, If):
        return (
            (_subst_env(rule.cond, env),)
            + _beta_rule(rule.then, env)
            + _beta_rule(rule.orelse, env)
        )
    if isinstance(rule, Par):
        return tuple(t for b in rule.branches for t in _beta_rule(b, env))
    if isinstance(rule, Let):
        bound = _subst_env(rule.bound, env)
        inner = dict(env)
        inner[rule.var] = bound
        return (bound,) + _beta_rule(rule.body, inner)
    if isinstance(rule, PartialAssign):
        args = tuple(_subst_env(a, env) for a in rule.args)
        operands = tuple(_subst_env(a, env) for a in rule.operands)
        if rule.target in env:
            location_term: Term = FunctionApp("subtree", (env[rule.target],))
        else:
            location_term = FunctionApp(rule.target, args)
        return args + (FunctionApp(rule.op, (location_term,) + operands),)
    raise ReflectError(f"cannot extract from rule {rule!r}")


def beta(t: Tree) -> tuple[Term, ...]:
    """The tuple of standard terms a rule encoding evaluates.

    Follows the shape of the encoding: an update node contributes its right
    side first and then its argument terms; branching contributes the
    condition and both branches' extractions; parallel nodes concatenate;
    let substitutes its binding eagerly; a partial node contributes its
    argument terms and the aggregation of its operator over the addressed
    location's value.
    """
    return _beta_rule(decode_rule(t), {})


# -- reserve allocation ----------------------------------------------------------------


@dataclass
class ReserveAllocator:
    """Deterministic source of fresh function names.

    Names are drawn as ``prefix`` + counter, skipping anything in the active
    signature and anything already emitted, so an allocation is a pure
    function of the signature and the allocation history.
    """

    prefix: str = "f$"
    counter: int = 0
    emitted: set = field(default_factory=set)

    def fresh(self, taken: frozenset[str]) -> str:
        k = self.counter
        while f"{self.prefix}{k}" in taken or f"{self.prefix}{k}" in self.emitted:
            k += 1
        name = f"{self.prefix}{k}"
        self.emitted.add(name)
        self.counter = k + 1
        return name


def new_function(
    state: State, arity: int, allocator: ReserveAllocator | None = None
) -> tuple[SymbolName, SharedUpdate]:
    """Allocate a reserve symbol and the shared update inserting it into the signature.

    The update extends the signature subtree of ``self`` on the right with a
    fresh func entry; collapsing it into a step's update set makes the decoded
    signature of the successor state contain the new symbol.
    """
    allocator = allocator or ReserveAllocator()
    name = allocator.fresh(state.signature.names())
    entry = _signature_entry(FunctionSymbol(name, arity))
    update = SharedUpdate(NodeRef(SIGNATURE_AT), "right_extend", (TreeValue(entry),))
    return SymbolName(name), update


# -- tree difference ------------------------------------------------------------------


def is_self_shaped(t: Tree) -> bool:
    """True iff ``t`` has the self-tree layout and its signature decodes; its rule is not read."""
    try:
        decode_signature(signature_of_self(t))
        return True
    except ReflectError:
        return False


def _require_self_shaped(t: Tree, what: str) -> None:
    if not is_self_shaped(t):
        raise TreeError(f"{what} is not a self-representation tree")


def _label_hedge(label: str, parts: tuple[Term, ...]) -> Term:
    return FunctionApp("label_hedge", (Constant(Atom(label)),) + parts)


def _node_terms(t: Tree, t2: Tree):
    """``node_term(node2, path2)``: a term for the node ``node2`` at ``path2`` of ``t2``.

    Both trees must be self-shaped; the term evaluates to ``node2`` where ``self`` holds ``t``.
    """
    _require_self_shaped(t, "first tree")
    _require_self_shaped(t2, "second tree")
    # The first preorder path of each distinct subtree below the rule wrapper.
    # The subtrees of an equal tree met earlier are already indexed, so the
    # walk descends into each distinct subtree once.  Both walks are module
    # functions so that no reference cycle keeps ``t`` alive.
    reuse: dict[Tree, Path] = {}
    _index_subtrees(t.children[1], (1,), reuse)
    return functools.partial(_node_term, t, reuse)


def _index_subtrees(node: Tree, path: Path, reuse: dict[Tree, Path]) -> None:
    for i, child in enumerate(node.children):
        if child not in reuse:
            reuse[child] = path + (i,)
            _index_subtrees(child, path + (i,), reuse)


def _node_term(t: Tree, reuse: dict[Tree, Path], node2: Tree, path2: Path) -> Term:
    old = t.find(path2)
    if old == node2:
        return _subtree_at(path2)
    if node2 in reuse:
        return _subtree_at(reuse[node2])
    if (
        old is not None
        and (old.label, old.value) == (node2.label, node2.value)
        and node2.children[: len(old.children)] == old.children
    ):
        # not equal to ``old``, so the child list grew on the right
        n = len(old.children)
        return FunctionApp(
            "right_extend",
            (_subtree_at(path2),)
            + tuple(
                _node_term(t, reuse, c, path2 + (n + i,))
                for i, c in enumerate(node2.children[n:])
            ),
        )
    if node2.label in (L_UPDATE, L_PARTIAL) or node2.is_leaf:
        return Constant(TreeValue(node2))
    return _label_hedge(
        node2.label,
        tuple(_node_term(t, reuse, c, path2 + (i,)) for i, c in enumerate(node2.children)),
    )


def tree_diff(t: Tree, t2: Tree) -> Term:
    """A term that evaluates to ``t2`` in a state whose ``self`` holds ``t``.

    Both trees must be self-shaped.  The root and the rule wrapper are rebuilt
    by ``label_hedge``.  Below them, a node equal to the one at its own path
    of ``t``, or to any subtree of ``t``'s rule region, is reused through
    ``subtree(node@p)``; a node whose child list grew on the right is
    ``right_extend`` of the node at its path; an update or partial-assignment
    subtree and a leaf are literals; any other node is rebuilt by
    ``label_hedge`` from its children's terms.
    """
    node_term = _node_terms(t, t2)
    sig, rule = (node_term(t2.find(p), p) for p in (SIGNATURE_AT, RULE_AT))
    return _label_hedge(L_SELF, (sig, _label_hedge(L_RULE, (rule,))))


def eval_algebra(theta: Term, t: Tree) -> Tree:
    """The tree ``theta`` evaluates to in the state whose one location, ``self``, holds ``t``."""
    _require_self_shaped(t, "subject tree")
    state = State(frozenset(), {SELF_LOCATION: TreeValue(t)})
    value = eval_term(state, theta)
    if not isinstance(value, TreeValue):
        raise TreeError(f"a tree-difference term evaluated to {value!r}, not to a tree")
    return value.tree


def tree_update_rule(t: Tree, t2: Tree) -> Par:
    """A parallel rule of node-level assignments turning ``self`` = ``t`` into ``t2``.

    The signature node and the rule content are assigned their ``tree_diff``
    terms, and so is each child of a node whose term rebuilds it.  Executed on
    a state whose ``self`` holds ``t``, the rule's update multiset collapses
    to exactly the single update assigning ``t2`` to ``self``.
    """
    node_term = _node_terms(t, t2)
    branches: list[Rule] = []

    def emit(node2: Tree, path2: Path) -> None:
        var = f"o{len(branches)}"
        rhs = node_term(node2, path2)
        branches.append(Let(var, Constant(NodeRef(path2)), Assign(var, (), rhs)))
        if isinstance(rhs, FunctionApp) and rhs.symbol != "subtree":
            for i, c in enumerate(node2.children):
                emit(c, path2 + (i,))

    for path in (SIGNATURE_AT, RULE_AT):
        emit(t2.find(path), path)
    return Par(tuple(branches))
