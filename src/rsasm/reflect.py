"""The self-representation: rules and signatures as trees, raise/drop, extraction.

Rules encode as syntax trees over the reserved label vocabulary; the terms
inside them are stored as dropped values on leaves.  ``raise_`` and ``drop``
mediate between terms/rules and their value-level form.  ``beta`` extracts
from a rule encoding the tuple of standard terms the rule evaluates, which is
what bounded exploration of a reflective machine rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ReflectError
from .rules import Assign, If, Let, Par, PartialAssign, Rule, SharedUpdate
from .structures import (
    Atom,
    BoolVal,
    Constant,
    DroppedTerm,
    FunctionApp,
    NatVal,
    NodeLocation,
    NodeRef,
    SetVal,
    Signature,
    FunctionSymbol,
    State,
    SymbolName,
    Term,
    TreeValue,
    TupleVal,
    UNDEF,
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
    Tree,
)
from .structures import Variable

# -- raise and drop ---------------------------------------------------------------


# value kinds on which drop/raise act as the identity (base-set constants)
_PLAIN_VALUE_KINDS = (Atom, NatVal, BoolVal, TupleVal, SetVal)


def drop(x: Term | Rule):
    """Turn a term or rule into a value.

    Base-set constants drop to themselves, and a bare nullary application
    drops to the name of its function symbol (names used as values); every
    other term drops to a term-as-value, and a rule drops to its encoding
    tree.  Symbol-name, node, and tree constants keep their term wrapper so
    that raising is unambiguous.
    """
    if isinstance(x, Rule):
        return TreeValue(encode_rule(x))
    if isinstance(x, Constant):
        if x.value is UNDEF or isinstance(x.value, _PLAIN_VALUE_KINDS):
            return x.value
        return DroppedTerm(x)
    if isinstance(x, FunctionApp) and not x.args:
        if x.symbol.startswith("self@"):
            return _noderef_of_symbol(x.symbol)
        return SymbolName(x.symbol)
    if isinstance(x, Term):
        return DroppedTerm(x)
    raise ReflectError(f"drop is defined on terms and rules, got {x!r}")


def raise_(v) -> Term | Rule:
    """Turn a value back into a term or rule (inverse of ``drop``).

    Tree-node values raise to their nullary sublocation symbols; tree values
    of rule shape raise to the rule they encode.
    """
    if isinstance(v, DroppedTerm):
        return v.term
    if isinstance(v, SymbolName):
        return FunctionApp(v.name, ())
    if isinstance(v, NodeRef):
        return FunctionApp(_symbol_of_noderef(v), ())
    if isinstance(v, TreeValue):
        return decode_rule(v.tree)
    if isinstance(v, Rule) or isinstance(v, Term):
        raise ReflectError(f"{v!r} is already raised")
    return Constant(v)


def _symbol_of_noderef(v: NodeRef) -> str:
    return "self@" + ".".join(map(str, v.path))


def _noderef_of_symbol(sym: str) -> NodeRef:
    rest = sym[len("self@") :]
    return NodeRef(tuple(int(p) for p in rest.split(".")) if rest else ())


# -- rule encoding -----------------------------------------------------------------


def _term_leaf(t: Term) -> Tree:
    return Tree(L_TERM, (), drop(t))


def _term_wrapper(terms: tuple[Term, ...]) -> Tree:
    """Encode a term list: a single term becomes a leaf, otherwise a node of leaves."""
    if len(terms) == 1:
        return _term_leaf(terms[0])
    return Tree(L_TERM, tuple(_term_leaf(t) for t in terms))


def encode_rule(r: Rule) -> Tree:
    """Encode a rule as a tree over the reserved label vocabulary."""
    if isinstance(r, Assign):
        return Tree(
            L_UPDATE,
            (
                Tree(L_FUNC, (), SymbolName(r.target)),
                _term_wrapper(r.args),
                _term_wrapper((r.rhs,)),
            ),
        )
    if isinstance(r, If):
        return Tree(
            L_IF,
            (
                Tree(L_BOOL, (), drop(r.cond)),
                Tree(L_RULE, (encode_rule(r.then),)),
                Tree(L_RULE, (encode_rule(r.orelse),)),
            ),
        )
    if isinstance(r, Par):
        return Tree(L_PAR, tuple(Tree(L_RULE, (encode_rule(b),)) for b in r.branches))
    if isinstance(r, Let):
        return Tree(
            L_LET,
            (
                _term_leaf(Variable(r.var)),
                _term_leaf(r.bound),
                Tree(L_RULE, (encode_rule(r.body),)),
            ),
        )
    if isinstance(r, PartialAssign):
        return Tree(
            L_PARTIAL,
            (
                Tree(L_FUNC, (), SymbolName(r.target)),
                Tree(L_FUNC, (), SymbolName(r.op)),
                _term_wrapper(r.args),
                _term_wrapper(r.operands),
            ),
        )
    raise ReflectError(f"cannot encode rule {r!r}")


def _fail(path: tuple[int, ...], message: str):
    at = ".".join(map(str, path)) or "root"
    raise ReflectError(f"{message} (at node {at})")


def _decode_term_value(value, path) -> Term:
    if value is None:
        _fail(path, "term leaf carries no value")
    if isinstance(value, DroppedTerm):
        return value.term
    if isinstance(value, SymbolName):
        return FunctionApp(value.name, ())
    if isinstance(value, NodeRef):
        return FunctionApp(_symbol_of_noderef(value), ())
    return Constant(value)


def _decode_term_wrapper(t: Tree, path) -> tuple[Term, ...]:
    if t.label != L_TERM:
        _fail(path, f"expected a term node, found {t.label!r}")
    if t.is_leaf and t.value is not None:
        return (_decode_term_value(t.value, path),)
    terms = []
    for i, child in enumerate(t.children):
        if child.label != L_TERM or child.children:
            _fail(path + (i,), "term list entries must be term leaves")
        terms.append(_decode_term_value(child.value, path + (i,)))
    return tuple(terms)


def _decode_symbol_leaf(t: Tree, path) -> str:
    if t.label != L_FUNC or t.children or not isinstance(t.value, SymbolName):
        _fail(path, "expected a func leaf holding a symbol name")
    return t.value.name


def _decode_rule_wrapper(t: Tree, path) -> Rule:
    if t.label != L_RULE or len(t.children) != 1:
        _fail(path, "expected a rule wrapper with one subtree")
    return _decode_rule_at(t.children[0], path + (0,))


def _decode_rule_at(t: Tree, path) -> Rule:
    if t.label == L_UPDATE:
        if len(t.children) != 3:
            _fail(path, f"update node needs 3 children, found {len(t.children)}")
        target = _decode_symbol_leaf(t.children[0], path + (0,))
        args = _decode_term_wrapper(t.children[1], path + (1,))
        rhs = _decode_term_wrapper(t.children[2], path + (2,))
        if len(rhs) != 1:
            _fail(path + (2,), "update right side must be a single term")
        return Assign(target, args, rhs[0])
    if t.label == L_IF:
        if len(t.children) != 3:
            _fail(path, f"if node needs 3 children, found {len(t.children)}")
        cond_leaf = t.children[0]
        if cond_leaf.label != L_BOOL or cond_leaf.children:
            _fail(path + (0,), "if condition must be a bool leaf")
        cond = _decode_term_value(cond_leaf.value, path + (0,))
        return If(
            cond,
            _decode_rule_wrapper(t.children[1], path + (1,)),
            _decode_rule_wrapper(t.children[2], path + (2,)),
        )
    if t.label == L_PAR:
        return Par(
            tuple(
                _decode_rule_wrapper(c, path + (i,)) for i, c in enumerate(t.children)
            )
        )
    if t.label == L_LET:
        if len(t.children) != 3:
            _fail(path, f"let node needs 3 children, found {len(t.children)}")
        var_terms = _decode_term_wrapper(t.children[0], path + (0,))
        var = var_terms[0]
        if isinstance(var, Variable):
            name = var.name
        elif isinstance(var, FunctionApp) and not var.args:
            name = var.symbol
        else:
            _fail(path + (0,), "let variable slot must hold a name")
        bound = _decode_term_wrapper(t.children[1], path + (1,))
        if len(bound) != 1:
            _fail(path + (1,), "let binds a single term")
        return Let(name, bound[0], _decode_rule_wrapper(t.children[2], path + (2,)))
    if t.label == L_PARTIAL:
        if len(t.children) != 4:
            _fail(path, f"partial node needs 4 children, found {len(t.children)}")
        target = _decode_symbol_leaf(t.children[0], path + (0,))
        op = _decode_symbol_leaf(t.children[1], path + (1,))
        args = _decode_term_wrapper(t.children[2], path + (2,))
        operands = _decode_term_wrapper(t.children[3], path + (3,))
        return PartialAssign(target, args, op, operands)
    _fail(path, f"label {t.label!r} does not start a rule encoding")


def _memoized(t: Tree, key: str, decode):
    """``decode(t)``, computed once per tree object and kept on it.

    Trees are immutable, so the result lives exactly as long as the tree; a
    tree that fails to decode raises again on every call.
    """
    memo = t.__dict__
    if key not in memo:
        object.__setattr__(t, key, decode(t))
    return memo[key]


def decode_rule(t: Tree) -> Rule:
    """Decode a rule tree (inverse of ``encode_rule`` up to isomorphism)."""
    return _memoized(t, "_decoded_rule", lambda t: _decode_rule_at(t, ()))


def is_rule_encoding(t: Tree) -> bool:
    try:
        decode_rule(t)
        return True
    except ReflectError:
        return False


# -- signature encoding -------------------------------------------------------------


def encode_signature(sig: Signature) -> Tree:
    entries = tuple(
        Tree(
            L_FUNC,
            (
                Tree(L_NAME, (), SymbolName(s.name)),
                Tree(L_ARITY, (), NatVal(s.arity)),
            ),
        )
        for s in sig.symbols
    )
    return Tree(L_SIGNATURE, entries)


def decode_signature(t: Tree) -> Signature:
    """Decode a signature tree; memoized on the tree object like ``decode_rule``."""
    return _memoized(t, "_decoded_signature", _decode_signature)


def _decode_signature(t: Tree) -> Signature:
    if t.label != L_SIGNATURE:
        raise ReflectError(f"expected a signature tree, found {t.label!r}")
    symbols = []
    for i, entry in enumerate(t.children):
        if entry.label != L_FUNC or len(entry.children) != 2:
            _fail((i,), "signature entries must be func nodes with name and arity")
        name_leaf, arity_leaf = entry.children
        if name_leaf.label != L_NAME or not isinstance(name_leaf.value, SymbolName):
            _fail((i, 0), "func entry needs a name leaf holding a symbol name")
        if arity_leaf.label != L_ARITY or not isinstance(arity_leaf.value, NatVal):
            _fail((i, 1), "func entry needs an arity leaf holding a natural number")
        symbols.append(FunctionSymbol(name_leaf.value.name, arity_leaf.value.n))
    names = [s.name for s in symbols]
    if len(set(names)) != len(names):
        raise ReflectError("signature tree declares a symbol twice")
    return Signature(tuple(symbols))


def build_self_tree(sig: Signature, rule: Rule) -> Tree:
    return Tree(L_SELF, (encode_signature(sig), Tree(L_RULE, (encode_rule(rule),))))


# -- selectors on the self tree --------------------------------------------------------


def _unique_root_child(t: Tree, label: str) -> Tree:
    """The unique child of the root with the given label (an iota search)."""
    hits = [c for c in t.children if c.label == label]
    if len(hits) != 1:
        raise ReflectError(
            f"self tree needs exactly one {label!r} child, found {len(hits)}"
        )
    return hits[0]


def _first_root_child_scan(t: Tree, label: str) -> Tree:
    for c in t.children:
        if c.label == label:
            return c
    raise ReflectError(f"self tree has no {label!r} child")


def signature_of_self(t: Tree) -> Tree:
    """The signature subtree of a self tree."""
    if t.label != L_SELF:
        raise ReflectError(f"expected a self tree, found {t.label!r}")
    return _unique_root_child(t, L_SIGNATURE)


def rule_of_self(t: Tree) -> Tree:
    """The rule subtree of a self tree (the wrapper's single content tree)."""
    if t.label != L_SELF:
        raise ReflectError(f"expected a self tree, found {t.label!r}")
    wrapper = _unique_root_child(t, L_RULE)
    if len(wrapper.children) != 1:
        raise ReflectError("rule wrapper must hold exactly one subtree")
    return wrapper.children[0]


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
        out: tuple[Term, ...] = ()
        for b in rule.branches:
            out = out + _beta_rule(b, env)
        return out
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


def beta_of_rule(rule: Rule) -> tuple[Term, ...]:
    return _beta_rule(rule, {})


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
    entry = Tree(
        L_FUNC,
        (
            Tree(L_NAME, (), SymbolName(name)),
            Tree(L_ARITY, (), NatVal(arity)),
        ),
    )
    update = SharedUpdate(NodeLocation((0,)), "right_extend", (TreeValue(entry),))
    return SymbolName(name), update
