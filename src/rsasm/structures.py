"""States as structures: the value universe, terms, locations, and evaluation.

A state interprets a signature over an extended base set.  Locations absent
from the interpretation read as undefined; the interpretation stores only the
finitely many defined entries.  The distinguished nullary location ``self``
always holds the tree-valued self-representation.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from . import treealg
from .errors import EvalError, IsoError, SignatureError, StateError
from .treealg import Tree

# -- values --------------------------------------------------------------------


class Value:
    """A value of the extended base set; its ``repr`` is its program literal."""

    __slots__ = ()

    def __repr__(self) -> str:
        return _printer.SourcePrinter().value_literal(self)


class _Undef(Value):
    """The single undefinedness value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


UNDEF = _Undef()


@dataclass(frozen=True, repr=False)
class Atom(Value):
    """An opaque standard value from the base set."""

    name: str


@dataclass(frozen=True, repr=False)
class BoolVal(Value):
    flag: bool


TRUE = BoolVal(True)
FALSE = BoolVal(False)


@dataclass(frozen=True, repr=False)
class NatVal(Value):
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise StateError(f"natural number value cannot be negative: {self.n}")


@dataclass(frozen=True, repr=False)
class SymbolName(Value):
    """A function symbol treated as a value (the result of dropping it)."""

    name: str


@dataclass(frozen=True, repr=False)
class DroppedTerm(Value):
    """A term treated as a value."""

    term: "Term"


@dataclass(frozen=True, repr=False)
class TreeValue(Value):
    tree: Tree


@dataclass(frozen=True, repr=False)
class TupleVal(Value):
    """A tuple of values; a tuple of tree values is a hedge."""

    items: tuple[Value, ...]


@dataclass(frozen=True, repr=False)
class SetVal(Value):
    """A finite set value; equality is order-insensitive."""

    members: frozenset


@dataclass(frozen=True, repr=False)
class NodeRef(Value):
    """A node of the current self tree, addressed by its child-index path.

    A ref made while walking a tree also carries that ``tree`` and its
    ``node`` at ``path``, so reading the node in the same tree object needs
    no walk from the root; the ref is still its path alone, to equality,
    hashing and printing alike.
    """

    path: tuple[int, ...]
    tree: Tree | None = field(default=None, compare=False)
    node: Tree | None = field(default=None, compare=False)


# -- terms ---------------------------------------------------------------------


class Term:
    """A rule term; its ``repr`` is its program text."""

    __slots__ = ()

    def __repr__(self) -> str:
        return _printer.SourcePrinter().term(self)


@dataclass(frozen=True, repr=False)
class Constant(Term):
    value: Value


@dataclass(frozen=True, repr=False)
class FunctionApp(Term):
    symbol: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, repr=False)
class Equality(Term):
    left: Term
    right: Term


@dataclass(frozen=True, repr=False)
class BoolConnective(Term):
    op: str  # "and" | "or" | "not"
    operands: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise EvalError(f"unknown connective {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise EvalError("'not' takes exactly one operand")


NODES_DOMAIN = "@nodes"


@dataclass(frozen=True, repr=False)
class Iota(Term):
    """The unique element of a finite search domain satisfying the condition.

    The domain is a declared finite domain name, or ``NODES_DOMAIN`` for the
    node set of the current self tree.
    """

    var: str
    domain: str
    condition: Term


@dataclass(frozen=True, repr=False)
class Variable(Term):
    name: str


# The direct subterms of each compound term kind, and the constructor taking
# new ones back; ``Constant`` and ``Variable`` are the leaves.  Walks that
# treat every kind alike fold over this pair; only the leaves and the binder
# ``Iota.var`` need cases of their own.
_TERM_SHAPES = {
    FunctionApp: (lambda t: t.args, lambda t, cs: FunctionApp(t.symbol, cs)),
    Equality: (lambda t: (t.left, t.right), lambda t, cs: Equality(*cs)),
    BoolConnective: (lambda t: t.operands, lambda t, cs: BoolConnective(t.op, cs)),
    Iota: (lambda t: (t.condition,), lambda t, cs: Iota(t.var, t.domain, cs[0])),
}


def term_children(term: Term) -> tuple[Term, ...]:
    """The direct subterms of a term, in source order."""
    shape = _TERM_SHAPES.get(type(term))
    return shape[0](term) if shape else ()


def term_map(term: Term, f) -> Term:
    """``term`` rebuilt with ``f`` applied to each direct subterm; a leaf comes back as is."""
    shape = _TERM_SHAPES.get(type(term))
    return shape[1](term, tuple([f(c) for c in shape[0](term)])) if shape else term


def term_free_vars(term: Term) -> frozenset[str]:
    """The variables free in ``term``; an ``Iota`` binds its own.  Kept on the term."""
    return treealg.memoized(term, "_free_vars", _free_vars)


def _free_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Variable):
        return frozenset((term.name,))
    free = frozenset().union(*map(term_free_vars, term_children(term)))
    return free - {term.var} if isinstance(term, Iota) else free


def term_substitute(term: Term, var: str, repl: Term) -> Term:
    """Substitute ``repl`` for free occurrences of ``var``.

    A subterm in which ``var`` is not free comes back as the very object, so
    the copies a substitution makes share every such subterm.
    """
    if var not in term_free_vars(term):
        return term
    if isinstance(term, Variable):
        return repl
    return term_map(term, lambda c: term_substitute(c, var, repl))


# -- signatures and locations ----------------------------------------------------


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise SignatureError(f"arity of {self.name!r} cannot be negative")


SELF_SYMBOL = FunctionSymbol("self", 0)


@dataclass(frozen=True)
class Signature:
    """An ordered collection of function symbols, always containing ``self``."""

    symbols: tuple[FunctionSymbol, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SignatureError(f"duplicate symbols in signature: {dup}")
        if SELF_SYMBOL not in self.symbols:
            raise SignatureError("signature must contain the nullary symbol 'self'")
        object.__setattr__(self, "_arities", {s.name: s.arity for s in self.symbols})
        object.__setattr__(self, "_hash", hash(self.symbols))

    # Hash cached at construction: a compiled term is looked up by its signature.
    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def arity_of(self, name: str) -> int | None:
        return self._arities.get(name)  # type: ignore[attr-defined]

    def names(self) -> frozenset[str]:
        return frozenset(self._arities)  # type: ignore[attr-defined]

    def is_subsignature_of(self, other: "Signature") -> bool:
        return all(other.arity_of(s.name) == s.arity for s in self.symbols)


@dataclass(frozen=True)
class Location:
    symbol: str
    args: tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.symbol, self.args)))

    # Hash cached at construction, as ``self`` is hashed on every read; it is
    # the dataclass hash of the fields, so set and dict orders do not change.
    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


SELF_LOCATION = Location("self", ())


@dataclass(frozen=True)
class Update:
    """A write of ``value`` to a location, or to a node of ``self`` (a sublocation)."""

    location: Location | NodeRef
    value: Value


@dataclass(frozen=True)
class UpdateSet:
    updates: frozenset[Update]

    def __iter__(self):
        return iter(self.updates)

    def __len__(self) -> int:
        return len(self.updates)

    def is_empty(self) -> bool:
        return not self.updates


def is_consistent(delta: UpdateSet) -> bool:
    """True iff no two updates write different values to one location."""
    seen: dict[object, Value] = {}
    for u in delta:
        if u.location in seen and seen[u.location] != u.value:
            return False
        seen[u.location] = u.value
    return True


# -- background configuration and states -----------------------------------------


@dataclass(frozen=True)
class BackgroundConfig:
    """Per-machine background data: finite domains and derived projections."""

    domains: tuple[tuple[str, tuple[Value, ...]], ...] = ()
    projections: tuple[tuple[str, str], ...] = ()

    def domain(self, name: str) -> tuple[Value, ...] | None:
        for n, members in self.domains:
            if n == name:
                return members
        return None

    def projection_base(self, name: str) -> str | None:
        for n, base in self.projections:
            if n == name:
                return base
        return None


EMPTY_BACKGROUND = BackgroundConfig()


@dataclass(frozen=True)
class State:
    """A structure: signature interpretation with finitely many defined locations."""

    signature: Signature
    base: frozenset[Atom]
    interp: dict[Location, Value]
    background: BackgroundConfig = EMPTY_BACKGROUND
    # The tree bound at ``self``, read once at construction.
    self_tree: Tree = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cleaned = {}
        for loc, value in self.interp.items():
            if value is UNDEF:
                continue
            arity = self.signature.arity_of(loc.symbol)
            if arity is None:
                raise StateError(f"location symbol {loc.symbol!r} not in signature")
            if arity != len(loc.args):
                raise StateError(f"location {loc!r} violates arity {arity}")
            cleaned[loc] = value
        selfval = cleaned.get(SELF_LOCATION)
        if not isinstance(selfval, TreeValue) or selfval.tree.label != treealg.L_SELF:
            raise StateError("state must bind 'self' to a self-representation tree")
        object.__setattr__(self, "interp", cleaned)
        object.__setattr__(self, "self_tree", selfval.tree)

    __hash__ = None  # type: ignore[assignment]

    def value_at(self, loc: Location) -> Value:
        return self.interp.get(loc, UNDEF)

    def with_signature(self, signature: Signature) -> "State":
        if signature == self.signature:
            return self
        return replace(self, signature=signature)

    def defined_locations(self) -> list[Location]:
        return sorted(self.interp, key=location_sort_key)


# The step cap of a machine whose program sets none.
DEFAULT_MAX_STEPS = 1000


@dataclass(frozen=True)
class Machine:
    initial_state: State
    max_steps: int = DEFAULT_MAX_STEPS
    name: str = "machine"


def apply_update_set(state: State, delta: UpdateSet) -> State:
    """The successor state under ``delta``; an inconsistent set leaves the state unchanged."""
    if not is_consistent(delta):
        return state
    interp = dict(state.interp)
    for u in delta:
        if isinstance(u.location, NodeRef):
            raise StateError("sublocation updates must be collapsed before application")
        if u.value is UNDEF:
            interp.pop(u.location, None)
        else:
            interp[u.location] = u.value
    return replace(state, interp=interp)


def diff_states(s1: State, s2: State) -> UpdateSet:
    """The minimal consistent update set with ``s1 + delta = s2``."""
    if s1.base != s2.base:
        raise StateError("states differ on the standard base set")
    if not s1.signature.is_subsignature_of(s2.signature):
        raise StateError("second state's signature does not extend the first's")
    updates = set()
    for loc in set(s1.interp) | set(s2.interp):
        v1, v2 = s1.value_at(loc), s2.value_at(loc)
        if v1 != v2:
            updates.add(Update(loc, v2))
    return UpdateSet(frozenset(updates))


# -- isomorphism action -----------------------------------------------------------


def _moved_atoms(state: State, sigma: dict[Atom, Atom]) -> dict[Atom, Atom]:
    """The atoms of the base set that ``sigma`` moves, mapped to their images."""
    for a in sigma:
        if a not in state.base:
            raise IsoError(f"{a!r} is not in the base set")
    full = {a: sigma.get(a, a) for a in state.base}
    if set(full.values()) != set(state.base):
        raise IsoError("mapping is not a bijection on the base set")
    return {a: b for a, b in full.items() if a != b}


def _same(items, originals) -> bool:
    return all(map(operator.is_, items, originals))


def rename_value(value: Value, sigma: dict[Atom, Atom]) -> Value:
    """Rename standard values structurally; all other kinds are fixed points.

    A value in which nothing moves comes back as the same object.
    """
    if isinstance(value, Atom):
        return sigma.get(value, value)
    if isinstance(value, TupleVal):
        items = [rename_value(v, sigma) for v in value.items]
        return value if _same(items, value.items) else TupleVal(tuple(items))
    if isinstance(value, SetVal):
        members = [rename_value(v, sigma) for v in value.members]
        return value if _same(members, value.members) else SetVal(frozenset(members))
    if isinstance(value, DroppedTerm):
        term = rename_term(value.term, sigma)
        return value if term is value.term else DroppedTerm(term)
    if isinstance(value, TreeValue):
        tree = _rename_tree(value.tree, sigma, {})
        return value if tree is value.tree else TreeValue(tree)
    return value


def _rename_tree(t: Tree, sigma: dict[Atom, Atom], renamed: dict[int, Tree]) -> Tree:
    """``t`` renamed; ``renamed`` holds the image of each subtree object met so far in this tree."""
    out = renamed.get(id(t))
    if out is None:
        if t.is_leaf:
            v = None if t.value is None else rename_value(t.value, sigma)
            out = t if v is t.value else Tree(t.label, (), v)
        else:
            # a node whose children did not move is built again as ``t`` itself
            out = Tree(t.label, tuple([_rename_tree(c, sigma, renamed) for c in t.children]))
        renamed[id(t)] = out
    return out


def rename_term(term: Term, sigma: dict[Atom, Atom]) -> Term:
    """Rename the constants inside a term; a term in which nothing moves comes back as is."""
    if isinstance(term, Constant):
        value = rename_value(term.value, sigma)
        return term if value is term.value else Constant(value)
    shape = _TERM_SHAPES.get(type(term))
    if shape is None:
        return term
    children = shape[0](term)
    renamed = tuple([rename_term(c, sigma) for c in children])
    return term if _same(renamed, children) else shape[1](term, renamed)


def apply_isomorphism(state: State, sigma: dict[Atom, Atom]) -> State:
    """Rename every standard-value occurrence of the state along a base bijection."""
    moved = _moved_atoms(state, sigma)
    interp = {
        Location(loc.symbol, tuple(rename_value(a, moved) for a in loc.args)): rename_value(v, moved)
        for loc, v in state.interp.items()
    }
    domains = tuple(
        (name, tuple(sorted((rename_value(m, moved) for m in members), key=value_sort_key)))
        for name, members in state.background.domains
    )
    background = replace(state.background, domains=domains)
    return State(state.signature, state.base, interp, background)


# -- canonical serialization -------------------------------------------------------


def value_to_json(value: Value, doc: TracePrinter) -> object:
    """A value as JSON; each tree it holds is ``{"tree": id}``, an id into ``doc.entries``.

    ``doc``, the printer of the whole JSON document the value is part of,
    keeps its node table and the id of each tree written into it so far, so
    a tree that the document holds several times is written once; it writes a
    dropped term as program text whose trees are ids into the same table.
    """
    if value is UNDEF:
        return {"undef": True}
    if isinstance(value, Atom):
        return {"atom": value.name}
    if isinstance(value, BoolVal):
        return {"bool": value.flag}
    if isinstance(value, NatVal):
        return {"nat": value.n}
    if isinstance(value, SymbolName):
        return {"symbol": value.name}
    if isinstance(value, DroppedTerm):
        return {"dropped": doc.term(value.term)}
    if isinstance(value, TreeValue):
        return {"tree": _table_id(value.tree, doc)}
    if isinstance(value, TupleVal):
        return {"tuple": [value_to_json(v, doc) for v in value.items]}
    if isinstance(value, SetVal):
        members = sorted(value.members, key=value_sort_key)
        return {"set": [value_to_json(v, doc) for v in members]}
    if isinstance(value, NodeRef):
        return {"node": list(value.path)}
    raise StateError(f"cannot serialize value {value!r}")


# The recursive walk of the table is a module function: a nested function that
# calls itself is a reference cycle, which would keep every tree it reaches,
# and the memos kept on them, alive until a full garbage collection.
def _table_id(node: Tree, doc: TracePrinter) -> int:
    """The id of ``node`` in ``doc.entries``, whose entries are ``[label, value?, [child ids]]``.

    A new subtree is appended after its children and the trees its leaf value
    holds, so an entry names only entries before it.  Equal trees are one
    object, so a subtree is looked up by identity, which is its value: the
    table depends only on what is written into it, and in what order.
    """
    nid = doc.ids.get(node)
    if nid is None:
        kids = [_table_id(c, doc) for c in node.children]
        entry: list = [node.label]
        if node.value is not None:
            entry.append(value_to_json(node.value, doc))
        entry.append(kids)
        nid = doc.ids[node] = len(doc.entries)
        doc.entries.append(entry)
    return nid


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def value_sort_key(value: Value) -> tuple:
    """A total order on values that depends only on the value, never on the hash seed."""
    if isinstance(value, Atom):
        return (0, value.name)
    if isinstance(value, NatVal):
        return (1, value.n)
    if isinstance(value, BoolVal):
        return (2, value.flag)
    if value is UNDEF:
        return (3,)
    if isinstance(value, SymbolName):
        return (4, value.name)
    if isinstance(value, NodeRef):
        return (5, value.path)
    return treealg.memoized(value, "_sort_key", _composite_sort_key)


def _composite_sort_key(value: Value) -> tuple:
    """``(6, text)``: the canonical text of ``[table, json]``, the value alone in a document."""
    doc = _printer.TracePrinter()
    obj = value_to_json(value, doc)
    return (6, canonical_dumps([doc.entries, obj]))


def location_sort_key(loc: Location | NodeRef) -> tuple:
    if isinstance(loc, NodeRef):
        return (1, "", loc.path)
    return (0, loc.symbol, tuple(value_sort_key(a) for a in loc.args))


def location_to_json(loc: Location | NodeRef, doc: TracePrinter) -> object:
    if isinstance(loc, NodeRef):
        return value_to_json(loc, doc)
    return {"symbol": loc.symbol, "args": [value_to_json(a, doc) for a in loc.args]}


def state_to_json(state: State) -> dict:
    """A state as JSON; every tree in it is an id into its one node table, ``nodes``."""
    doc = _printer.TracePrinter()
    obj = {
        "signature": [[s.name, s.arity] for s in state.signature.symbols],
        "base": sorted(a.name for a in state.base),
        "domains": [
            {"name": name, "members": [value_to_json(m, doc) for m in members]}
            for name, members in state.background.domains
        ],
        "locations": [
            [location_to_json(loc, doc), value_to_json(state.interp[loc], doc)]
            for loc in state.defined_locations()
        ],
    }
    obj["nodes"] = doc.entries
    return obj


# -- term evaluation ----------------------------------------------------------------

if TYPE_CHECKING:
    from .printer import TracePrinter

    # A compiled term: ``(state, env, reads) -> Value``.  Not built at run
    # time: typing caches a subscripted ``Callable``, and the cached alias
    # would keep this module alive after a fresh import replaces it.
    Compiled = Callable[[State, dict | None, set | None], Value]


def eval_term(
    state: State,
    term: Term,
    env: dict[str, Value] | None = None,
    reads: set[Location] | None = None,
) -> Value:
    """The value of a term in a state.

    Function application is strict: an undefined argument makes the whole
    application undefined.  Equality and the connectives are total.  The
    connectives are three-valued and evaluate every operand, left to right,
    even once the result is decided, so an operand's evaluation error always
    surfaces and ``reads`` covers every operand, which the bounded-exploration
    probe relies on.  ``reads`` optionally collects the locations whose values
    the evaluation consulted.

    The term is compiled once per signature (see :func:`compile_term`) and
    the closure is kept on the term object, so a term met again, as the terms
    of a decoded rule are on every step, is not compiled again.  Inside an
    ``IOTA``, a subterm that does not mention the bound variable is evaluated
    at its first use and reused for the rest of that ``IOTA``'s evaluation;
    the value, ``reads`` and any error are the ones evaluating it at every
    member would give.  The members of ``NODES`` are the nodes of the current
    self tree in preorder, each a :class:`NodeRef` that carries the node it
    names, so ``label(w)`` and the other node functions read it without a
    walk from the root.
    """
    table = treealg.memoized(term, "_compiled", lambda _: {})
    run = table.get(state.signature)
    if run is None:
        run = table[state.signature] = compile_term(term, state.signature)
    return run(state, env, reads)


def compile_term(term: Term, signature: Signature) -> Compiled:
    """A closure ``(state, env, reads) -> Value`` that evaluates ``term`` as :func:`eval_term`.

    Each function symbol is resolved here, once, against ``signature``: a
    location of the signature, a background term function, or an unknown
    symbol, with its arity checked.  A node of ``self`` is read as
    ``subtree(node@p)``, a background function like any other.
    Whether a location is a derived projection, and the members of a search
    domain, are read from the state's background when the closure runs.  A
    fault found here (a wrong arity, an unknown symbol) is raised only when
    the closure runs, with the same message, so a term that is never
    evaluated never fails.
    """
    return _compile(term, signature, None)


def _compile(term: Term, signature: Signature, var: str | None) -> Compiled:
    """The closure of ``term``, inside an IOTA whose variable is ``var`` unless it is None.

    A compound subterm in which ``var`` is not free, under one in which it is,
    is evaluated once per evaluation of that IOTA (see :func:`_once`).
    """
    kind = type(term)
    if kind is Constant:
        value = term.value
        return lambda state, env, reads: value
    if kind is Variable:
        return _variable(term.name)
    if kind is Iota:
        return _iota(term, signature)
    build = _BUILDERS.get(kind)
    if build is None:
        return _failing(EvalError, f"unknown term {term!r}")
    children = term_children(term)
    fns = [_compile(c, signature, var) for c in children]
    if var is not None and var in term_free_vars(term):
        fns = [_hoisted(fn, c, var) for c, fn in zip(children, fns)]
    return build(term, fns, signature)


_LEAVES = (Constant, Variable)


def _hoisted(fn: Compiled, term: Term, var: str) -> Compiled:
    """``fn``, the closure of ``term``, evaluated once per IOTA if ``var`` is not free in it."""
    if var in term_free_vars(term) or type(term) in _LEAVES:
        return fn
    return _once(fn)


def _failing(error: type, message: str) -> Compiled:
    def fail(state, env, reads):
        raise error(message)

    return fail


def _once(fn: Compiled) -> Compiled:
    """``fn`` evaluated at its first use in an IOTA's evaluation, then reused.

    The value is kept in the IOTA's own environment for that evaluation, which
    the IOTA copies afresh each time, under a key no variable can have.
    """
    key = object()

    def once(state, env, reads):
        value = env.get(key)
        if value is None:
            value = env[key] = fn(state, env, reads)
        return value

    return once


def _variable(name: str) -> Compiled:
    def variable(state, env, reads):
        try:
            return env[name]
        except (KeyError, TypeError):
            raise EvalError(f"unbound variable {name!r}") from None

    return variable


def _equality(term, fns, signature) -> Compiled:
    left, right = fns

    def equality(state, env, reads):
        return TRUE if left(state, env, reads) == right(state, env, reads) else FALSE

    return equality


def _flag(value: Value) -> bool | None:
    return value.flag if isinstance(value, BoolVal) else None


def _connective(term, fns, signature) -> Compiled:
    # three-valued connectives: a false conjunct (true disjunct) decides the
    # result even when another operand is undefined (flag None)
    if term.op == "not":
        (operand,) = fns

        def negation(state, env, reads):
            flag = _flag(operand(state, env, reads))
            return UNDEF if flag is None else FALSE if flag else TRUE

        return negation
    # Kleene AND and OR are associative, so any number of operands is a
    # balanced tree of two-operand closures: it still evaluates every operand
    # left to right, and a flat chain of n operands nests only ceil(log2 n)
    # calls deep; the unit (true for AND, false for OR) pads fewer than two
    decisive = term.op == "or"  # the operand flag that decides the result
    unit = FALSE if decisive else TRUE
    if len(fns) < 2:
        fns = [lambda state, env, reads: unit, *fns]
    return _balanced(fns, decisive)


def _balanced(fns: list[Compiled], decisive: bool) -> Compiled:
    if len(fns) == 1:
        return fns[0]
    half = len(fns) // 2
    return _binary(_balanced(fns[:half], decisive), _balanced(fns[half:], decisive), decisive)


def _binary(first: Compiled, second: Compiled, decisive: bool) -> Compiled:
    decided, otherwise = (TRUE, FALSE) if decisive else (FALSE, TRUE)

    def binary(state, env, reads):
        a, b = first(state, env, reads), second(state, env, reads)
        fa = a.flag if isinstance(a, BoolVal) else None
        fb = b.flag if isinstance(b, BoolVal) else None
        if fa == decisive or fb == decisive:
            return decided
        return UNDEF if fa is None or fb is None else otherwise

    return binary


def _iota(term: Iota, signature: Signature) -> Compiled:
    var, domain = term.var, term.domain
    condition = _hoisted(_compile(term.condition, signature, var), term.condition, var)

    def members_of(state, reads):
        if domain == NODES_DOMAIN:
            if reads is not None:
                reads.add(SELF_LOCATION)
            tree = state.self_tree
            return (NodeRef(path, tree, node) for path, node in tree.preorder())
        members = state.background.domain(domain)
        if members is None:
            raise EvalError(f"unknown search domain {domain!r}")
        return members

    def iota(state, env, reads):
        inner = dict(env) if env else {}
        witness = None
        for m in members_of(state, reads):
            inner[var] = m
            if condition(state, inner, reads) == TRUE:
                if witness is not None:
                    return UNDEF
                witness = m
        return UNDEF if witness is None else witness

    return iota


def _strict(fns: list[Compiled], apply) -> Compiled:
    """A closure calling ``apply(state, values, reads)`` on every operand's value, in order.

    It is undefined, without calling ``apply``, if an operand is undefined.
    """
    if not fns:
        return lambda state, env, reads: apply(state, (), reads)
    if len(fns) == 1:
        (only,) = fns

        def one(state, env, reads):
            a = only(state, env, reads)
            return UNDEF if a is UNDEF else apply(state, (a,), reads)

        return one
    if len(fns) == 2:
        first, second = fns

        def two(state, env, reads):
            a, b = first(state, env, reads), second(state, env, reads)
            return UNDEF if a is UNDEF or b is UNDEF else apply(state, (a, b), reads)

        return two

    def many(state, env, reads):
        vals = tuple([f(state, env, reads) for f in fns])
        for v in vals:
            if v is UNDEF:
                return UNDEF
        return apply(state, vals, reads)

    return many


def _application(term: FunctionApp, fns, signature: Signature) -> Compiled:
    sym, count = term.symbol, len(fns)
    arity = signature.arity_of(sym)
    if arity is not None:
        if count != arity:
            return _failing(SignatureError, f"{sym!r} has arity {arity}, got {count} arguments")

        def location(state, vals, reads):
            base_name = state.background.projection_base(sym)
            if base_name is not None:
                return _projection(state, base_name, vals, reads)
            loc = Location(sym, vals)
            if reads is not None:
                reads.add(loc)
            return state.value_at(loc)

        return _strict(fns, location)

    fn = _bg.TERM_FUNCTIONS.get(sym)
    if fn is not None:
        if fn.arity is not None and count != fn.arity:
            return _failing(SignatureError, f"background function {sym!r} takes {fn.arity} arguments")
        return _strict(fns, fn.fn)

    return _failing(SignatureError, f"unknown symbol {sym!r}")


_BUILDERS = {
    Equality: _equality,
    BoolConnective: _connective,
    FunctionApp: _application,
}


def _projection(
    state: State,
    base_name: str,
    vals: tuple[Value, ...],
    reads: set[Location] | None,
) -> Value:
    """Derived projection: component of a relation tuple selected via the index map."""
    attr, row = vals[0], vals[1:]
    index_loc = Location("index", (SymbolName(base_name), attr))
    member_loc = Location(base_name, row)
    if reads is not None:
        reads.add(index_loc)
        reads.add(member_loc)
    pos = state.value_at(index_loc)
    if not isinstance(pos, NatVal) or not (1 <= pos.n <= len(row)):
        return UNDEF
    if state.value_at(member_loc) != TRUE:
        return UNDEF
    return row[pos.n - 1]


# The background term functions and the printer import this module, so they
# are bound last.
from . import background as _bg  # noqa: E402
from . import printer as _printer  # noqa: E402
