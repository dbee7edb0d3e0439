"""States as structures: the value universe, terms, locations, and evaluation.

A state interprets a signature over an extended base set.  Locations absent
from the interpretation read as undefined; the interpretation stores only the
finitely many defined entries.  The distinguished nullary location ``self``
always holds the tree-valued self-representation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from . import treealg
from .errors import EvalError, IsoError, SignatureError, StateError
from .treealg import Tree

# -- values --------------------------------------------------------------------


class _Undef:
    """The single undefinedness value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF = _Undef()


@dataclass(frozen=True)
class Atom:
    """An opaque standard value from the base set."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BoolVal:
    flag: bool

    def __repr__(self) -> str:
        return "true" if self.flag else "false"


TRUE = BoolVal(True)
FALSE = BoolVal(False)


@dataclass(frozen=True)
class NatVal:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise StateError(f"natural number value cannot be negative: {self.n}")

    def __repr__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class SymbolName:
    """A function symbol treated as a value (the result of dropping it)."""

    name: str

    def __repr__(self) -> str:
        return f"DROP({self.name})"


@dataclass(frozen=True)
class DroppedTerm:
    """A term treated as a value."""

    term: "Term"

    def __repr__(self) -> str:
        return f"DROP({self.term!r})"


@dataclass(frozen=True)
class TreeValue:
    tree: Tree

    def __repr__(self) -> str:
        return treealg.format_tree(self.tree)


@dataclass(frozen=True)
class TupleVal:
    items: tuple["Value", ...]

    def __repr__(self) -> str:
        return "(" + ", ".join(map(repr, self.items)) + ")"


@dataclass(frozen=True)
class SetVal:
    """A finite set value; equality is order-insensitive."""

    members: frozenset

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in sorted(self.members, key=value_sort_key))
        return "{" + inner + "}"


@dataclass(frozen=True)
class NodeRef:
    """A node of the current self tree, addressed by its child-index path."""

    path: tuple[int, ...]

    def __repr__(self) -> str:
        return "node@" + ".".join(map(str, self.path))


Value = object  # Atom | _Undef | BoolVal | NatVal | SymbolName | DroppedTerm | TreeValue | TupleVal | NodeRef


# -- terms ---------------------------------------------------------------------


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Constant(Term):
    value: Value


@dataclass(frozen=True)
class FunctionApp(Term):
    symbol: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Equality(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class BoolConnective(Term):
    op: str  # "and" | "or" | "not"
    operands: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise EvalError(f"unknown connective {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise EvalError("'not' takes exactly one operand")


NODES_DOMAIN = "@nodes"


@dataclass(frozen=True)
class Iota(Term):
    """The unique element of a finite search domain satisfying the condition.

    The domain is a declared finite domain name, or ``NODES_DOMAIN`` for the
    node set of the current self tree.
    """

    var: str
    domain: str
    condition: Term


@dataclass(frozen=True)
class Variable(Term):
    name: str


def term_substitute(term: Term, var: str, repl: Term) -> Term:
    """Substitute ``repl`` for free occurrences of ``var``."""
    if isinstance(term, Variable):
        return repl if term.name == var else term
    if isinstance(term, Constant):
        return term
    if isinstance(term, FunctionApp):
        return FunctionApp(term.symbol, tuple(term_substitute(a, var, repl) for a in term.args))
    if isinstance(term, Equality):
        return Equality(term_substitute(term.left, var, repl), term_substitute(term.right, var, repl))
    if isinstance(term, BoolConnective):
        return BoolConnective(term.op, tuple(term_substitute(a, var, repl) for a in term.operands))
    if isinstance(term, Iota):
        if term.var == var:
            return term
        return Iota(term.var, term.domain, term_substitute(term.condition, var, repl))
    raise EvalError(f"unknown term {term!r}")


def term_is_ground(term: Term, bound: frozenset[str] = frozenset()) -> bool:
    if isinstance(term, Variable):
        return term.name in bound
    if isinstance(term, Constant):
        return True
    if isinstance(term, FunctionApp):
        return all(term_is_ground(a, bound) for a in term.args)
    if isinstance(term, Equality):
        return term_is_ground(term.left, bound) and term_is_ground(term.right, bound)
    if isinstance(term, BoolConnective):
        return all(term_is_ground(a, bound) for a in term.operands)
    if isinstance(term, Iota):
        return term_is_ground(term.condition, bound | {term.var})
    return False


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

    def arity_of(self, name: str) -> int | None:
        return self._arities.get(name)  # type: ignore[attr-defined]

    def has(self, name: str) -> bool:
        return name in self._arities  # type: ignore[attr-defined]

    def names(self) -> frozenset[str]:
        return frozenset(self._arities)  # type: ignore[attr-defined]

    def with_added(self, *symbols: FunctionSymbol) -> "Signature":
        return Signature(self.symbols + symbols)

    def is_subsignature_of(self, other: "Signature") -> bool:
        return all(other.arity_of(s.name) == s.arity for s in self.symbols)


@dataclass(frozen=True)
class Location:
    symbol: str
    args: tuple[Value, ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class NodeLocation:
    """A sublocation: a node of the self tree addressed as its own location."""

    path: tuple[int, ...]

    def __repr__(self) -> str:
        return "self@" + ".".join(map(str, self.path))


SELF_LOCATION = Location("self", ())


@dataclass(frozen=True)
class Update:
    location: Location | NodeLocation
    value: Value

    def __repr__(self) -> str:
        return f"({self.location!r} := {self.value!r})"


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
    """Per-machine background data: labels, finite domains, derived projections."""

    labels: frozenset[str] = treealg.BASE_LABELS
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

    __hash__ = None  # type: ignore[assignment]

    def value_at(self, loc: Location) -> Value:
        return self.interp.get(loc, UNDEF)

    @property
    def self_tree(self) -> Tree:
        return self.value_at(SELF_LOCATION).tree

    def with_signature(self, signature: Signature) -> "State":
        if signature == self.signature:
            return self
        return replace(self, signature=signature)

    def defined_locations(self) -> list[Location]:
        return sorted(self.interp, key=location_sort_key)


def apply_update_set(state: State, delta: UpdateSet) -> State:
    """The successor state under ``delta``; an inconsistent set leaves the state unchanged."""
    if not is_consistent(delta):
        return state
    interp = dict(state.interp)
    for u in delta:
        if isinstance(u.location, NodeLocation):
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


def _complete_bijection(state: State, sigma: dict[Atom, Atom]) -> dict[Atom, Atom]:
    for a in sigma:
        if a not in state.base:
            raise IsoError(f"{a!r} is not in the base set")
    full = {a: sigma.get(a, a) for a in state.base}
    if set(full.values()) != set(state.base):
        raise IsoError("mapping is not a bijection on the base set")
    return full


def rename_value(value: Value, sigma: dict[Atom, Atom]) -> Value:
    """Rename standard values structurally; all other kinds are fixed points."""
    if isinstance(value, Atom):
        return sigma.get(value, value)
    if isinstance(value, TupleVal):
        return TupleVal(tuple(rename_value(v, sigma) for v in value.items))
    if isinstance(value, SetVal):
        return SetVal(frozenset(rename_value(v, sigma) for v in value.members))
    if isinstance(value, DroppedTerm):
        return DroppedTerm(rename_term(value.term, sigma))
    if isinstance(value, TreeValue):
        return TreeValue(_rename_tree(value.tree, sigma))
    return value


def _rename_tree(t: Tree, sigma: dict[Atom, Atom]) -> Tree:
    if t.is_leaf:
        v = None if t.value is None else rename_value(t.value, sigma)
        return Tree(t.label, (), v)
    return Tree(t.label, tuple(_rename_tree(c, sigma) for c in t.children))


def rename_term(term: Term, sigma: dict[Atom, Atom]) -> Term:
    """Rename the constants inside a term."""
    if isinstance(term, Constant):
        return Constant(rename_value(term.value, sigma))
    if isinstance(term, FunctionApp):
        return FunctionApp(term.symbol, tuple(rename_term(a, sigma) for a in term.args))
    if isinstance(term, Equality):
        return Equality(rename_term(term.left, sigma), rename_term(term.right, sigma))
    if isinstance(term, BoolConnective):
        return BoolConnective(term.op, tuple(rename_term(a, sigma) for a in term.operands))
    if isinstance(term, Iota):
        return Iota(term.var, term.domain, rename_term(term.condition, sigma))
    return term


def apply_isomorphism(state: State, sigma: dict[Atom, Atom]) -> State:
    """Rename every standard-value occurrence of the state along a base bijection."""
    full = _complete_bijection(state, sigma)
    interp = {
        Location(loc.symbol, tuple(rename_value(a, full) for a in loc.args)): rename_value(v, full)
        for loc, v in state.interp.items()
    }
    domains = tuple(
        (name, tuple(sorted((rename_value(m, full) for m in members), key=value_sort_key)))
        for name, members in state.background.domains
    )
    background = replace(state.background, domains=domains)
    return State(state.signature, state.base, interp, background)


def rename_update_set(delta: UpdateSet, state: State, sigma: dict[Atom, Atom]) -> UpdateSet:
    full = _complete_bijection(state, sigma)
    return UpdateSet(
        frozenset(
            Update(
                Location(u.location.symbol, tuple(rename_value(a, full) for a in u.location.args)),
                rename_value(u.value, full),
            )
            for u in delta
        )
    )


# -- canonical serialization -------------------------------------------------------


def value_to_json(value: Value) -> object:
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
        return {"dropped": term_to_json(value.term)}
    if isinstance(value, TreeValue):
        return {"tree": tree_to_json(value.tree)}
    if isinstance(value, TupleVal):
        return {"tuple": [value_to_json(v) for v in value.items]}
    if isinstance(value, SetVal):
        return {"set": [value_to_json(v) for v in sorted(value.members, key=value_sort_key)]}
    if isinstance(value, NodeRef):
        return {"node": list(value.path)}
    raise StateError(f"cannot serialize value {value!r}")


def tree_to_json(t: Tree) -> dict:
    obj: dict = {"label": t.label}
    if t.value is not None:
        obj["value"] = value_to_json(t.value)
    obj["children"] = [tree_to_json(c) for c in t.children]
    return obj


def term_to_json(term: Term) -> object:
    if isinstance(term, Constant):
        return {"const": value_to_json(term.value)}
    if isinstance(term, FunctionApp):
        return {"app": term.symbol, "args": [term_to_json(a) for a in term.args]}
    if isinstance(term, Equality):
        return {"eq": [term_to_json(term.left), term_to_json(term.right)]}
    if isinstance(term, BoolConnective):
        return {"conn": term.op, "args": [term_to_json(a) for a in term.operands]}
    if isinstance(term, Iota):
        return {"iota": term.var, "domain": term.domain, "cond": term_to_json(term.condition)}
    if isinstance(term, Variable):
        return {"var": term.name}
    raise EvalError(f"cannot serialize term {term!r}")


def value_from_json(obj) -> Value:
    if not isinstance(obj, dict) or len(obj) < 1:
        raise StateError(f"malformed value object {obj!r}")
    if "undef" in obj:
        return UNDEF
    if "atom" in obj:
        return Atom(obj["atom"])
    if "bool" in obj:
        return BoolVal(obj["bool"])
    if "nat" in obj:
        return NatVal(obj["nat"])
    if "symbol" in obj:
        return SymbolName(obj["symbol"])
    if "dropped" in obj:
        return DroppedTerm(term_from_json(obj["dropped"]))
    if "tree" in obj:
        return TreeValue(tree_from_json(obj["tree"]))
    if "tuple" in obj:
        return TupleVal(tuple(value_from_json(v) for v in obj["tuple"]))
    if "set" in obj:
        return SetVal(frozenset(value_from_json(v) for v in obj["set"]))
    if "node" in obj:
        return NodeRef(tuple(obj["node"]))
    raise StateError(f"malformed value object {obj!r}")


def tree_from_json(obj) -> Tree:
    value = value_from_json(obj["value"]) if "value" in obj else None
    return Tree(
        obj["label"],
        tuple(tree_from_json(c) for c in obj.get("children", ())),
        value,
    )


def term_from_json(obj) -> Term:
    if "const" in obj:
        return Constant(value_from_json(obj["const"]))
    if "app" in obj:
        return FunctionApp(obj["app"], tuple(term_from_json(a) for a in obj["args"]))
    if "eq" in obj:
        left, right = obj["eq"]
        return Equality(term_from_json(left), term_from_json(right))
    if "conn" in obj:
        return BoolConnective(obj["conn"], tuple(term_from_json(a) for a in obj["args"]))
    if "iota" in obj:
        return Iota(obj["iota"], obj["domain"], term_from_json(obj["cond"]))
    if "var" in obj:
        return Variable(obj["var"])
    raise EvalError(f"malformed term object {obj!r}")


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def value_sort_key(value: Value) -> tuple:
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
    return (6, canonical_dumps(value_to_json(value)))


def location_sort_key(loc: Location | NodeLocation) -> tuple:
    if isinstance(loc, NodeLocation):
        return (1, "", tuple(loc.path))
    return (0, loc.symbol, tuple(value_sort_key(a) for a in loc.args))


def location_to_json(loc: Location | NodeLocation) -> object:
    if isinstance(loc, NodeLocation):
        return {"node": list(loc.path)}
    return {"symbol": loc.symbol, "args": [value_to_json(a) for a in loc.args]}


def state_to_json(state: State) -> dict:
    return {
        "signature": [[s.name, s.arity] for s in state.signature.symbols],
        "base": sorted(a.name for a in state.base),
        "domains": [
            {"name": name, "members": [value_to_json(m) for m in members]}
            for name, members in state.background.domains
        ],
        "locations": [
            [location_to_json(loc), value_to_json(state.interp[loc])]
            for loc in state.defined_locations()
        ],
    }


def self_digest(state: State) -> str:
    payload = canonical_dumps(tree_to_json(state.self_tree))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- term evaluation ----------------------------------------------------------------


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
    """
    evaluate = _EVALUATORS.get(type(term))
    if evaluate is None:
        raise EvalError(f"unknown term {term!r}")
    return evaluate(state, term, env, reads)


def _eval_constant(state, term, env, reads) -> Value:
    return term.value


def _eval_variable(state, term, env, reads) -> Value:
    if env and term.name in env:
        return env[term.name]
    raise EvalError(f"unbound variable {term.name!r}")


def _eval_equality(state, term, env, reads) -> Value:
    left = eval_term(state, term.left, env, reads)
    right = eval_term(state, term.right, env, reads)
    return TRUE if left == right else FALSE


def _eval_connective(state, term, env, reads) -> Value:
    # three-valued connectives: a false conjunct (true disjunct) decides the
    # result even when another operand is undefined (flag None)
    flags = []
    for a in term.operands:
        v = eval_term(state, a, env, reads)
        flags.append(v.flag if isinstance(v, BoolVal) else None)
    if term.op == "not":
        return UNDEF if flags[0] is None else FALSE if flags[0] else TRUE
    if term.op == "and":
        if False in flags:
            return FALSE
        return UNDEF if None in flags else TRUE
    if True in flags:
        return TRUE
    return UNDEF if None in flags else FALSE


def _eval_iota(state, term, env, reads) -> Value:
    if term.domain == NODES_DOMAIN:
        if reads is not None:
            reads.add(SELF_LOCATION)
        members = (NodeRef(path) for _, path, _ in state.self_tree.preorder())
    else:
        members = state.background.domain(term.domain)
        if members is None:
            raise EvalError(f"unknown search domain {term.domain!r}")
    inner = dict(env) if env else {}
    witnesses = []
    for m in members:
        inner[term.var] = m
        if eval_term(state, term.condition, inner, reads) == TRUE:
            witnesses.append(m)
            if len(witnesses) > 1:
                return UNDEF
    return witnesses[0] if witnesses else UNDEF


def _eval_args(state, args, env, reads) -> tuple[Value, ...] | None:
    """Every argument's value in order, or None if one is undefined."""
    vals = tuple([eval_term(state, a, env, reads) for a in args])
    for v in vals:
        if v is UNDEF:
            return None
    return vals


def _eval_app(state, term, env, reads) -> Value:
    sym = term.symbol

    if sym.startswith("self@"):
        # nullary sublocation symbol produced by raising a node value
        if term.args:
            raise SignatureError(f"sublocation symbol {sym!r} is nullary")
        path = tuple(int(p) for p in sym[5:].split(".")) if sym != "self@" else ()
        if reads is not None:
            reads.add(SELF_LOCATION)
        node = state.self_tree.find(path)
        return UNDEF if node is None else TreeValue(node)

    arity = state.signature.arity_of(sym)
    if arity is not None:
        if len(term.args) != arity:
            raise SignatureError(
                f"{sym!r} has arity {arity}, got {len(term.args)} arguments"
            )
        vals = _eval_args(state, term.args, env, reads)
        if vals is None:
            return UNDEF
        base_name = state.background.projection_base(sym)
        if base_name is not None:
            return _eval_projection(state, sym, base_name, vals, reads)
        loc = Location(sym, vals)
        if reads is not None:
            reads.add(loc)
        return state.value_at(loc)

    fn = _bg.TERM_FUNCTIONS.get(sym)
    if fn is not None:
        if fn.arity is not None and len(term.args) != fn.arity:
            raise SignatureError(
                f"background function {sym!r} takes {fn.arity} arguments"
            )
        vals = _eval_args(state, term.args, env, reads)
        if vals is None:
            return UNDEF
        return fn.fn(state, vals, reads)

    raise SignatureError(f"unknown symbol {sym!r}")


_EVALUATORS = {
    Constant: _eval_constant,
    Variable: _eval_variable,
    Equality: _eval_equality,
    BoolConnective: _eval_connective,
    Iota: _eval_iota,
    FunctionApp: _eval_app,
}


def _eval_projection(
    state: State,
    name: str,
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


# The background term functions import this module, so they are bound last.
from . import background as _bg  # noqa: E402
