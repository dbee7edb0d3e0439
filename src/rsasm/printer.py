"""The one writer: program text, and the JSON of traces and states.

Every value and every term prints through ``SourcePrinter``, and it is their
``repr`` too, so error details, clash reasons and CLI output all show the
syntax a program is written in: ``a(DROP(m = 0))``, ``concat(a<>, b<>)``,
``x + 1 = 2``.  A node of the self tree prints as ``node@p``, its child-index
path joined by dots, the address tree difference uses.

One ``TracePrinter`` writes a trace's or a state's JSON and its node table,
and each dropped term in it as program text, read back by the program parser
(``frontend``, the one reader) with no signature or scope, as the text
carries marks only that reader accepts: a bare name is an
atom; a nullary application is ``f()``; a variable is ``var@x``; a set and a
tuple constant are ``set@(a, b)`` and ``tuple@(a, b)``; a dropped term that
``DROP(t)`` would read as another value (``reflect.drop``) is ``dropped@(t)``;
a name that is not bare (an atom named ``IF``), a tree and a node are their
value's JSON, ``{"tree":3}`` naming a tree of the node table; an ``AND`` or
``OR`` of fewer than two operands is ``AND(a)``; a tree is built by
``label_hedge`` and ``leaf``.  That JSON holds no text, so a text grows
linearly with the nesting of the values it holds.  Symbols and variables are
named as parse names them.
"""

from __future__ import annotations

from . import background as bg
from . import reflect, rules
from .errors import ParseError, StateError
from .structures import (
    Atom,
    BoolConnective,
    BoolVal,
    Constant,
    DroppedTerm,
    Equality,
    FunctionApp,
    Iota,
    Location,
    Machine,
    NatVal,
    NodeRef,
    NODES_DOMAIN,
    SELF_LOCATION,
    SetVal,
    State,
    SymbolName,
    Term,
    TreeValue,
    TupleVal,
    UNDEF,
    Update,
    Value,
    Variable,
    canonical_dumps,
    value_sort_key,
)
from .treealg import Tree, XI

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_EQ = 4
_PREC_ADD = 5
_PREC_MOD = 6
_PREC_PRIMARY = 7


class SourcePrinter:
    """Render values, terms, trees and rules as program text.

    ``domains`` names finite domains; a set equal to one prints as its name.
    """

    marks = False  # write a trace's text (module docstring)

    def __init__(self, domains=()):
        self.domains = dict(domains)

    def value_literal(self, value: Value) -> str:
        if isinstance(value, NatVal):
            return str(value.n)
        if isinstance(value, BoolVal):
            return "true" if value.flag else "false"
        if value is UNDEF:
            return "undef"
        if isinstance(value, Atom) and (not self.marks or _bare(value.name)):
            return value.name
        if isinstance(value, SymbolName) and (not self.marks or value.name in ("+", "-") or _bare(value.name)):
            return f"DROP({value.name})"
        if isinstance(value, DroppedTerm) and (not self.marks or isinstance(reflect.drop(value.term), DroppedTerm)):
            return f"DROP({self.term(value.term)})"
        if self.marks:
            return self._marked(value)
        if isinstance(value, TreeValue):
            return self.tree_literal(value.tree)
        if isinstance(value, NodeRef):
            return "node@" + ".".join(map(str, value.path))
        if isinstance(value, SetVal):
            for name, members in self.domains.items():
                if frozenset(members) == value.members:
                    return name
            text = "emptyset()"
            for m in sorted(value.members, key=value_sort_key):
                text = f"setadd({text}, {self.value_literal(m)}, true)"
            return text
        if isinstance(value, TupleVal):
            # a hedge: its trees concatenated from the left
            items = [self.value_literal(v) for v in value.items]
            if len(items) < 2:
                return f"({', '.join(items)})"
            text = items[0]
            for item in items[1:]:
                text = f"concat({text}, {item})"
            return text
        raise StateError(f"cannot print a {type(value).__name__} as a value")

    def _marked(self, value: Value) -> str:
        """A value of a trace's text that program text writes only within a scope, or not at all."""
        if isinstance(value, DroppedTerm):
            return f"dropped@({self.term(value.term)})"
        if isinstance(value, SetVal):
            members = sorted(value.members, key=value_sort_key)
            return f"set@({', '.join(map(self.value_literal, members))})"
        if isinstance(value, TupleVal):
            return f"tuple@({', '.join(map(self.value_literal, value.items))})"
        return canonical_dumps(self.value(value))

    def tree_literal(self, t: Tree) -> str:
        """A tree as a term; a value-carrying leaf is ``leaf(l, c)``, as ``l(c)`` would call ``l``."""
        if t.value is not None and not t.children:
            return f"leaf({t.label}, {self.value_literal(t.value)})"
        return self._tree_item(t)

    def _tree_item(self, t: Tree) -> str:
        """A tree inside a tree literal's ``<…>``, where ``l(c)`` is a leaf."""
        if t.label == XI:
            return "XI"
        if t.children:
            return f"{t.label}<{', '.join(self._tree_item(c) for c in t.children)}>"
        if t.value is not None:
            return f"{t.label}({self.value_literal(t.value)})"
        return f"{t.label}<>"

    def term(self, term: Term, prec: int = 0) -> str:
        """``term`` as text, in parentheses if it binds more loosely than ``prec``."""
        if isinstance(term, Constant):
            return self.value_literal(term.value)
        if isinstance(term, Variable):
            return f"var@{term.name}" if self.marks else term.name
        if isinstance(term, FunctionApp):
            text, level = self._application(term)
        elif isinstance(term, Equality):
            left = self.term(term.left, _PREC_ADD)
            right = self.term(term.right, _PREC_ADD)
            text, level = f"{left} = {right}", _PREC_EQ
        elif isinstance(term, BoolConnective):
            if term.op == "not":
                text, level = f"NOT {self.term(term.operands[0], _PREC_NOT)}", _PREC_NOT
            elif self.marks and len(term.operands) < 2:
                inner = ", ".join(map(self.term, term.operands))
                text, level = f"{term.op.upper()}({inner})", _PREC_PRIMARY
            else:
                joiner = " AND " if term.op == "and" else " OR "
                level = _PREC_AND if term.op == "and" else _PREC_OR
                text = joiner.join(self.term(a, level + 1) for a in term.operands)
        elif isinstance(term, Iota):
            # the condition reaches as far as a term can: as an operand, an IOTA is in parentheses
            domain = "NODES" if term.domain == NODES_DOMAIN else term.domain
            text, level = f"IOTA {term.var} IN {domain} . {self.term(term.condition)}", 0
        else:
            raise ParseError(f"cannot print a {type(term).__name__} as a term")
        return f"({text})" if level < prec else text

    def _application(self, term: FunctionApp) -> tuple[str, int]:
        name = term.symbol
        if name in ("+", "-") and len(term.args) == 2:
            left = self.term(term.args[0], _PREC_ADD)
            right = self.term(term.args[1], _PREC_ADD + 1)
            return f"{left} {name} {right}", _PREC_ADD
        if name == "mod" and len(term.args) == 2:
            left = self.term(term.args[0], _PREC_MOD)
            right = self.term(term.args[1], _PREC_MOD + 1)
            return f"{left} MOD {right}", _PREC_MOD
        if name == "card_of" and len(term.args) == 1:
            return f"CARD({self.term(term.args[0])})", _PREC_PRIMARY
        if name == "raise_eval" and len(term.args) == 1:
            return f"RAISE({self.term(term.args[0])})", _PREC_PRIMARY
        if name == "hole" and not term.args:
            return "XI", _PREC_PRIMARY
        if name == "label_hedge" and not self.marks and _is_tree_item(term):
            label = _atom_label(term)
            parts = ", ".join(self._term_item(child) for child in term.args[1:])
            return f"{label}<{parts}>", _PREC_PRIMARY
        if not term.args:
            if self.marks or name in bg.TERM_FUNCTIONS:
                return f"{name}()", _PREC_PRIMARY
            return name, _PREC_PRIMARY
        inner = ", ".join(self.term(a) for a in term.args)
        return f"{name}({inner})", _PREC_PRIMARY

    def _term_item(self, term: Term) -> str:
        """A child term of a tree literal's ``<…>``, where ``l(c)`` is a leaf (``_is_tree_item``)."""
        if isinstance(term, Constant):
            return self._tree_item(term.value.tree)
        if term.symbol == "leaf":
            return f"{_atom_label(term)}({self.term(term.args[1])})"
        return self.term(term)

    def rule(self, rule: rules.Rule, indent: int = 0) -> str:
        pad = "  " * indent
        if isinstance(rule, rules.Assign):
            if rule.args:
                args = ", ".join(self.term(a) for a in rule.args)
                return f"{pad}{rule.target}({args}) := {self.term(rule.rhs)}"
            return f"{pad}{rule.target} := {self.term(rule.rhs)}"
        if isinstance(rule, rules.PartialAssign):
            operands = ", ".join(self.term(a) for a in rule.operands)
            if rule.args:
                args = ", ".join(self.term(a) for a in rule.args)
                return f"{pad}{rule.target}({args}) <=[{rule.op}] {operands}"
            return f"{pad}{rule.target} <=[{rule.op}] {operands}"
        if isinstance(rule, rules.If):
            lines = [f"{pad}IF {self.term(rule.cond)} THEN", self.rule(rule.then, indent + 1)]
            if rule.orelse != rules.Par(()):
                lines.append(f"{pad}ELSE")
                lines.append(self.rule(rule.orelse, indent + 1))
            lines.append(f"{pad}ENDIF")
            return "\n".join(lines)
        if isinstance(rule, rules.Par):
            lines = [f"{pad}PAR"]
            for b in rule.branches:
                lines.append(self.rule(b, indent + 1))
            lines.append(f"{pad}ENDPAR")
            return "\n".join(lines)
        if isinstance(rule, rules.Let):
            return (
                f"{pad}LET {rule.var} = {self.term(rule.bound)} IN\n"
                + self.rule(rule.body, indent + 1)
            )
        raise ParseError(f"cannot print rule {rule!r}")


class TracePrinter(SourcePrinter):
    """The writer of one JSON document, a trace or a state, and of its node table.

    ``entries`` is the node table, ``ids`` the id of each tree written into it
    so far, so a tree that the document holds several times is written once; a
    dropped term is text whose trees are ids into the same table.
    """

    marks = True

    def __init__(self):
        self.ids: dict[Tree, int] = {}
        self.entries: list = []

    def value(self, value: Value) -> object:
        """A value as JSON; each tree it holds is ``{"tree": id}``, an id into ``entries``."""
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
            return {"dropped": self.term(value.term)}
        if isinstance(value, TreeValue):
            return {"tree": self.tree_id(value.tree)}
        if isinstance(value, TupleVal):
            return {"tuple": [self.value(v) for v in value.items]}
        if isinstance(value, SetVal):
            return {"set": [self.value(v) for v in sorted(value.members, key=value_sort_key)]}
        if isinstance(value, NodeRef):
            return {"node": list(value.path)}
        raise StateError(f"cannot write a {type(value).__name__} as JSON")

    def tree_id(self, node: Tree) -> int:
        """The id of ``node`` in ``entries``, whose entries are ``[label, value?, [child ids]]``.

        A new subtree is appended after its children and the trees its leaf value
        holds, so an entry names only entries before it.  Equal trees are one
        object, so a subtree is looked up by identity, which is its value: the
        table depends only on what is written into it, and in what order.
        """
        nid = self.ids.get(node)
        if nid is None:
            kids = [self.tree_id(c) for c in node.children]
            entry: list = [node.label]
            if node.value is not None:
                entry.append(self.value(node.value))
            entry.append(kids)
            nid = self.ids[node] = len(self.entries)
            self.entries.append(entry)
        return nid

    def location(self, loc: Location | NodeRef) -> object:
        if isinstance(loc, NodeRef):
            return self.value(loc)
        return {"symbol": loc.symbol, "args": [self.value(a) for a in loc.args]}

    def entry(self, entry: Update | rules.SharedUpdate) -> object:
        """An update or a shared update as JSON."""
        location = self.location(entry.location)
        if isinstance(entry, Update):
            return {"location": location, "value": self.value(entry.value)}
        return {"location": location, "op": entry.op, "args": [self.value(a) for a in entry.args]}


def state_to_json(state: State) -> dict:
    """A state as JSON; every tree in it is an id into its one node table, ``nodes``."""
    doc = TracePrinter()
    obj = {
        "signature": [[s.name, s.arity] for s in state.signature.symbols],
        "base": sorted(a.name for a in state.base),
        "domains": [
            {"name": name, "members": [doc.value(m) for m in members]}
            for name, members in state.background.domains
        ],
        "locations": [
            [doc.location(loc), doc.value(state.interp[loc])] for loc in state.defined_locations()
        ],
    }
    obj["nodes"] = doc.entries
    return obj


def machine_to_source(machine: Machine) -> str:
    """Render a machine back to program text (sections in canonical order)."""
    state = machine.initial_state
    printer = SourcePrinter(state.background.domains)
    lines: list[str] = []
    if state.background.domains:
        lines.append("DOMAINS")
        for name, members in state.background.domains:
            inner = ", ".join(printer.value_literal(m) for m in members)
            lines.append(f"  {name} = {{{inner}}}")
        lines.append("")
    lines.append("SIGNATURE")
    for sym in state.signature.symbols:
        if sym.name == "self":
            continue
        lines.append(f"  {sym.name}/{sym.arity}")
    lines.append("")
    if state.background.projections:
        lines.append("PROJECTIONS")
        for name, base in state.background.projections:
            lines.append(f"  {name} = {base}")
        lines.append("")
    init_locs = [loc for loc in state.defined_locations() if loc != SELF_LOCATION]
    if init_locs:
        lines.append("INIT")
        for loc in init_locs:
            value = printer.value_literal(state.interp[loc])
            if loc.args:
                args = ", ".join(printer.value_literal(a) for a in loc.args)
                lines.append(f"  {loc.symbol}({args}) = {value}")
            else:
                lines.append(f"  {loc.symbol} = {value}")
        lines.append("")
    lines.append("RULE")
    rule = reflect.decode_rule(reflect.rule_of_self(state.self_tree), reflect.RULE_AT)
    lines.append(printer.rule(rule, 1))
    lines.append("")
    lines.append("OPTIONS")
    lines.append(f"  max_steps = {machine.max_steps}")
    lines.append("")
    return "\n".join(lines)


def _bare(name: str) -> bool:
    """True iff ``name`` reads back as a name: an ASCII identifier, no keyword or truth value."""
    ident = name.isascii() and name.isidentifier() and not (name.isalpha() and name.isupper())
    return ident and name not in ("true", "false", "undef")


def _is_tree_item(term: Term) -> bool:
    """True iff ``term`` reads back as itself in a tree literal's ``<…>``: a tree constant,
    ``XI``, or ``leaf`` or ``label_hedge`` of an atom label whose parts do."""
    if isinstance(term, Constant):
        return isinstance(term.value, TreeValue)
    if not isinstance(term, FunctionApp):
        return False
    if term.symbol == "hole":
        return not term.args
    if _atom_label(term) is None:
        return False
    if term.symbol == "leaf" and len(term.args) == 2:  # in l(c), a bare name c is an atom or a symbol
        c = term.args[1]
        return not (isinstance(c, FunctionApp) and not c.args and c.symbol not in bg.TERM_FUNCTIONS)
    return term.symbol == "label_hedge" and all(map(_is_tree_item, term.args[1:]))


def _atom_label(term: FunctionApp) -> str | None:
    """The label of a tree-building application whose first argument is an atom constant."""
    label = term.args[0] if term.args else None
    if isinstance(label, Constant) and isinstance(label.value, Atom):
        return label.value.name
    return None
