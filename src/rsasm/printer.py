"""The one printer: values, terms, trees and rules as program text.

Every value and every term prints through ``SourcePrinter``, and it is their
``repr`` too, so error details, clash reasons and CLI output all show the
syntax a program is written in: ``a(DROP(m = 0))``, ``concat(a<>, b<>)``,
``x + 1 = 2``.  A node of the self tree prints as ``node@p``, its child-index
path joined by dots, the address tree difference uses.

A trace writes each dropped term as program text too (``TracePrinter``), read
back by the program parser (``frontend.value_from_json``) with no signature or
scope, as the text carries marks only that reader accepts: a bare name is an
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
from .errors import ParseError
from .structures import (
    Atom,
    BoolConnective,
    BoolVal,
    Constant,
    DroppedTerm,
    Equality,
    FunctionApp,
    Iota,
    NatVal,
    NodeRef,
    NODES_DOMAIN,
    SetVal,
    SymbolName,
    Term,
    TreeValue,
    TupleVal,
    UNDEF,
    Value,
    Variable,
    canonical_dumps,
    value_sort_key,
    value_to_json,
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
        return repr(value)

    def _marked(self, value: Value) -> str:
        """A value of a trace's text that program text writes only within a scope, or not at all."""
        if isinstance(value, DroppedTerm):
            return f"dropped@({self.term(value.term)})"
        if isinstance(value, SetVal):
            members = sorted(value.members, key=value_sort_key)
            return f"set@({', '.join(map(self.value_literal, members))})"
        if isinstance(value, TupleVal):
            return f"tuple@({', '.join(map(self.value_literal, value.items))})"
        return canonical_dumps(value_to_json(value, self))

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
        text, level = self._term(term)
        if level < prec:
            return f"({text})"
        return text

    def _term(self, term: Term) -> tuple[str, int]:
        if isinstance(term, Constant):
            return self.value_literal(term.value), _PREC_PRIMARY
        if isinstance(term, Variable):
            return (f"var@{term.name}" if self.marks else term.name), _PREC_PRIMARY
        if isinstance(term, Equality):
            left = self.term(term.left, _PREC_ADD)
            right = self.term(term.right, _PREC_ADD)
            return f"{left} = {right}", _PREC_EQ
        if isinstance(term, BoolConnective):
            if term.op == "not":
                return f"NOT {self.term(term.operands[0], _PREC_NOT)}", _PREC_NOT
            if self.marks and len(term.operands) < 2:
                return f"{term.op.upper()}({', '.join(map(self.term, term.operands))})", _PREC_PRIMARY
            joiner = " AND " if term.op == "and" else " OR "
            level = _PREC_AND if term.op == "and" else _PREC_OR
            inner = joiner.join(self.term(a, level + 1) for a in term.operands)
            return inner, level
        if isinstance(term, Iota):
            # the condition reaches as far as a term can: as an operand, an IOTA is in parentheses
            domain = "NODES" if term.domain == NODES_DOMAIN else term.domain
            return f"IOTA {term.var} IN {domain} . {self.term(term.condition)}", 0
        if isinstance(term, FunctionApp):
            return self._application(term)
        raise ParseError(f"cannot print a {type(term).__name__} as a term")

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
        label = _atom_label(term)
        if name == "label_hedge" and label is not None and not self.marks:
            parts = ", ".join(self._term_item(child) for child in term.args[1:])
            return f"{label}<{parts}>", _PREC_PRIMARY
        if not term.args:
            if self.marks or name in bg.TERM_FUNCTIONS:
                return f"{name}()", _PREC_PRIMARY
            return name, _PREC_PRIMARY
        inner = ", ".join(self.term(a) for a in term.args)
        return f"{name}({inner})", _PREC_PRIMARY

    def _term_item(self, term: Term) -> str:
        """A child term of a tree literal's ``<…>``, where ``l(c)`` is a leaf."""
        if isinstance(term, Constant) and isinstance(term.value, TreeValue):
            return self._tree_item(term.value.tree)
        if isinstance(term, FunctionApp) and term.symbol == "leaf" and len(term.args) == 2:
            label = _atom_label(term)
            if label is not None:
                return f"{label}({self.term(term.args[1])})"
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
    """The printer of a trace's text, which keeps its JSON document's node table, ``entries``, and ``ids``."""

    marks = True

    def __init__(self):
        self.domains: dict = {}
        self.ids: dict[Tree, int] = {}
        self.entries: list = []


def _bare(name: str) -> bool:
    """True iff ``name`` reads back as a name: an ASCII identifier, no keyword or truth value."""
    ident = name.isascii() and name.isidentifier() and not (name.isalpha() and name.isupper())
    return ident and name not in ("true", "false", "undef")


def _atom_label(term: FunctionApp) -> str | None:
    """The label of a tree-building application whose first argument is an atom constant."""
    label = term.args[0] if term.args else None
    if isinstance(label, Constant) and isinstance(label.value, Atom):
        return label.value.name
    return None
