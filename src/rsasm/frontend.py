"""Program format: lexer, parser, machine construction, and ``machine_to_source``.

A program has the sections DOMAINS, SIGNATURE, PROJECTIONS, INIT, RULE and
OPTIONS, in that order; only SIGNATURE and RULE are required.  The parser
builds the machine's initial state, including the self tree encoding the
declared signature and rule.  Bounded per-element families (PARFOR) and set
comprehensions are expanded at parse time over declared finite domains, so
the engine only ever sees core rules.  The same parser reads a trace's
values back (``value_from_json``), a dropped term as the text ``printer`` writes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import background as bg
from .errors import ParseError, StateError
from .printer import SourcePrinter
from .reflect import MAX_NESTING, RULE_AT, build_self_tree, decode_rule, drop, rule_of_self
from .rules import Assign, If, Let, Par, PartialAssign, Rule, rule_substitute
from .structures import (
    Atom,
    BackgroundConfig,
    BoolConnective,
    BoolVal,
    Constant,
    DEFAULT_MAX_STEPS,
    DroppedTerm,
    Equality,
    FALSE,
    FunctionApp,
    FunctionSymbol,
    Iota,
    Location,
    Machine,
    NatVal,
    NodeRef,
    NODES_DOMAIN,
    SELF_LOCATION,
    SELF_SYMBOL,
    SetVal,
    Signature,
    State,
    SymbolName,
    Term,
    TreeValue,
    TRUE,
    TupleVal,
    UNDEF,
    Value,
    Variable,
    term_children,
    term_substitute,
    value_sort_key,
)
from .treealg import Tree

KEYWORDS = {
    "DOMAINS",
    "SIGNATURE",
    "PROJECTIONS",
    "INIT",
    "RULE",
    "OPTIONS",
    "IF",
    "THEN",
    "ELSE",
    "ENDIF",
    "PAR",
    "ENDPAR",
    "PARFOR",
    "ENDPARFOR",
    "LET",
    "IN",
    "IOTA",
    "NODES",
    "CARD",
    "DROP",
    "RAISE",
    "AND",
    "OR",
    "NOT",
    "MOD",
    "XI",
}

# The reserved words, and the constants they name
RESERVED_WORDS = {"true": TRUE, "false": FALSE, "undef": UNDEF}


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


_SYMBOLS = {
    ":=": "ASSIGN",
    "<=": "PARTIAL",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "<": "LANGLE",
    ">": "RANGLE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    "=": "EQ",
    "/": "SLASH",
    "|": "BAR",
    ".": "DOT",
    "+": "PLUS",
    "-": "MINUS",
    "@": "AT",
}


def tokenize(source: str, marks: bool = False) -> list[Token]:
    """The tokens of program text, or with ``marks`` of a trace's text, which may hold a value's JSON."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if marks and ch == "{" and source.startswith('"', i + 1):
            try:
                j = json.JSONDecoder().raw_decode(source, i)[1]
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"not a value's JSON: {exc}", line, col) from None
            tokens.append(Token("JSON", source[i:j], line, col))
            col, i = col + j - i, j
            continue
        two = source[i : i + 2]
        if two in (":=", "<="):
            tokens.append(Token(_SYMBOLS[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():  # not isdigit: int() rejects digits such as "²"
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass
class ProgramSource:
    """The parsed sections of a program, before machine construction."""

    domains: dict[str, tuple[Value, ...]]
    signature: Signature
    projections: dict[str, str]
    init: dict[Location, Value]
    rule: Rule
    options: dict[str, int]
    name: str = "program"


def _nested(parse):
    """Count one nesting level around a parse method; too deep a program is a ParseError."""

    def nested(self, *args):
        self.enter(1)
        result = parse(self, *args)
        self.depth -= 1
        return result

    return nested


class Parser:
    """A parser of program text, or of a trace's text given ``trees``, the node table it names."""

    def __init__(self, tokens: list[Token], name: str = "program", trees: list[Tree] | None = None):
        self.tokens = tokens
        self.pos = 0
        self.name = name
        self.trees = trees
        self.domains: dict[str, tuple[Value, ...]] = {}
        self.signature_symbols: dict[str, int] = {}
        self.projections: dict[str, str] = {}
        self.bound: list[str] = []
        self.depth = 0

    # -- token helpers --

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want}, found {tok.text or 'end of input'}", tok.line, tok.column)
        return tok

    def at_keyword(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.text == text

    def take_keyword(self, text: str) -> bool:
        if self.at_keyword(text):
            self.next()
            return True
        return False

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def enter(self, levels: int) -> None:
        """Count ``levels`` more nesting levels; too deep a program is a ParseError."""
        if self.depth + levels > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += levels

    def ident(self, what: str) -> str:
        tok = self.next()
        if tok.kind != "IDENT":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'}", tok.line, tok.column)
        return tok.text

    # -- sections --

    def parse_program(self) -> ProgramSource:
        if self.take_keyword("DOMAINS"):
            self.parse_domains()
        self.expect("KEYWORD", "SIGNATURE")
        self.parse_signature()
        if self.take_keyword("PROJECTIONS"):
            self.parse_projections()
        init: dict[Location, Value] = {}
        if self.take_keyword("INIT"):
            init = self.parse_init()
        self.expect("KEYWORD", "RULE")
        rule = self.parse_rule()
        options: dict[str, int] = {}
        if self.take_keyword("OPTIONS"):
            options = self.parse_options()
        self.expect("EOF")
        signature = Signature(
            (SELF_SYMBOL,)
            + tuple(FunctionSymbol(n, a) for n, a in self.signature_symbols.items())
        )
        return ProgramSource(
            self.domains, signature, self.projections, init, rule, options, self.name
        )

    def parse_domains(self) -> None:
        while self.peek().kind == "IDENT":
            name = self.ident("domain name")
            if name in self.domains:
                self.fail(f"domain {name!r} declared twice")
            if name in RESERVED_WORDS:
                self.fail(f"{name!r} is reserved")
            self.expect("EQ")
            self.expect("LBRACE")
            members = self._items(lambda: Atom(self.ident("domain member")), "RBRACE")
            if len(set(members)) != len(members):
                self.fail(f"domain {name!r} lists a member twice")
            self.domains[name] = tuple(sorted(members, key=value_sort_key))

    def _take(self, kind: str) -> bool:
        if self.peek().kind == kind:
            self.next()
            return True
        return False

    def _items(self, parse_item, close: str) -> list:
        """Comma-separated items up to the closing token, which is consumed."""
        items = []
        if self.peek().kind != close:
            items.append(parse_item())
            while self._take("COMMA"):
                items.append(parse_item())
        self.expect(close)
        return items

    def parse_signature(self) -> None:
        while self.peek().kind == "IDENT":
            name = self.ident("function symbol")
            if name == "self":
                self.fail("'self' is implicit and cannot be declared")
            if name in self.signature_symbols:
                self.fail(f"symbol {name!r} declared twice")
            if name in bg.TERM_FUNCTIONS or name in RESERVED_WORDS:
                self.fail(f"{name!r} is a reserved background name")
            if name in self.domains:
                self.fail(f"{name!r} already names a domain")
            self.expect("SLASH")
            arity = int(self.expect("INT").text)
            self.signature_symbols[name] = arity

    def parse_projections(self) -> None:
        while self.peek().kind == "IDENT":
            name = self.ident("projection name")
            self.expect("EQ")
            base = self.ident("base relation")
            if name not in self.signature_symbols:
                self.fail(f"projection {name!r} must be declared in SIGNATURE")
            if base not in self.signature_symbols:
                self.fail(f"projection base {base!r} must be declared in SIGNATURE")
            if "index" not in self.signature_symbols or self.signature_symbols["index"] != 2:
                self.fail("projections need a binary 'index' symbol")
            if self.signature_symbols[name] != self.signature_symbols[base] + 1:
                self.fail(f"projection {name!r} must have arity of {base!r} plus one")
            if name in self.projections:
                self.fail(f"projection {name!r} declared twice")
            self.projections[name] = base

    def parse_value_literal(self) -> Value:
        tok = self.next()
        if tok.kind == "INT":
            return NatVal(int(tok.text))
        if tok.kind == "KEYWORD" and tok.text == "DROP":
            self.expect("LPAREN")
            name_tok = self.next()
            if name_tok.kind not in ("IDENT", "PLUS", "MINUS"):
                raise ParseError("expected a symbol name", name_tok.line, name_tok.column)
            self.expect("RPAREN")
            return SymbolName(name_tok.text)
        if tok.kind == "IDENT":
            if tok.text in RESERVED_WORDS:
                return RESERVED_WORDS[tok.text]
            if tok.text in self.signature_symbols or tok.text == "self":
                return SymbolName(tok.text)
            return Atom(tok.text)
        raise ParseError(f"expected a value literal, found {tok.text!r}", tok.line, tok.column)

    def parse_init(self) -> dict[Location, Value]:
        init: dict[Location, Value] = {}
        while self.peek().kind == "IDENT":
            name = self.ident("location symbol")
            if name == "self":
                self.fail("'self' is initialized from SIGNATURE and RULE")
            if name in self.projections:
                self.fail(f"derived function {name!r} cannot be initialized")
            arity = self.signature_symbols.get(name)
            if arity is None:
                self.fail(f"unknown symbol {name!r} in INIT")
            args = self._items(self.parse_value_literal, "RPAREN") if self._take("LPAREN") else []
            if len(args) != arity:
                self.fail(f"{name!r} has arity {arity}, got {len(args)} arguments")
            self.expect("EQ")
            value = self.parse_value_literal()
            loc = Location(name, tuple(args))
            if loc in init:
                self.fail(f"location {loc!r} initialized twice")
            init[loc] = value
        return init

    def parse_options(self) -> dict[str, int]:
        options: dict[str, int] = {}
        while self.peek().kind == "IDENT":
            key = self.ident("option name")
            if key != "max_steps":
                self.fail(f"unknown option {key!r}")
            if key in options:
                self.fail(f"option {key!r} set twice")
            self.expect("EQ")
            options[key] = int(self.expect("INT").text)
        return options

    # -- rules --

    def _bind(self, var: str) -> None:
        if var in self.bound:
            self.fail(f"variable {var!r} shadows an enclosing binding")
        if var in self.signature_symbols or var in self.domains or var in bg.TERM_FUNCTIONS:
            self.fail(f"variable {var!r} collides with a declared name")
        if var in RESERVED_WORDS or var == "self":
            self.fail(f"variable {var!r} is reserved")
        self.bound.append(var)

    def _unbind(self, var: str) -> None:
        assert self.bound and self.bound[-1] == var
        self.bound.pop()

    @_nested
    def parse_rule(self) -> Rule:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.text == "IF":
                self.next()
                cond = self.parse_term()
                self.expect("KEYWORD", "THEN")
                then = self.parse_rule()
                orelse: Rule = Par(())
                if self.take_keyword("ELSE"):
                    orelse = self.parse_rule()
                self.expect("KEYWORD", "ENDIF")
                return If(cond, then, orelse)
            if tok.text == "PAR":
                self.next()
                branches: list[Rule] = []
                while not self.at_keyword("ENDPAR"):
                    if self.peek().kind == "EOF":
                        self.fail("PAR without ENDPAR")
                    branches.append(self.parse_rule())
                self.next()
                return Par(tuple(branches))
            if tok.text == "PARFOR":
                self.next()
                var = self.ident("loop variable")
                self.expect("KEYWORD", "IN")
                domain = self.ident("domain name")
                members = self.domains.get(domain)
                if members is None:
                    self.fail(f"PARFOR needs a declared finite domain, not {domain!r}")
                self._bind(var)
                body = self.parse_rule()
                self._unbind(var)
                self.expect("KEYWORD", "ENDPARFOR")
                return Par(
                    tuple(rule_substitute(body, var, Constant(m)) for m in members)
                )
            if tok.text == "LET":
                self.next()
                var = self.ident("let variable")
                self.expect("EQ")
                bound = self.parse_term()
                self.expect("KEYWORD", "IN")
                self._bind(var)
                body = self.parse_rule()
                self._unbind(var)
                return Let(var, bound, body)
            self.fail(f"unexpected keyword {tok.text} in rule position")
        if tok.kind != "IDENT":
            self.fail("expected a rule")
        target = self.ident("update target")
        args = self._items(self.parse_term, "RPAREN") if self._take("LPAREN") else []
        if target in self.signature_symbols:
            if len(args) != self.signature_symbols[target]:
                self.fail(
                    f"{target!r} has arity {self.signature_symbols[target]}, got {len(args)}"
                )
        elif target in self.bound and args:
            self.fail(f"tree-node target {target!r} takes no arguments")
        nxt = self.next()
        if nxt.kind == "ASSIGN":
            return Assign(target, tuple(args), self.parse_term())
        if nxt.kind == "PARTIAL":
            self.expect("LBRACKET")
            op_tok = self.next()
            if op_tok.kind in ("PLUS", "MINUS"):
                op = op_tok.text
            elif op_tok.kind == "IDENT":
                op = op_tok.text
            else:
                raise ParseError("expected an operator name", op_tok.line, op_tok.column)
            if op not in bg.COLLAPSE_OPERATORS:
                raise ParseError(f"operator {op!r} is not registered", op_tok.line, op_tok.column)
            self.expect("RBRACKET")
            operands = [self.parse_term()]
            while self._take("COMMA"):
                operands.append(self.parse_term())
            return PartialAssign(target, tuple(args), op, tuple(operands))
        raise ParseError(f"expected ':=' or '<=[op]', found {nxt.text!r}", nxt.line, nxt.column)

    # -- terms --

    def parse_term(self) -> Term:
        return self.parse_or()

    def parse_or(self) -> Term:
        term = self.parse_and()
        parts = [term]
        while self.take_keyword("OR"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else BoolConnective("or", tuple(parts))

    def parse_and(self) -> Term:
        term = self.parse_not()
        parts = [term]
        while self.take_keyword("AND"):
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else BoolConnective("and", tuple(parts))

    def parse_not(self) -> Term:
        if self.take_keyword("NOT"):
            return BoolConnective("not", (self.parse_negated(),))
        return self.parse_equality()

    parse_negated = _nested(parse_not)

    def parse_equality(self) -> Term:
        left = self.parse_additive()
        if self._take("EQ"):
            return Equality(left, self.parse_additive())
        return left

    def parse_additive(self) -> Term:
        return self._left_chain(
            self.parse_mod,
            lambda: self.next().text if self.peek().kind in ("PLUS", "MINUS") else None,
        )

    def parse_mod(self) -> Term:
        return self._left_chain(
            self.parse_primary, lambda: "mod" if self.take_keyword("MOD") else None
        )

    def _left_chain(self, parse_operand, take_op) -> Term:
        """Left-associated binary applications; each operator after the first counts one level."""
        term = parse_operand()
        op, levels = take_op(), 0
        while op is not None:
            term = FunctionApp(op, (term, parse_operand()))
            op = take_op()
            if op is not None:
                self.enter(1)
                levels += 1
        self.depth -= levels
        return term

    def parse_domain_tag(self) -> str:
        if self.take_keyword("NODES"):
            return NODES_DOMAIN
        name = self.ident("domain name")
        if name not in self.domains and self.trees is None:
            self.fail(f"search domain {name!r} is not declared; unbounded search is rejected")
        return name

    @_nested
    def parse_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return Constant(NatVal(int(tok.text)))
        if tok.kind == "LPAREN":
            self.next()
            term = self.parse_term()
            self.expect("RPAREN")
            return term
        marked = self.trees is not None
        if marked and tok.kind == "JSON":
            self.next()
            return Constant(value_from_json(json.loads(tok.text), self.trees))
        if marked and tok.text in ("AND", "OR") and self.peek(1).kind == "LPAREN":
            self.pos += 2
            return BoolConnective(tok.text.lower(), tuple(self._items(self.parse_term, "RPAREN")))
        if tok.kind == "LBRACE":
            return self.parse_comprehension()
        if tok.kind == "KEYWORD":
            if tok.text == "IOTA":
                self.next()
                var = self.ident("iota variable")
                self.expect("KEYWORD", "IN")
                domain = self.parse_domain_tag()
                self.expect("DOT")
                if marked:  # its variable is written var@x
                    return Iota(var, domain, self.parse_term())
                self._bind(var)
                cond = self.parse_term()
                self._unbind(var)
                return Iota(var, domain, cond)
            if tok.text == "CARD":
                self.next()
                self.expect("LPAREN")
                arg = self.parse_term()
                self.expect("RPAREN")
                return FunctionApp("card_of", (arg,))
            if tok.text == "DROP":
                self.next()
                self.expect("LPAREN")
                term = self.parse_droppable()
                self.expect("RPAREN")
                return term
            if tok.text == "RAISE":
                self.next()
                self.expect("LPAREN")
                arg = self.parse_term()
                self.expect("RPAREN")
                return FunctionApp("raise_eval", (arg,))
            if tok.text == "XI":
                self.next()
                return FunctionApp("hole", ())
            self.fail(f"unexpected keyword {tok.text} in a term")
        if tok.kind != "IDENT":
            self.fail(f"unexpected {tok.text or 'end of input'} in a term")
        name = self.next().text
        if name in RESERVED_WORDS:
            return Constant(RESERVED_WORDS[name])
        if marked and self._take("AT"):
            return self.parse_marked(name)
        if self.peek().kind == "LANGLE":
            return self.parse_tree_node(name)
        if self._take("LPAREN"):
            args = self._items(self.parse_term, "RPAREN")
            arity = self.signature_symbols.get(name)
            if arity is not None and arity != len(args):
                self.fail(f"{name!r} has arity {arity}, got {len(args)} arguments")
            fn = bg.TERM_FUNCTIONS.get(name)
            if fn is not None and fn.arity not in (None, len(args)) and not marked:
                self.fail(f"{name!r} takes {fn.arity} arguments, got {len(args)}")
            return FunctionApp(name, tuple(args))
        return self.resolve_ident(name)

    def parse_marked(self, mark: str) -> Term:
        """The term a trace's text writes as ``mark@…`` (the ``printer`` docstring)."""
        if mark == "var":
            return Variable(self.ident("variable name"))
        self.expect("LPAREN")
        items = self._items(self.parse_term, "RPAREN")
        if mark == "dropped" and len(items) == 1:
            return Constant(DroppedTerm(items[0]))
        if mark not in ("set", "tuple") or not all(isinstance(t, Constant) for t in items):
            self.fail(f"{mark}@(…) is not a mark of constants")
        values = [t.value for t in items]
        return Constant(SetVal(frozenset(values)) if mark == "set" else TupleVal(tuple(values)))

    def resolve_ident(self, name: str) -> Term:
        if self.trees is not None:
            return Constant(Atom(name))
        if name in self.bound:
            return Variable(name)
        arity = self.signature_symbols.get(name)
        if arity == 0:
            return FunctionApp(name, ())
        if arity is not None:
            self.fail(f"symbol {name!r} has arity {arity} and needs arguments")
        fn = bg.TERM_FUNCTIONS.get(name)
        if fn is not None and fn.arity == 0:
            return FunctionApp(name, ())
        if name in self.domains:
            return Constant(SetVal(frozenset(self.domains[name])))
        return Constant(Atom(name))

    def parse_droppable(self) -> Term:
        tok = self.peek()
        if tok.kind in ("PLUS", "MINUS"):
            self.next()
            return Constant(SymbolName(tok.text))
        if tok.kind == "IDENT" and self.peek(1).kind == "RPAREN":
            name = self.next().text
            if name in RESERVED_WORDS:  # dropped, a constant is its value
                return Constant(RESERVED_WORDS[name])
            return Constant(SymbolName(name))
        inner = self.parse_term()
        return Constant(drop(inner))

    def parse_comprehension(self) -> Term:
        self.expect("LBRACE")
        var = self.ident("comprehension variable")
        self.expect("KEYWORD", "IN")
        domain = self.ident("domain name")
        members = self.domains.get(domain)
        if members is None:
            self.fail(f"comprehension needs a declared finite domain, not {domain!r}")
        self.expect("BAR")
        self.enter(len(members))  # one nested setadd per member
        self._bind(var)
        cond = self.parse_term()
        self._unbind(var)
        self.depth -= len(members)
        self.expect("RBRACE")
        acc: Term = FunctionApp("emptyset", ())
        for m in members:
            acc = FunctionApp(
                "setadd", (acc, Constant(m), term_substitute(cond, var, Constant(m)))
            )
        return acc

    # -- tree literals --

    @_nested
    def parse_tree_node(self, label: str) -> Term:
        self.expect("LANGLE")
        children = self._items(self.parse_tree_item, "RANGLE")
        return FunctionApp("label_hedge", (Constant(Atom(label)),) + tuple(children))

    def parse_tree_item(self) -> Term:
        if self.take_keyword("XI"):
            return FunctionApp("hole", ())
        label = self.ident("tree label")
        if self.peek().kind == "LANGLE":
            return self.parse_tree_node(label)
        if self._take("LPAREN"):
            content = self.parse_leaf_content()
            self.expect("RPAREN")
            return FunctionApp("leaf", (Constant(Atom(label)), content))
        return FunctionApp("label_hedge", (Constant(Atom(label)),))

    def parse_leaf_content(self) -> Term:
        tok = self.peek()
        if tok.kind in ("PLUS", "MINUS"):
            self.next()
            return Constant(SymbolName(tok.text))
        if tok.kind == "IDENT" and self.peek(1).kind == "RPAREN":
            name = self.next().text
            if name in RESERVED_WORDS:
                return Constant(RESERVED_WORDS[name])
            if name in self.bound:
                return Variable(name)
            if name in self.signature_symbols or name in bg.TERM_FUNCTIONS or name == "self":
                return Constant(SymbolName(name))
            return Constant(Atom(name))
        return self.parse_term()


# -- machine construction ------------------------------------------------------------


def _collect_atoms(x: Rule | Term, out: set[Atom]) -> None:
    """Add the atoms of a rule's or term's constants to ``out``, meeting each object once.

    The copies of a ``PARFOR`` body share every part without the loop
    variable, so a parsed rule holds far fewer objects than its encoding in
    ``self`` has nodes; encoding keeps every atom of a term (``drop``).
    """
    seen: set[int] = set()
    stack: list = [x]
    while stack:
        part = stack.pop()
        if id(part) in seen:
            continue
        seen.add(id(part))
        if isinstance(part, Constant):
            _collect_atoms_value(part.value, out)
        elif isinstance(part, Term):
            stack.extend(term_children(part))
        elif isinstance(part, Assign):
            stack += (*part.args, part.rhs)
        elif isinstance(part, PartialAssign):
            stack += (*part.args, *part.operands)
        elif isinstance(part, If):
            stack += (part.cond, part.then, part.orelse)
        elif isinstance(part, Par):
            stack.extend(part.branches)
        elif isinstance(part, Let):
            stack += (part.bound, part.body)


def _collect_atoms_value(value: Value, out: set[Atom]) -> None:
    if isinstance(value, Atom):
        out.add(value)
    elif isinstance(value, TupleVal):
        for v in value.items:
            _collect_atoms_value(v, out)
    elif isinstance(value, SetVal):
        for v in value.members:
            _collect_atoms_value(v, out)
    elif isinstance(value, DroppedTerm):
        _collect_atoms(value.term, out)
    elif isinstance(value, TreeValue):
        # each distinct subtree once: a self tree repeats many of them
        seen, stack = set(), [value.tree]
        while stack:
            node = stack.pop()
            if node.value is not None:
                _collect_atoms_value(node.value, out)
            fresh = [c for c in node.children if c not in seen]
            seen.update(fresh)
            stack.extend(fresh)


def build_machine(program: ProgramSource, max_steps: int | None = None) -> Machine:
    self_tree = build_self_tree(program.signature, program.rule)
    atoms: set[Atom] = set()
    for members in program.domains.values():
        for m in members:
            _collect_atoms_value(m, atoms)
    for loc, value in program.init.items():
        for v in loc.args + (value,):
            _collect_atoms_value(v, atoms)
    _collect_atoms(program.rule, atoms)

    background = BackgroundConfig(
        domains=tuple(sorted(program.domains.items())),
        projections=tuple(sorted(program.projections.items())),
    )
    interp = dict(program.init)
    interp[SELF_LOCATION] = TreeValue(self_tree)
    state = State(program.signature, frozenset(atoms), interp, background)

    if max_steps is None:
        max_steps = program.options.get("max_steps", DEFAULT_MAX_STEPS)
    return Machine(state, max_steps=max_steps, name=program.name)


def parse_program(source: str, name: str = "program") -> ProgramSource:
    return Parser(tokenize(source), name).parse_program()


def parse(source: str, name: str = "program", max_steps: int | None = None) -> Machine:
    """Parse program text into a machine ready to run."""
    return build_machine(parse_program(source, name), max_steps)


def _text(data: bytes) -> str:
    """``data`` decoded as UTF-8, its line ends read as text-mode ``open`` reads them."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def parse_file(path: str, max_steps: int | None = None) -> Machine:
    """Parse a program file; a byte that is not UTF-8 raises ``ParseError`` at its position."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        source = _text(data)
    except UnicodeDecodeError as exc:
        lines = _text(data[: exc.start]).split("\n")
        message = f"{path}: not UTF-8 at byte {data[exc.start]:#04x}"
        raise ParseError(message, len(lines), len(lines[-1]) + 1) from None
    name = os.path.splitext(os.path.basename(path))[0]
    return parse(source, name, max_steps)


def load_program(name: str) -> str:
    """Source text of a bundled example program."""
    from importlib import resources

    return (
        resources.files("rsasm").joinpath("programs").joinpath(f"{name}.rsasm").read_text("utf-8")
    )


# -- reading a trace's values -------------------------------------------------------


def value_from_json(obj, trees: list[Tree]) -> Value:
    """The value ``structures.value_to_json`` wrote, a dropped term's text read by ``Parser``.

    ``trees`` holds the trees of the document's node table.
    """
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
        parser = Parser(tokenize(obj["dropped"], marks=True), "trace", trees)
        term = parser.parse_term()
        parser.expect("EOF")
        return DroppedTerm(term)
    if "tree" in obj:
        nid = obj["tree"]
        if type(nid) is not int or not 0 <= nid < len(trees):
            raise StateError(f"tree id {nid!r} names no node table entry")
        return TreeValue(trees[nid])
    if "tuple" in obj:
        return TupleVal(tuple(value_from_json(v, trees) for v in obj["tuple"]))
    if "set" in obj:
        return SetVal(frozenset(value_from_json(v, trees) for v in obj["set"]))
    if "node" in obj:
        return NodeRef(tuple(obj["node"]))
    raise StateError(f"malformed value object {obj!r}")


def trees_from_table(table) -> list[Tree]:
    """The tree of every entry of a node table, by id (inverse of ``structures._table_id``).

    An entry may name, as a child or as a tree in its value, only an entry before it.
    """
    if not isinstance(table, list):
        raise StateError("a node table must be a list")
    trees: list[Tree] = []
    for nid, entry in enumerate(table):
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise StateError(f"malformed node table entry {nid}: {entry!r}")
        kids = entry[-1]
        if not isinstance(kids, list) or not all(type(k) is int and 0 <= k < nid for k in kids):
            raise StateError(f"node table entry {nid} names a child that does not precede it")
        value = value_from_json(entry[1], trees) if len(entry) == 3 else None
        trees.append(Tree(entry[0], tuple(trees[k] for k in kids), value))
    return trees


# -- printing -------------------------------------------------------------------------


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
    rule = decode_rule(rule_of_self(state.self_tree), RULE_AT)
    lines.append(printer.rule(rule, 1))
    lines.append("")
    lines.append("OPTIONS")
    lines.append(f"  max_steps = {machine.max_steps}")
    lines.append("")
    return "\n".join(lines)
