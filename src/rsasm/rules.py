"""Rule AST and semantics: update multisets, sublocation normalization, collapse.

A rule, interpreted in a state, first yields an update multiset of plain and
shared updates.  Updates addressed at tree nodes of ``self`` are rewritten to
shared updates on the root ``self`` location whose operator splices at the
node's path.  The multiset then collapses to a plain update set; incompatible
entries produce a clash report instead, which ends the run.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .background import (
    COLLAPSE_OPERATORS,
    COMMUTATIVE_OPERATORS,
    OperatorFailure,
    SpliceOp,
    apply_operator,
)
from .errors import RuleError, SignatureError
from .structures import (
    BoolVal,
    Location,
    NodeRef,
    SELF_LOCATION,
    State,
    Term,
    TreeValue,
    Update,
    UpdateSet,
    Value,
    eval_term,
    location_sort_key,
    location_to_json,
    term_free_vars,
    term_substitute,
    value_sort_key,
    value_to_json,
)
from .treealg import memoized


# -- rule AST -------------------------------------------------------------------


class Rule:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(Rule):
    target: str
    args: tuple[Term, ...]
    rhs: Term


@dataclass(frozen=True)
class If(Rule):
    cond: Term
    then: Rule
    orelse: Rule


@dataclass(frozen=True)
class Par(Rule):
    branches: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Let(Rule):
    var: str
    bound: Term
    body: Rule


@dataclass(frozen=True)
class PartialAssign(Rule):
    target: str
    args: tuple[Term, ...]
    op: str
    operands: tuple[Term, ...]


def rule_free_vars(rule: Rule) -> frozenset[str]:
    """The variables free in the terms of ``rule``; a ``Let`` binds its own.  Kept on the rule."""
    return memoized(rule, "_free_vars", _rule_free_vars)


def _rule_free_vars(rule: Rule) -> frozenset[str]:
    if isinstance(rule, Assign):
        terms, subrules = rule.args + (rule.rhs,), ()
    elif isinstance(rule, If):
        terms, subrules = (rule.cond,), (rule.then, rule.orelse)
    elif isinstance(rule, Par):
        terms, subrules = (), rule.branches
    elif isinstance(rule, Let):
        return term_free_vars(rule.bound) | (rule_free_vars(rule.body) - {rule.var})
    elif isinstance(rule, PartialAssign):
        terms, subrules = rule.args + rule.operands, ()
    else:
        raise RuleError(f"unknown rule {rule!r}")
    return frozenset().union(*map(term_free_vars, terms), *map(rule_free_vars, subrules))


def rule_substitute(rule: Rule, var: str, repl: Term) -> Rule:
    """Substitute a term for a variable in all terms of a rule; a ``Let`` of ``var`` shadows it.

    A subrule in which ``var`` is not free comes back as the very object, so
    the copies of a ``PARFOR`` body share every subrule without the loop
    variable, and encoding meets each of them once.
    """
    if var not in rule_free_vars(rule):
        return rule

    def sub(term: Term) -> Term:
        return term_substitute(term, var, repl)

    def sub_rule(r: Rule) -> Rule:
        return rule_substitute(r, var, repl)

    if isinstance(rule, Assign):
        return Assign(rule.target, tuple(map(sub, rule.args)), sub(rule.rhs))
    if isinstance(rule, If):
        return If(sub(rule.cond), sub_rule(rule.then), sub_rule(rule.orelse))
    if isinstance(rule, Par):
        return Par(tuple(map(sub_rule, rule.branches)))
    if isinstance(rule, Let):
        return Let(rule.var, sub(rule.bound), rule.body if rule.var == var else sub_rule(rule.body))
    if isinstance(rule, PartialAssign):
        args, operands = tuple(map(sub, rule.args)), tuple(map(sub, rule.operands))
        return PartialAssign(rule.target, args, rule.op, operands)
    raise RuleError(f"unknown rule {rule!r}")


# -- shared updates and multisets -------------------------------------------------


@dataclass(frozen=True)
class SharedUpdate:
    location: Location | NodeRef
    op: str | SpliceOp  # a SpliceOp only once normalize_sublocations has run
    args: tuple[Value, ...]


Entry = object  # Update | SharedUpdate


def shared_sort_key(entry: SharedUpdate) -> tuple:
    """A total order on shared updates that never depends on the hash seed."""
    args = tuple(value_sort_key(a) for a in entry.args)
    return (location_sort_key(entry.location), entry.op, args)


def entry_to_json(entry, doc) -> object:
    """An update or shared update as JSON; its trees are ids into ``doc``'s node table (``value_to_json``)."""
    location = location_to_json(entry.location, doc)
    if isinstance(entry, Update):
        return {"location": location, "value": value_to_json(entry.value, doc)}
    args = [value_to_json(a, doc) for a in entry.args]
    return {"location": location, "op": entry.op, "args": args}


@dataclass(frozen=True, eq=False)
class UpdateMultiset:
    """A finite multiset of plain and shared updates.

    Entry order records the traversal that produced the multiset, but equality
    is order-independent.
    """

    entries: tuple[Entry, ...] = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UpdateMultiset):
            return NotImplemented
        return Counter(self.entries) == Counter(other.entries)

    # Unhashable, as a ``State`` is; ``eq=False`` keeps the dataclass from
    # adding a hash of ``entries``, which would depend on entry order.
    __hash__ = None  # type: ignore[assignment]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ClashReport:
    """Why a multiset failed to collapse; the run ends on it, the state unchanged."""

    location: Location
    reason: str


# -- computing update multisets -----------------------------------------------------


def _target_location(
    target: str, args: tuple[Term, ...], state: State, env: dict[str, Value] | None
):
    if env and target in env:
        v = env[target]
        if isinstance(v, NodeRef):
            if args:
                raise RuleError(f"tree-node target {target!r} takes no arguments")
            return v
        raise RuleError(f"bound target {target!r} does not hold a tree node")
    arity = state.signature.arity_of(target)
    if arity is None:
        raise SignatureError(f"unknown update target {target!r}")
    if arity != len(args):
        raise SignatureError(f"{target!r} has arity {arity}, got {len(args)} arguments")
    if state.background.projection_base(target) is not None:
        raise RuleError(f"derived function {target!r} is read-only")
    vals = tuple(eval_term(state, a, env) for a in args)
    return Location(target, vals)


def compute_update_multiset(
    rule: Rule, state: State, env: dict[str, Value] | None = None
) -> UpdateMultiset:
    """The update multiset a rule yields in a state, its entries in traversal order."""
    entries: list[Entry] = []
    _collect_updates(rule, state, env, entries)
    return UpdateMultiset(tuple(entries))


def _collect_updates(
    rule: Rule, state: State, env: dict[str, Value] | None, out: list[Entry]
) -> None:
    """Append the updates ``rule`` yields in ``state`` to ``out``."""
    if isinstance(rule, Assign):
        loc = _target_location(rule.target, rule.args, state, env)
        out.append(Update(loc, eval_term(state, rule.rhs, env)))
    elif isinstance(rule, If):
        cond = eval_term(state, rule.cond, env)
        if not isinstance(cond, BoolVal):
            raise RuleError(f"branch condition evaluated to non-Boolean {cond!r}")
        _collect_updates(rule.then if cond.flag else rule.orelse, state, env, out)
    elif isinstance(rule, Par):
        for b in rule.branches:
            _collect_updates(b, state, env, out)
    elif isinstance(rule, Let):
        value = eval_term(state, rule.bound, env)
        inner = dict(env) if env else {}
        inner[rule.var] = value
        _collect_updates(rule.body, state, inner, out)
    elif isinstance(rule, PartialAssign):
        if rule.op not in COLLAPSE_OPERATORS:
            raise RuleError(f"operator {rule.op!r} is not registered")
        loc = _target_location(rule.target, rule.args, state, env)
        vals = tuple(eval_term(state, a, env) for a in rule.operands)
        out.append(SharedUpdate(loc, rule.op, vals))
    else:
        raise RuleError(f"unknown rule {rule!r}")


# -- sublocation normalization --------------------------------------------------------


def normalize_sublocations(m: UpdateMultiset) -> UpdateMultiset:
    """Rewrite node-addressed entries into splice operators on the ``self`` root.

    A plain update at the root node becomes a plain update of ``self``.  Pairs
    of entries where one path is an ancestor of the other stay in the multiset;
    whether their effects agree is decided during collapse.
    """
    out = []
    for entry in m:
        loc = entry.location
        if not isinstance(loc, NodeRef):
            out.append(entry)
            continue
        if isinstance(entry, Update):
            if not loc.path:
                out.append(Update(SELF_LOCATION, entry.value))
            else:
                out.append(
                    SharedUpdate(SELF_LOCATION, SpliceOp(loc.path, None), (entry.value,))
                )
        else:
            if not loc.path:
                out.append(SharedUpdate(SELF_LOCATION, entry.op, entry.args))
            else:
                out.append(
                    SharedUpdate(SELF_LOCATION, SpliceOp(loc.path, entry.op), entry.args)
                )
    return UpdateMultiset(tuple(out))


# -- collapse ---------------------------------------------------------------------------


class _Clash(Exception):
    """A group of entries that cannot collapse; the message is the clash reason."""


def _is_prefix(p1, p2) -> bool:
    return len(p1) <= len(p2) and p2[: len(p1)] == p1


def _fold_in_order(state: State, current: Value, shareds) -> Value:
    value = current
    for s in shareds:
        value = apply_operator(state, s.op, value, s.args)
    return value


def _splice_fold(state: State, loc, current: Value, shareds) -> Value:
    """Collapse a group of splice updates with an order-independence check.

    Pairs at disjoint paths commute.  Identical entries commute trivially.
    For nested paths the ancestor must be a plain splice whose written value
    already contains the descendant's effect, which makes the descendant a
    no-op once the ancestor has been applied; ancestor-first folding then
    yields the same value as every other order.  Anything else clashes; of
    several clashing pairs, the first in multiset order is named.
    """
    for s1, s2 in itertools.combinations(dict.fromkeys(shareds), 2):
        p1, p2 = s1.op.path, s2.op.path
        if p1 == p2:
            raise _Clash(f"conflicting writes at {NodeRef(p1)!r} of {loc!r}")
        if not (_is_prefix(p1, p2) or _is_prefix(p2, p1)):
            continue
        outer, inner = (s1, s2) if _is_prefix(p1, p2) else (s2, s1)
        if outer.op.inner is not None:
            raise _Clash(
                f"{NodeRef(inner.op.path)!r} overlaps a shared write at {NodeRef(outer.op.path)!r}"
            )
        if len(outer.args) != 1 or not isinstance(outer.args[0], TreeValue):
            raise _Clash(f"malformed splice operand at {NodeRef(outer.op.path)!r}")
        written = outer.args[0].tree
        rel = inner.op.path[len(outer.op.path) :]
        after = apply_operator(state, SpliceOp(rel, inner.op.inner), TreeValue(written), inner.args)
        if after != TreeValue(written):
            raise _Clash(
                f"overlapping writes at {NodeRef(outer.op.path)!r} and "
                f"{NodeRef(inner.op.path)!r} disagree"
            )
    ordered = sorted(shareds, key=lambda s: (len(s.op.path), s.op.path))
    return _fold_in_order(state, current, ordered)


def _permutation_fold(state: State, loc, current: Value, shareds) -> Value:
    results = set()
    value = None
    for perm in itertools.permutations(shareds):
        value = _fold_in_order(state, current, perm)
        results.add(value)
        if len(results) > 1:
            raise _Clash("shared updates are order-dependent")
    return value


def _collapse_group(state: State, loc, plains: list[Value], shareds: list[SharedUpdate]) -> Value:
    plain_value = None
    if plains:
        for v in plains[1:]:
            if v != plains[0]:
                raise _Clash("two plain updates write different values")
        plain_value = plains[0]
    if not shareds:
        return plain_value

    current = state.value_at(loc)
    distinct = set(shareds)
    if all(isinstance(s.op, SpliceOp) for s in shareds):
        if plain_value is not None:
            # A full plain write dominates every splice: each splice must be a
            # no-op on the written value, then the plain value is the result.
            if not isinstance(plain_value, TreeValue):
                raise _Clash("plain update and node writes disagree in kind")
            for s in shareds:
                after = apply_operator(state, s.op, plain_value, s.args)
                if after != plain_value:
                    raise _Clash(
                        f"node write at {NodeRef(s.op.path)!r} disagrees with a plain update"
                    )
            return plain_value
        folded = _splice_fold(state, loc, current, shareds)
    elif len(distinct) == 1:
        folded = _fold_in_order(state, current, shareds)
    elif all(
        not isinstance(s.op, SpliceOp) and s.op in COMMUTATIVE_OPERATORS for s in shareds
    ) and len({s.op for s in shareds}) == 1:
        folded = _fold_in_order(state, current, sorted(shareds, key=shared_sort_key))
    elif len(shareds) <= 6:
        folded = _permutation_fold(state, loc, current, shareds)
    else:
        raise _Clash(f"{len(shareds)} heterogeneous shared updates exceed the checkable bound")

    if plain_value is not None and folded != plain_value:
        raise _Clash("plain update and folded shared updates disagree")
    return folded


def collapse(m: UpdateMultiset, state: State) -> UpdateSet | ClashReport:
    """Collapse an update multiset into a consistent update set.

    Entries are grouped by location after sublocation normalization; shared
    updates fold over the location's current value.  A group collapses only if
    its folded value does not depend on the fold order.
    """
    normalized = normalize_sublocations(m)
    groups: dict[object, tuple[list[Value], list[SharedUpdate]]] = {}
    order: list[object] = []
    for entry in normalized:
        loc = entry.location
        if loc not in groups:
            groups[loc] = ([], [])
            order.append(loc)
        plains, shareds = groups[loc]
        if isinstance(entry, Update):
            plains.append(entry.value)
        else:
            shareds.append(entry)

    updates = set()
    for loc in sorted(order, key=location_sort_key):
        plains, shareds = groups[loc]
        try:
            value = _collapse_group(state, loc, plains, shareds)
        except (_Clash, OperatorFailure) as exc:
            return ClashReport(loc, str(exc))
        updates.add(Update(loc, value))
    return UpdateSet(frozenset(updates))


def execute(rule: Rule, state: State) -> tuple[UpdateSet | ClashReport, UpdateMultiset]:
    """Compute the update multiset of a rule and collapse it."""
    multiset = compute_update_multiset(rule, state)
    return collapse(multiset, state), multiset
