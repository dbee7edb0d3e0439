"""Rule AST and semantics: update multisets, sublocation normalization, collapse.

A rule, interpreted in a state, first yields an update multiset of plain and
shared updates.  Updates addressed at tree nodes of ``self`` are rewritten to
shared updates on the root ``self`` location whose operator splices at the
node's path.  The multiset then collapses to a plain update set; incompatible
entries produce a clash report instead, which leaves the state unchanged.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .background import (
    COMMUTATIVE_OPERATORS,
    OperatorFailure,
    SpliceOp,
    apply_operator,
    is_registered_operator,
)
from .errors import RuleError, SignatureError
from .structures import (
    BoolVal,
    Location,
    NodeLocation,
    NodeRef,
    SELF_LOCATION,
    State,
    Term,
    TreeValue,
    Update,
    UpdateSet,
    Value,
    canonical_dumps,
    eval_term,
    is_consistent,
    location_sort_key,
    location_to_json,
    term_substitute,
    value_to_json,
)


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


def rule_substitute(rule: Rule, var: str, repl: Term) -> Rule:
    """Substitute a term for a variable in all terms of a rule."""
    if isinstance(rule, Assign):
        return Assign(
            rule.target,
            tuple(term_substitute(a, var, repl) for a in rule.args),
            term_substitute(rule.rhs, var, repl),
        )
    if isinstance(rule, If):
        return If(
            term_substitute(rule.cond, var, repl),
            rule_substitute(rule.then, var, repl),
            rule_substitute(rule.orelse, var, repl),
        )
    if isinstance(rule, Par):
        return Par(tuple(rule_substitute(b, var, repl) for b in rule.branches))
    if isinstance(rule, Let):
        if rule.var == var:
            return Let(rule.var, term_substitute(rule.bound, var, repl), rule.body)
        return Let(
            rule.var,
            term_substitute(rule.bound, var, repl),
            rule_substitute(rule.body, var, repl),
        )
    if isinstance(rule, PartialAssign):
        return PartialAssign(
            rule.target,
            tuple(term_substitute(a, var, repl) for a in rule.args),
            rule.op,
            tuple(term_substitute(a, var, repl) for a in rule.operands),
        )
    raise RuleError(f"unknown rule {rule!r}")


# -- shared updates and multisets -------------------------------------------------


@dataclass(frozen=True)
class SharedUpdate:
    location: Location | NodeLocation
    op: str | SpliceOp
    args: tuple[Value, ...]

    def __repr__(self) -> str:
        return f"({self.location!r} <=[{self.op!r}] {self.args!r})"


Entry = object  # Update | SharedUpdate


def _entry_key(entry) -> str:
    return canonical_dumps(entry_to_json(entry))


def entry_to_json(entry) -> object:
    if isinstance(entry, Update):
        return {"location": location_to_json(entry.location), "value": value_to_json(entry.value)}
    op = repr(entry.op) if isinstance(entry.op, SpliceOp) else entry.op
    return {
        "location": location_to_json(entry.location),
        "op": op,
        "args": [value_to_json(a) for a in entry.args],
    }


@dataclass(frozen=True)
class UpdateMultiset:
    """A finite multiset of plain and shared updates.

    Entry order records the traversal that produced the multiset, but equality
    and hashing are order-independent.
    """

    entries: tuple[Entry, ...] = ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UpdateMultiset):
            return NotImplemented
        return Counter(self.entries) == Counter(other.entries)

    def __hash__(self) -> int:
        return hash(tuple(sorted(map(_entry_key, self.entries))))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def union(self, other: "UpdateMultiset") -> "UpdateMultiset":
        return UpdateMultiset(self.entries + other.entries)

    def canonical(self) -> tuple[Entry, ...]:
        return tuple(sorted(self.entries, key=_entry_key))


EMPTY_MULTISET = UpdateMultiset(())


@dataclass(frozen=True)
class ClashReport:
    """Why a multiset failed to collapse; the engine keeps the state unchanged."""

    location: Location | NodeLocation | None
    reason: str

    def __repr__(self) -> str:
        return f"ClashReport({self.location!r}: {self.reason})"


# -- computing update multisets -----------------------------------------------------


def _target_location(
    target: str, args: tuple[Term, ...], state: State, env: dict[str, Value] | None
):
    if env and target in env:
        v = env[target]
        if isinstance(v, NodeRef):
            if args:
                raise RuleError(f"tree-node target {target!r} takes no arguments")
            return NodeLocation(v.path)
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
    """The update multiset a rule yields in a state."""
    if isinstance(rule, Assign):
        loc = _target_location(rule.target, rule.args, state, env)
        value = eval_term(state, rule.rhs, env)
        return UpdateMultiset((Update(loc, value),))

    if isinstance(rule, If):
        cond = eval_term(state, rule.cond, env)
        if not isinstance(cond, BoolVal):
            raise RuleError(f"branch condition evaluated to non-Boolean {cond!r}")
        branch = rule.then if cond.flag else rule.orelse
        return compute_update_multiset(branch, state, env)

    if isinstance(rule, Par):
        out = EMPTY_MULTISET
        for b in rule.branches:
            out = out.union(compute_update_multiset(b, state, env))
        return out

    if isinstance(rule, Let):
        value = eval_term(state, rule.bound, env)
        inner = dict(env) if env else {}
        inner[rule.var] = value
        return compute_update_multiset(rule.body, state, inner)

    if isinstance(rule, PartialAssign):
        if not is_registered_operator(rule.op):
            raise RuleError(f"operator {rule.op!r} is not registered")
        loc = _target_location(rule.target, rule.args, state, env)
        vals = tuple(eval_term(state, a, env) for a in rule.operands)
        return UpdateMultiset((SharedUpdate(loc, rule.op, vals),))

    raise RuleError(f"unknown rule {rule!r}")


# -- sublocation normalization --------------------------------------------------------


def normalize_sublocations(m: UpdateMultiset, state: State) -> UpdateMultiset:
    """Rewrite node-addressed entries into splice operators on the ``self`` root.

    A plain update at the root node becomes a plain update of ``self``.  Pairs
    of entries where one path is an ancestor of the other stay in the multiset;
    whether their effects agree is decided during collapse.
    """
    out = []
    for entry in m:
        loc = entry.location
        if not isinstance(loc, NodeLocation):
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
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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
    yields the same value as every other order.  Anything else falls back to
    the exhaustive permutation check in the caller.
    """
    for (s1), (s2) in itertools.combinations(set(shareds), 2):
        p1, p2 = s1.op.path, s2.op.path
        if p1 == p2:
            raise _Clash(f"conflicting writes at node {p1} of {loc!r}")
        if not (_is_prefix(p1, p2) or _is_prefix(p2, p1)):
            continue
        outer, inner = (s1, s2) if _is_prefix(p1, p2) else (s2, s1)
        if outer.op.inner is not None:
            raise _Clash(f"node {inner.op.path} overlaps a shared write at {outer.op.path}")
        if len(outer.args) != 1 or not isinstance(outer.args[0], TreeValue):
            raise _Clash(f"malformed splice operand at {outer.op.path}")
        written = outer.args[0].tree
        rel = inner.op.path[len(outer.op.path) :]
        if written.find(rel) is None:
            continue  # inner write lands outside the new value: absorbed
        after = apply_operator(state, SpliceOp(rel, inner.op.inner), TreeValue(written), inner.args)
        if after != TreeValue(written):
            raise _Clash(
                f"overlapping writes at nodes {outer.op.path} and {inner.op.path} disagree"
            )
    ordered = sorted(shareds, key=lambda s: (len(s.op.path), s.op.path))
    return _fold_in_order(state, current, ordered)


def _permutation_fold(state: State, loc, current: Value, shareds) -> Value:
    results = set()
    value = None
    for perm in itertools.permutations(shareds):
        value = _fold_in_order(state, current, perm)
        results.add(_entry_key(Update(loc, value)))
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
                        f"node write at {s.op.path} disagrees with a plain update"
                    )
            return plain_value
        folded = _splice_fold(state, loc, current, shareds)
    elif len(distinct) == 1:
        folded = _fold_in_order(state, current, shareds)
    elif all(
        not isinstance(s.op, SpliceOp) and s.op in COMMUTATIVE_OPERATORS for s in shareds
    ) and len({s.op for s in shareds}) == 1:
        folded = _fold_in_order(state, current, sorted(shareds, key=_entry_key))
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
    normalized = normalize_sublocations(m, state)
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
    result = UpdateSet(frozenset(updates))
    if not is_consistent(result):
        return ClashReport(None, "collapsed set is inconsistent")
    return result


def execute(rule: Rule, state: State) -> tuple[UpdateSet | ClashReport, UpdateMultiset]:
    """Compute the update multiset of a rule and collapse it."""
    multiset = compute_update_multiset(rule, state)
    return collapse(multiset, state), multiset
