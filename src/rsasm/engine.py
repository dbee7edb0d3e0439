"""The execution loop: decode self, execute, collapse, apply; runs and probes.

Every step decodes the signature and rule from the tree stored at ``self``.
Decoding is memoized on each tree object; a step that rewrites the
representation makes a new tree, so it changes the machine's behaviour from
the next step on.  A run ends at a fixpoint (empty collapsed update set), at
the step cap, or on an error; a clash leaves the state unchanged and, since
stepping an unchanged state can only repeat the clash, ends the run at once.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from .errors import EngineError, ParseError, ReflectError, RsasmError, StateError, TreeError
from .reflect import (
    RULE_AT,
    beta,
    decode_rule,
    decode_signature,
    is_rule_encoding,
    is_self_shaped,
    rule_of_self,
    signature_of_self,
)
from .rules import (
    ClashReport,
    SharedUpdate,
    UpdateMultiset,
    UpdateSet,
    compute_update_multiset,
    entry_to_json,
    execute,
    shared_sort_key,
)
from .structures import (
    SELF_LOCATION,
    Machine,
    State,
    TreeValue,
    FunctionApp,
    apply_update_set,
    canonical_dumps,
    eval_term,
    location_sort_key,
    location_to_json,
    value_to_json,
)

# after reflect, whose import loads the modules below the parser in the order they need
from .frontend import trees_from_table, value_from_json
from .printer import TracePrinter

SELF_TERM = FunctionApp("self", ())

# Version of the trace JSON written by ``Trace.to_json``.
TRACE_FORMAT = 8


@dataclass(frozen=True)
class StepRecord:
    """One step: the state after it, its multiset and its collapse.

    In the trace JSON (format 8) a step holds its ``index``; its ``updates``
    in ``location_sort_key`` order, or a ``clash`` instead; the ``shared``
    entries of its multiset; and the ``signature_added`` names.  Each
    distinct shared entry is written once, with its multiplicity as
    ``count``, in ``shared_sort_key`` order.  Every update, that of ``self``
    included, is ``entry_to_json`` output, so a step that does not write
    ``self`` carries no self tree.
    Every tree in a record, a value or a location argument, is
    ``{"tree": id}``, an id into the trace's node table, which :meth:`to_json`
    extends through the trace's printer; a new self tree adds entries only for
    the subtrees the trace has not written yet.
    """

    index: int
    after: State
    multiset: UpdateMultiset
    result: UpdateSet | ClashReport
    signature_added: tuple[str, ...]

    @property
    def clashed(self) -> bool:
        return isinstance(self.result, ClashReport)

    def to_json(self, doc: TracePrinter) -> dict:
        obj: dict = {
            "index": self.index,
            "updates": [],
            "signature_added": list(self.signature_added),
        }
        # Trees get their ids in the order they are written, so the order is
        # fixed by sort keys of the entries, never by the hash seed.
        if isinstance(self.result, UpdateSet):
            updates = sorted(self.result, key=lambda u: location_sort_key(u.location))
            obj["updates"] = [entry_to_json(u, doc) for u in updates]
        else:
            obj["clash"] = {
                "location": location_to_json(self.result.location, doc),
                "reason": self.result.reason,
            }
        counts = Counter(e for e in self.multiset if isinstance(e, SharedUpdate))
        obj["shared"] = [
            dict(entry_to_json(e, doc), count=counts[e])
            for e in sorted(counts, key=shared_sort_key)
        ]
        return obj


@dataclass(frozen=True)
class Trace:
    """A run: its initial state, its step records, and how it ended.

    The trace JSON (format 8) holds ``format``, ``status``, the optional
    ``detail``, the ``initial`` self tree, the step records (see
    :class:`StepRecord`), ``nodes``, the one node table of
    the trace (ATerm's shared term format: van den Brand, de Jong, Klint &
    Olivier, "Efficient annotated terms", 2000).  It holds each distinct tree
    of the trace once, as ``[label, value?, [child ids]]``, an entry after
    every entry it names; a tree anywhere in the trace, the initial self tree
    and a term's text included, is ``{"tree": id}`` with the id of its entry,
    found by the tree's identity: as in ATerm, equal trees are one object.  A
    dropped term is ``{"dropped": text}``, program text with the marks of
    ``printer``.  Ids follow the order of writing: the initial tree, then
    each step in turn.  The one
    ``digest`` (:func:`trace_digest`) covers every other key of the trace.
    :func:`replay` rebuilds the self tree at every point in one pass: it reads
    the initial tree, then the value of each step's update of ``self``.
    """

    initial_state: State
    steps: tuple[StepRecord, ...]
    status: str  # "fixpoint" | "max_steps" | "error"
    detail: str = ""

    @property
    def final_state(self) -> State:
        return self.steps[-1].after if self.steps else self.initial_state

    def _body(self) -> dict:
        """The trace JSON object without its ``digest``."""
        doc = TracePrinter()
        obj = {
            "format": TRACE_FORMAT,
            "status": self.status,
            "initial": {"self": value_to_json(TreeValue(self.initial_state.self_tree), doc)},
            "steps": [s.to_json(doc) for s in self.steps],
            "nodes": doc.entries,
        }
        if self.detail:
            obj["detail"] = self.detail
        return obj

    def to_json_obj(self) -> dict:
        obj = self._body()
        obj["digest"] = trace_digest(obj)
        return obj

    def to_json(self) -> str:
        """``canonical_dumps(self.to_json_obj())``, each member serialized once.

        The digest is taken over the member texts, which are then joined again
        with the digest's own member.
        """
        texts = _member_texts(self._body())
        texts["digest"] = canonical_dumps(_digest_of(texts))
        return _object_text(texts)


def _member_texts(trace_obj: dict) -> dict[str, str]:
    """The canonical text of each member of a trace JSON object but its ``digest``."""
    return {key: canonical_dumps(value) for key, value in trace_obj.items() if key != "digest"}


def _object_text(texts: dict[str, str]) -> str:
    """``canonical_dumps`` of an object whose members have the canonical texts ``texts``."""
    return "{" + ",".join(f"{canonical_dumps(key)}:{texts[key]}" for key in sorted(texts)) + "}"


def _digest_of(texts: dict[str, str]) -> str:
    return hashlib.sha256(_object_text(texts).encode("utf-8")).hexdigest()


def trace_digest(trace_obj: dict) -> str:
    """The sha256 hex of the canonical text of a trace JSON object, its ``digest`` left out.

    ``Trace.to_json`` hashes the same text, built from member texts it then
    writes, so the trace is serialized once.
    """
    return _digest_of(_member_texts(trace_obj))


def replay(trace_obj: dict):
    """Yield the self tree at every point of a trace JSON object, the initial tree first.

    Checks the format, then the trace's ``digest``, before it yields any tree;
    then reads the node table once, a dropped term with the program parser.
    The tree after a step is the value of its
    update of ``self``, or the tree so far if it writes none.  A trace that is
    not format 8, one that does not match its digest and a malformed trace
    raise ``EngineError``: a tree id that names no entry before the one that
    holds it, a node table entry that is not a tree, a term that does not
    parse, a ``self`` value that is not a tree, a shared entry whose ``count``
    is not a positive integer, and any missing or mistyped part, the digest
    included, are malformed.
    """
    try:
        fmt = trace_obj.get("format", "missing")
        if fmt != TRACE_FORMAT:
            raise EngineError(f"not a format {TRACE_FORMAT} trace (format: {fmt})")
        if trace_obj["digest"] != trace_digest(trace_obj):
            raise EngineError("the trace does not match its digest")
        steps = trace_obj["steps"]
        trees = trees_from_table(trace_obj["nodes"])
        self_location = location_to_json(SELF_LOCATION, TracePrinter())
        tree = _self_tree(trace_obj["initial"]["self"], trees)
        yield tree
        for record in steps:
            for entry in record["shared"]:
                count = entry["count"]
                if type(count) is not int or count < 1:
                    raise EngineError(f"malformed trace: shared entry count {count!r}")
            for entry in record["updates"]:
                if entry["location"] == self_location:
                    tree = _self_tree(entry["value"], trees)
            yield tree
    except (AttributeError, KeyError, TypeError, ValueError, ParseError, StateError, TreeError) as exc:
        raise EngineError(f"malformed trace: {type(exc).__name__}: {exc}") from exc


def _self_tree(obj, trees: list):
    """The tree a trace's value of ``self`` names; any other value is malformed."""
    value = value_from_json(obj, trees)
    if not isinstance(value, TreeValue):
        raise EngineError(f"malformed trace: a value of self is {type(value).__name__}, not a tree")
    return value.tree


def step(state: State, index: int = 0) -> tuple[State, StepRecord]:
    """One machine step: decode, execute, collapse, apply; ``index`` numbers the record."""
    tree = state.self_tree
    signature = decode_signature(signature_of_self(tree))
    rule = decode_rule(rule_of_self(tree), RULE_AT)
    exec_state = state.with_signature(signature)

    result, multiset = execute(rule, exec_state)
    if isinstance(result, ClashReport):
        successor = exec_state
        added: tuple[str, ...] = ()
    else:
        applied = apply_update_set(exec_state, result)
        try:
            new_signature = decode_signature(signature_of_self(applied.self_tree))
        except ReflectError:
            raise EngineError("step left self without the self-representation shape") from None
        if not signature.is_subsignature_of(new_signature):
            raise EngineError("step shrank or changed the decoded signature")
        successor = applied.with_signature(new_signature)
        added = tuple(
            sorted(new_signature.names() - signature.names())
        )
    record = StepRecord(
        index=index,
        after=successor,
        multiset=multiset,
        result=result,
        signature_added=added,
    )
    return successor, record


def run(machine: Machine) -> Trace:
    """Iterate steps until fixpoint, the step cap, a clash, or a program fault.

    A clash ends the run with status ``error`` and the detail ``clash_stall``.
    A fault raised in a step ends it with status ``error`` and the detail
    ``step N: <cause>``; the steps before it are kept.
    """
    state = machine.initial_state
    records: list[StepRecord] = []
    status, detail = "max_steps", ""
    for i in range(1, machine.max_steps + 1):
        try:
            successor, record = step(state, i)
        except RsasmError as exc:
            status, detail = "error", f"step {i}: {exc}"
            break
        records.append(record)
        if record.clashed:
            status, detail = "error", "clash_stall"
            break
        if record.result.is_empty():
            status = "fixpoint"
            break
        state = successor
    return Trace(machine.initial_state, tuple(records), status, detail)


# -- strong coincidence and the postulate probes -----------------------------------


def _rule_encodings_of(value) -> list:
    """Rule encodings reachable from a term's value, for the extraction check."""
    if isinstance(value, TreeValue):
        if is_self_shaped(value.tree):
            return [rule_of_self(value.tree)]
        if is_rule_encoding(value.tree):
            return [value.tree]
    return []


def check_strong_coincidence(s1: State, s2: State, witness) -> bool:
    """Equality on a witness set, and on the extractions of its rule-valued terms."""
    for t in witness:
        v1 = eval_term(s1, t)
        v2 = eval_term(s2, t)
        if v1 != v2:
            return False
        for encoding in _rule_encodings_of(v1):
            for extracted in beta(encoding):
                if eval_term(s1, extracted) != eval_term(s2, extracted):
                    return False
    return True


@dataclass
class Report:
    """Outcome of a probe: trial count and any violations found."""

    probe: str
    trials: int
    seed: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "probe": self.probe,
            "trials": self.trials,
            "checked": self.checked,
            "seed": self.seed,
            "violations": list(self.violations),
        }


def probe_bounded_exploration(trials: int = 500, seed: int = 0) -> Report:
    """Check that strong coincidence on {self} forces equal update multisets.

    Generates random machines and state pairs that agree on ``self`` and on
    every extracted term, then compares the update multisets of the decoded
    rule in both states.
    """
    import random

    from . import generate

    rng = random.Random(seed)
    report = Report("bounded_exploration", trials, seed)
    while report.checked < trials:
        machine = generate.random_machine(rng)
        s1 = generate.perturb_state(machine.initial_state, rng)
        rule = decode_rule(rule_of_self(s1.self_tree), RULE_AT)
        reads: set = set()
        for t in beta(rule_of_self(s1.self_tree)):
            eval_term(s1, t, reads=reads)
        reads.add(SELF_LOCATION)
        s2 = generate.mutate_outside(s1, reads, rng)
        if not check_strong_coincidence(s1, s2, [SELF_TERM]):
            report.violations.append(
                f"constructed pair fails strong coincidence (machine {machine.name})"
            )
            report.checked += 1
            continue
        report.checked += 1
        m1 = compute_update_multiset(rule, s1)
        m2 = compute_update_multiset(rule, s2)
        if m1 != m2:
            report.violations.append(
                f"update multisets differ on coinciding states (machine {machine.name})"
            )
    return report


def probe_isomorphism_closure(trials: int = 200, seed: int = 0) -> Report:
    """Check that stepping commutes with renaming the base set."""
    import random

    from . import generate
    from .structures import apply_isomorphism

    rng = random.Random(seed)
    report = Report("isomorphism_closure", trials, seed)
    for _ in range(trials):
        machine = generate.random_machine(rng)
        state = generate.perturb_state(machine.initial_state, rng)
        sigma = generate.random_permutation(state, rng)
        report.checked += 1
        left, _ = step(apply_isomorphism(state, sigma))
        right_state, _ = step(state)
        right = apply_isomorphism(right_state, sigma)
        if left != right:
            report.violations.append(
                f"step does not commute with renaming (machine {machine.name})"
            )
    return report
