"""The execution loop: decode self, execute, collapse, apply; runs and probes.

Every step decodes the signature and rule from the tree stored at ``self``.
Decoding is memoized on the tree object; a step that rewrites the
representation makes a new tree, so it changes the machine's behaviour from
the next step on.  A run ends at a fixpoint (empty collapsed update set), at
the step cap, or on an error; a clash leaves the state unchanged and, since
stepping an unchanged state can only repeat the clash, stalls the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EngineError, ReflectError, RsasmError
from .reflect import beta, decode_signature, decode_rule, rule_of_self, signature_of_self
from .rules import (
    ClashReport,
    SharedUpdate,
    UpdateMultiset,
    UpdateSet,
    compute_update_multiset,
    entry_to_json,
    execute,
)
from .structures import (
    SELF_LOCATION,
    State,
    TreeValue,
    FunctionApp,
    apply_update_set,
    canonical_dumps,
    eval_term,
    location_to_json,
    self_digest,
    tree_to_json,
)

SELF_TERM = FunctionApp("self", ())


@dataclass(frozen=True)
class Machine:
    initial_state: State
    max_steps: int = 1000
    name: str = "machine"


@dataclass(frozen=True)
class StepRecord:
    index: int
    before: State
    after: State
    multiset: UpdateMultiset
    result: UpdateSet | ClashReport
    signature_added: tuple[str, ...]

    @property
    def clashed(self) -> bool:
        return isinstance(self.result, ClashReport)

    def to_json(self) -> dict:
        obj: dict = {
            "index": self.index,
            "updates": [],
            "shared": [],
            "signature_added": list(self.signature_added),
            "self_digest": self_digest(self.after),
            "self": tree_to_json(self.after.self_tree),
        }
        if isinstance(self.result, UpdateSet):
            obj["updates"] = sorted(
                (entry_to_json(u) for u in self.result),
                key=canonical_dumps,
            )
        else:
            obj["clash"] = {
                "location": None
                if self.result.location is None
                else location_to_json(self.result.location),
                "reason": self.result.reason,
            }
        obj["shared"] = sorted(
            (entry_to_json(e) for e in self.multiset if isinstance(e, SharedUpdate)),
            key=canonical_dumps,
        )
        return obj


@dataclass(frozen=True)
class Trace:
    initial_state: State
    steps: tuple[StepRecord, ...]
    status: str  # "fixpoint" | "max_steps" | "error"
    detail: str = ""

    @property
    def final_state(self) -> State:
        return self.steps[-1].after if self.steps else self.initial_state

    def to_json_obj(self) -> dict:
        obj = {
            "status": self.status,
            "initial": {
                "self_digest": self_digest(self.initial_state),
                "self": tree_to_json(self.initial_state.self_tree),
            },
            "steps": [s.to_json() for s in self.steps],
        }
        if self.detail:
            obj["detail"] = self.detail
        return obj

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_obj())


def step(state: State, index: int = 0) -> tuple[State, StepRecord]:
    """One machine step: decode, execute, collapse, apply; ``index`` numbers the record."""
    selfval = state.value_at(SELF_LOCATION)
    if not isinstance(selfval, TreeValue):
        raise ReflectError("location 'self' does not hold a tree")
    tree = selfval.tree
    signature = decode_signature(signature_of_self(tree))
    rule = decode_rule(rule_of_self(tree))
    exec_state = state.with_signature(signature)

    result, multiset = execute(rule, exec_state)
    if isinstance(result, ClashReport):
        successor = exec_state
        added: tuple[str, ...] = ()
    else:
        applied = apply_update_set(exec_state, result)
        new_signature = decode_signature(signature_of_self(applied.self_tree))
        if not signature.is_subsignature_of(new_signature):
            raise EngineError("step shrank or changed the decoded signature")
        successor = applied.with_signature(new_signature)
        added = tuple(
            sorted(new_signature.names() - signature.names())
        )
    record = StepRecord(
        index=index,
        before=exec_state,
        after=successor,
        multiset=multiset,
        result=result,
        signature_added=added,
    )
    return successor, record


def run(machine: Machine) -> Trace:
    """Iterate steps until fixpoint, the step cap, a stalled clash, or a program fault.

    A fault raised in a step ends the run with status ``error`` and the detail
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
            if successor == state:
                status, detail = "error", "clash_stall"
                break
            state = successor
            continue
        if record.result.is_empty():
            status = "fixpoint"
            break
        state = successor
    return Trace(machine.initial_state, tuple(records), status, detail)


# -- strong coincidence and the postulate probes -----------------------------------


def _rule_encodings_of(value) -> list:
    """Rule encodings reachable from a term's value, for the extraction check."""
    from .treealg import is_self_shaped
    from .reflect import is_rule_encoding

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
        rule = decode_rule(rule_of_self(s1.self_tree))
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
