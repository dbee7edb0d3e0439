"""The benchmark's own checks: oracles, failure counting, and tracing that changes nothing.

    python3 -m pytest -q bench/selftest.py

Kept out of the tier-1 suite (its name does not match ``test_*.py``) because it
runs the benchmark's workloads, which take a few seconds.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from rsasm import engine, frontend, treealg  # noqa: E402
from rsasm.structures import Location, NatVal, State  # noqa: E402

SEED = 7


def _first_cases(name: str, count: int):
    return list(itertools.islice(workloads.WORKLOADS[name].cases(SEED), count))


def _bindings() -> dict:
    """Every attribute of every rsasm module, plus the two wrapped methods."""
    found = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "rsasm" or name.startswith("rsasm.")
        for attr, value in vars(module).items()
    }
    found["Tree.preorder"] = vars(treealg.Tree)["preorder"]
    found["Trace.to_json"] = vars(engine.Trace)["to_json"]
    return found


def test_grow_with_six_elements_is_the_bundled_parity_program():
    template = frontend.load_program("parity")
    source = workloads.grow_source(template, workloads.element_names(6), frozenset("ace"))
    assert source == template


def test_join_oracle_accepts_the_bundled_join():
    outcome = workloads.run_program(frontend.load_program("join"))
    assert workloads.check_join(workloads.BUNDLED_JOIN, outcome.result) is None


def test_every_workload_passes_its_oracle():
    for name, workload in workloads.WORKLOADS.items():
        for oracle, case in _first_cases(name, 3):
            assert workload.check(oracle, workload.run_case(case).result) is None, name


def test_tracing_leaves_outputs_byte_identical_and_unwraps():
    # counters that must move on each workload, so a wrapper that is never
    # looked up (a missed ``from .x import f`` binding) shows as a zero
    expected_busy = {
        "join": ("treealg.preorder_nodes", "structures.eval_calls", "reflect.decode_calls", "engine.record_ms"),
        "grow": ("background.operator_calls", "rules.collapse_ms", "structures.apply_ms", "frontend.parse_ms"),
        "probe": ("generate.ms", "structures.iso_ms", "rules.multiset_entries", "engine.steps"),
    }
    before = _bindings()
    for name, workload in workloads.WORKLOADS.items():
        layer_tracer = tracer.LayerTracer()
        for _, case in _first_cases(name, 2 if name != "probe" else 20):
            plain = workload.run_case(case)
            with layer_tracer.installed():
                traced = workload.run_case(case)
            assert traced.text == plain.text, name
            assert _bindings() == before, f"{name}: wrappers left installed"
        metrics = layer_tracer.metrics(1)
        assert set(metrics) == set(tracer.SPANS) | set(tracer.COUNTERS)
        for metric in expected_busy[name]:
            assert metrics[metric] > 0, f"{name}: {metric} was never recorded"


def test_recursive_calls_are_timed_once():
    layer_tracer = tracer.LayerTracer()
    (_, source), = _first_cases("grow", 1)
    with layer_tracer.installed():
        trace = workloads.run_program(source).result
    counts = layer_tracer.counts
    assert counts["engine.steps"] == len(trace.steps)
    # one outermost multiset per step: its entries are the steps' multisets
    assert counts["rules.multiset_entries"] == sum(len(s.multiset) for s in trace.steps)


def _drop_one(state: State, symbol: str) -> State:
    interp = dict(state.interp)
    del interp[next(loc for loc in interp if loc.symbol == symbol)]
    return State(state.signature, state.base, interp, state.background)


def _final_replaced(trace, state: State):
    last = dataclasses.replace(trace.steps[-1], after=state)
    return dataclasses.replace(trace, steps=trace.steps[:-1] + (last,))


def _corrupting(name: str, corrupt):
    workload = workloads.WORKLOADS[name]

    def run_case(case):
        outcome = workload.run_case(case)
        outcome.result = corrupt(outcome.result)
        return outcome

    return dataclasses.replace(workload, run_case=run_case)


def _card_plus_one(trace):
    final = trace.final_state
    interp = dict(final.interp)
    interp[Location("card", ())] = NatVal(final.value_at(Location("card", ())).n + 1)
    return _final_replaced(trace, State(final.signature, final.base, interp, final.background))


def _with_violation(reports):
    first = dataclasses.replace(reports[0], violations=["injected"])
    return (first,) + tuple(reports[1:])


def test_corrupted_outputs_count_as_failures():
    join_cases = (
        (case, source) for case, source in workloads.join_cases(SEED) if case.expected_rows()
    )
    corruptions = {
        "join": (lambda t: _final_replaced(t, _drop_one(t.final_state, "J12")), join_cases),
        "grow": (_card_plus_one, workloads.grow_cases(SEED)),
        "probe": (_with_violation, workloads.probe_cases(SEED)),
    }
    for name, (corrupt, cases) in corruptions.items():
        attempted, failed, *_ = run.measure(_corrupting(name, corrupt), cases, 0.5, None)
        assert attempted >= 1 and failed == attempted, name


def test_command_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(Path(run.__file__).parent, Path(tmp) / "bench")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "join", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert not line.startswith("{"), "printed a result without the sources"


def test_benchmark_json_names_every_metric_once():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert sorted(per_layer) == sorted(set(tracer.SPANS) | set(tracer.COUNTERS) | {"trace.overhead_ratio"})
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
