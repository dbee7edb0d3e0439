"""Run one workload of the rsasm benchmark and print its metrics.

    python3 bench/run.py --workload join --seed 1 --seconds 40 --trace 0

The workload stream is generated from ``--seed``; cases run in a closed loop,
one at a time on one thread, for ``--seconds`` of wall time, and every case is
checked against the workload's oracle.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` every case
runs twice, once plain and once with the layer tracer installed (alternating
which goes first), the two outputs must be byte-identical, and the last line
holds the per-layer metrics.  Metric names and units come from BENCHMARK.json.
The exit code is 0 only if every case passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_fresh():
    """Import rsasm from this checkout's sources, dropping any earlier import."""
    for name in list(sys.modules):
        if name in ("rsasm", "workloads", "tracer") or name.startswith("rsasm."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    origin = Path(sys.modules["rsasm"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"rsasm was imported from {origin}, not from {SRC}")
    return workloads


def set_up(name: str, seed: int):
    """Import, start the case stream and warm up, several times; keep the last."""
    durations = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workloads = import_fresh()
        workload = workloads.WORKLOADS[name]
        cases = workload.cases(seed)
        for oracle, case in workload.warmup():
            error = workload.check(oracle, workload.run_case(case).result)
            if error is not None:
                raise RuntimeError(f"warm-up case failed: {error}")
        durations.append(time.perf_counter() - started)
    return workload, cases, statistics.median(durations)


def run_once(workload, case, tracer=None):
    gc.collect()  # collect the previous case's garbage outside the timed region
    if tracer is None:
        return workload.run_case(case)
    with tracer.installed():
        return workload.run_case(case)


def attempt(workload, oracle, case, tracer, plain_first: bool):
    """Run one case; return (failure reason or None, plain outcome, traced outcome)."""
    try:
        traced = None
        if tracer is None:
            plain = run_once(workload, case)
        elif plain_first:
            plain = run_once(workload, case)
            traced = run_once(workload, case, tracer)
        else:
            traced = run_once(workload, case, tracer)
            plain = run_once(workload, case)
        if traced is not None and traced.text != plain.text:
            return "traced output differs from the untraced output", plain, traced
        return workload.check(oracle, plain.result), plain, traced
    except Exception as exc:  # a case that raises is a failed case; keep measuring
        traceback.print_exc()
        return f"raised {type(exc).__name__}: {exc}", None, None


def measure(workload, cases, seconds: float, tracer):
    """Closed loop over the case stream until the time is up."""
    plain_s, run_s, out_bytes, traced_s = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        oracle, case = next(cases)
        error, plain, traced = attempt(workload, oracle, case, tracer, attempted % 2 == 0)
        attempted += 1
        if error is not None:
            failed += 1
            print(f"FAIL case {attempted}: {error}", file=sys.stderr)
            continue
        plain_s.append(plain.case_s)
        run_s.append(plain.run_s)
        out_bytes.append(len(plain.text.encode("utf-8")))
        if traced is not None:
            traced_s.append(traced.case_s)
    return attempted, failed, plain_s, run_s, out_bytes, traced_s


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        workload, cases, setup_s = set_up(args.workload, args.seed)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = importlib.import_module("tracer").LayerTracer() if args.trace else None
    print(
        f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
        f"python {platform.python_version()}, nproc {os.cpu_count()}, {platform.platform()}"
    )

    attempted, failed, plain_s, run_s, out_bytes, traced_s = measure(
        workload, cases, args.seconds, tracer
    )
    passed = len(plain_s)
    print(
        f"# {attempted} cases attempted, {failed} failed (fail_ratio {failed / attempted:.4f}); "
        f"percentiles over {len(plain_s)} timed cases, setup_s the median of {SETUP_REPEATS} set-ups"
    )
    if not passed:
        print("error: no case passed", file=sys.stderr)
        return 1

    case_ms = [s * 1000.0 for s in plain_s]
    if tracer is None:
        metrics = {
            "case_ms.p50": statistics.median(case_ms),
            "case_ms.p90": p90(case_ms),
            "run_ms.p50": statistics.median(s * 1000.0 for s in run_s),
            "cases_per_s": passed / sum(plain_s),
            "trace_bytes.p50": statistics.median(out_bytes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]
    else:
        metrics = tracer.metrics(passed)
        metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"{args.workload:6} {name:28} {value:14.4f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
