"""Command line interface: run, check, probe, diff-self."""

from __future__ import annotations

import argparse
import json
import sys

from .engine import probe_bounded_exploration, probe_isomorphism_closure, run
from .errors import RsasmError
from .frontend import parse_file
from .structures import canonical_dumps, state_to_json, tree_from_json
from .treealg import format_tree, tree_diff


def _cmd_run(args) -> int:
    try:
        machine = parse_file(args.file, max_steps=args.max_steps)
    except (RsasmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = run(machine)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_json())
    if args.dump_self is not None:
        index = args.dump_self
        if index == 0:
            tree = trace.initial_state.self_tree
        elif 1 <= index <= len(trace.steps):
            tree = trace.steps[index - 1].after.self_tree
        else:
            print(f"error: no step {index} in the trace", file=sys.stderr)
            return 2
        print(format_tree(tree))
    final = trace.final_state
    if args.format == "json":
        print(
            canonical_dumps(
                {
                    "status": trace.status,
                    "steps": len(trace.steps),
                    "final": state_to_json(final),
                }
            )
        )
    else:
        print(f"status: {trace.status} after {len(trace.steps)} step(s)")
        for loc in final.defined_locations():
            if loc.symbol == "self":
                continue
            print(f"  {loc!r} = {final.interp[loc]!r}")
    if trace.status == "error":
        print(f"error: {trace.detail}", file=sys.stderr)
        return 1
    if args.strict and any(s.clashed for s in trace.steps):
        return 1
    return 0


def _cmd_check(args) -> int:
    try:
        parse_file(args.file)
    except (RsasmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: ok")
    return 0


def _cmd_probe(args) -> int:
    reports = [
        probe_bounded_exploration(trials=args.trials, seed=args.seed),
        probe_isomorphism_closure(trials=args.trials, seed=args.seed),
    ]
    failed = False
    for report in reports:
        if args.format == "json":
            print(canonical_dumps(report.to_json_obj()))
        else:
            verdict = "ok" if report.ok else f"{len(report.violations)} violation(s)"
            print(f"{report.probe}: {report.checked} trials, {verdict}")
            for v in report.violations:
                print(f"  {v}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _self_at(trace_obj: dict, index: int):
    if index == 0:
        return tree_from_json(trace_obj["initial"]["self"])
    steps = trace_obj["steps"]
    if not (1 <= index <= len(steps)):
        raise RsasmError(f"trace has {len(steps)} steps, no index {index}")
    return tree_from_json(steps[index - 1]["self"])


def _cmd_diff_self(args) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace_obj = json.load(fh)
        t1 = _self_at(trace_obj, args.i)
        t2 = _self_at(trace_obj, args.j)
        theta = tree_diff(t1, t2)
    except (RsasmError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(str(theta))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rsasm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program to fixpoint")
    p_run.add_argument("file")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--trace", help="write the trace JSON to this path")
    p_run.add_argument("--dump-self", type=int, default=None, metavar="STEP")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--strict", action="store_true", help="exit nonzero on clash")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="parse and validate a program")
    p_check.add_argument("file")
    p_check.set_defaults(fn=_cmd_check)

    p_probe = sub.add_parser("probe", help="run the postulate probes")
    p_probe.add_argument("--trials", type=int, default=100)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--format", choices=("text", "json"), default="text")
    p_probe.set_defaults(fn=_cmd_probe)

    p_diff = sub.add_parser("diff-self", help="print the tree difference between two trace points")
    p_diff.add_argument("trace")
    p_diff.add_argument("i", type=int)
    p_diff.add_argument("j", type=int)
    p_diff.set_defaults(fn=_cmd_diff_self)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
