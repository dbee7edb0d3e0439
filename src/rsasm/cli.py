"""Command line interface: run, check, probe, diff-self.

Exit codes: ``run`` gives 2 on a parse or I/O error (a program file that is
not UTF-8, a trace path that cannot be written or is the program file, found
before the program is read) and on a ``--dump-self`` step outside the trace,
1 on a runtime error, a clash or a value nested too deeply to print (then it
prints nothing else), and 0 otherwise; a ``run`` that ends before it writes
its trace, on a parse error or such a value, removes the file at the
``--trace`` path; ``check`` gives 1 on a parse or read error; ``probe`` gives
1 when a probe finds a violation; ``diff-self`` gives 2 on an unreadable trace
(one nested too deeply included), one that is not format 8, or one whose
digest does not match.  Every command gives 2 on a usage error, ``--trials``
below 1 or a negative ``--max-steps`` among them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import probe_bounded_exploration, probe_isomorphism_closure, replay, run
from .errors import EngineError, RsasmError
from .frontend import parse_file
from .reflect import tree_diff
from .printer import state_to_json
from .structures import TreeValue, canonical_dumps


def _check_writable(path: str, program: str) -> None:
    """Raise ``OSError`` if ``path`` is the program or cannot be written; no new file is left."""
    existed = os.path.exists(path)
    if existed and os.path.samefile(path, program):
        raise OSError(f"the trace path {path} is the program file")
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _remove_trace(path: str | None) -> None:
    """Remove the file at the trace path: no earlier run's trace may pass for this one's."""
    if path and os.path.isfile(path):
        os.remove(path)


def _cmd_run(args) -> int:
    try:
        if args.trace:
            _check_writable(args.trace, args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        machine = parse_file(args.file, max_steps=args.max_steps)
    except (RsasmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _remove_trace(args.trace)
        return 2
    trace = run(machine)
    final, index = trace.final_state, args.dump_self
    points = [trace.initial_state] + [s.after for s in trace.steps]
    try:  # all output is built before any is written
        trace_text = trace.to_json() if args.trace else None
        dumped = None
        if index is not None and 0 <= index < len(points):
            dumped = repr(TreeValue(points[index].self_tree))
        if args.format == "json":
            obj = {"status": trace.status, "steps": len(trace.steps), "final": state_to_json(final)}
            lines = [canonical_dumps(obj)]
        else:
            lines = [f"status: {trace.status} after {len(trace.steps)} step(s)"] + [
                f"  {loc!r} = {final.interp[loc]!r}"
                for loc in final.defined_locations()
                if loc.symbol != "self"
            ]
    except RecursionError:
        ended = f"the run ended {trace.status} after {len(trace.steps)} step(s)"
        print(f"error: {ended}, but a value is nested too deeply to print", file=sys.stderr)
        _remove_trace(args.trace)
        return 1
    if trace_text is not None:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if index is not None:
        if dumped is None:
            print(f"error: no step {index} in the trace", file=sys.stderr)
            return 2
        print(dumped)
    print("\n".join(lines))
    if trace.status == "error":
        print(f"error: {trace.detail}", file=sys.stderr)
        if trace.detail == "clash_stall":
            clash = trace.steps[-1].result
            print(f"clash at {clash.location!r}: {clash.reason}", file=sys.stderr)
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


def _cmd_diff_self(args) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace_obj = json.load(fh)
        points = list(replay(trace_obj))
        for k in (args.i, args.j):
            if not 0 <= k < len(points):
                raise EngineError(f"trace has {len(points) - 1} steps, no index {k}")
        theta = tree_diff(points[args.i], points[args.j])
    except (RsasmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the trace is nested too deeply to read", file=sys.stderr)
        return 2
    print(repr(theta))
    return 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid count
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected at least {minimum}, got {value}")
        return value

    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rsasm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program to fixpoint")
    p_run.add_argument("file")
    p_run.add_argument("--max-steps", type=_at_least(0), default=None)
    p_run.add_argument("--trace", help="write the trace JSON to this path")
    p_run.add_argument("--dump-self", type=int, default=None, metavar="STEP")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="parse and validate a program")
    p_check.add_argument("file")
    p_check.set_defaults(fn=_cmd_check)

    p_probe = sub.add_parser("probe", help="run the postulate probes")
    p_probe.add_argument("--trials", type=_at_least(1), default=100)
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
