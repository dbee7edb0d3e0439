"""Per-layer spans and counters, taken from outside the engine.

``LayerTracer.installed()`` wraps the public functions of each layer where the
engine looks them up, and restores the originals on exit.  A name imported
with ``from .x import f`` is a separate binding in every importing module, so
a wrapper replaces every binding of the original function across the
``rsasm`` modules (or, for decoding, only the engine's).  Recursive functions
are timed at their outermost call only, and a span's self time is its
duration minus the spans opened inside it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# Span names are the metric names; each reports its span's self time.
SPANS = (
    "frontend.parse_ms",
    "reflect.decode_ms",
    "rules.multiset_ms",
    "rules.collapse_ms",
    "structures.apply_ms",
    "engine.step_self_ms",
    "engine.record_ms",
    "generate.ms",
    "structures.iso_ms",
)
COUNTERS = (
    "reflect.decode_calls",
    "rules.multiset_entries",
    "structures.eval_calls",
    "treealg.preorder_nodes",
    "rules.clashes",
    "background.operator_calls",
    "engine.steps",
    "treealg.self_nodes",
)


def _rsasm_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "rsasm" or name.startswith("rsasm.")]


class LayerTracer:
    """Accumulates self time (seconds) per span and work counts across traced calls."""

    def __init__(self) -> None:
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: set[str] = set()
        self._children: list[float] = []  # child time of each open span, innermost last
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------------

    def metrics(self, cases: int) -> dict[str, float]:
        """Every span (in ms) and counter, per traced case."""
        out = {name: self.self_time[name] * 1000.0 / cases for name in SPANS}
        out.update({name: self.counts[name] / cases for name in COUNTERS})
        return out

    def _timed(self, layer: str, fn, on_result=None):
        open_layers, children = self._open, self._children

        def span(*args, **kwargs):
            if layer in open_layers:  # a recursive call: only the outermost is timed
                return fn(*args, **kwargs)
            open_layers.add(layer)
            children.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                inner = children.pop()
                open_layers.discard(layer)
                self.self_time[layer] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return span

    @staticmethod
    def _observed(fn, on_result):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return call

    def _counted(self, counter: str, fn):
        counts = self.counts

        def call(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return call

    def _counted_generator(self, counter: str, fn):
        counts = self.counts

        def generate(*args, **kwargs):
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[counter] += yielded

        return generate

    def _count(self, counter: str, amount) -> None:
        self.counts[counter] += amount

    # -- installing and removing ---------------------------------------------------

    def _rebind(self, original, wrapper, modules) -> None:
        """Point every binding of ``original`` in ``modules`` at ``wrapper``."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _replace_method(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def install(self) -> None:
        from rsasm import background, engine, frontend, generate, reflect, rules, structures, treealg

        everywhere = _rsasm_modules()
        self._rebind(frontend.parse, self._timed("frontend.parse_ms", frontend.parse), everywhere)
        for fn in (reflect.decode_signature, reflect.decode_rule):
            counted = self._counted("reflect.decode_calls", fn)
            self._rebind(fn, self._timed("reflect.decode_ms", counted), [engine])
        self._rebind(
            rules.compute_update_multiset,
            self._timed(
                "rules.multiset_ms",
                rules.compute_update_multiset,
                lambda m: self._count("rules.multiset_entries", len(m)),
            ),
            everywhere,
        )
        self._rebind(
            rules.collapse,
            self._timed(
                "rules.collapse_ms",
                rules.collapse,
                lambda r: self._count("rules.clashes", isinstance(r, rules.ClashReport)),
            ),
            everywhere,
        )
        self._rebind(
            structures.apply_update_set,
            self._timed("structures.apply_ms", structures.apply_update_set),
            everywhere,
        )
        self._rebind(
            engine.step,
            self._timed("engine.step_self_ms", engine.step, lambda _: self._count("engine.steps", 1)),
            everywhere,
        )
        self._rebind(
            engine.run,
            self._observed(
                engine.run,
                lambda t: self._count("treealg.self_nodes", t.final_state.self_tree.size),
            ),
            everywhere,
        )
        self._replace_method(
            engine.Trace, "to_json", self._timed("engine.record_ms", engine.Trace.to_json)
        )
        self._rebind(
            generate.random_machine,
            self._timed(
                "generate.ms",
                generate.random_machine,
                lambda m: self._count("treealg.self_nodes", m.initial_state.self_tree.size),
            ),
            everywhere,
        )
        for fn in (generate.perturb_state, generate.mutate_outside, generate.random_permutation):
            self._rebind(fn, self._timed("generate.ms", fn), everywhere)
        self._rebind(
            structures.apply_isomorphism,
            self._timed("structures.iso_ms", structures.apply_isomorphism),
            everywhere,
        )
        self._rebind(
            background.apply_operator,
            self._counted("background.operator_calls", background.apply_operator),
            everywhere,
        )
        self._rebind(
            structures.eval_term,
            self._counted("structures.eval_calls", structures.eval_term),
            everywhere,
        )
        self._replace_method(
            treealg.Tree,
            "preorder",
            self._counted_generator("treealg.preorder_nodes", treealg.Tree.preorder),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
