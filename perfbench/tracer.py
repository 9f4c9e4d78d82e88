"""Per-layer spans recorded from outside the program.

The tracer replaces each listed public function of ``tilescope`` with a
timing wrapper, in every module namespace that binds it (``report.support``
as well as ``cyclotomic.support``), so calls made through any import are
seen.  A stack of open spans gives each span its self time: its duration
minus the time covered by wrapped calls made inside it.  Spans stay in
memory and are written out once, after the traced pass.

Span names are ``<layer>.<function>``; the layer is the prefix.  Time spent
in unwrapped helpers counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core", "tiling", "skewform", "cyclotomic", "spectral", "geometry", "report", "cli")

# span name -> (module that defines the function, attribute name)
SPANS = {
    "core.expand": ("core", "expand"),
    "tiling.is_tile": ("tiling", "is_tile"),
    "tiling.stabilization_exponent": ("tiling", "stabilization_exponent"),
    "tiling.self_replicating_tiling": ("tiling", "self_replicating_tiling"),
    "skewform.skew_decompose": ("skewform", "skew_decompose"),
    "skewform.verify_decomposition": ("skewform", "verify_decomposition"),
    "cyclotomic.support": ("cyclotomic", "support"),
    "cyclotomic.divides": ("cyclotomic", "divides"),
    "cyclotomic.check_t1": ("cyclotomic", "check_t1"),
    "cyclotomic.check_t2": ("cyclotomic", "check_t2"),
    "cyclotomic.laba_spectrum": ("cyclotomic", "laba_spectrum"),
    "spectral.build_spectral_data": ("spectral", "build_spectral_data"),
    "spectral.is_hadamard": ("spectral", "is_hadamard"),
    # defined in cyclotomic, but only the spectral layer calls it
    "spectral.vanishes_at": ("cyclotomic", "vanishes_at"),
    "geometry.approx": ("geometry", "approx"),
    "geometry.measure_report": ("geometry", "measure_report"),
    "geometry.tower_svg": ("geometry", "tower_svg"),
    "geometry.intervals_json": ("geometry", "intervals_json"),
    "report.analyze_digit_set": ("report", "analyze_digit_set"),
    "report.report_to_json": ("report", "report_to_json"),
    "cli.main": ("cli", "main"),
    "cli.run_search": ("cli", "run_search"),
    "cli.enumerate_normalized": ("cli", "enumerate_normalized"),
}


class Tracer:
    """Spans and counters of one traced stretch of work.

    ``install`` wraps every function in ``SPANS``; ``restore`` puts the
    originals back.  Use it as a context manager so that restore always runs.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.kind_self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.support_inputs: set[tuple[int, ...]] = set()
        self.item = -1
        self.kind = ""
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def begin_item(self, index: int, kind: str) -> None:
        self.item, self.kind = index, kind

    # --- wrapping -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "tilescope"]
        for name, (home, attr) in SPANS.items():
            original = getattr(sys.modules.get(f"tilescope.{home}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        automaton = getattr(sys.modules.get("tilescope.tiling"), "CarryAutomaton", None)
        if automaton is None:
            self.missing.append("tiling.automaton_states")
        else:
            self._patch(automaton, "__init__", self._count_states(automaton.__init__))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_states(self, init):
        counters = self.counters

        def __init__(automaton, *args, **kwargs):
            init(automaton, *args, **kwargs)
            counters["tiling.automaton_states"] += len(automaton.states)

        return __init__

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        calls, self_ns, kind_self_ns = self.calls, self.self_ns, self.kind_self_ns
        after = self._counter_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_ns[name] += own
                kind_self_ns[(self.kind, layer)] += own
                spans.append((span_id, parent, name, self.item, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter_hook(self, name: str):
        counters = self.counters
        if name == "core.expand":
            def after(args, result):
                counters["core.expand.values"] += len(result.values)
        elif name == "geometry.approx":
            def after(args, result):
                counters["geometry.approx.intervals"] += len(result.intervals)
        elif name == "skewform.skew_decompose":
            def after(args, result):
                counters["skewform.skew_decompose.hits"] += result is not None
        elif name == "cyclotomic.support":
            def after(args, result):
                self.support_inputs.add(tuple(sorted(set(args[0]))))
        else:
            return None
        return after

    # --- results --------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e9
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in order of completion."""
        with open(path, "w") as fh:
            for span_id, parent, name, item, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "item": item,
                         "start_ns": start, "end_ns": end}
                    ) + "\n"
                )
