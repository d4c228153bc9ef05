"""Spans around the public functions of each caslens layer.

A wrapper replaces a function wherever a caslens module holds it, so a call
made through a name imported with ``from .plates import pressure_pp`` (as
``caslens.pfa`` does) is traced too and nests under its caller.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

#: The functions wrapped in each layer (module ``caslens.<layer>``).
TARGETS = (
    ("plates", ("free_energy_pp", "pressure_pp")),
    ("lens", ("derive_geometry", "validate_spec", "profile_height", "lateral_extent")),
    ("pfa", ("force_perfect_simplified", "force_bubble", "force_pit",
             "force_general", "force_perfect_full", "ratio_curve")),
    ("metrology", ("total_error", "combine_systematic", "select_rule",
                   "load_k_table", "load_q_table")),
    ("config", ("parse_length", "parse_temperature", "parse_kv_file", "build_grid")),
    ("cli", ("main",)),
)
KERNEL = {"plates.free_energy_pp", "plates.pressure_pp"}
CLOSED_FORCES = {"pfa.force_perfect_simplified", "pfa.force_bubble", "pfa.force_pit"}
QUAD_FORCES = {"pfa.force_general", "pfa.force_perfect_full"}
FORCES = CLOSED_FORCES | QUAD_FORCES
#: Layers with ``<layer>.calls`` and ``<layer>.self_ms`` metrics.
COUNTED_LAYERS = ("plates", "lens", "metrology", "config")

NAME, START, END, PARENT, OP, TERMS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[TERMS] = getattr(result, "terms_used", 0)
            return result

        return traced

    def operation(self, execute):
        """Wrap the benchmark's own operation as the root span of each op."""
        inner = self._wrap("op", execute)

        def op(item):
            self._op += 1
            return inner(item)

        return op

    def install(self) -> None:
        for layer, names in TARGETS:
            importlib.import_module(f"caslens.{layer}")
        modules = [m for key, m in sys.modules.items()
                   if key == "caslens" or key.startswith("caslens.")]
        for layer, names in TARGETS:
            module = sys.modules[f"caslens.{layer}"]
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer counts and self times computed from the spans."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for span, child_ns in zip(spans, covered):
            layer = span[NAME].split(".", 1)[0]
            self_ns[layer] = self_ns.get(layer, 0) + span[END] - span[START] - child_ns
            calls[layer] = calls.get(layer, 0) + 1
        closed = sum(1 for s in spans if s[NAME] in CLOSED_FORCES)
        quad = sum(1 for s in spans if s[NAME] in QUAD_FORCES)
        kernel = [s for s in spans if s[NAME] in KERNEL]
        under_force = sum(1 for s in kernel if self._has_force_ancestor(s))
        metrics = {
            "plates.terms": sum(s[TERMS] for s in kernel),
            "plates.call_p50_us": (statistics.median(s[END] - s[START] for s in kernel) / 1e3
                                   if kernel else 0.0),
            "pfa.closed.calls": closed,
            "pfa.quad.calls": quad,
            "pfa.self_ms": self_ns.get("pfa", 0) / 1e6,
            "pfa.kernel_calls_per_force": under_force / (closed + quad) if closed + quad else 0.0,
            "cli.self_ms": self_ns.get("cli", 0) / 1e6,
        }
        for layer in COUNTED_LAYERS:
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
            metrics[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
        return metrics

    def _has_force_ancestor(self, span) -> bool:
        while span[PARENT] >= 0:
            span = self.spans[span[PARENT]]
            if span[NAME] in FORCES:
                return True
        return False

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines: a header, then one
        [name, start_ns, end_ns, parent, op] array per span."""
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, fields=["name", "start_ns", "end_ns",
                                                         "parent", "op"])) + "\n")
            for s in self.spans:
                handle.write(f'["{s[NAME]}",{s[START] - origin},{s[END] - origin},'
                             f'{s[PARENT]},{s[OP]}]\n')
