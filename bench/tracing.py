"""In-memory spans around the calls the CLI makes into each photonc layer.

While installed, the tracer replaces the names that ``photonc.cli`` (and,
for calls made inside the compiler, ``photonc.compiler``) looks up with
wrappers that record one span per call: name, start, end, parent span and
job id. Nothing in the package changes; uninstalling puts the originals
back. Counts are taken from a call's arguments and result after its span
has ended, so they do not inflate the span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from workloads import COMMANDS


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


ELEMENT_KINDS = {"BeamSplitter": "bs", "PolarizingBeamSplitter": "pbs", "PhaseShifter": "ps",
                 "Rotator": "rot", "Crossing": "cross"}


def _element_counts(netlist) -> dict[str, float]:
    counts = {f"elements.{short}": 0 for short in ELEMENT_KINDS.values()}
    for layer in netlist.layers:
        for element in layer:
            counts[f"elements.{ELEMENT_KINDS[type(element).__name__]}"] += 1
    counts["modes"] = netlist.space.dim
    counts["layers"] = len(netlist.layers)
    return counts


# (module, attribute, span name, counts from (args, result)).
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("photonc.cli", "parse_circuit", "circuit.parse_circuit", lambda a, r: {"gates": len(r.gates)}),
    ("photonc.cli", "compile_circuit", "compiler.compile_circuit", lambda a, r: _element_counts(r)),
    ("photonc.compiler", "lower_gate", "compiler.lower_gate", lambda a, r: {"layers": len(r)}),
    ("photonc.compiler", "prune_dead_paths", "compiler.prune_dead_paths",
     lambda a, r: {"elements_in": a[0].n_elements, "elements_kept": r.n_elements}),
    ("photonc.compiler", "OpticalNetlist", "optics.OpticalNetlist",
     lambda a, r: {"layers": len(r.layers)}),
    ("photonc.cli", "netlist_to_json", "compiler.netlist_to_json",
     lambda a, r: {"bytes": len(r.encode())}),
    ("photonc.cli", "netlist_from_json", "compiler.netlist_from_json", None),
    ("photonc.cli", "device_stats", "compiler.device_stats", None),
    ("photonc.cli", "propagate", "optics.propagate", None),
    ("photonc.cli", "netlist_unitary", "optics.netlist_unitary", None),
    ("photonc.cli", "circuit_unitary", "statevec.circuit_unitary", None),
    ("photonc.cli", "basis_bridge", "equivalence.basis_bridge", None),
    ("photonc.cli", "global_phase_distance", "equivalence.global_phase_distance",
     lambda a, r: {"max_deviation": r.distance}),
    ("photonc.cli", "render_diagram", "diagram.render_diagram",
     lambda a, r: {"bytes": len(r.encode())}),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, job: str):
        self.job = job
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every probe in for the duration of the block."""
        saved = []
        for module_name, attr, name, count in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def add_bridge_products(self) -> None:
        """`photonc verify` computes `bridge @ circuit_unitary(..) @ bridge.T`
        inline, between its circuit_unitary and netlist_unitary calls; record
        that interval as its own span under the verify command."""
        children: dict[int, dict[str, Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, {})[span.name] = span
        for index, span in enumerate(list(self.spans)):
            if span.name != "cli.verify":
                continue
            kids = children.get(index, {})
            before = kids.get("statevec.circuit_unitary")
            after = kids.get("optics.netlist_unitary")
            if before is not None and after is not None:
                self.spans.append(
                    Span("equivalence.bridge_product", before.end, after.start, index, span.job)
                )


MODULES = ("circuit", "compiler", "optics", "statevec", "equivalence", "diagram", "cli")
SPAN_NAMES = tuple(name for _, _, name, _ in PROBES) + ("equivalence.bridge_product",)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one pass's spans: inclusive seconds per span name,
    self seconds per module and per CLI command, and the layer counts. A
    layer the pass never called reads 0."""
    child_seconds: dict[int, float] = defaultdict(float)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
            children[span.parent].append(span)
    m: dict[str, float] = {f"{name}.s": 0.0 for name in SPAN_NAMES}
    m.update({f"cli.{c}.{k}": 0.0 for c in COMMANDS for k in ("s", "self_s")})
    m.update({f"{module}.self_s": 0.0 for module in MODULES})
    totals: dict[str, float] = defaultdict(float)
    max_deviation = 0.0
    layers_removed = 0
    for index, span in enumerate(spans):
        self_seconds = span.seconds - child_seconds[index]
        m[f"{span.name.split('.')[0]}.self_s"] += self_seconds
        m[f"{span.name}.s"] += span.seconds
        if span.name.startswith("cli."):
            m[f"{span.name}.self_s"] += self_seconds
        for key, value in span.counts.items():
            totals[f"{span.name}.{key}"] += value
        max_deviation = max(max_deviation, span.counts.get("max_deviation", 0.0))
        if span.name == "compiler.compile_circuit":
            kids = children[index]
            lowered = sum(k.counts["layers"] for k in kids if k.name == "compiler.lower_gate")
            built = [k.counts["layers"] for k in kids if k.name == "optics.OpticalNetlist"]
            layers_removed += lowered - (built[0] if built else 0)
    kept_in = totals["compiler.prune_dead_paths.elements_in"]
    compiled = "compiler.compile_circuit"
    m.update({
        "circuit.gates": totals["circuit.parse_circuit.gates"],
        "compiler.lower_gate.layers": totals["compiler.lower_gate.layers"],
        "compiler.cleanup.layers_removed": layers_removed,
        "compiler.prune_dead_paths.kept_ratio":
            totals["compiler.prune_dead_paths.elements_kept"] / kept_in if kept_in else 0.0,
        "compiler.netlist_to_json.bytes": totals["compiler.netlist_to_json.bytes"],
        "optics.modes": totals[f"{compiled}.modes"],
        "optics.layers": totals[f"{compiled}.layers"],
        "equivalence.max_deviation": max_deviation,
        "diagram.bytes": totals["diagram.render_diagram.bytes"],
    })
    m.update({
        f"optics.elements.{k}": totals[f"{compiled}.elements.{k}"] for k in ELEMENT_KINDS.values()
    })
    return m
