"""Span tracing for the per-layer run, installed from outside the program.

:class:`Tracer` wraps public methods of the reproduction at class level
(see :data:`TRACE_POINTS`).  Every call of a wrapped method records one
span: the trace point's name, its start and end on ``time.perf_counter``
and the index of the enclosing span.  Spans live in flat in-memory
arrays while the run goes on and are written out once it ends
(:meth:`Tracer.write`).

Wrappers must be installed *before* the network is built: components
capture bound methods at construction (lifecycle reclaimers, the
telemetry tick, the switch's shard router), and a bound method taken
from the unwrapped class escapes the trace.
"""

from __future__ import annotations

import importlib
import json
import time
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

#: Trace points: (span name, module, class, method).  Span names are
#: ``<layer>.<point>``; the layer prefix groups self time into shares.
TRACE_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("netsim.step", "repro.netsim.events", "Simulator", "step"),
    ("netsim.schedule", "repro.netsim.events", "Simulator", "schedule"),
    ("netsim.path", "repro.netsim.topology", "Topology", "shortest_path"),
    ("openflow.lookup", "repro.openflow.flow_table", "FlowTable", "lookup"),
    ("openflow.install", "repro.openflow.flow_table", "FlowTable", "install"),
    ("openflow.remove", "repro.openflow.flow_table", "FlowTable", "remove"),
    ("openflow.remove", "repro.openflow.flow_table", "FlowTable", "remove_by_cookie"),
    ("openflow.expire", "repro.openflow.flow_table", "FlowTable", "expire"),
    ("openflow.switch_receive", "repro.openflow.switch", "OpenFlowSwitch", "receive"),
    ("openflow.switch_message", "repro.openflow.switch", "OpenFlowSwitch", "handle_message"),
    ("openflow.channel", "repro.openflow.channel", "ControllerChannel", "send_to_controller"),
    ("openflow.channel", "repro.openflow.channel", "ControllerChannel", "send_to_switch"),
    ("core.dispatch", "repro.openflow.controller_base", "Controller", "handle_message"),
    ("core.packet_in", "repro.core.controller", "IdentPPController", "on_packet_in"),
    ("core.flow_removed", "repro.core.controller", "IdentPPController", "on_flow_removed"),
    ("core.datapath", "repro.openflow.controller_base", "Controller", "install_flow"),
    ("core.datapath", "repro.openflow.controller_base", "Controller", "send_packet_out"),
    ("core.datapath", "repro.openflow.controller_base", "Controller", "remove_flows_by_cookie"),
    ("core.decision_cache", "repro.core.cache", "DecisionCache", "lookup"),
    ("core.decision_cache", "repro.core.cache", "DecisionCache", "store"),
    ("core.decision_cache", "repro.core.cache", "DecisionCache", "expire"),
    ("core.audit", "repro.core.audit", "AuditLog", "record"),
    ("core.policy_decide", "repro.core.policy_engine", "PolicyEngine", "decide"),
    ("core.policy_decide", "repro.core.policy_engine", "PolicyEngine", "decide_batch"),
    ("core.lifecycle_sweep", "repro.core.lifecycle", "LifecycleService", "sweep"),
    ("pf.evaluate", "repro.pf.evaluator", "PolicyEvaluator", "evaluate_with_context"),
    ("pf.compile", "repro.core.policy_engine", "PolicyEngine", "rebuild"),
    ("pf.compile", "repro.pf.compiler", "CompiledPolicy", "__init__"),
    ("identpp.engine_query", "repro.identpp.engine", "QueryEngine", "query_async"),
    ("identpp.engine_query", "repro.identpp.engine", "QueryEngine", "query"),
    ("identpp.daemon_answer", "repro.identpp.daemon", "IdentPPDaemon", "answer"),
    ("identpp.wire", "repro.identpp.wire", "IdentQuery", "__init__"),
    ("identpp.wire", "repro.identpp.wire", "IdentResponse", "__init__"),
    ("identpp.wire", "repro.identpp.wire", "IdentSubscribe", "__init__"),
    ("identpp.wire", "repro.identpp.wire", "IdentSubscribeAck", "__init__"),
    ("identpp.wire", "repro.identpp.wire", "IdentDelta", "__init__"),
    ("hosts.open_flow", "repro.hosts.endhost", "EndHost", "open_flow"),
    ("hosts.receive", "repro.hosts.endhost", "EndHost", "receive"),
    ("hosts.sockets", "repro.hosts.sockets", "SocketTable", "lookup_flow"),
    ("hosts.sockets", "repro.hosts.sockets", "SocketTable", "process_for_flow"),
    ("cluster.route", "repro.cluster.cluster", "ControllerCluster", "route"),
    ("telemetry.sample", "repro.telemetry.pipeline", "MetricsPipeline", "sample"),
)

#: Layers in report order; every span name starts with one of these.
LAYERS = ("netsim", "openflow", "core", "pf", "identpp", "hosts", "cluster", "telemetry")


@dataclass(frozen=True)
class SpanTotals:
    """Per span name: call count, inclusive seconds and self seconds."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]

    def layer_self_s(self) -> dict[str, float]:
        """Return self seconds summed per layer (the name's first component)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out


def self_times(
    names: list[str],
    name_ids, starts, ends, parents,
) -> SpanTotals:
    """Fold flat span arrays into per-name call counts and self times.

    A span's self time is its duration minus the durations of its
    direct children, which is the part of its interval no nested traced
    call covers (children of one parent never overlap on one thread).
    """
    count = len(name_ids)
    child = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            child[parent] += ends[index] - starts[index]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for index in range(count):
        name = names[name_ids[index]]
        duration = ends[index] - starts[index]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child[index]
    return SpanTotals(calls=calls, total_s=total, self_s=own)


class Tracer:
    """Records spans around the wrapped methods of :data:`TRACE_POINTS`."""

    def __init__(self, points=TRACE_POINTS, clock: Callable[[], float] = time.perf_counter) -> None:
        self.points = points
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []
        #: Trace points whose method no longer exists.
        self.missing: list[str] = []
        #: Messages sent over control channels, by message class name.
        self.channel_messages: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point at class level (idempotent per tracer)."""
        if self._originals:
            return
        for span_name, module_name, class_name, method in self.points:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                # The program dropped this method: its span reads zero.
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            # Channel sends are also counted by message type (punts, flow-mods).
            count_messages = span_name == "openflow.channel"
            setattr(cls, method, self._wrap(span_name, original, count_messages))
            self._originals.append((cls, method, original))

    def uninstall(self) -> None:
        """Restore the original methods."""
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _wrap(self, span_name: str, original, count_messages: bool):
        name_id = self._name_id(span_name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        messages = self.channel_messages

        def traced(*args, **kwargs):
            if count_messages:
                kind = type(args[1]).__name__
                messages[kind] = messages.get(kind, 0) + 1
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span_name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def span_count(self) -> int:
        """Return how many spans have been recorded."""
        return len(self.name_ids)

    def totals(self) -> SpanTotals:
        """Fold the recorded spans into per-name totals."""
        return self_times(self.names, self.name_ids, self.starts, self.ends, self.parents)

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write every span to ``path`` (zlib-compressed).

        Layout: one JSON header line (``names``, ``count``, ``meta``),
        then the four arrays back to back — ``name_ids`` and ``parents``
        as native ``int32``, ``starts`` and ``ends`` as native ``float64``.
        """
        header = json.dumps(
            {"names": self.names, "count": self.span_count(), "meta": meta or {},
             "arrays": ["name_ids:i", "parents:i", "starts:d", "ends:d"]}
        ).encode() + b"\n"
        body = b"".join(
            store.tobytes() for store in (self.name_ids, self.parents, self.starts, self.ends)
        )
        with open(path, "wb") as handle:
            handle.write(zlib.compress(header + body, 1))
