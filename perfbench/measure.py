"""One measured repetition of a workload: build, drive, check, summarise."""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.identpp.flowspec import FlowSpec

from workloads import REAP_AFTER, Built, FlowPlan, Probes, Workload, engine_hit_ratio

#: Most wrong-verdict messages kept for the report.
MAX_ERRORS = 10


@dataclass
class Inputs:
    """Everything a run draws from its seed, fixed before any network exists."""

    seed: int
    flows: list[FlowPlan]
    actions: list
    #: Seed for the values background actions write (publishes).
    action_seed: int

    @classmethod
    def draw(cls, workload: Workload, seed: int) -> "Inputs":
        rng = random.Random(seed)
        flows = workload.plan(rng)
        horizon = flows[-1].at
        actions = workload.actions(rng, horizon)
        return cls(seed=seed, flows=flows, actions=actions, action_seed=rng.randrange(2**32))


@dataclass
class RepResult:
    """What one repetition measured and checked."""

    setup_s: float
    run_s: float
    opened: int
    fresh: int
    failed: int
    #: Per planned flow: "pass" / "block" / None (no fresh verdict).
    verdicts: list
    #: Per planned flow: virtual seconds from open to verdict (None if failed).
    latencies: list
    errors: list = field(default_factory=list)
    wrong: int = 0
    properties: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)

    @property
    def flows_per_s(self) -> float:
        """Fresh verdicts per wall second of ``net.run``."""
        return self.fresh / self.run_s


def build_timed(workload: Workload) -> tuple[Built, float]:
    """Build the workload's network; return it with the wall seconds taken."""
    gc.collect()
    start = time.perf_counter()
    built = workload.build()
    return built, time.perf_counter() - start


def run_rep(workload: Workload, inputs: Inputs, *, layer_probe=None) -> RepResult:
    """Build a fresh network, drive the planned flows through it, check verdicts.

    ``layer_probe(built, rep, probes)`` runs after the checks (the traced
    run uses it to read per-layer counters before the network is dropped).
    """
    built, setup_s = build_timed(workload)
    sim = built.sim
    plans = inputs.flows
    flows: list[Optional[FlowSpec]] = [None] * len(plans)
    probes = Probes()
    action_rng = random.Random(inputs.action_seed)

    def reap(client, socket, process) -> None:
        client.sockets.close(socket)
        client.processes.kill(process.pid)

    def arrive(index: int) -> None:
        plan = plans[index]
        client = built.clients[plan.client]
        packet, socket, process = client.open_flow(
            plan.app, plan.user, built.servers[plan.server].ip, plan.port,
            payload_size=plan.payload_size,
        )
        flows[index] = FlowSpec.from_packet(packet)
        sim.schedule(REAP_AFTER, reap, client, socket, process, label="bench:reap")
        probes.sample(built)
        if index + 1 < len(plans):
            sim.schedule_at(plans[index + 1].at, arrive, index + 1, label="bench:arrive")

    sim.schedule_at(plans[0].at, arrive, 0, label="bench:arrive")
    for action in inputs.actions:
        sim.schedule_at(action.at, workload.apply, built, action, action_rng,
                        label=f"bench:{action.kind}")
    workload.start(built, plans[-1].at)

    start = time.perf_counter()
    built.net.run()
    run_s = time.perf_counter() - start

    rep = check(built, plans, flows)
    rep.setup_s = setup_s
    rep.run_s = run_s
    rep.properties = workload.properties(built, probes)
    if layer_probe is not None:
        layer_probe(built, rep, probes)
    del built
    gc.collect()
    return rep


def check(built: Built, plans: list[FlowPlan], flows: list) -> RepResult:
    """Match every planned flow to its verdict and its delivery.

    A flow's verdict is its first fresh (not cached, not fail-closed)
    audit record.  A wrong verdict, a passed flow that was not
    delivered, or a blocked flow that was delivered is an error; a flow
    with no fresh verdict is a failure.
    """
    decided: dict[FlowSpec, object] = {}
    for controller in built.net.controllers.values():
        for record in controller.audit:
            if record.cached or record.rule_origin == "error":
                continue
            earlier = decided.get(record.flow)
            if earlier is None or record.time < earlier.time:
                decided[record.flow] = record
    delivered: dict[tuple, float] = {}
    for server in built.servers:
        for packet, at in zip(server.delivered, server.delivered_times):
            delivered.setdefault(packet.five_tuple(), at)

    verdicts: list = []
    latencies: list = []
    errors: list = []
    wrong = failed = 0
    for plan, flow in zip(plans, flows):
        record = decided.get(flow) if flow is not None else None
        arrived = delivered.get(flow.as_tuple()) if flow is not None else None
        problem = None
        if record is None:
            failed += 1
            verdicts.append(None)
            latencies.append(None)
            if not plan.expect_pass and arrived is not None:
                problem = "undecided flow expected blocked was delivered"
        else:
            verdicts.append(record.action)
            if record.is_pass != plan.expect_pass:
                problem = f"verdict {record.action}, expected {'pass' if plan.expect_pass else 'block'}"
            elif plan.expect_pass and arrived is None:
                problem = "passed flow not delivered"
            elif not plan.expect_pass and arrived is not None:
                problem = "blocked flow delivered"
            landed = arrived if record.is_pass and arrived is not None else record.time
            latencies.append(landed - plan.at)
        if problem is not None:
            wrong += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"{flow} at t={plan.at:.6f}: {problem}")
    return RepResult(
        setup_s=0.0, run_s=0.0, opened=len(plans), fresh=len(plans) - failed,
        failed=failed, verdicts=verdicts, latencies=latencies, errors=errors, wrong=wrong,
    )


def layer_counters(built: Built, rep: RepResult, probes: Probes) -> None:
    """Read the per-layer counters the traced run reports (public accessors only)."""
    controllers = list(built.net.controllers.values())
    switches = list(built.net.switches.values())
    lookups = sum(switch.flow_table.lookups for switch in switches)
    hits = sum(switch.flow_table.hits for switch in switches)
    cache_hits = sum(controller.cache.hits for controller in controllers)
    cache_lookups = cache_hits + sum(controller.cache.misses for controller in controllers)
    engine_stats = [controller.query_engine.stats() for controller in controllers]
    answers = sum(daemon.queries_answered.value for daemon in built.net.daemons.values())
    fresh_by_controller = []
    waits = []
    for controller in controllers:
        fresh = 0
        for record in controller.audit:
            if record.cached or record.rule_origin == "error":
                continue
            fresh += 1
            waits.append(record.query_latency)
        fresh_by_controller.append(fresh)
    total_fresh = sum(fresh_by_controller)
    rep.layer = {
        "netsim.queue_peak": float(probes.queue_peak),
        "openflow.lookup.hit_ratio": hits / lookups if lookups else 0.0,
        "openflow.table_peak": float(probes.table_peak),
        "core.decision_cache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "core.inflight_peak": float(probes.inflight_peak),
        "core.pending_peak": float(probes.pending_peak),
        "core.pending_expired": float(sum(c.pending_expired for c in controllers)),
        "core.policy_errors": float(sum(c.policy_errors for c in controllers)),
        "identpp.engine.hit_ratio": engine_hit_ratio(built),
        "identpp.engine.resident_hits": float(sum(s["resident_hits"] for s in engine_stats)),
        "identpp.engine.deltas_applied": float(sum(s["deltas_applied"] for s in engine_stats)),
        "identpp.engine.invalidations": float(sum(s["invalidation_events"] for s in engine_stats)),
        "identpp.daemon_answers_per_flow": answers / rep.opened,
        "identpp.query_wait_p50_ms": statistics.median(waits) * 1e3 if waits else 0.0,
        "cluster.owner_share_max": max(fresh_by_controller) / total_fresh if total_fresh else 0.0,
    }
