"""The benchmark's three workloads, built through the public builder API.

Each workload is an open loop in virtual time: :meth:`Workload.plan`
draws every flow's opening instant, endpoints, application, user and
expected verdict from the seed before the network exists, and the
generator opens each flow at its planned instant whatever the
controller is doing.  The generator shares the simulator clock, so it
never runs late; a backlog shows as first-packet tail latency and as
pending/in-flight peaks instead.

Only public API is used: ``IdentPPNetwork`` / ``IdentPPClusterNetwork``,
``HostSpec``, ``EndHost.open_flow`` and ``net.run``, plus public
counters and accessors for the probes.  No ``ControllerConfig`` knob
that selects between two decision-core implementations is set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.hosts.applications import Application

#: Flows opened per workload run: enough that at least ten first-packet
#: samples lie beyond the 99.9th percentile.
FLOWS = 10_000

#: Virtual seconds after opening a flow at which its client reaps the
#: socket and process (well after any verdict lands).
REAP_AFTER = 0.2

HTTP_PORT = 80

#: First-packet payload sizes (bytes), drawn uniformly per flow: the
#: packet's serialisation delay on every hop varies with it.
PAYLOAD_SIZES = (64, 1460)


@dataclass(frozen=True)
class FlowPlan:
    """One planned flow: when it opens, between whom, and its verdict."""

    at: float
    client: int
    server: int
    port: int
    app: str
    user: str
    payload_size: int
    expect_pass: bool


@dataclass(frozen=True)
class Action:
    """A planned background operation (publish, reload, revoke)."""

    at: float
    kind: str
    target: int


@dataclass
class Built:
    """A freshly built network plus the handles the generator drives."""

    net: IdentPPNetwork
    clients: list
    servers: list
    #: The listening process of each server (identity publishes target it).
    server_processes: list = field(default_factory=list)
    telemetry: Optional[object] = None

    @property
    def sim(self):
        return self.net.topology.sim


def single_threaded_daemons(net: IdentPPNetwork) -> None:
    """Make every daemon answer one query at a time (§3.5's userspace daemon).

    Concurrent queries to one host then queue, so first-packet latency
    carries the waits the arrival pattern causes.
    """
    for daemon in net.daemons.values():
        daemon.serialize = True


def poisson_instants(rng: random.Random, count: int, rate: float) -> list[float]:
    """Return ``count`` arrival instants of a Poisson process at ``rate``/s."""
    now = 0.0
    instants = []
    for _ in range(count):
        now += rng.expovariate(rate)
        instants.append(now)
    return instants


class Workload:
    """Base class: subclasses build the network and plan the traffic."""

    name = ""
    why = ""
    #: Offered load in flows per virtual second (open loop, Poisson).
    rate = 1000.0
    flows = FLOWS

    def build(self) -> Built:
        raise NotImplementedError

    def plan(self, rng: random.Random) -> list[FlowPlan]:
        raise NotImplementedError

    def actions(self, rng: random.Random, horizon: float) -> list[Action]:
        """Return background operations to run beside the flows."""
        return []

    def apply(self, built: Built, action: Action, rng: random.Random) -> None:
        raise NotImplementedError

    def start(self, built: Built, horizon: float) -> None:
        """Arm anything that must run for the whole traffic window."""

    def properties(self, built: Built, probes: "Probes") -> dict[str, float]:
        """Return the measured property that justifies this workload."""
        return {}


# ----------------------------------------------------------------------
# churn: flow-table and daemon/wire workload
# ----------------------------------------------------------------------


class Churn(Workload):
    """Unique short-lived flows through one controller on an edge-core pair."""

    name = "churn"
    why = ("unique short-lived flows with idle timeouts and sweeps keep switch "
           "tables full, so install/expire/remove run beside lookup; every punt "
           "queries both daemons (no query cache)")
    rate = 700.0
    clients = 32
    servers = 8
    blocked_share = 0.2
    blocked_port = 8080

    def build(self) -> Built:
        config = ControllerConfig(
            query_cache_ttl=0.0,
            idle_timeout=0.075,
            decision_ttl=0.5,
            state_timeout=0.5,
            lifecycle_interval=0.05,
        )
        net = IdentPPNetwork("churn", policy_default_action="block", controller_config=config)
        edge = net.add_switch("sw-edge")
        core = net.add_switch("sw-core")
        net.connect(edge, core)
        clients = [
            net.add_host(
                HostSpec(name=f"client{i}", ip=f"10.0.{i // 250}.{1 + i % 250}",
                         users={"alice": ("users",)}),
                switch=edge,
            )
            for i in range(self.clients)
        ]
        servers, processes = [], []
        for i in range(self.servers):
            server = net.add_host(HostSpec(name=f"server{i}", ip=f"10.1.0.{1 + i}"), switch=core)
            process, _socket = server.run_server("httpd", "root", HTTP_PORT)
            servers.append(server)
            processes.append(process)
        net.set_policy({"00-churn.control": (
            "block all\n"
            f"pass from any to any port {HTTP_PORT} keep state\n"
        )})
        net.controller.policy.evaluator.compiled  # compile during set-up
        single_threaded_daemons(net)
        return Built(net=net, clients=clients, servers=servers, server_processes=processes)

    def plan(self, rng: random.Random) -> list[FlowPlan]:
        plans = []
        for at in poisson_instants(rng, self.flows, self.rate):
            blocked = rng.random() < self.blocked_share
            plans.append(FlowPlan(
                at=at,
                client=rng.randrange(self.clients),
                server=rng.randrange(self.servers),
                port=self.blocked_port if blocked else HTTP_PORT,
                app="http",
                user="alice",
                payload_size=rng.randint(*PAYLOAD_SIZES),
                expect_pass=not blocked,
            ))
        return plans

    def properties(self, built: Built, probes: "Probes") -> dict[str, float]:
        return {"openflow.table_peak": float(probes.table_peak)}


# ----------------------------------------------------------------------
# flash_crowd: query-engine workload
# ----------------------------------------------------------------------


class FlashCrowd(Workload):
    """Many clients hit a few hot servers over the push identity plane."""

    name = "flash_crowd"
    why = ("many clients hit 3 hot servers through the query engine (push plane, "
           "TTL cache) while the servers publish identity changes; switch tables stay small")
    rate = 1000.0
    clients = 64
    servers = 3
    #: User → allowed?  The policy passes members of group ``staff``.
    users = {"alice": True, "bob": True, "carol": True, "mallory": False}
    user_weights = (0.35, 0.25, 0.25, 0.15)
    #: Mean virtual seconds between identity publishes on the servers.
    publish_gap = 0.25

    def build(self) -> Built:
        config = ControllerConfig(
            query_cache_ttl=0.25,
            identity_plane="push",
            push_promote_punts=3,
            idle_timeout=0.01,
            decision_ttl=0.5,
            state_timeout=0.5,
            lifecycle_interval=0.05,
        )
        net = IdentPPNetwork("flash", policy_default_action="block", controller_config=config)
        edge = net.add_switch("sw-edge")
        core = net.add_switch("sw-core")
        net.connect(edge, core)
        accounts = {
            user: ("users", "staff") if allowed else ("users",)
            for user, allowed in self.users.items()
        }
        clients = [
            net.add_host(
                HostSpec(name=f"client{i}", ip=f"10.0.{i // 250}.{1 + i % 250}", users=accounts),
                switch=edge,
            )
            for i in range(self.clients)
        ]
        servers, processes = [], []
        for i in range(self.servers):
            server = net.add_host(HostSpec(name=f"server{i}", ip=f"10.1.0.{1 + i}"), switch=core)
            process, _socket = server.run_server("httpd", "root", HTTP_PORT)
            servers.append(server)
            processes.append(process)
        net.set_policy({"00-flash.control": (
            "block all\n"
            f"pass from any to any port {HTTP_PORT} with member(@src[groupID], staff)\n"
        )})
        net.controller.policy.evaluator.compiled
        single_threaded_daemons(net)
        return Built(net=net, clients=clients, servers=servers, server_processes=processes)

    def plan(self, rng: random.Random) -> list[FlowPlan]:
        names = list(self.users)
        plans = []
        for at in poisson_instants(rng, self.flows, self.rate):
            user = rng.choices(names, weights=self.user_weights)[0]
            plans.append(FlowPlan(
                at=at,
                client=rng.randrange(self.clients),
                server=rng.randrange(self.servers),
                port=HTTP_PORT,
                app="http",
                user=user,
                payload_size=rng.randint(*PAYLOAD_SIZES),
                expect_pass=self.users[user],
            ))
        return plans

    def actions(self, rng: random.Random, horizon: float) -> list[Action]:
        return [
            Action(at=at, kind="publish", target=rng.randrange(self.servers))
            for at in poisson_instants(rng, max(1, int(horizon / self.publish_gap)), 1 / self.publish_gap)
            if at < horizon
        ]

    def apply(self, built: Built, action: Action, rng: random.Random) -> None:
        server = built.servers[action.target]
        built.net.daemon(server.name).runtime.publish_for_process(
            built.server_processes[action.target],
            {"build": str(rng.randrange(1_000_000))},
        )

    def properties(self, built: Built, probes: "Probes") -> dict[str, float]:
        return {"identpp.engine.hit_ratio": engine_hit_ratio(built)}


# ----------------------------------------------------------------------
# policy_cluster: evaluator/compiler, cluster-routing and telemetry workload
# ----------------------------------------------------------------------


class PolicyCluster(Workload):
    """A 4-shard cluster on a spine-leaf fabric with a ~2000-rule policy."""

    name = "policy_cluster"
    why = ("a 2000-rule name-gated ruleset on 4 shards over a 2-spine/4-leaf fabric "
           "(3-hop installs) with telemetry sampling, policy reloads and revocations")
    rate = 800.0
    shards = 4
    clients = 32
    servers = 8
    ports = 100
    apps_with_rules = 20
    #: Applications installed on clients but named by no rule.
    apps_without_rules = 4
    #: Every ``deny_every``-th rule blocks instead of passing.
    deny_every = 5
    reloads = 1
    revocations = 5

    def _rule_action(self, app: int, port_index: int) -> Optional[str]:
        """Return the action of the one rule naming ``(app, port)``, if any."""
        if app >= self.apps_with_rules:
            return None
        index = app * self.ports + port_index
        return "block" if index % self.deny_every == self.deny_every - 1 else "pass"

    def policy_text(self) -> str:
        lines = ["block all"]
        for app in range(self.apps_with_rules):
            for port_index in range(self.ports):
                action = self._rule_action(app, port_index)
                lines.append(
                    f"{action} from any to 10.9.0.0/16 port {2000 + port_index} "
                    f"with eq(@src[name], app{app})"
                )
        return "\n".join(lines) + "\n"

    def build(self) -> Built:
        config = ControllerConfig(
            idle_timeout=0.03,
            decision_ttl=0.5,
            state_timeout=0.5,
            lifecycle_interval=0.05,
        )
        net = IdentPPClusterNetwork(
            "cluster", shards=self.shards, controller_config=config,
            policy_default_action="block",
        )
        fabric = net.add_spine_leaf_fabric(spines=2, leaves=4)
        apps = [
            Application(name=f"app{k}", path=f"/usr/bin/app{k}")
            for k in range(self.apps_with_rules + self.apps_without_rules)
        ]
        clients = [
            net.add_host(
                HostSpec(name=f"client{i}", ip=f"10.0.{i // 250}.{1 + i % 250}",
                         users={"alice": ("users",)}, applications=apps),
                switch=fabric.leaves[i % 2],
            )
            for i in range(self.clients)
        ]
        servers = [
            net.add_host(HostSpec(name=f"server{i}", ip=f"10.9.0.{1 + i}"),
                         switch=fabric.leaves[2 + i % 2])
            for i in range(self.servers)
        ]
        net.set_policy({"00-rules.control": self.policy_text()})
        for controller in net.cluster.replicas.values():
            controller.policy.evaluator.compiled
        telemetry = net.enable_telemetry(auto_quarantine=False)
        single_threaded_daemons(net)
        return Built(net=net, clients=clients, servers=servers, telemetry=telemetry)

    def plan(self, rng: random.Random) -> list[FlowPlan]:
        apps = self.apps_with_rules + self.apps_without_rules
        plans = []
        for at in poisson_instants(rng, self.flows, self.rate):
            app = rng.randrange(apps)
            port_index = rng.randrange(self.ports)
            plans.append(FlowPlan(
                at=at,
                client=rng.randrange(self.clients),
                server=rng.randrange(self.servers),
                port=2000 + port_index,
                app=f"app{app}",
                user="alice",
                payload_size=rng.randint(*PAYLOAD_SIZES),
                expect_pass=self._rule_action(app, port_index) == "pass",
            ))
        return plans

    def actions(self, rng: random.Random, horizon: float) -> list[Action]:
        planned = [Action(at=rng.uniform(0.2, 0.8) * horizon, kind="reload", target=n)
                   for n in range(self.reloads)]
        planned += [Action(at=rng.uniform(0.1, 0.9) * horizon, kind="revoke",
                           target=rng.randrange(self.shards))
                    for _ in range(self.revocations)]
        return sorted(planned, key=lambda action: action.at)

    def apply(self, built: Built, action: Action, rng: random.Random) -> None:
        if action.kind == "reload":
            # A rule no planned flow can match: verdicts stay predictable
            # while every shard re-parses the ruleset and recompiles it on
            # its next evaluation.
            built.net.set_policy({f"50-reload-{action.target}.control": (
                f"block from any to 10.250.{action.target}.0/24 port 9\n"
            )})
            return
        controller = list(built.net.cluster.replicas.values())[action.target]
        records = controller.audit.records()
        for record in reversed(records):
            if record.is_pass and not record.cached and record.time < built.sim.now - 0.01:
                controller.revoke_decision(record.cookie)
                return

    def start(self, built: Built, horizon: float) -> None:
        built.telemetry.start()
        built.sim.schedule_at(horizon + 0.05, built.telemetry.stop, label="bench:telemetry-stop")

    def properties(self, built: Built, probes: "Probes") -> dict[str, float]:
        first = next(iter(built.net.cluster.replicas.values()))
        return {
            "pf.rule_count": float(first.policy.rule_count()),
            "cluster.shards": float(len(built.net.cluster.replicas)),
        }


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "churn": Churn,
    "flash_crowd": FlashCrowd,
    "policy_cluster": PolicyCluster,
}


# ----------------------------------------------------------------------
# Probes sampled at every flow arrival
# ----------------------------------------------------------------------


@dataclass
class Probes:
    """Peaks sampled at each flow arrival through public accessors."""

    queue_peak: int = 0
    table_peak: int = 0
    inflight_peak: int = 0
    pending_peak: int = 0

    def sample(self, built: Built) -> None:
        self.queue_peak = max(self.queue_peak, built.sim.pending())
        for switch in built.net.switches.values():
            self.table_peak = max(self.table_peak, len(switch.flow_table))
        inflight = pending = 0
        for controller in built.net.controllers.values():
            inflight += controller.inflight_count()
            pending += controller.pending_depth()
        self.inflight_peak = max(self.inflight_peak, inflight)
        self.pending_peak = max(self.pending_peak, pending)


def engine_hit_ratio(built: Built) -> float:
    """Cache, resident and coalesced hits over engine lookups.

    ``QueryEngine.stats()["hits"]`` already counts resident-store hits
    (``resident_hits`` is its subset), so hits plus coalesced covers all three.
    """
    hits = lookups = 0
    for controller in built.net.controllers.values():
        stats = controller.query_engine.stats()
        hits += stats["hits"] + stats["coalesced"]
        lookups += stats["lookups"]
    return hits / lookups if lookups else 0.0


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Return the ``q`` quantile of ascending ``sorted_values`` by nearest rank."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """Return how many of ``count`` samples lie above the nearest-rank ``q`` quantile."""
    return count - max(1, math.ceil(q * count))
