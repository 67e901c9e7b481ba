"""The query engine: caching + coalescing layer over :class:`QueryClient`.

The paper's flow-setup cost is dominated by step 3 of §2: the
controller "requests additional information from both the source and
the destination end-hosts".  Issued naively that is two fresh
round-trips per punt, so a popular server's daemon is
re-interrogated once per flow and a daemon-less legacy host (§4,
"Incremental Benefit") burns a full query timeout on every connection
attempt.  :class:`QueryEngine` sits between the controller and its
:class:`~repro.identpp.client.QueryClient` and removes that redundancy
three ways:

* an **endpoint response cache** keyed on *(host, role, key-set)* plus
  the flow's proto and target-side port (the part of the 5-tuple the
  answering socket is matched on), with a TTL and explicit
  invalidation — a daemon publishing new runtime keys, loading
  configuration, being spoofed, its host being compromised, or its
  host's socket table changing owners all push an invalidation through
  :meth:`IdentPPDaemon.add_invalidation_listener`, so stale answers
  never outlive the event that staled them;
* **in-flight coalescing** — a cached entry whose answer has not
  "arrived" yet (its ``ready_at`` is still in the simulated future)
  represents an outstanding query; concurrent punts needing the same
  endpoint's answer share it, each charged only the *remaining* wait,
  instead of issuing N identical round-trips;
* a **negative cache** — a query that timed out (no daemon, or no path
  to the host) is remembered for ``negative_ttl``, so a legacy host
  costs one timeout per TTL instead of one per flow.  Negative entries
  self-heal: a daemon appearing on the host, or any topology mutation
  (for unreachable hosts), invalidates them on the next lookup.

The query surface is asynchronous (:meth:`QueryEngine.query_async`,
:meth:`QueryEngine.query_both_ends_async`): every answer is a
:class:`~repro.netsim.events.Future` that completes on the topology's
simulator at the instant the answer is really available.

Two correctness guards bound what the cache may share:

* **Interception is per-query.**  A query carrying on-path
  interceptors bypasses the cache entirely: an interceptor's decision
  to answer, decline or augment is made per flow (§3.4), so serving a
  warm entry would silently disable the interception mechanism and
  replay another flow's augmented sections.
* **Flow-scoped answers stay flow-scoped.**  Source-side answers, and
  any destination answer the daemon reports as not shareable
  (:meth:`IdentPPDaemon.answer_is_shareable`: flow-specific runtime
  pairs, or a connected per-connection worker socket), are served only
  to re-punts of the *same* flow — one flow's identity is never
  attributed to another.  Only a listener's flow-independent answer
  (the hot-server case) is shared across flows.

A TTL of ``0`` (with the push plane off) makes the engine a
pass-through: each query goes to :meth:`QueryClient.query_async`
uncached and uncounted.  That is the default wiring, so existing
scenario timelines are unchanged; benchmarks and production configs
opt in via ``ControllerConfig.query_cache_ttl``.

**The push identity plane** (``push=True``) inverts the dataflow for
*subscribed* hosts: instead of pulling on every miss and aging answers
out by TTL, the engine registers standing interest with the host's
daemon (wire-v2 SUBSCRIBE, capability-negotiated — a legacy daemon
refuses and the pull path above applies untouched) and keeps the host's
shareable destination answers in a **resident store**.  Resident
answers are authoritative-until-delta: they never expire, punts on them
are answered at once with **zero** daemon round-trips, and when the
daemon pushes a serial-numbered :class:`IdentDelta` the engine drops
and proactively *re-primes* each resident answer off the punt path — so
convergence after an identity change costs the first post-change punt
nothing, where the TTL plane charges it a full round trip.
Unsubscribed hosts keep the PR 5 semantics above exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from typing import Callable

from repro.identpp.client import (
    QueryClient,
    QueryInterceptor,
    QueryOutcome,
    per_role_interceptors,
)
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import (
    CAP_SUBSCRIBE,
    IdentDelta,
    IdentQuery,
    IdentSubscribe,
    ROLE_DESTINATION,
    ROLE_SOURCE,
)
from repro.netsim.events import Future

#: Default TTL benchmarks/workloads use when they enable the engine.
DEFAULT_QUERY_CACHE_TTL = 30.0

#: Default idle window after which a subscribed host is demoted back to
#: the pull plane by the lifecycle sweeper.
DEFAULT_PUSH_IDLE_DEMOTE = 30.0


@dataclass
class CacheEntry:
    """One cached endpoint answer (positive or negative).

    ``ready_at`` is when the underlying query completes: before it the
    entry is *in flight* (lookups coalesce onto it, charged the
    remaining wait), after it the entry is a plain cache hit until
    ``expires_at``.
    """

    key: tuple
    host_ip: str
    outcome: QueryOutcome
    ready_at: float
    expires_at: float
    negative: bool = False
    #: Flow-scoped entries answer only re-punts of the exact flow that
    #: filled them (source-side answers, and destination answers the
    #: daemon marked not shareable) — a different flow must query fresh.
    flow_scoped: bool = False
    #: Negative entries for *unreachable* hosts are keyed on the
    #: topology epoch: any connectivity change may have restored a path,
    #: so the entry must be re-proven.
    unreachable: bool = False
    topology_epoch: int = -1
    hits: int = 0
    #: Continuations parked on an in-flight entry by the async query
    #: path: ``(future, prepared outcome)`` pairs completed together by
    #: one arrival event when the underlying answer lands at
    #: ``ready_at`` — N coalesced punts cost one event, not N timers.
    waiters: list = field(default_factory=list)
    #: Whether the shared arrival event for :attr:`waiters` is armed.
    #: Stays ``True`` after it fires: past ``ready_at`` lookups are
    #: plain hits and never enlist.
    arrival_armed: bool = False


@dataclass
class PushSubscription:
    """One standing subscription: host, daemon ref, delta position.

    ``daemon`` is a strong reference to the exact object the engine
    registered on (host-ip → daemon-ref keying, like the invalidation
    subscriptions): a *replaced* daemon on the same IP compares
    non-identical, so closing always reaches the object that holds our
    sink and can never strand a subscription on a dead daemon.
    ``serial`` is the last delta serial applied; a gap against the
    daemon's serial after failover means deltas were missed.
    """

    host_ip: str
    daemon: object
    serial: int
    subscribed_at: float
    last_hit: float
    from_node: object = None
    deltas_applied: int = 0
    duplicate_deltas: int = 0


class QueryEngine:
    """Caching, coalescing front-end for one controller's ident++ queries."""

    def __init__(
        self,
        client: QueryClient,
        *,
        ttl: float = 0.0,
        negative_ttl: Optional[float] = None,
        name: str = "query-engine",
        push: bool = False,
        push_idle_demote: float = DEFAULT_PUSH_IDLE_DEMOTE,
        push_max_subscriptions: Optional[int] = None,
    ) -> None:
        self.client = client
        self.name = name
        self.ttl = ttl
        #: Negative answers default to the positive TTL; a deployment
        #: rolling daemons out incrementally (§4) may want it shorter so
        #: newly daemon'd hosts are noticed faster.
        self.negative_ttl = negative_ttl if negative_ttl is not None else ttl
        #: The push identity plane: subscribe-and-push for hot hosts.
        self.push = push
        self.push_idle_demote = push_idle_demote
        #: Hard cap on the subscription table (bounded-state invariant);
        #: ``None`` means unbounded.
        self.push_max_subscriptions = push_max_subscriptions
        #: Called with the host IP whenever a subscription is closed, so
        #: the controller can reset that host's promotion counter (a
        #: demoted host must re-earn residency from fresh punt history).
        self.on_demote: Optional[Callable[[str], None]] = None
        self._entries: dict[tuple, CacheEntry] = {}
        # Lazily-invalidated min-heap of (expires_at, seq, key) so TTL
        # sweeps and deadline queries cost O(log n), not a full scan
        # (same pattern as core.lifecycle.ExpiryHeap; the entries dict
        # stays the source of truth, stale heap records are skipped).
        self._deadlines: list[tuple[float, int, tuple]] = []
        self._seq = itertools.count()
        # Daemons already carrying one of our invalidation listeners:
        # host IP → (daemon, listener), the daemon held strongly — a
        # *replaced* daemon on the same host compares non-identical and
        # gets a fresh subscription (an id()-based set could alias after
        # GC) — and the listener kept so it can be unregistered again.
        self._subscribed: dict[str, tuple[object, Callable[[str], None]]] = {}
        #: The resident store: never-expiring authoritative answers for
        #: subscribed hosts, keyed like :attr:`_entries` but *not* in
        #: the deadline heap (resident answers are dropped by deltas and
        #: demotion, never by a TTL sweep).
        self._resident: dict[tuple, CacheEntry] = {}
        #: Standing subscriptions by host IP.
        self._subs: dict[str, PushSubscription] = {}
        #: Daemons that refused our SUBSCRIBE (legacy, wire v1), keyed
        #: host-ip → refusing daemon object: the same object is never
        #: re-knocked, but a *replaced* (possibly upgraded) daemon is.
        self._push_refused: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.negative_hits = 0
        self.interceptor_bypasses = 0
        self.invalidation_events = 0
        self.invalidated_entries = 0
        self.expirations = 0
        self.resident_hits = 0
        self.resident_fills = 0
        self.resident_refreshes = 0
        self.deltas_applied = 0
        self.duplicate_deltas = 0
        self.subscriptions_opened = 0
        self.subscriptions_closed = 0
        self.subscriptions_adopted = 0
        self.adoptions_stale = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Return whether the engine does anything beyond pass-through."""
        return self.ttl > 0.0 or self.negative_ttl > 0.0 or self.push

    def query_async(
        self,
        flow: FlowSpec,
        role: str,
        *,
        from_node=None,
        keys: Optional[Sequence[str]] = None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> Future:
        """Dispatch one endpoint query; the answer arrives as a scheduled event.

        Takes the arguments of :meth:`QueryClient.query`; the outcome is
        delivered through a :class:`~repro.netsim.events.Future`
        completing, on the topology's simulator, at the instant the
        answer is really available:

        * a warm hit (or negative hit) completes immediately — a cached
          answer costs zero simulated time;
        * a coalescing lookup parks its continuation on the in-flight
          entry's waiter list; the one shared arrival event completes
          every waiter when the underlying round-trip lands;
        * a miss issues the real query and completes at
          ``now + outcome.latency``.

        Queries carrying interceptors bypass the cache: interception is
        a per-query decision (§3.4) a warm entry must not pre-empt.
        This is what lets the controller overlap thousands of in-flight
        round-trips instead of charging each as one opaque delay.
        """
        if not self.enabled:
            return self.client.query_async(
                flow, role, from_node=from_node, keys=keys, interceptors=interceptors
            )
        if interceptors:
            self.interceptor_bypasses += 1
            return self.client.query_async(
                flow, role, from_node=from_node, keys=keys, interceptors=interceptors
            )
        future = Future()
        now = self.client.topology.sim.now
        key = self._key(flow, role, keys)
        resident = self._resident.get(key)
        if resident is not None:
            # Subscribed host: the resident answer is authoritative and
            # costs zero round trips (or, mid-refresh, the remainder of
            # the delta-triggered re-prime already in flight).
            outcome = self._serve(resident, flow, role, keys, now)
            if outcome.coalesced:
                self._enlist(resident, future, outcome)
            else:
                self._note_resident_hit(resident, now)
                future.set_result(outcome)
            return future
        entry = self._entries.get(key)
        if entry is not None and not self._valid(entry, now):
            del self._entries[key]
            self.expirations += 1
            entry = None
        if entry is not None and entry.flow_scoped and entry.outcome.query.flow != flow:
            # Another flow's flow-scoped answer: this flow must query
            # fresh (the entry stays valid for its own flow's re-punts,
            # though a refill under the same key replaces it).
            entry = None
        if entry is not None:
            outcome = self._serve(entry, flow, role, keys, now)
            if outcome.coalesced:
                self._enlist(entry, future, outcome)
            else:
                future.set_result(outcome)
            return future
        self.misses += 1
        outcome = self.client.query(
            flow, role, from_node=from_node, keys=keys, interceptors=interceptors
        )
        self._fill(key, outcome, now)
        entry = self._entries.get(key) or self._resident.get(key)
        if entry is None or entry.ready_at <= now:
            return self.client.deliver(outcome)
        # The filler waits on the very entry it created, through the
        # same waiter list any coalescing punt joins.
        self._enlist(entry, future, outcome)
        return future

    def query_both_ends_async(
        self,
        flow: FlowSpec,
        *,
        from_node=None,
        keys: Optional[Sequence[str]] = None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> tuple[Future, Future]:
        """Dispatch both endpoint queries of ``flow`` (§2 step 3).

        Returns ``(src_future, dst_future)``, one per endpoint, so the
        caller can react to the faster answer without waiting for the
        slower one.  ``interceptors`` are given ordered from the querier
        toward the flow's **destination**; the source-side query walks
        them reversed (see :func:`per_role_interceptors`).
        """
        toward_source, toward_destination = per_role_interceptors(interceptors)
        src_future = self.query_async(
            flow, ROLE_SOURCE, from_node=from_node, keys=keys,
            interceptors=toward_source,
        )
        dst_future = self.query_async(
            flow, ROLE_DESTINATION, from_node=from_node, keys=keys,
            interceptors=toward_destination,
        )
        return src_future, dst_future

    def _enlist(self, entry: CacheEntry, future: Future, outcome: QueryOutcome) -> None:
        """Park a continuation on an in-flight entry's waiter list."""
        entry.waiters.append((future, outcome))
        if not entry.arrival_armed:
            entry.arrival_armed = True
            sim = self.client.topology.sim
            sim.schedule(
                entry.ready_at - sim.now, self._arrival_fired, entry,
                label="identpp:answer-shared",
            )

    def _arrival_fired(self, entry: CacheEntry) -> None:
        """The shared answer landed: complete every parked continuation.

        Holds the entry object, not its key, so waiters still complete
        if the entry was invalidated or replaced mid-flight — the answer
        was already on the wire when the invalidation happened, and a
        punt that joined the round-trip must not hang on it.
        """
        waiters, entry.waiters = entry.waiters, []
        for future, outcome in waiters:
            future.set_result(outcome)

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------

    def _now(self, now: Optional[float]) -> float:
        return now if now is not None else self.client.topology.sim.now

    def _key(self, flow: FlowSpec, role: str, keys: Optional[Sequence[str]]) -> tuple:
        """Return the cache key: (host, role, key-set) + target proto/port.

        The proto and target-side port are part of the key because they
        select the answering socket: every client hitting
        ``server:80/tcp`` shares the listener's answer (the hot-server
        win), while ``server:443`` is a different listener and a
        different entry.  On the source side the target port is the
        flow's ephemeral source port, which makes source entries
        effectively per-flow — a source answer names the one process
        that opened the connection and must not leak across flows.
        """
        key_hint = tuple(keys) if keys is not None else self.client.default_keys
        target_ip = flow.src_ip if role == ROLE_SOURCE else flow.dst_ip
        target_port = flow.src_port if role == ROLE_SOURCE else flow.dst_port
        return (str(target_ip), role, key_hint, flow.proto, target_port)

    def _valid(self, entry: CacheEntry, now: float) -> bool:
        if now >= entry.expires_at:
            return False
        if entry.negative:
            if entry.unreachable:
                # Any topology change may have restored the path.
                return entry.topology_epoch == self.client.topology.mutation_epoch
            # A daemon deployed mid-TTL must be noticed immediately, not
            # after the negative entry ages out (§4 incremental benefit).
            host = self.client.topology.node_for_ip(entry.host_ip)
            if getattr(host, "identpp_daemon", None) is not None:
                return False
        return True

    def _serve(
        self,
        entry: CacheEntry,
        flow: FlowSpec,
        role: str,
        keys: Optional[Sequence[str]],
        now: float,
    ) -> QueryOutcome:
        """Build the outcome a cached (or in-flight) entry answers with."""
        entry.hits += 1
        query = IdentQuery(
            flow=flow,
            target_role=role,
            keys=tuple(keys) if keys is not None else self.client.default_keys,
        )
        template = entry.outcome
        if entry.ready_at > now:
            # The underlying query is still outstanding: coalesce onto
            # it.  This punt waits only for the remainder, and the one
            # real round-trip serves everyone.
            self.coalesced += 1
            return QueryOutcome(
                query=query,
                response=template.response,
                latency=entry.ready_at - now,
                answered_by=template.answered_by,
                timed_out=template.timed_out,
                unreachable=template.unreachable,
                coalesced=True,
                augmented_by=list(template.augmented_by),
            )
        if entry.negative:
            self.negative_hits += 1
            return QueryOutcome(
                query=query,
                response=None,
                latency=0.0,
                timed_out=True,
                unreachable=template.unreachable,
                cached=True,
            )
        self.hits += 1
        return QueryOutcome(
            query=query,
            response=template.response,
            latency=0.0,
            answered_by=template.answered_by,
            cached=True,
            augmented_by=list(template.augmented_by),
        )

    def _fill(self, key: tuple, outcome: QueryOutcome, now: float) -> None:
        """Remember a fresh outcome (and subscribe to its invalidation)."""
        if outcome.intercepted:
            return
        host_ip = key[0]
        ready_at = now + outcome.latency
        if outcome.timed_out:
            if self.negative_ttl <= 0.0:
                return
            expires_at = ready_at + self.negative_ttl
            self._entries[key] = CacheEntry(
                key=key,
                host_ip=host_ip,
                outcome=outcome,
                ready_at=ready_at,
                expires_at=expires_at,
                negative=True,
                unreachable=outcome.unreachable,
                topology_epoch=self.client.topology.mutation_epoch,
            )
            heapq.heappush(self._deadlines, (expires_at, next(self._seq), key))
            return
        if self.ttl <= 0.0 and not self.push:
            return
        daemon = getattr(self.client.topology.node_for_ip(host_ip), "identpp_daemon", None)
        # Source answers name the one process that opened the flow, and
        # a destination answer may carry flow-published pairs or a
        # per-connection worker's identity: such entries serve only
        # their own flow.  A listener's flow-independent answer shares.
        flow_scoped = (
            outcome.query.target_role == ROLE_SOURCE
            or daemon is None
            or not daemon.answer_is_shareable(outcome.query)
        )
        if self.push and not flow_scoped and host_ip in self._subs:
            # Subscribed host: the fresh shareable answer becomes
            # *resident* — authoritative until the daemon pushes a
            # delta, never TTL-expired, kept out of the deadline heap.
            self._resident[key] = CacheEntry(
                key=key,
                host_ip=host_ip,
                outcome=outcome,
                ready_at=ready_at,
                expires_at=float("inf"),
            )
            self.resident_fills += 1
            self._subscribe(host_ip, daemon)
            return
        if self.ttl <= 0.0:
            return
        expires_at = ready_at + self.ttl
        self._entries[key] = CacheEntry(
            key=key,
            host_ip=host_ip,
            outcome=outcome,
            ready_at=ready_at,
            expires_at=expires_at,
            flow_scoped=flow_scoped,
        )
        heapq.heappush(self._deadlines, (expires_at, next(self._seq), key))
        if daemon is not None:
            self._subscribe(host_ip, daemon)

    def _note_resident_hit(self, entry: CacheEntry, now: float) -> None:
        """Count one resident-store hit and refresh the host's idle clock."""
        self.resident_hits += 1
        sub = self._subs.get(entry.host_ip)
        if sub is not None:
            sub.last_hit = now

    def _subscribe(self, host_ip: str, daemon) -> None:
        """Hook this engine into the answering daemon's invalidation fan-out."""
        ip = str(host_ip)
        current = self._subscribed.get(ip)
        if current is not None and current[0] is daemon:
            return
        if current is not None:
            # The host's daemon was replaced: unhook from the old object
            # so it cannot strand a listener on the dead daemon.
            current[0].remove_invalidation_listener(current[1])

        def listener(reason: str, _ip=ip) -> None:
            self.invalidate_host(_ip, reason)

        self._subscribed[ip] = (daemon, listener)
        daemon.add_invalidation_listener(listener)

    def _unlisten(self, host_ip: str) -> None:
        """Unregister this engine's invalidation listener from one daemon."""
        record = self._subscribed.pop(str(host_ip), None)
        if record is not None:
            daemon, listener = record
            daemon.remove_invalidation_listener(listener)

    # ------------------------------------------------------------------
    # Push plane: standing subscriptions + the resident store
    # ------------------------------------------------------------------

    def subscribe_host(
        self, host_ip, *, from_node=None, now: Optional[float] = None
    ) -> bool:
        """Open (or confirm) a standing subscription on one host's daemon.

        Returns ``True`` when the host is subscribed after the call.
        Refusals — push plane off, no daemon on the host, a legacy
        wire-v1 daemon, or the subscription table at
        :attr:`push_max_subscriptions` — return ``False``.  A refusing
        daemon *object* is remembered and never re-knocked, but a
        replaced (possibly upgraded) daemon on the same IP gets a fresh
        attempt, mirroring the host-ip → daemon-ref keying of the
        invalidation listeners.
        """
        if not self.push:
            return False
        ip = str(host_ip)
        daemon = getattr(self.client.topology.node_for_ip(ip), "identpp_daemon", None)
        if daemon is None:
            return False
        now = self._now(now)
        existing = self._subs.get(ip)
        if existing is not None:
            if existing.daemon is daemon:
                return True
            # The daemon was replaced: our delta sink lives on an object
            # no longer attached to the host.  Close the dead
            # subscription (and its now-unauthoritative answers) and
            # negotiate with the new daemon from scratch.
            existing.daemon.unsubscribe(self.name)
            self._drop_resident(ip)
            del self._subs[ip]
        if self._push_refused.get(ip) is daemon:
            return False
        if (
            self.push_max_subscriptions is not None
            and len(self._subs) >= self.push_max_subscriptions
        ):
            return False
        ack = daemon.subscribe(
            IdentSubscribe(
                host_ip=ip, subscriber=self.name, keys=self.client.default_keys
            ),
            self._on_delta,
        )
        if not ack.accepted or CAP_SUBSCRIBE not in ack.capabilities:
            self._push_refused[ip] = daemon
            return False
        self._subs[ip] = PushSubscription(
            host_ip=ip,
            daemon=daemon,
            serial=ack.serial,
            subscribed_at=now,
            last_hit=now,
            from_node=from_node,
        )
        self.subscriptions_opened += 1
        self._subscribe(ip, daemon)
        # Shareable answers fetched just before the promotion are still
        # authoritative — any daemon event since their fill would have
        # dropped them through the invalidation listener — so upgrade
        # them in place.  The flash-crowd case depends on this: the hot
        # answer usually fills on the punt *before* the one that trips
        # the promotion threshold, and without the upgrade the first
        # steady-state wave would pay one more TTL round-trip.
        for key, entry in list(self._entries.items()):
            if entry.host_ip != ip or entry.negative or entry.flow_scoped:
                continue
            if now >= entry.expires_at:
                continue
            del self._entries[key]
            entry.expires_at = float("inf")
            self._resident[key] = entry
            self.resident_fills += 1
        return True

    def unsubscribe_host(self, host_ip) -> bool:
        """Close a standing subscription and drop its resident answers.

        The daemon-side delta sink is always cancelled, and when the
        host has no TTL entries left either, the invalidation listener
        is unregistered too — a demoted host strands nothing on its
        daemon (the stale-subscription leak fix).  Fires
        :attr:`on_demote` so the controller can reset the host's
        promotion counter.  Returns ``True`` when a subscription
        existed.
        """
        ip = str(host_ip)
        sub = self._subs.pop(ip, None)
        if sub is None:
            return False
        sub.daemon.unsubscribe(self.name)
        self._drop_resident(ip)
        if not any(entry.host_ip == ip for entry in self._entries.values()):
            self._unlisten(ip)
        self.subscriptions_closed += 1
        if self.on_demote is not None:
            self.on_demote(ip)
        return True

    def _drop_resident(self, host_ip: str) -> int:
        """Evict one host's resident answers; returns how many."""
        ip = str(host_ip)
        stale = [key for key, entry in self._resident.items() if entry.host_ip == ip]
        for key in stale:
            del self._resident[key]
        return len(stale)

    def _on_delta(self, delta: IdentDelta) -> None:
        """Apply one pushed delta: drop + proactively re-prime residents.

        Deltas are serial-numbered by the daemon; one at or below the
        subscription's last applied serial is a duplicate (e.g.
        re-delivered around a failover re-home) and is dropped — the
        refresh it would trigger already happened.
        """
        sub = self._subs.get(str(delta.host_ip))
        if sub is None:
            return
        if delta.serial <= sub.serial:
            self.duplicate_deltas += 1
            sub.duplicate_deltas += 1
            return
        sub.serial = delta.serial
        sub.deltas_applied += 1
        self.deltas_applied += 1
        now = self._now(None)
        for entry in [e for e in self._resident.values() if e.host_ip == sub.host_ip]:
            self._refresh_resident(sub, entry, now)

    def _refresh_resident(
        self, sub: PushSubscription, entry: CacheEntry, now: float
    ) -> None:
        """Replace one resident answer off the punt path.

        The re-query is issued the instant the delta arrives, so by the
        time the next punt lands the refreshed answer is either ready
        (zero wait) or still in flight (the punt coalesces onto the
        remainder) — this is what makes push convergence beat the TTL
        plane, whose first post-change punt pays the full round trip.
        An answer that stopped being shareable (or a vanished daemon)
        ends residency for that key; the pull path takes over.
        """
        self.resident_refreshes += 1
        query = entry.outcome.query
        outcome = self.client.query(
            query.flow, query.target_role, from_node=sub.from_node, keys=query.keys
        )
        daemon = getattr(
            self.client.topology.node_for_ip(entry.host_ip), "identpp_daemon", None
        )
        if (
            outcome.timed_out
            or outcome.intercepted
            or daemon is None
            or not daemon.answer_is_shareable(outcome.query)
        ):
            self._resident.pop(entry.key, None)
            return
        self._resident[entry.key] = CacheEntry(
            key=entry.key,
            host_ip=entry.host_ip,
            outcome=outcome,
            ready_at=now + outcome.latency,
            expires_at=float("inf"),
        )

    def demote_idle(self, now: float) -> int:
        """Demote subscriptions idle past ``push_idle_demote`` (sweep hook)."""
        if not self.push:
            return 0
        idle = [
            ip
            for ip, sub in self._subs.items()
            if now - max(sub.last_hit, sub.subscribed_at) >= self.push_idle_demote
        ]
        for ip in idle:
            self.unsubscribe_host(ip)
        return len(idle)

    def demotable_count(self) -> int:
        """Return how many subscriptions a sweep could ever demote."""
        return len(self._subs)

    def next_demotion(self) -> Optional[float]:
        """Return the earliest instant a subscription can go idle-demoted."""
        if not self._subs:
            return None
        return min(
            max(sub.last_hit, sub.subscribed_at) + self.push_idle_demote
            for sub in self._subs.values()
        )

    # ------------------------------------------------------------------
    # Push plane: failover hand-off
    # ------------------------------------------------------------------

    def export_push_state(self) -> list[dict]:
        """Tear down every subscription for failover hand-off.

        Returns one record per subscription — host, last applied delta
        serial, the querying node and the resident entries — in the
        shape :meth:`adopt_push_state` consumes on the successor shard.
        The dying engine's delta sinks and invalidation listeners are
        all unregistered, so re-homing never leaves a daemon streaming
        deltas at a dead shard.
        """
        records: list[dict] = []
        for ip in list(self._subs):
            sub = self._subs.pop(ip)
            sub.daemon.unsubscribe(self.name)
            entries = [
                self._resident.pop(key)
                for key, entry in list(self._resident.items())
                if entry.host_ip == ip
            ]
            self._unlisten(ip)
            records.append(
                {
                    "host_ip": ip,
                    "serial": sub.serial,
                    "from_node": sub.from_node,
                    "entries": entries,
                }
            )
        return records

    def adopt_push_state(self, records, *, now: Optional[float] = None) -> int:
        """Re-home exported subscriptions onto this engine (failover).

        For each record the successor opens its *own* subscription, then
        compares delta serials: if the daemon published nothing since
        the dead shard's last applied delta, the exported resident
        answers install verbatim (no deltas were lost, and the serial
        guard in :meth:`_on_delta` rejects any replayed ones); if the
        serials diverged, the answers are conservatively re-primed
        through :meth:`_refresh_resident`, so the successor is resident
        — or resident-in-flight — before the re-punted backlog arrives.
        Returns how many subscriptions were adopted.
        """
        if not self.push:
            return 0
        now = self._now(now)
        adopted = 0
        for record in records:
            ip = str(record["host_ip"])
            if not self.subscribe_host(ip, from_node=record.get("from_node"), now=now):
                continue
            adopted += 1
            self.subscriptions_adopted += 1
            sub = self._subs[ip]
            fresh = sub.serial == record["serial"]
            if not fresh:
                self.adoptions_stale += 1
            for entry in record["entries"]:
                # The dead engine's parked continuations must not
                # transfer: its futures belong to decision tasks that
                # were exported separately (or died with the shard).
                entry.waiters = []
                entry.arrival_armed = False
                self._resident[entry.key] = entry
                if not fresh:
                    self._refresh_resident(sub, entry, now)
        return adopted

    # ------------------------------------------------------------------
    # Invalidation + expiry
    # ------------------------------------------------------------------

    def invalidate_host(self, host_ip, reason: str = "") -> int:
        """Drop every entry (cached or in flight) for one host.

        Called by daemon-side events — runtime-key publishes, socket
        owner changes, spoofing, host compromise — and usable directly
        by an administrator.  Returns how many entries were removed.

        A *subscribed* host's resident answers are left in place: they
        are authoritative-until-delta, and every daemon event that calls
        this also publishes a delta that drops and re-primes them.
        Administrative invalidation of a subscribed host must therefore
        go through :meth:`unsubscribe_host` first, as
        ``Controller.quarantine_host`` does.
        """
        ip = str(host_ip)
        stale = [key for key, entry in self._entries.items() if entry.host_ip == ip]
        for key in stale:
            del self._entries[key]
        removed = len(stale)
        if ip not in self._subs:
            removed += self._drop_resident(ip)
        self.invalidation_events += 1
        self.invalidated_entries += removed
        return removed

    def clear(self) -> int:
        """Drop every entry (TTL and resident); returns how many were removed.

        Subscriptions stay open: the next punt on a subscribed host
        re-primes its resident answers.
        """
        removed = len(self._entries) + len(self._resident)
        self._entries.clear()
        self._resident.clear()
        self._deadlines.clear()
        return removed

    def expire(self, now: float) -> int:
        """Reclaim entries past their TTL (lifecycle-sweep hook).

        Heap-driven: costs ``O(expired log n)``, not a full scan.
        Popped deadlines whose entry was already invalidated, refreshed
        or lookup-expired are skipped (lazy invalidation).
        """
        removed = 0
        heap = self._deadlines
        while heap and heap[0][0] <= now:
            due, _, key = heapq.heappop(heap)
            entry = self._entries.get(key)
            if entry is not None and entry.expires_at == due:
                del self._entries[key]
                removed += 1
        self.expirations += removed
        return removed

    def expirable_count(self) -> int:
        """Return how many entries a sweep could ever reclaim."""
        return len(self._entries)

    def next_expiry(self) -> Optional[float]:
        """Return the earliest live entry deadline (lifecycle scheduling hook)."""
        heap = self._deadlines
        while heap:
            due, _, key = heap[0]
            entry = self._entries.get(key)
            if entry is None or entry.expires_at != due:
                heapq.heappop(heap)
                continue
            return due
        return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def lookups(self) -> int:
        """Return how many queries were requested through the engine."""
        return self.hits + self.misses + self.coalesced + self.negative_hits

    def subscription_count(self) -> int:
        """Return how many standing push subscriptions are open."""
        return len(self._subs)

    def is_subscribed(self, host_ip) -> bool:
        """Return whether ``host_ip`` has a standing push subscription."""
        return str(host_ip) in self._subs

    def push_telemetry(self) -> dict[str, float]:
        """Return the push-plane probe values (cheap, sampled per tick)."""
        total = self.lookups()
        return {
            "resident_ratio": self.resident_hits / total if total else 0.0,
            "subscriptions": float(len(self._subs)),
            "deltas_applied": float(self.deltas_applied),
        }

    def telemetry_ratios(self) -> dict[str, float]:
        """Return just the hit/negative/coalesce ratios.

        The telemetry plane samples these every tick; :meth:`stats`
        builds a 17-key dict per call, which is report material, not
        probe material.
        """
        total = self.lookups()
        if not total:
            return {"hit_rate": 0.0, "negative_hit_rate": 0.0, "coalesce_rate": 0.0}
        return {
            "hit_rate": self.hits / total,
            "negative_hit_rate": self.negative_hits / total,
            "coalesce_rate": self.coalesced / total,
        }

    def stats(self) -> dict[str, object]:
        """Return headline numbers (surfaced by ``Controller.summary()``)."""
        total = self.lookups()

        def rate(count: int) -> float:
            return count / total if total else 0.0

        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "lookups": total,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "negative_hits": self.negative_hits,
            "interceptor_bypasses": self.interceptor_bypasses,
            "hit_rate": rate(self.hits),
            "coalesce_rate": rate(self.coalesced),
            "negative_hit_rate": rate(self.negative_hits),
            "invalidation_events": self.invalidation_events,
            "invalidated_entries": self.invalidated_entries,
            "expirations": self.expirations,
            "ttl": self.ttl,
            "negative_ttl": self.negative_ttl,
            "push": self.push,
            "resident_entries": len(self._resident),
            "subscriptions": len(self._subs),
            "resident_hits": self.resident_hits,
            "resident_fills": self.resident_fills,
            "resident_refreshes": self.resident_refreshes,
            "resident_hit_rate": rate(self.resident_hits),
            "deltas_applied": self.deltas_applied,
            "duplicate_deltas": self.duplicate_deltas,
            "subscriptions_opened": self.subscriptions_opened,
            "subscriptions_closed": self.subscriptions_closed,
            "subscriptions_adopted": self.subscriptions_adopted,
            "adoptions_stale": self.adoptions_stale,
        }

    def __repr__(self) -> str:
        return (
            f"QueryEngine({self.name!r}, ttl={self.ttl}, "
            f"entries={len(self._entries)})"
        )
