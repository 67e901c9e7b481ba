"""Priority flow tables with timeouts and counters.

"The flow table in an OpenFlow switch maps from the 10-tuple definition
of a flow to an action to be taken on packets belonging to that flow"
(§3.1).  Decisions made by the controller are *cached* here, so the flow
table is also the ident++ decision cache whose effectiveness experiment
E11 measures.

The table is a tuple-space classifier (Srinivasan, Suri & Varghese,
SIGCOMM '99; the Open vSwitch classifier, Pfaff et al., NSDI '15):
entries are grouped by wildcard mask, one hash table per mask, so a
lookup costs one hash probe per distinct mask instead of a scan of
every entry.  A cookie index makes cookie-scoped deletes cost the
number of victims, and a lazy deadline heap makes expiry cost the
number of due entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Optional, Sequence

from repro.exceptions import FlowTableError
from repro.netsim.packet import ETH_TYPE_IP, Packet
from repro.openflow.actions import Action
from repro.openflow.match import IP_FIELD_INDEXES, Match

#: Default priority for controller-installed entries.
DEFAULT_PRIORITY = 100


@dataclass
class FlowEntry:
    """One cached forwarding/drop decision.

    Attributes:
        match: The 10-tuple match (possibly wildcarded).
        actions: Actions applied to matching packets; empty means drop.
        priority: Higher priorities win; ties break on match specificity
            then insertion order.
        idle_timeout: Seconds of inactivity after which the entry expires
            (0 disables idle expiry).
        hard_timeout: Seconds after installation at which the entry
            expires unconditionally (0 disables hard expiry).
        cookie: Opaque controller-chosen identifier, used by the ident++
            controller to tie entries back to policy decisions for audit
            and revocation.
    """

    match: Match
    actions: tuple[Action, ...] = ()
    priority: int = DEFAULT_PRIORITY
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: str = ""
    installed_at: float = 0.0
    last_used_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    sequence: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.actions, tuple):
            self.actions = tuple(self.actions)
        if self.idle_timeout < 0 or self.hard_timeout < 0:
            raise FlowTableError("timeouts must be non-negative")

    def record_use(self, packet: Packet, now: float) -> None:
        """Update counters when a packet hits this entry."""
        self.packet_count += 1
        self.byte_count += packet.wire_size()
        self.last_used_at = now

    def is_expired(self, now: float) -> bool:
        """Return ``True`` if either timeout has elapsed."""
        if self.hard_timeout and now - self.installed_at >= self.hard_timeout:
            return True
        if self.idle_timeout and now - self.last_used_at >= self.idle_timeout:
            return True
        return False

    def __str__(self) -> str:
        from repro.openflow.actions import describe_actions

        return (
            f"FlowEntry(prio={self.priority}, {self.match}, "
            f"actions=[{describe_actions(self.actions)}], pkts={self.packet_count})"
        )


def _deadline(entry: FlowEntry) -> float:
    """Return the moment ``entry`` can next expire (it must carry a timeout).

    Computed exactly as the linear scan always did, so
    :meth:`FlowTable.next_deadline` reproduces its value bit for bit.
    """
    if entry.hard_timeout:
        due = entry.installed_at + entry.hard_timeout
        if entry.idle_timeout:
            idle_due = entry.last_used_at + entry.idle_timeout
            if idle_due < due:
                due = idle_due
        return due
    return entry.last_used_at + entry.idle_timeout


@lru_cache(maxsize=1024)
def _probe(mask: tuple) -> Callable[[tuple], tuple]:
    """Return the function that turns a packet vector into ``mask``'s hash key.

    The key holds the packet's values at the constrained fields, in field
    order, with an IP field cut to the mask's prefix; it equals a
    :class:`Match`'s ``_key`` exactly when the match admits the packet.
    """
    indexes = tuple(index for index, bits in enumerate(mask) if bits is not None)
    prefixes = tuple(
        (position, (0xFFFFFFFF << (32 - mask[index])) & 0xFFFFFFFF)
        for position, index in enumerate(indexes)
        if index in IP_FIELD_INDEXES and mask[index] < 32
    )
    if not indexes:
        return lambda vector: ()
    if len(indexes) == 1:
        only = indexes[0]
        getter: Callable[[tuple], tuple] = lambda vector: (vector[only],)
    else:
        getter = itemgetter(*indexes)
    if not prefixes:
        return getter

    def probe(vector: tuple) -> tuple:
        key = list(getter(vector))
        for position, netmask in prefixes:
            if key[position] is not None:
                key[position] &= netmask
        return tuple(key)

    return probe


class FlowTable:
    """The flow table of one switch."""

    #: Exact-match cache entries kept before wholesale clearing; bounds the
    #: memory a long simulation with high flow churn can pin.
    EXACT_CACHE_LIMIT = 8192

    def __init__(self, name: str = "flow-table", capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = capacity
        #: Called with each entry evicted under capacity pressure.  The
        #: owning switch wires this to its FlowRemoved notifier so the
        #: controller's path unwinder hears about evictions exactly like
        #: timeouts (OpenFlow's OFPFF_SEND_FLOW_REM semantics).
        self.evict_listener: Optional[Callable[[FlowEntry], None]] = None
        # sequence -> entry; insertion order is sequence order.
        self._entries: dict[int, FlowEntry] = {}
        self._sequence = 0
        # The tuple space: wildcard mask -> [probe, {hash key -> entries}].
        self._groups: dict[tuple, list] = {}
        # cookie -> {sequence -> entry}, for cookie-scoped deletes.
        self._by_cookie: dict[str, dict[int, FlowEntry]] = {}
        # Lazy min-heap of (deadline, sequence).  Every live entry with a
        # timeout has an item no later than its current deadline; items
        # of removed entries and pre-refresh deadlines are settled when
        # they surface.
        self._deadlines: list[tuple[float, int]] = []
        self._expirable = 0
        # packet vector -> best entry from a previous classification; valid
        # until the table is modified (any install/remove/evict/expiry clears it).
        self._exact_cache: dict[tuple, FlowEntry] = {}
        # (match, priority) -> entry, so installs replace duplicates in
        # O(1) instead of scanning the table (install() keeps the pair
        # unique, so the index can never alias two live entries).
        self._same_index: dict[tuple[Match, int], FlowEntry] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.exact_hits = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------

    def install(self, entry: FlowEntry, now: float = 0.0, *, replace: bool = True) -> FlowEntry:
        """Install a flow entry.

        When ``replace`` is true an existing entry with an identical match
        and priority is overwritten (OpenFlow ``OFPFC_MODIFY`` semantics);
        otherwise a duplicate raises :class:`FlowTableError`.

        If the table has a capacity limit and is full, the least recently
        used entry is evicted.
        """
        match = entry.match
        same_key = (match, entry.priority)
        existing = self._same_index.get(same_key)
        if existing is not None:
            if not replace:
                raise FlowTableError(f"duplicate flow entry: {entry.match}")
            self._unlink(existing)
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self._evict_lru()
        self._exact_cache.clear()
        self._sequence += 1
        sequence = self._sequence
        entry.sequence = sequence
        entry.installed_at = now
        entry.last_used_at = now
        self._entries[sequence] = entry
        group = self._groups.get(match._mask)
        if group is None:
            group = self._groups[match._mask] = [_probe(match._mask), {}]
        group[1].setdefault(match._key, []).append(entry)
        self._same_index[same_key] = entry
        cookie_entries = self._by_cookie.get(entry.cookie)
        if cookie_entries is None:
            cookie_entries = self._by_cookie[entry.cookie] = {}
        cookie_entries[sequence] = entry
        if entry.idle_timeout or entry.hard_timeout:
            self._expirable += 1
            heapq.heappush(self._deadlines, (_deadline(entry), sequence))
            if len(self._deadlines) > 2 * self._expirable + 64:
                self._rebuild_deadlines()
        return entry

    def remove(
        self, match: Match, *, strict: bool = False, cookie: Optional[str] = None
    ) -> int:
        """Remove entries matching ``match``.

        With ``strict`` only an entry with an identical match is removed;
        otherwise every entry whose match is covered by ``match`` is
        removed (OpenFlow delete semantics).  A non-``None`` ``cookie``
        additionally restricts the delete to entries carrying it (the
        OpenFlow 1.1+ cookie filter the path unwinder uses).  Returns
        the number removed.
        """
        if cookie is not None:
            candidates: Sequence[FlowEntry] = list(self._by_cookie.get(cookie, {}).values())
        elif strict:
            # An identical match has an identical mask and key.
            group = self._groups.get(match._mask)
            candidates = group[1].get(match._key, ()) if group is not None else ()
        else:
            candidates = list(self._entries.values())
        if strict:
            victims = [e for e in candidates if e.match == match]
        elif match._specificity == 0:
            victims = list(candidates)
        else:
            victims = [e for e in candidates if match.covers(e.match)]
        self._discard(victims)
        return len(victims)

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every entry with the given cookie (used for policy revocation)."""
        victims = list(self._by_cookie.get(cookie, {}).values())
        self._discard(victims)
        return len(victims)

    def clear(self) -> None:
        """Remove all entries."""
        self._entries.clear()
        self._groups.clear()
        self._by_cookie.clear()
        self._deadlines.clear()
        self._expirable = 0
        self._exact_cache.clear()
        self._same_index.clear()

    def _unlink(self, entry: FlowEntry) -> None:
        """Drop one entry from every index (its heap item goes stale)."""
        sequence = entry.sequence
        del self._entries[sequence]
        match = entry.match
        buckets = self._groups[match._mask][1]
        bucket = buckets[match._key]
        if len(bucket) == 1:
            del buckets[match._key]
            if not buckets:
                del self._groups[match._mask]
        else:
            bucket[:] = [e for e in bucket if e is not entry]
        key = (match, entry.priority)
        if self._same_index.get(key) is entry:
            del self._same_index[key]
        cookie_entries = self._by_cookie[entry.cookie]
        del cookie_entries[sequence]
        if not cookie_entries:
            del self._by_cookie[entry.cookie]
        if entry.idle_timeout or entry.hard_timeout:
            self._expirable -= 1

    def _discard(self, victims: Sequence[FlowEntry]) -> None:
        """Drop ``victims`` from the table, keeping every index in sync."""
        if victims:
            for entry in victims:
                self._unlink(entry)
            self._exact_cache.clear()

    def _evict_lru(self) -> None:
        if not self._entries:
            return
        victim = min(self._entries.values(), key=lambda e: (e.last_used_at, e.sequence))
        self._discard([victim])
        self.evictions += 1
        if self.evict_listener is not None:
            self.evict_listener(victim)

    def _rebuild_deadlines(self) -> None:
        """Rebuild the deadline heap from the live entries (drops stale items)."""
        self._deadlines = [
            (_deadline(e), sequence)
            for sequence, e in self._entries.items()
            if e.idle_timeout or e.hard_timeout
        ]
        heapq.heapify(self._deadlines)

    # ------------------------------------------------------------------
    # Lookup and expiry
    # ------------------------------------------------------------------

    def lookup(self, packet: Packet, in_port: Optional[int] = None, now: float = 0.0) -> Optional[FlowEntry]:
        """Return the best matching entry for a packet, updating its counters.

        "Best" is highest priority, then most specific match, then oldest
        installation, which mirrors hardware behaviour closely enough for
        the experiments.  Returns ``None`` on a table miss.

        The packet's header vector is probed once per distinct wildcard
        mask.  An exact-match hash cache short-circuits even that for
        repeat packets of the same flow: the winning entry of a previous
        classification is keyed on the packet's header vector and stays
        valid until the table is modified (every mutation clears the
        cache), so the fast path can never disagree with the classifier.
        """
        self.lookups += 1
        ip_src = packet.ip_src
        ip_dst = packet.ip_dst
        # Proto and ports exist only on IP packets; ``None`` never equals
        # a constrained key, so a non-IP packet misses every mask that
        # constrains them (exactly Match.matches).
        is_ip = packet.eth_type == ETH_TYPE_IP and ip_src is not None and ip_dst is not None
        vector = (
            in_port,
            packet.eth_src,
            packet.eth_dst,
            packet.eth_type,
            packet.vlan_id,
            None if ip_src is None else ip_src.to_int(),
            None if ip_dst is None else ip_dst.to_int(),
            packet.ip_proto if is_ip else None,
            packet.tp_src if is_ip else None,
            packet.tp_dst if is_ip else None,
        )
        cached = self._exact_cache.get(vector)
        if cached is not None:
            if not cached.is_expired(now):
                self.exact_hits += 1
                self.hits += 1
                self._use(cached, packet, now)
                return cached
            # The cached winner expired; reclassify (a lower-ranked entry
            # may now be the best match).
            del self._exact_cache[vector]
        best: Optional[FlowEntry] = None
        best_rank = None
        for probe, buckets in self._groups.values():
            bucket = buckets.get(probe(vector))
            if bucket is None:
                continue
            for entry in bucket:
                if entry.is_expired(now):
                    continue
                rank = (entry.priority, entry.match._specificity, -entry.sequence)
                if best_rank is None or rank > best_rank:
                    best = entry
                    best_rank = rank
        if best is None:
            self.misses += 1
            return None
        self.hits += 1
        self._use(best, packet, now)
        if len(self._exact_cache) >= self.EXACT_CACHE_LIMIT:
            self._exact_cache.clear()
        self._exact_cache[vector] = best
        return best

    def _use(self, entry: FlowEntry, packet: Packet, now: float) -> None:
        """Record a hit, re-filing the deadline if ``now`` moved it earlier."""
        earlier = now < entry.last_used_at
        entry.record_use(packet, now)
        if earlier and entry.idle_timeout:
            # The clock went backwards: the idle deadline moved earlier
            # than the entry's heap item, which must stay a lower bound.
            heapq.heappush(self._deadlines, (_deadline(entry), entry.sequence))

    def expire(self, now: float) -> list[FlowEntry]:
        """Remove and return entries whose timeouts have elapsed, in install order."""
        heap = self._deadlines
        # ``is_expired`` rounds ``now - installed_at`` while a deadline
        # rounds ``installed_at + timeout``, and an entry can be expired
        # one ulp before its deadline.  With non-negative times (the
        # simulator clock starts at 0) the gap is under one ulp of
        # ``now``, so candidates are drawn from 16 ulps past ``now`` and
        # ``is_expired`` has the final word.
        limit = now + abs(now) * 2.0**-48
        if not heap or heap[0][0] > limit:
            return []
        expired: list[FlowEntry] = []
        kept: list[tuple[float, int]] = []
        entries = self._entries
        while heap and heap[0][0] <= limit:
            due, sequence = heapq.heappop(heap)
            entry = entries.get(sequence)
            if entry is None:
                continue
            current = _deadline(entry)
            if current > due:
                # Refreshed by traffic since it was filed: file it again.
                heapq.heappush(heap, (current, sequence))
            elif entry.is_expired(now):
                self._unlink(entry)
                expired.append(entry)
            else:
                kept.append((due, sequence))
        for item in kept:
            heapq.heappush(heap, item)
        if expired:
            self._exact_cache.clear()
            self.expirations += len(expired)
            expired.sort(key=attrgetter("sequence"))
        return expired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[FlowEntry]:
        """Iterate over entries in priority (then recency) order."""
        return iter(
            sorted(
                self._entries.values(),
                key=lambda e: (-e.priority, -e.match._specificity, e.sequence),
            )
        )

    def find(self, predicate: Callable[[FlowEntry], bool]) -> list[FlowEntry]:
        """Return entries satisfying ``predicate``."""
        return [entry for entry in self._entries.values() if predicate(entry)]

    def expirable_count(self) -> int:
        """Return how many entries carry a timeout a future sweep could reclaim."""
        return self._expirable

    def next_deadline(self) -> Optional[float]:
        """Return the earliest moment any entry can expire (``None`` when none can).

        Idle deadlines are computed from the current ``last_used_at``, so
        traffic that keeps refreshing an entry makes this a lower bound —
        exactly what a sweep scheduler needs (waking early is a no-op).
        Stale and refreshed heap tops are settled first, so the value is
        the minimum over the live entries, not a bound on it.
        """
        heap = self._deadlines
        while heap:
            due, sequence = heap[0]
            entry = self._entries.get(sequence)
            if entry is None:
                heapq.heappop(heap)
                continue
            current = _deadline(entry)
            if current > due:
                heapq.heapreplace(heap, (current, sequence))
            else:
                return current
        return None

    def hit_rate(self) -> float:
        """Return hits / lookups (0.0 when no lookups happened)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> dict[str, float]:
        """Return a summary dictionary used by benchmark E11."""
        return {
            "entries": float(len(self._entries)),
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate(),
            "exact_hits": float(self.exact_hits),
            "evictions": float(self.evictions),
            "expirations": float(self.expirations),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, match: Match) -> bool:
        group = self._groups.get(match._mask)
        if group is None:
            return False
        return any(entry.match == match for entry in group[1].get(match._key, ()))


def make_entry(
    match: Match,
    actions: Sequence[Action],
    *,
    priority: int = DEFAULT_PRIORITY,
    idle_timeout: float = 0.0,
    hard_timeout: float = 0.0,
    cookie: str = "",
) -> FlowEntry:
    """Convenience constructor mirroring the FlowMod message fields."""
    return FlowEntry(
        match=match,
        actions=tuple(actions),
        priority=priority,
        idle_timeout=idle_timeout,
        hard_timeout=hard_timeout,
        cookie=cookie,
    )
