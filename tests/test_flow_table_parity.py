"""Differential tests: the tuple-space flow table against the linear reference.

``FlowTable`` classifies by wildcard mask, finds cookie-scoped victims
through an index and expires from a lazy deadline heap.
``LinearFlowTable`` (``tests/flow_table_reference.py``) is the plain
list scan it replaced.  Both are driven through the same operation
sequences, and after every step they must agree on everything a caller
can observe: the winning entry, the expired entries and their order,
removed counts, ``next_deadline``, ``expirable_count``, the
``entries()`` order, evict-listener calls and ``stats()``.
"""

from __future__ import annotations

import math

from flow_table_reference import LinearFlowTable
from hypothesis import given, settings, strategies as st

from repro.exceptions import FlowTableError
from repro.netsim.addresses import IPv4Network
from repro.netsim.packet import ETH_TYPE_ARP, ETH_TYPE_IP, Packet
from repro.openflow.actions import OutputAction
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import Match

MACS = ("02:00:00:00:00:01", "02:00:00:00:00:02")
ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.1.7", "192.168.3.4")
PORTS = (80, 443, 40000)
COOKIES = ("", "a:decision-1", "a:decision-2", "b:decision-3")
# Sums of these are not exact in binary floating point (0.1 + 0.2 !=
# 0.3), which is what puts deadlines and expiry checks on ulp boundaries.
STEPS = (0.0, 0.1, 0.2, 0.3, 0.25, 0.7, 1.0, 2.5)
TIMEOUTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 3.0)

ip_fields = st.one_of(
    st.none(),
    st.sampled_from(ADDRESSES),
    st.builds(
        lambda address, bits: str(IPv4Network(f"{address}/{bits}")),
        st.sampled_from(ADDRESSES),
        st.integers(min_value=0, max_value=32),
    ),
)

matches = st.builds(
    Match,
    in_port=st.sampled_from((None, None, 1, 2)),
    dl_src=st.sampled_from((None, None, *MACS)),
    dl_type=st.sampled_from((None, None, ETH_TYPE_IP, ETH_TYPE_ARP)),
    vlan_id=st.sampled_from((None, None, 0)),
    nw_src=ip_fields,
    nw_dst=ip_fields,
    nw_proto=st.sampled_from((None, None, 6, 17)),
    tp_src=st.sampled_from((None, None, *PORTS)),
    tp_dst=st.sampled_from((None, None, *PORTS)),
)

ip_packets = st.builds(
    lambda mac, src, dst, proto, sport, dport: Packet(
        eth_src=mac, ip_src=src, ip_dst=dst, ip_proto=proto, tp_src=sport, tp_dst=dport,
    ),
    st.sampled_from(MACS),
    st.sampled_from(ADDRESSES),
    st.sampled_from(ADDRESSES),
    st.sampled_from((6, 17)),
    st.sampled_from(PORTS),
    st.sampled_from(PORTS),
)
non_ip_packets = st.one_of(
    # ARP-like frames: no IP header at all.
    st.builds(lambda mac: Packet(eth_src=mac, eth_type=ETH_TYPE_ARP), st.sampled_from(MACS)),
    # Addresses present but not IPv4 EtherType: IP fields still match,
    # proto and ports never do.
    st.builds(
        lambda src, dst: Packet(eth_type=ETH_TYPE_ARP, ip_src=src, ip_dst=dst, tp_dst=80),
        st.sampled_from(ADDRESSES),
        st.sampled_from(ADDRESSES),
    ),
    # IPv4 EtherType with one address missing: not an IP packet either.
    st.builds(lambda src: Packet(ip_src=src, tp_dst=80), st.sampled_from(ADDRESSES)),
)
packets = st.one_of(ip_packets, ip_packets, non_ip_packets)


def _packet_for(match: Match, salt: int, *, ip: bool = True) -> Packet:
    """Return a packet ``match`` admits (when it can admit one), varied by ``salt``.

    A prefix field gets a host inside the prefix rather than its network
    address, so a classifier that forgot to mask would miss it.  With
    ``ip=False`` the frame is not IPv4, which a match constraining proto
    or ports must never admit.
    """

    def address(value, fallback):
        if value is None:
            return fallback
        if isinstance(value, IPv4Network):
            return value.network_address + salt % value.num_addresses()
        return value

    def pick(value, default):
        return default if value is None else value

    return Packet(
        eth_src=pick(match.dl_src, MACS[salt % 2]),
        eth_type=pick(match.dl_type, ETH_TYPE_IP) if ip else ETH_TYPE_ARP,
        vlan_id=pick(match.vlan_id, 0),
        ip_src=address(match.nw_src, ADDRESSES[salt % 4]),
        ip_dst=address(match.nw_dst, ADDRESSES[(salt + 1) % 4]),
        ip_proto=pick(match.nw_proto, 6),
        tp_src=pick(match.tp_src, PORTS[salt % 3]),
        tp_dst=pick(match.tp_dst, PORTS[(salt + 1) % 3]),
    )


operations = st.one_of(
    st.tuples(
        st.just("install"),
        matches,
        st.sampled_from((1, 100, 100, 200)),
        st.sampled_from(TIMEOUTS),
        st.sampled_from(TIMEOUTS),
        st.sampled_from(COOKIES),
        st.booleans(),
    ),
    st.tuples(st.just("lookup"), packets, st.sampled_from((None, 1, 2))),
    # Look up a packet built to hit a live entry (random packets rarely
    # satisfy a random match), as IPv4 or as a non-IP frame.
    st.tuples(st.just("hit"), st.integers(min_value=0), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from(STEPS)),
    # Jump the clock onto a live deadline, or one ulp either side of it.
    st.tuples(st.just("boundary"), st.integers(min_value=0), st.sampled_from((-1, 0, 1))),
    st.tuples(st.just("expire")),
    st.tuples(
        st.just("remove"),
        st.one_of(matches, st.just(Match())),
        st.booleans(),
        st.one_of(st.none(), st.sampled_from(COOKIES)),
    ),
    st.tuples(st.just("remove_by_cookie"), st.sampled_from(COOKIES)),
)


def _entry_state(entry: FlowEntry) -> tuple:
    return (
        entry.sequence,
        entry.priority,
        entry.cookie,
        entry.installed_at,
        entry.last_used_at,
        entry.packet_count,
        entry.byte_count,
    )


class Pair:
    """One classifier and one reference table, driven in lockstep."""

    def __init__(self, capacity=None) -> None:
        self.fast = FlowTable(capacity=capacity)
        self.slow = LinearFlowTable(capacity=capacity)
        self.fast_evicted: list[int] = []
        self.slow_evicted: list[int] = []
        self.fast.evict_listener = lambda e: self.fast_evicted.append(e.sequence)
        self.slow.evict_listener = lambda e: self.slow_evicted.append(e.sequence)
        self.now = 0.0

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "install":
            _, match, priority, idle, hard, cookie, replace = op
            results = []
            for table in (self.fast, self.slow):
                entry = FlowEntry(
                    match=match, actions=(OutputAction(1),), priority=priority,
                    idle_timeout=idle, hard_timeout=hard, cookie=cookie,
                )
                try:
                    table.install(entry, now=self.now, replace=replace)
                    results.append(entry.sequence)
                except FlowTableError:
                    results.append("duplicate")
            assert results[0] == results[1]
        elif kind == "lookup":
            _, packet, in_port = op
            fast = self.fast.lookup(packet, in_port, now=self.now)
            slow = self.slow.lookup(packet, in_port, now=self.now)
            assert (fast and fast.sequence) == (slow and slow.sequence)
        elif kind == "hit":
            _, index, salt, ip = op
            live = list(self.slow.entries())
            if live:
                match = live[index % len(live)].match
                self.apply(("lookup", _packet_for(match, salt, ip=ip), match.in_port))
                return
        elif kind == "advance":
            self.now += op[1]
        elif kind == "boundary":
            deadlines = sorted(
                due
                for e in self.slow.entries()
                for due, timeout in (
                    (e.installed_at + e.hard_timeout, e.hard_timeout),
                    (e.last_used_at + e.idle_timeout, e.idle_timeout),
                )
                if timeout
            )
            if deadlines:
                due = deadlines[op[1] % len(deadlines)]
                if op[2]:
                    due = math.nextafter(due, math.inf * op[2])
                self.now = max(self.now, due)
        elif kind == "expire":
            fast = [e.sequence for e in self.fast.expire(self.now)]
            slow = [e.sequence for e in self.slow.expire(self.now)]
            assert fast == slow
        elif kind == "remove":
            _, match, strict, cookie = op
            assert self.fast.remove(match, strict=strict, cookie=cookie) == self.slow.remove(
                match, strict=strict, cookie=cookie
            )
        elif kind == "remove_by_cookie":
            assert self.fast.remove_by_cookie(op[1]) == self.slow.remove_by_cookie(op[1])
        else:  # pragma: no cover - the strategy only draws the kinds above
            raise AssertionError(kind)
        self.check()

    def check(self) -> None:
        fast, slow = self.fast, self.slow
        assert fast.next_deadline() == slow.next_deadline()
        assert fast.expirable_count() == slow.expirable_count()
        assert [_entry_state(e) for e in fast.entries()] == [
            _entry_state(e) for e in slow.entries()
        ]
        assert [e.sequence for e in fast.find(lambda e: True)] == [
            e.sequence for e in slow.find(lambda e: True)
        ]
        assert self.fast_evicted == self.slow_evicted
        assert fast.stats() == slow.stats()
        assert len(fast) == len(slow)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60), st.sampled_from((None, None, 3, 8)))
def test_classifier_matches_linear_reference(ops, capacity):
    pair = Pair(capacity)
    for op in ops:
        pair.apply(op)
    # Drain: whatever is left must expire identically once time passes.
    pair.apply(("advance", 10.0))
    pair.apply(("expire",))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            operations,
            st.tuples(st.just("rewind"), st.sampled_from(STEPS)),
        ),
        max_size=40,
    )
)
def test_classifier_matches_reference_when_the_clock_runs_backwards(ops):
    pair = Pair()
    for op in ops:
        if op[0] == "rewind":
            # Refreshing an entry at an earlier time moves its idle
            # deadline earlier; the deadline heap must still find it.
            pair.now = max(0.0, pair.now - op[1])
            continue
        pair.apply(op)


@settings(max_examples=200, deadline=None)
@given(matches, packets, st.sampled_from((None, 1, 2)))
def test_one_entry_lookup_agrees_with_match_matches(match, packet, in_port):
    table = FlowTable()
    table.install(FlowEntry(match=match))
    assert (table.lookup(packet, in_port) is not None) == match.matches(packet, in_port)


@settings(max_examples=300, deadline=None)
@given(matches, st.integers(min_value=0), st.booleans())
def test_lookup_of_a_packet_built_for_the_match(match, salt, ip):
    table = FlowTable()
    table.install(FlowEntry(match=match))
    packet = _packet_for(match, salt, ip=ip)
    hit = table.lookup(packet, match.in_port)
    assert (hit is not None) == match.matches(packet, match.in_port)
    if ip and match.dl_type in (None, ETH_TYPE_IP):
        assert hit is not None


def test_expiry_fires_an_ulp_before_the_summed_deadline():
    """Installed at 0.7 with a 3.0 s hard timeout, the entry is expired at
    the float just below 3.7: ``3.6999999999999997 - 0.7 >= 3.0`` although
    ``0.7 + 3.0 == 3.7``.  Expiry follows ``is_expired``, not the sum."""
    pair = Pair()
    pair.now = 0.7
    pair.apply(("install", Match(tp_dst=80), 100, 0.0, 3.0, "", True))
    pair.apply(("install", Match(tp_dst=81), 100, 3.0, 0.0, "", True))
    pair.now = math.nextafter(3.7, 0.0)
    assert pair.slow.next_deadline() == 3.7
    pair.apply(("expire",))
    assert len(pair.fast) == 0


def test_non_ip_frame_never_hits_a_proto_or_port_entry():
    pair = Pair()
    pair.apply(("install", Match(nw_src="10.0.0.0/24", nw_proto=6), 200, 0.0, 0.0, "", True))
    pair.apply(("install", Match(nw_src="10.0.0.0/24"), 100, 0.0, 0.0, "", True))
    arp_with_addresses = Packet(eth_type=ETH_TYPE_ARP, ip_src="10.0.0.9", ip_dst="10.0.0.2")
    assert pair.fast.lookup(arp_with_addresses).priority == 100
    assert pair.slow.lookup(arp_with_addresses).priority == 100


def test_refresh_at_an_earlier_time_moves_the_deadline_earlier():
    pair = Pair()
    pair.apply(("install", Match(tp_dst=80), 100, 1.0, 0.0, "", True))
    packet = _packet_for(Match(tp_dst=80), 0)
    pair.now = 0.7
    pair.apply(("lookup", packet, None))
    assert pair.fast.next_deadline() == 1.7
    pair.now = 0.2
    pair.apply(("lookup", packet, None))
    assert pair.fast.next_deadline() == 1.2
    pair.now = 1.3
    pair.apply(("expire",))
    assert len(pair.fast) == 0


def test_expiry_on_float_rounding_boundaries():
    """``now - installed_at >= timeout`` and ``installed_at + timeout <= now``
    disagree by an ulp on many float pairs; expiry must follow the former."""
    pair = Pair()
    times = [round(0.1 * k, 10) + 0.1 * j for k in range(1, 30) for j in range(3)]
    for index, start in enumerate(times):
        pair.now = start
        pair.apply(
            ("install", Match(tp_dst=index % 65536, nw_proto=6), 100, 0.0, 0.1 * (1 + index % 7),
             COOKIES[index % len(COOKIES)], True)
        )
    for _ in range(400):
        due = pair.slow.next_deadline()
        if due is None:
            break
        for step in (-1, 0, 1):
            pair.now = max(pair.now, math.nextafter(due, math.inf * step) if step else due)
            pair.apply(("expire",))
    assert len(pair.fast) == len(pair.slow) == 0


def test_cookie_scoped_wildcard_unwind_touches_only_that_cookie():
    pair = Pair()
    for port in range(50):
        cookie = COOKIES[1] if port % 5 == 0 else COOKIES[2]
        pair.apply(("install", Match(nw_proto=6, tp_dst=port), 100, 1.0, 0.0, cookie, True))
    pair.apply(("remove", Match(), False, COOKIES[1]))
    assert len(pair.fast) == 40
    assert all(e.cookie == COOKIES[2] for e in pair.fast.entries())
