"""Self-test of the benchmark's own machinery (``run.py --self-test``).

Checks, without timing anything:

* the tracer's self-time arithmetic on hand-built nested spans and on
  spans recorded through real class-level wrappers with a fake clock;
* the nearest-rank percentile picker and the samples-beyond count;
* that two repetitions of one seed give identical verdict sequences and
  identical first-packet latencies on every workload (on a shortened
  flow list), that the verdicts are correct, and that another seed
  gives other inputs;
* that ``BENCHMARK.json`` names exactly the metrics the runs print.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from array import array

import run
from measure import Inputs, run_rep
from tracing import Tracer, self_times
from workloads import WORKLOADS, nearest_rank, samples_beyond

#: Flows per repetition in the determinism check.
SHORT_FLOWS = 1500


class _Layered:
    """Toy call tree for the wrapper test: outer → (inner → leaf, leaf)."""

    def outer(self) -> None:
        self.inner()
        self.leaf()

    def inner(self) -> None:
        self.leaf()

    def leaf(self) -> None:
        pass


def check_self_times() -> list[str]:
    problems = []
    # a[0,10] ⊃ b[1,4] ⊃ c[2,3]; a ⊃ d[5,9]; e[11,12] is a second root.
    names = ["a", "b", "c", "d", "e"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1),
             (3, 5.0, 9.0, 0), (4, 11.0, 12.0, -1)]
    totals = self_times(
        names,
        array("i", [s[0] for s in spans]), array("d", [s[1] for s in spans]),
        array("d", [s[2] for s in spans]), array("i", [s[3] for s in spans]),
    )
    expected = {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0}
    if totals.self_s != expected:
        problems.append(f"self times {totals.self_s} != {expected}")
    if totals.total_s["a"] != 10.0 or totals.calls != dict.fromkeys(names, 1):
        problems.append(f"totals wrong: {totals.total_s} {totals.calls}")

    ticks = itertools.count()
    tracer = Tracer(
        points=(("core.outer", __name__, "_Layered", "outer"),
                ("pf.inner", __name__, "_Layered", "inner"),
                ("pf.leaf", __name__, "_Layered", "leaf")),
        clock=lambda: float(next(ticks)),
    )
    tracer.install()
    try:
        _Layered().outer()
    finally:
        tracer.uninstall()
    if _Layered.outer.__name__ != "outer" or hasattr(_Layered.outer, "__wrapped__"):
        problems.append("uninstall did not restore the original method")
    # Clock reads: outer 0, inner 1, leaf 2-3, inner ends 4, leaf 5-6, outer ends 7.
    traced = tracer.totals()
    want = {"core.outer": 7.0 - 3.0 - 1.0, "pf.inner": 3.0 - 1.0, "pf.leaf": 2.0}
    if traced.self_s != want or traced.calls != {"core.outer": 1, "pf.inner": 1, "pf.leaf": 2}:
        problems.append(f"wrapped self times {traced.self_s} calls {traced.calls}, want {want}")
    layers = traced.layer_self_s()
    if layers["core"] != 3.0 or layers["pf"] != 4.0:
        problems.append(f"layer self times {layers}")
    return problems


def check_percentiles() -> list[str]:
    problems = []
    values = [float(v) for v in range(1, 10_001)]
    if nearest_rank(values, 0.5) != 5000.0 or nearest_rank(values, 0.999) != 9990.0:
        problems.append("nearest rank of 1..10000 wrong")
    if samples_beyond(10_000, 0.999) != 10 or samples_beyond(9_999, 0.999) != 9:
        problems.append("samples beyond p99.9 wrong")
    if nearest_rank([7.0], 0.999) != 7.0 or nearest_rank([1.0, 2.0], 0.5) != 1.0:
        problems.append("nearest rank on tiny samples wrong")
    p50, p999, beyond = run.first_packet_ms([0.001] * 9_990 + [None] * 10)
    if p50 != 1.0 or p999 != 1.0 or beyond != 10:
        problems.append(f"first_packet_ms with failures: {p50} {p999} {beyond}")
    if not math.isinf(run.first_packet_ms([0.001] * 9_989 + [None] * 11)[1]):
        problems.append("failed flows beyond p99.9 must read as infinitely late")
    return problems


def check_determinism() -> list[str]:
    problems = []
    for name, factory in WORKLOADS.items():
        workload = factory()
        workload.flows = SHORT_FLOWS
        inputs = Inputs.draw(workload, seed=7)
        first, second = run_rep(workload, inputs), run_rep(workload, inputs)
        if first.verdicts != second.verdicts:
            problems.append(f"{name}: verdict sequences differ between runs of one seed")
        if run.first_packet_ms(first.latencies) != run.first_packet_ms(second.latencies) \
                or first.latencies != second.latencies:
            problems.append(f"{name}: first-packet latencies differ between runs of one seed")
        for rep in (first, second):
            if rep.wrong or rep.failed:
                problems.append(f"{name}: {rep.wrong} wrong, {rep.failed} failed: {rep.errors[:3]}")
        other = Inputs.draw(workload, seed=8)
        if other.flows == inputs.flows:
            problems.append(f"{name}: seeds 7 and 8 drew the same inputs")
        print(f"  {name}: {first.opened} flows twice, "
              f"{sum(v == 'pass' for v in first.verdicts)} passed, identical")
    return problems


def check_manifest() -> list[str]:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        manifest = json.load(handle)
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if end_to_end != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} != printed {run.END_TO_END}")
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    printed = run.per_layer_units()
    if per_layer != printed:
        problems.append(f"BENCHMARK.json per_layer differs from printed: "
                        f"{sorted(set(per_layer.items()) ^ set(printed.items()))}")
    workloads = [w["name"] for w in manifest["workloads"]]
    if workloads != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {workloads} != {list(WORKLOADS)}")
    return problems


def main() -> int:
    failed = False
    for label, check in (("self-time arithmetic", check_self_times),
                         ("percentile picker", check_percentiles),
                         ("same seed, same verdicts and latencies", check_determinism),
                         ("BENCHMARK.json matches printed metrics", check_manifest)):
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0
