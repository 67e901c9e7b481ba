"""Flow-setup benchmark for the ident++ reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --self-test

A run builds the workload's network from ``src/`` (no install step),
opens the seeded flows open-loop in virtual time and checks every
verdict against the generator's prediction.  It repeats whole
repetitions (same seed, fresh network) while the next one still fits in
``--seconds`` of wall time, and always runs at least one.

``--trace 0`` prints the end-to-end metrics:

* ``flows_per_s`` — flows decided with a fresh verdict per wall second
  of ``net.run`` (median over repetitions; set-up excluded);
* ``setup_s`` — wall seconds to build topology, hosts, daemons and to
  load and compile the policy (median of at least three builds, more
  while they take under half a second in total);
* ``first_packet_p50_ms`` / ``first_packet_p999_ms`` — virtual ms from
  ``open_flow`` to the verdict landing (delivery at the destination for
  a passed flow, the audit record for a blocked one), nearest rank,
  failed flows counted as infinitely late;
* ``peak_rss_mb`` — peak resident set of the process.

Flows with no fresh verdict are reported in the result's ``failed``
field against ``attempted`` (flows opened).

``--trace 1`` runs one untraced repetition, then wraps the program's
public layer methods (``tracing.TRACE_POINTS``) and runs one traced
repetition; it prints the per-layer metrics and writes the spans to
``perfbench/out/<workload>.spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when a verdict is wrong, a passed flow was not delivered, a
blocked flow was delivered, repetitions of one seed disagree, or the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Builds timed per run: at least the minimum, then more while they fit
#: in the budget (set-up time is their median).
SETUP_MIN_BUILDS = 3
SETUP_MAX_BUILDS = 50
SETUP_BUDGET_S = 0.5

#: End-to-end metrics: name → unit.
END_TO_END = {
    "flows_per_s": "1/s",
    "setup_s": "s",
    "first_packet_p50_ms": "ms",
    "first_packet_p999_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer span metrics: span name → (report .calls?, report .self_s?).
SPAN_METRICS = {
    "netsim.step": (True, True),
    "netsim.schedule": (True, False),
    "openflow.lookup": (True, True),
    "openflow.install": (True, True),
    "openflow.remove": (True, True),
    "openflow.expire": (False, True),
    "openflow.switch_receive": (True, True),
    "core.packet_in": (True, True),
    "core.flow_removed": (True, True),
    "core.policy_decide": (True, True),
    "core.lifecycle_sweep": (True, True),
    "pf.evaluate": (True, True),
    "pf.compile": (True, True),
    "identpp.engine_query": (True, True),
    "identpp.daemon_answer": (True, True),
    "identpp.wire": (True, True),
    "hosts.open_flow": (False, True),
    "hosts.receive": (True, True),
    "hosts.sockets": (False, True),
    "cluster.route": (True, True),
    "telemetry.sample": (True, True),
}

#: Per-layer counter metrics read after the traced repetition: name → unit.
COUNTER_METRICS = {
    "netsim.queue_peak": "count",
    "openflow.lookup.hit_ratio": "ratio",
    "openflow.table_peak": "count",
    "openflow.punts": "count",
    "openflow.flow_mods": "count",
    "core.decision_cache.hit_ratio": "ratio",
    "core.inflight_peak": "count",
    "core.pending_peak": "count",
    "core.pending_expired": "count",
    "core.policy_errors": "count",
    "identpp.engine.hit_ratio": "ratio",
    "identpp.engine.resident_hits": "count",
    "identpp.engine.deltas_applied": "count",
    "identpp.engine.invalidations": "count",
    "identpp.daemon_answers_per_flow": "count/flow",
    "identpp.query_wait_p50_ms": "ms",
    "cluster.owner_share_max": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Return every per-layer metric name with its unit, in report order."""
    from tracing import LAYERS

    units: dict[str, str] = {}
    for span, (calls, self_s) in SPAN_METRICS.items():
        if calls:
            units[f"{span}.calls"] = "count"
        if self_s:
            units[f"{span}.self_s"] = "s"
    units.update(COUNTER_METRICS)
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    return units


def program_available() -> bool:
    """Return whether the program's sources are present next to the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "core", "network.py"))


def import_program() -> None:
    """Make ``repro`` (from ``src/``) and the benchmark modules importable.

    Everything the workloads touch is imported here, before any timing,
    so no set-up measurement pays for a first import.
    """
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro.cluster.cluster  # noqa: F401
    import repro.core.network  # noqa: F401
    import repro.telemetry.plane  # noqa: F401


def peak_rss_mb() -> float:
    """Return the process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def first_packet_ms(latencies: list) -> tuple[float, float, int]:
    """Return (p50, p99.9, samples beyond p99.9) in ms; failed flows are infinitely late."""
    from workloads import nearest_rank, samples_beyond

    values = sorted(math.inf if v is None else v * 1e3 for v in latencies)
    return (
        nearest_rank(values, 0.5),
        nearest_rank(values, 0.999),
        samples_beyond(len(values), 0.999),
    )


def agree(reps: list) -> bool:
    """Return whether every repetition of one seed gave identical verdicts and latencies."""
    first = reps[0]
    return all(r.verdicts == first.verdicts and r.latencies == first.latencies for r in reps[1:])


def describe(workload, inputs, rep, extra: dict) -> None:
    """Print the human-readable record of one run (seed, reason, property)."""
    p50, p999, beyond = first_packet_ms(rep.latencies)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {inputs.seed}; {len(inputs.flows)} flows at {workload.rate:g}/s virtual "
          f"(open loop); {len(inputs.actions)} background actions")
    properties = ", ".join(f"{k}={v:g}" for k, v in rep.properties.items())
    print(f"measured property: {properties}")
    print(f"first packet: p50 {p50:.4f} ms, p99.9 {p999:.4f} ms "
          f"({len(rep.latencies)} samples, {beyond} beyond p99.9); "
          f"failed_frac {rep.failed / rep.opened:.6f}")
    for key, value in extra.items():
        print(f"{key}: {value}")
    for error in rep.errors:
        print(f"WRONG: {error}")


def measure_reps(workload, inputs, seconds: float) -> list:
    """Run repetitions of one seed while the next still fits in ``seconds``."""
    from measure import run_rep

    reps = []
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(workload, inputs))
        last = time.perf_counter() - rep_start
        if time.perf_counter() - started + last > seconds:
            return reps


def setup_times(workload, reps: list) -> list[float]:
    """Return the set-up times of the repetitions plus extra builds up to the minimum."""
    from measure import build_timed

    times = [rep.setup_s for rep in reps]
    while len(times) < SETUP_MIN_BUILDS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_BUILDS):
        built, seconds = build_timed(workload)
        del built
        times.append(seconds)
    return times


def run_untraced(workload, inputs, seconds: float) -> dict:
    reps = measure_reps(workload, inputs, seconds)
    setups = setup_times(workload, reps)
    p50, p999, _ = first_packet_ms(reps[0].latencies)
    consistent = agree(reps)
    describe(workload, inputs, reps[0], {
        "repetitions": f"{len(reps)} (identical verdicts and latencies: {consistent})",
        "flows_per_s by repetition": ", ".join(f"{r.flows_per_s:.1f}" for r in reps),
        "net.run wall s by repetition": ", ".join(f"{r.run_s:.3f}" for r in reps),
        "setup_s": f"{len(setups)} builds, {min(setups):.4f} to {max(setups):.4f}",
    })
    values = {
        "flows_per_s": statistics.median(r.flows_per_s for r in reps),
        "setup_s": statistics.median(setups),
        "first_packet_p50_ms": p50,
        "first_packet_p999_ms": p999,
        "peak_rss_mb": peak_rss_mb(),
    }
    correct = consistent and all(r.wrong == 0 for r in reps) and math.isfinite(p999)
    return result(correct, reps, {k: (v, END_TO_END[k]) for k, v in values.items()})


def run_traced(workload, inputs) -> dict:
    from measure import layer_counters, run_rep
    from tracing import LAYERS, Tracer

    baseline = run_rep(workload, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rep(workload, inputs, layer_probe=layer_counters)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{workload.name}.spans"),
                 {"workload": workload.name, "seed": inputs.seed})

    layer = dict(traced.layer)
    layer["openflow.punts"] = float(tracer.channel_messages.get("PacketIn", 0))
    layer["openflow.flow_mods"] = float(tracer.channel_messages.get("FlowMod", 0))
    layer["trace.overhead_frac"] = 1.0 - traced.flows_per_s / baseline.flows_per_s
    for span, (calls, self_s) in SPAN_METRICS.items():
        if calls:
            layer[f"{span}.calls"] = float(totals.calls.get(span, 0))
        if self_s:
            layer[f"{span}.self_s"] = totals.self_s.get(span, 0.0)
    by_layer = totals.layer_self_s()
    traced_s = sum(by_layer.values())
    for name in LAYERS:
        layer[f"{name}.self_share"] = by_layer[name] / traced_s if traced_s else 0.0

    consistent = agree([baseline, traced])
    describe(workload, inputs, traced, {
        "spans": f"{tracer.span_count()} recorded, written to perfbench/out/{workload.name}.spans",
        "untraced vs traced flows_per_s": f"{baseline.flows_per_s:.1f} vs {traced.flows_per_s:.1f}",
        "identical verdicts and latencies traced/untraced": consistent,
        "self time by layer (s)": ", ".join(f"{k} {v:.3f}" for k, v in by_layer.items()),
        "trace points not found (read as zero)": ", ".join(tracer.missing) or "none",
    })
    units = per_layer_units()
    correct = consistent and baseline.wrong == 0 and traced.wrong == 0
    return result(correct, [baseline, traced], {k: (layer[k], units[k]) for k in units})


def result(correct: bool, reps: list, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": sum(r.opened for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from measure import Inputs
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    inputs = Inputs.draw(workload, seed)
    outcome = run_traced(workload, inputs) if trace else run_untraced(workload, inputs, seconds)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics by name."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
        try:
            outcome = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(completed.stderr)
            print(f"   FAILED: exit {completed.returncode}, no result")
            status = 1
            continue
        for metric, value in outcome["metrics"].items():
            print(f"   {metric:<36} {value['value']:>14.6g} {value['unit']}")
        print(f"   correct={outcome['correct']} attempted={outcome['attempted']} "
              f"failed={outcome['failed']}")
        if completed.returncode != 0 or not outcome["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="churn, flash_crowd, policy_cluster or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="wall seconds of repetitions to measure (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the tracer arithmetic, the percentile picker and determinism")
    args = parser.parse_args(argv)
    if not program_available():
        sys.stderr.write(f"perfbench: program sources not found under {SRC}\n")
        return 2
    import_program()
    if args.self_test:
        from selftest import main as self_test

        return self_test()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
