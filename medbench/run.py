#!/usr/bin/env python3
"""The mediator benchmark of record.

Run from the repository root::

    python3 medbench/run.py --workload sec5 --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``sec5``, ``federation``, ``kb-churn`` (see
``workloads.py`` for why each exists).  One client drives one
deployment in a closed loop for ``--seconds`` seconds; the op stream is
drawn from ``--seed``.  Every op's answer is checked against a plain
reference mediator and against the checked-in reference digest; an
exception, a wrong answer or a degraded answer counts as failed.

``--trace 0`` reports the end-to-end metrics (tracing off).  Their
times are rescaled to a nominal host speed by the probe of
``hostspeed.py``, timed between ops: shared hosts swing by up to 2x
within one run and between runs, which would otherwise drown any change
of the program.  Waiting time (a lab's latency) is kept as measured.

``--trace 1`` is the separate traced run: every other cycle of ops
runs with the layer probes of ``probes.py`` and a ``repro.obs`` tracer
installed, and the per-layer metrics are computed from those ops; the
cycles in between run untraced, so ``trace.overhead`` compares the
two.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"setup_s": {"value": 0.041, "unit": "s"}, ...}}

``--write-digest`` regenerates ``reference_digest.json`` from the
plain reference mediator (every op any seed can draw).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import threading
from time import perf_counter, process_time

from hostspeed import HostSpeed, host_time, probe, scale_of

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGEST_PATH = HERE / "reference_digest.json"

#: deployments built (each with its warm-up op) per run; setup_s is
#: their median
SETUP_REPEATS = 11

#: host-speed probes taken between deployment builds
SETUP_PROBES = 5

#: string hashing shifts the cost of sub-millisecond ops by up to a
#: third from one process to the next, so every run uses one hash seed
HASH_SEED = "0"

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    # means, not p50s: every op mix is multimodal by construction, and
    # a p50 jumps between the modes with the mix of the run.  On
    # federation correlates split into cache-hit (~20 ms) and
    # wire-bound (~100 ms) modes of nearly equal weight
    # (correlate.hit_p50_ms and correlate.wire_p50_ms give each mode);
    # kb-churn writes alternate between NCMIR (~30 ms) and SYNAPSE
    # (~20 ms) labs
    "correlate_mean_ms": "ms",
    "correlate_p90_ms": "ms",
    "ask_mean_ms": "ms",
    "ask_p90_ms": "ms",
    "write_mean_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run): name -> (unit, what it is divided
#: by: "op", "correlate", "ask", "write", "task", or None for a
#: ratio/peak that is not a per-op rate)
PER_LAYER = {
    "datalog.evaluate_calls": ("count", "op"),
    "datalog.evaluate_ms": ("ms", "op"),
    "datalog.rule_firings": ("count", "op"),
    "datalog.facts_derived": ("count", "op"),
    "flogic.ask_self_ms": ("ms", "ask"),
    "flogic.self_ms": ("ms", "op"),
    "dm.graphop_calls": ("count", "op"),
    "dm.graphops_ms": ("ms", "op"),
    "dm.compile_ms": ("ms", "op"),
    "core.assemble_ms": ("ms", "op"),
    "core.aggregate_ms": ("ms", "op"),
    "core.self_ms": ("ms", "op"),
    "plan.build_ms": ("ms", "correlate"),
    "plan.retrieve_ms": ("ms", "correlate"),
    "plan.dedup_hits": ("count", "correlate"),
    "register.ms": ("ms", "write"),
    "deregister.ms": ("ms", "write"),
    "source.calls": ("count", "op"),
    "source.wait_ms": ("ms", "op"),
    "source.rows": ("count", "op"),
    "xml.codec_ms": ("ms", "op"),
    "wire.bytes": ("bytes", "op"),
    "xml.register_ms": ("ms", "write"),
    "cache.hit_ratio": ("ratio", None),
    "cache.evictions": ("count", "op"),
    "cache.lookup_ms": ("ms", "op"),
    "cache.invalidate_ms": ("ms", "write"),
    "cache.invalidated_entries": ("count", "write"),
    "guard.self_ms": ("ms", "op"),
    "guard.retries": ("count", "op"),
    "guard.failures": ("count", "op"),
    "fanout.tasks": ("count", "op"),
    "fanout.overlap": ("ratio", None),
    "fanout.queue_wait_ms": ("ms", "task"),
    "fanout.wait_ms": ("ms", "op"),
    "fanout.threads_peak": ("count", None),
    "fanout.threads_left": ("count", None),
    "correlate.hit_share": ("ratio", None),
    "correlate.hit_p50_ms": ("ms", None),
    "correlate.wire_p50_ms": ("ms", None),
    "trace.overhead": ("ratio", None),
    "trace.selftime_share": ("ratio", None),
    "trace.min_self_ms": ("ms", None),
    "trace.worker_ms": ("ms", "op"),
    "host.probe_ms": ("ms", None),
}

#: probe layer -> the per-layer self-time metric it feeds
LAYER_METRICS = {
    "datalog": "datalog.evaluate_ms",
    "dm": "dm.graphops_ms",
    "dm.compile": "dm.compile_ms",
    "core.assemble": "core.assemble_ms",
    "core.aggregate": "core.aggregate_ms",
    "core.self": "core.self_ms",
    "register": "register.ms",
    "deregister": "deregister.ms",
    "source": "source.wait_ms",
    "xml.codec": "xml.codec_ms",
    "xml.register": "xml.register_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.invalidate": "cache.invalidate_ms",
    "guard": "guard.self_ms",
    "fanout": "fanout.wait_ms",
}

def _percentile(values, fraction):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(fraction * 100) - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Everything one measurement loop recorded."""

    def __init__(self):
        #: (kind, arg, state, answer digest or None)
        self.log = []
        #: per-op times rescaled to the nominal host (hostspeed.py)
        self.latency_s = {"correlate": [], "ask": [], "write": []}
        self.errors = []
        self.traced = {"op": 0, "correlate": 0, "ask": 0, "write": 0}
        self.traced_s = 0.0
        #: summed wall time of the traced ops' root frames
        self.traced_wall_s = 0.0
        self.untraced = 0
        self.untraced_s = 0.0
        self.hit_ms = []
        self.wire_ms = []
        self.counters = {}
        self.threads_left = 0
        #: host-speed probe times (seconds)
        self.probe_s = []


def _fold_counters(totals, metrics):
    wire = metrics.counter_value("wire.bytes", kind="query")
    wire += metrics.counter_value("wire.bytes", kind="register")
    values = {
        "datalog.rule_firings": metrics.counter_total("datalog.rule_firings"),
        "datalog.facts_derived": metrics.counter_total("datalog.facts_derived"),
        "wire.bytes": wire,
        "cache.hits": metrics.counter_total("cache.hits"),
        "cache.misses": metrics.counter_total("cache.misses"),
        "cache.evictions": metrics.counter_total("cache.evictions"),
        "cache.invalidated_entries": metrics.counter_total(
            "cache.invalidated_entries"
        ),
        "plan.dedup_hits": metrics.counter_total("cache.dedup"),
        "guard.retries": metrics.counter_total("resilience.retry"),
    }
    for name, value in values.items():
        totals[name] = totals.get(name, 0) + value


def measure(deployment, stream, seconds, max_ops=None, trace=False):
    """The closed loop: run ops until `seconds` elapse (or `max_ops`
    ops ran); returns a :class:`Run` and the layer recorder (None
    untraced)."""
    from repro import obs
    from workloads import answer_digest

    run = Run()
    recorder = probes = None
    if trace:
        from probes import Probes, Recorder

        recorder = Recorder()
        probes = Probes(recorder)
    cycle = len(stream.workload.CYCLE)
    speed = HostSpeed()
    deadline = perf_counter() + seconds
    count = 0
    while count != max_ops and perf_counter() < deadline:
        kind, arg, state = stream.next()
        # every other cycle is traced, so each op kind is in both halves
        traced = trace and (count // cycle) % 2 == 1
        count += 1
        call, canonical = deployment.op(kind, arg)
        if traced:
            probes.install()
            tracer = obs.install(obs.Tracer("medbench"))
            calls_before = recorder.counts["source.calls"]
            frame = recorder.begin_op()
        raw = error = answer = None
        begin_cpu = process_time()
        begin = perf_counter()
        try:
            raw = call()
        except Exception as exc:  # every failure is counted, not fatal
            error = exc
        elapsed = perf_counter() - begin
        cpu = process_time() - begin_cpu
        if traced:
            run.traced_wall_s += recorder.end_op(frame)
            obs.uninstall()
            probes.uninstall()
        run.latency_s[kind].append(speed.host_time(elapsed, cpu))
        if error is None:
            try:
                answer = canonical(raw)
            except Exception as exc:  # a degraded answer
                error = exc
        if error is not None:
            run.errors.append("%s %r: %s: %s"
                              % (kind, arg, type(error).__name__, error))
        if traced:
            _fold_counters(run.counters, tracer.metrics)
            run.traced["op"] += 1
            run.traced[kind] += 1
            run.traced_s += elapsed
            if kind == "correlate":
                wire = recorder.counts["source.calls"] > calls_before
                (run.wire_ms if wire else run.hit_ms).append(elapsed * 1e3)
        elif trace:
            run.untraced += 1
            run.untraced_s += elapsed
        run.log.append(
            (kind, arg, state,
             None if answer is None else answer_digest(answer))
        )
    run.threads_left = threading.active_count()
    run.probe_s = speed.samples
    return run, recorder


def check_answers(workload, run):
    """Replay the run on the plain reference; returns the number of
    ops whose answer failed (or differs from the reference or from
    the checked-in digest)."""
    from workloads import Reference, key_digest, op_key

    pinned = load_digest().get(workload.name, {})
    reference = Reference(workload)
    failed = 0
    for kind, arg, state, got in run.log:
        want = reference.answer(kind, arg, state)
        if got is None:
            failed += 1
            continue
        key = op_key(kind, arg, state)
        if got != want:
            failed += 1
            run.errors.append("%s: answer differs from the reference" % key)
        elif pinned.get(key_digest(key)) != want:
            failed += 1
            run.errors.append("%s: answer differs from the digest" % key)
    return failed


def load_digest():
    try:
        with open(DIGEST_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def end_to_end_metrics(run, setups):
    latency = run.latency_s
    total_s = sum(sum(values) for values in latency.values())
    ops = sum(len(values) for values in latency.values())
    values = {
        "setup_s": _median(setups),
        "ops_per_s": ops / total_s if total_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    for kind in ("correlate", "ask", "write"):
        ms = [s * 1e3 for s in latency[kind]]
        values["%s_mean_ms" % kind] = statistics.fmean(ms) if ms else 0.0
        values["%s_p90_ms" % kind] = _percentile(ms, 0.90)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer_metrics(run, recorder):
    traced = run.traced
    counts = dict(recorder.counts)
    counts.update(run.counters)
    counts["datalog.evaluate_calls"] = recorder.calls.get("datalog", 0)
    counts["dm.graphop_calls"] = recorder.calls.get("dm", 0)
    self_ms = {
        LAYER_METRICS[layer]: seconds * 1e3
        for layer, seconds in recorder.self_s.items()
        if layer in LAYER_METRICS
    }
    ask_ms = recorder.self_s.get("flogic.ask", 0.0) * 1e3
    flogic_ms = recorder.self_s.get("flogic", 0.0) * 1e3
    totals = dict(counts)
    totals.update(self_ms)
    totals.update(
        {
            "flogic.ask_self_ms": ask_ms,
            "flogic.self_ms": flogic_ms + ask_ms,
            "plan.build_ms": recorder.windows.get("plan.build", 0.0) * 1e3,
            "plan.retrieve_ms":
                recorder.windows.get("plan.retrieve", 0.0) * 1e3,
            "fanout.queue_wait_ms":
                counts.get("fanout.queue_wait_s", 0.0) * 1e3,
            "trace.worker_ms": recorder.worker_self_s * 1e3,
        }
    )
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    map_wall = counts.get("fanout.map_wall_s", 0.0)
    correlates = len(run.hit_ms) + len(run.wire_ms)
    traced_rate = traced["op"] / run.traced_s if run.traced_s else 0.0
    untraced_rate = run.untraced / run.untraced_s if run.untraced_s else 0.0
    op_wall_s = run.traced_wall_s
    values = {
        "cache.hit_ratio":
            counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "fanout.overlap":
            counts.get("fanout.task_wall_s", 0.0) / map_wall
            if map_wall else 0.0,
        "fanout.threads_peak": recorder.threads_peak,
        "fanout.threads_left": run.threads_left,
        "correlate.hit_share":
            len(run.hit_ms) / correlates if correlates else 0.0,
        "correlate.hit_p50_ms": _median(run.hit_ms),
        "correlate.wire_p50_ms": _median(run.wire_ms),
        "trace.overhead":
            traced_rate / untraced_rate if untraced_rate else 0.0,
        "trace.selftime_share":
            recorder.op_thread_self_s / op_wall_s if op_wall_s else 0.0,
        "trace.min_self_ms": (
            recorder.min_self_s * 1e3
            if recorder.min_self_s != float("inf") else 0.0
        ),
        "host.probe_ms": _median(run.probe_s) * 1e3,
    }
    divisors = {
        "op": traced["op"],
        "correlate": traced["correlate"],
        "ask": traced["ask"],
        "write": traced["write"],
        "task": counts.get("fanout.tasks", 0),
    }
    metrics = {}
    for name, (unit, per) in PER_LAYER.items():
        if per is None:
            value = values[name]
        else:
            divisor = divisors[per]
            value = totals.get(name, 0) / divisor if divisor else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def setup(workload):
    """Build the deployment SETUP_REPEATS times (each with one untimed
    warm-up correlate per mediator); returns the last one and every
    set-up time, rescaled to the nominal host."""
    from workloads import (
        WARMUP_QUERY,
        Deployment,
        correlate_answer,
        family_query,
    )

    builds = []
    samples = [probe() for _ in range(SETUP_PROBES)]
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None
        # every build starts from the same heap: no garbage of the
        # previous one left for the cyclic GC to trace
        gc.collect()
        begin_cpu = process_time()
        begin = perf_counter()
        deployment = Deployment(workload)
        for mediator in deployment.mediators:
            correlate_answer(mediator.correlate(family_query(WARMUP_QUERY)))
        builds.append((perf_counter() - begin, process_time() - begin_cpu))
        samples += [probe() for _ in range(SETUP_PROBES)]
    # a build is long next to the host's bursts of speed, so the
    # probes next to it miss most of them: rescale by all probes
    scale = scale_of(samples)
    times = [host_time(wall, cpu, scale) for wall, cpu in builds]
    return deployment, times


def run_workload(name, seed, seconds, trace, max_ops=None):
    """One benchmark run; returns the result object printed as JSON."""
    from workloads import WORKLOADS, OpStream

    workload = WORKLOADS[name]
    deployment, setups = setup(workload)
    # the deployment lives for the whole run: keep the cyclic GC from
    # re-scanning it, so a collection costs what the ops allocated
    gc.collect()
    gc.freeze()
    try:
        run, recorder = measure(
            deployment, OpStream(workload, seed), seconds, max_ops, trace
        )
        metrics = (
            per_layer_metrics(run, recorder)
            if trace
            else end_to_end_metrics(run, setups)
        )
    finally:
        gc.unfreeze()
        deployment.close()
    failed = check_answers(workload, run)
    for error in run.errors[:10]:
        print("medbench: %s" % error, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(run.log),
        "failed": failed,
        "metrics": metrics,
    }


def write_digest():
    """Digest every op any stream can draw, on the plain reference."""
    from workloads import (
        WORKLOADS,
        Reference,
        key_digest,
        op_key,
        reachable_ops,
        state_key,
    )

    digest = {}
    for name, workload in sorted(WORKLOADS.items()):
        entries = {}
        for writes, reads in reachable_ops(workload):
            reference = Reference(workload)
            for lab in writes:
                state = state_key(reference.labs)
                arg = (reference.labs[0], lab)
                want = reference.answer("write", arg, state)
                entries[key_digest(op_key("write", arg, state))] = want
            state = state_key(reference.labs)
            for kind, arg in reads:
                want = reference.answer(kind, arg, state)
                entries[key_digest(op_key(kind, arg, state))] = want
        digest[name] = dict(sorted(entries.items()))
        print("medbench: %s: %d digests" % (name, len(entries)),
              file=sys.stderr)
    with open(DIGEST_PATH, "w") as handle:
        json.dump(digest, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=("sec5", "federation",
                                               "kb-churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digest", action="store_true")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("medbench: no repro sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_digest:
        write_digest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
