"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics: the workload is set up and run again and again, each time from
scratch with the same seed, until ``--seconds`` have passed (at least
three times after a warm-up run); CPU figures are the median over the
runs after the warm-up, simulated figures must agree between all of them
exactly. ``--trace 1`` runs the workload untraced (a warm-up, then once
measured) and once with every layer's entry points wrapped, checks that
the simulations are identical, and reports the per-layer metrics.

Every run checks its outputs: each READ against the bytes written, stale
reads under check-always, the public audits of the server cache, free
list, lock table and workstation caches, the registry's
``hits + misses == lookups``, and the workload's own non-vacuity checks.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines before it
are a readable table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

#: Runs whose CPU figures are discarded: the first run of a process
#: also pays for growing its heap (a third more CPU on ``churn_mix``).
WARMUP = 1
#: Measured repetitions of an untraced run, at the least: CPU figures
#: are medians.
MIN_REPS = 3

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro  # noqa: F401


class Rep:
    """One setup plus one measured phase."""

    def __init__(self, workload, outcome, setup_cpu, meter, before, after,
                 signature):
        self.workload = workload
        self.outcome = outcome
        self.setup_cpu = setup_cpu
        self.meter = meter
        self.before = before
        self.after = after
        self.signature = signature

    @property
    def ops_per_cpu_s(self) -> float:
        return self.outcome.ops / self.meter.cpu_s

    @property
    def setup_s(self) -> float:
        """Set-up CPU time, on the clock of ``ops_per_cpu_s``."""
        return self.setup_cpu * self.meter.scale


def run_once(name: str, seed: int, reference, tracer=None,
             probe=None) -> Rep:
    """Set the workload up and measure it once. With ``tracer``, every
    layer's entry points are wrapped for the whole run."""
    from repro.sim.core import set_env_created_hook
    from meter import Meter
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[name]()
    wrap = _identity
    gc.collect()
    if tracer is not None:
        set_env_created_hook(tracer.attach)
        wrap = _bench_wrapper(tracer)
    try:
        t0 = time.process_time()
        rig = workload.setup(seed)
        t1 = time.process_time()
        if tracer is not None:
            tracer.setup_aggregates = tracer.end_phase()
            probe.watch(rig.bullet.mirror.disks, rig.bullet.disk_free)
            tracer.begin_phase()
        before = counters(workload)
        outcome = Outcome()
        meter = Meter(workload.quantum, reference)
        workload.measure(seed, outcome, wrap, meter)
        if tracer is not None:
            tracer.end_phase()
    finally:
        if tracer is not None:
            set_env_created_hook(None)
    after = counters(workload)
    audit(workload, outcome)
    signature = (outcome.ops, outcome.attempted, outcome.failed,
                 outcome.reads, outcome.writes, outcome.sim_elapsed,
                 rig.env.events_scheduled, rig.metrics.snapshot())
    return Rep(workload, outcome, t1 - t0, meter, before, after, signature)


def _identity(fn):
    return fn


def _bench_wrapper(tracer):
    def wrap(fn):
        return tracer.wrap_gen(fn, "bench", "client")
    return wrap


def counters(workload) -> dict:
    """The program's public counters, read between phases."""
    rig = workload.rig
    server = rig.bullet
    registry = rig.metrics
    out = {
        "events": rig.env.events_scheduled,
        "sim_now": rig.env.now,
        "eth.packets": rig.ethernet.stats.packets,
        "eth.wire_time": rig.ethernet.stats.wire_time,
        "rpc.retransmits": rig.rpc.stats_retransmits,
        "error_replies": registry.total("repro_server_error_replies_total"),
        "lock.contention": registry.total("repro_lock_contention_total"),
    }
    for field in ("reads", "creates", "deletes", "cap_checks",
                  "cap_check_cache_hits"):
        out[f"server.{field}"] = getattr(server.stats, field)
    for field in ("lookups", "hits", "misses", "evictions"):
        out[f"cache.{field}"] = getattr(server.cache.stats, field)
    for field in ("reads", "writes", "seeks", "busy_time", "blocks_written"):
        out[f"disk.{field}"] = sum(getattr(d.stats, field)
                                   for d in server.mirror.disks)
    sessions = getattr(workload, "sessions", ())
    for field in ("lookups", "hits", "local_verifies", "rpcs_avoided"):
        out[f"ws.{field}"] = sum(getattr(s.cache.stats, field)
                                 for s in sessions)
    for field in ("dir_rpcs", "revalidations"):
        out[f"named.{field}"] = sum(getattr(s.stats, field)
                                    for s in sessions)
    return out


def audit(workload, outcome) -> None:
    """The program's own audits; a violation fails the run."""
    from repro.errors import ConsistencyError

    server = workload.rig.bullet
    registry = workload.rig.metrics
    checks = [
        ("BulletCache.check_invariants", server.cache.check_invariants),
        ("ExtentFreeList.check_invariants",
         server.disk_free.check_invariants),
        ("FileLockTable.check_invariants", server.locks.check_invariants),
    ]
    for cache in workload.workstation_caches():
        checks.append((f"WorkstationCache.audit[{cache.name}]", cache.audit))
    for family in ("repro_cache", "repro_client_cache"):
        def conservation(family=family):
            hits = registry.total(f"{family}_hits_total")
            misses = registry.total(f"{family}_misses_total")
            lookups = registry.total(f"{family}_lookups_total")
            if hits + misses != lookups:
                raise ConsistencyError(
                    f"{family}: {hits} + {misses} != {lookups}")
        checks.append((f"{family} hits + misses == lookups", conservation))
    for label, check in checks:
        try:
            check()
        except ConsistencyError as exc:
            outcome.checks[label] = str(exc) or type(exc).__name__
        else:
            outcome.checks[label] = ""


# ----------------------------------------------------------------- metrics


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(reps, reference_kb) -> tuple:
    """The end-to-end metrics, plus the lines of the readable table for
    metrics the JSON leaves out (they are 0 or absent on some workload).
    ``reference_kb`` is what the meter's reference heap added to the
    peak RSS; it is the benchmark's memory, so it is left out."""
    from tracing import highest_percentile, percentile

    first = reps[0].outcome
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "ops_per_cpu_s": (statistics.median(r.ops_per_cpu_s for r in reps),
                          "ops/s"),
        "peak_rss_mb": ((max_rss_kb() - reference_kb) / 1024.0, "MB"),
        "sim_ops_per_s": (first.ops / first.sim_elapsed, "ops/s"),
    }
    extra = {"failed_op_frac": (first.failed / max(1, first.attempted),
                                "ratio")}
    problems = []
    for kind, samples, target in (("read", first.reads, metrics),
                                  ("write", first.writes, extra)):
        if not samples and target is extra:
            continue
        ordered = sorted(samples)
        top = highest_percentile(len(ordered))
        if top is None or top < 99:
            problems.append(f"{kind} p99 needs 1000 samples, "
                            f"has {len(ordered)}")
            continue
        target[f"{kind}_p50_ms"] = (percentile(ordered, 50) * 1e3, "ms")
        target[f"{kind}_p99_ms"] = (percentile(ordered, 99) * 1e3, "ms")
        extra[f"{kind}_samples"] = (len(ordered), "count")
    return metrics, extra, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    from meter import Reference

    rss_kb = max_rss_kb()
    reference = Reference()
    reference_kb = max_rss_kb() - rss_kb
    started = time.monotonic()
    reps = []
    while True:
        rep = run_once(args.workload, args.seed, reference)
        rep.workload = None   # let the next run reuse the memory
        reps.append(rep)
        measured = len(reps) - WARMUP
        if args.trace and measured >= 1:
            break
        if (measured >= MIN_REPS
                and time.monotonic() - started >= args.seconds):
            break
    problems = []
    if any(r.signature != reps[0].signature for r in reps[1:]):
        problems.append("runs of one seed simulated differently")

    if args.trace:
        from layers import install, Probe
        from per_layer import per_layer
        from tracing import SpanTracer

        tracer = SpanTracer()
        tracer.calibrate()
        probe = Probe(tracer)
        install(tracer, probe)
        try:
            traced = run_once(args.workload, args.seed, reference, tracer,
                              probe)
        finally:
            tracer.restore()
        if traced.signature != reps[0].signature:
            problems.append("the traced run simulated differently")
        reps.append(traced)
        metrics = per_layer(reps[WARMUP], traced, tracer, probe)
        extra = {}
    else:
        metrics, extra, more = end_to_end(reps[WARMUP:], reference_kb)
        problems.extend(more)

    for rep in reps:
        for label, failure in sorted(rep.outcome.checks.items()):
            if failure:
                problems.append(f"{label}: {failure}")
    first = reps[0]
    for why, count in sorted(first.outcome.errors.items()):
        print(f"failed ops: {count} x {why}")
    print(f"workload {args.workload}  seed {args.seed}  runs {len(reps)}"
          f"{'  (last traced)' if args.trace else ''}")
    for label in sorted(first.outcome.checks):
        print(f"  check {label}: "
              f"{first.outcome.checks[label] or 'ok'}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems and first.outcome.failed == 0,
        "attempted": first.outcome.attempted,
        "failed": first.outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
