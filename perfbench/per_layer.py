"""Per-layer metrics from one traced run.

Names are ``<layer>.<quantity>``. Counts come from the program's public
counters (read before and after the measured phase), times from the
spans the wrappers in ``layers.py`` recorded. A quantity whose layer did
no work on a workload reads 0 (no disk traffic on ``hot_read``, no
directory on ``churn_mix``); a p99 over fewer than 1000 samples reads 0
too, since fewer than ten samples would lie beyond it.

``*.cpu_self_frac`` is each layer's share of the CPU the spans account
for, after the tracer's own calibrated cost is taken off every span; the
shares of all layers sum to 1.
"""

from __future__ import annotations

import statistics

from layers import LAYERS
from tracing import highest_percentile, percentile

__all__ = ["per_layer"]

_SERVER_OPS = ("read", "create", "delete")
_DIRECTORY_OPS = ("lookup_set", "append", "replace")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _p50_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _p99_ms(samples) -> float:
    top = highest_percentile(len(samples))
    if top is None or top < 99:
        return 0.0
    return percentile(sorted(samples), 99) * 1e3


def per_layer(untraced, traced, tracer, probe) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    aggregates = tracer.aggregates
    outcome = traced.outcome
    ops = outcome.ops
    d = {key: traced.after[key] - traced.before[key] for key in traced.after}
    server = traced.workload.rig.bullet
    writes = d["server.creates"] + d["server.deletes"]
    elapsed = d["sim_now"]

    def durations(layer, *names):
        out = []
        for name in names:
            agg = aggregates.get((layer, name))
            if agg is not None:
                out.extend(agg.durations)
        return out

    def count(layer, name):
        agg = aggregates.get((layer, name))
        return agg.count if agg is not None else 0

    layer_cpu = {layer: 0 for layer in LAYERS}
    for (layer, _name), agg in aggregates.items():
        layer_cpu[layer] += agg.cpu_self
    attributed = sum(layer_cpu.values())

    def share(layer):
        return (_ratio(layer_cpu[layer], attributed), "ratio")

    trans = aggregates.get(("net.rpc", "RpcTransport.trans"))
    setup_inode = sum(agg.cpu_self for (layer, _n), agg
                      in tracer.setup_aggregates.items()
                      if layer == "core.inode")
    disks = server.mirror.disks
    m = {
        "sim.events_per_op": (_ratio(d["events"], ops), "1/op"),
        "sim.cpu_self_frac": share("sim"),
        "net.ethernet.packets_per_op": (_ratio(d["eth.packets"], ops),
                                        "1/op"),
        "net.ethernet.busy_frac": (_ratio(d["eth.wire_time"], elapsed),
                                   "ratio"),
        "net.ethernet.cpu_self_frac": share("net.ethernet"),
        "net.rpc.trans_p50_ms": (_p50_ms(trans.durations) if trans else 0.0,
                                 "ms"),
        "net.rpc.trans_p99_ms": (_p99_ms(trans.durations) if trans else 0.0,
                                 "ms"),
        "net.rpc.wait_ms": (_ratio(trans.sim_self, trans.count) * 1e3
                            if trans else 0.0, "ms"),
        "net.rpc.calls_per_op": (_ratio(trans.count if trans else 0, ops),
                                 "1/op"),
        "net.rpc.retransmits": (d["rpc.retransmits"], "count"),
        "net.rpc.cpu_self_frac": share("net.rpc"),
    }
    for op in _SERVER_OPS:
        samples = durations("core.server", f"BulletServer.{op}")
        m[f"core.server.{op}_p50_ms"] = (_p50_ms(samples), "ms")
        m[f"core.server.{op}_p99_ms"] = (_p99_ms(samples), "ms")
    m.update({
        "core.server.cap_cache_hit_ratio": (
            _ratio(d["server.cap_check_cache_hits"], d["server.cap_checks"]),
            "ratio"),
        "core.server.reads_per_op": (_ratio(d["server.reads"], ops), "1/op"),
        "core.server.error_replies": (d["error_replies"], "count"),
        "core.server.cpu_self_frac": share("core.server"),
        "core.cache.hit_ratio": (_ratio(d["cache.hits"], d["cache.lookups"]),
                                 "ratio"),
        "core.cache.evictions_per_op": (_ratio(d["cache.evictions"], ops),
                                        "1/op"),
        "core.cache.cpu_self_frac": share("core.cache"),
        "core.locks.wait_p99_ms": (_p99_ms(probe.lock_waits), "ms"),
        "core.locks.contention_per_op": (_ratio(d["lock.contention"], ops),
                                         "1/op"),
        "core.locks.cpu_self_frac": share("core.locks"),
        "core.inode.encodes_per_write": (
            _ratio(count("core.inode", "Inode.encode"), writes), "1/write"),
        "core.inode.cpu_self_s": (layer_cpu["core.inode"] / 1e9, "s"),
        "core.inode.setup_cpu_self_s": (setup_inode / 1e9, "s"),
        "core.inode.cpu_self_frac": share("core.inode"),
        "core.freelist.allocs_per_write": (
            _ratio(probe.disk_allocs, writes), "1/write"),
        "core.freelist.fragmentation": (
            server.disk_free.external_fragmentation(), "ratio"),
        "core.freelist.cpu_self_frac": share("core.freelist"),
        "disk.ops_per_op": (_ratio(d["disk.reads"] + d["disk.writes"], ops),
                            "1/op"),
        "disk.seeks_per_op": (_ratio(d["disk.seeks"], ops), "1/op"),
        "disk.busy_frac": (_ratio(d["disk.busy_time"],
                                  elapsed * len(disks)), "ratio"),
        "disk.queue_p99_ms": (_p99_ms(probe.queue_waits), "ms"),
        "disk.service_p50_ms": (_p50_ms(probe.service_times), "ms"),
        "disk.bytes_written_per_user_byte": (
            _ratio(d["disk.blocks_written"] * disks[0].block_size,
                   outcome.writes_bytes), "ratio"),
        "disk.cpu_self_frac": share("disk"),
        "disk.mirror.write_p50_ms": (_p50_ms(probe.quorum_times), "ms"),
        "disk.mirror.cpu_self_frac": share("disk.mirror"),
        "client.workstation.hit_ratio": (
            _ratio(d["ws.hits"], d["ws.lookups"]), "ratio"),
        "client.workstation.local_verifies_per_op": (
            _ratio(d["ws.local_verifies"], ops), "1/op"),
        "client.workstation.rpcs_avoided_per_op": (
            _ratio(d["ws.rpcs_avoided"], ops), "1/op"),
        "client.workstation.cpu_self_frac": share("client.workstation"),
        "client.named.dir_rpcs_per_op": (_ratio(d["named.dir_rpcs"], ops),
                                         "1/op"),
        "client.named.revalidations": (d["named.revalidations"], "count"),
        "client.named.open_p50_ms": (
            _p50_ms(durations("client.named", "NamedFileClient.open")),
            "ms"),
        "client.named.cpu_self_frac": share("client.named"),
        "directory.op_p50_ms": (
            _p50_ms(durations("directory", *(f"DirectoryServer.{op}"
                                              for op in _DIRECTORY_OPS))),
            "ms"),
        "directory.cpu_self_frac": share("directory"),
        "capability.cpu_self_frac": share("capability"),
        "obs.registry.cpu_self_frac": share("obs.registry"),
        "bench.cpu_self_frac": share("bench"),
        "trace.overhead_frac": (
            1.0 - traced.ops_per_cpu_s / untraced.ops_per_cpu_s, "ratio"),
    })
    return m
