"""Which entry points the traced run wraps, and the layer each belongs to.

Layer names follow the package layout of ``src/repro``. Only the layers
on a served Bullet path are wrapped; ``nfs``, ``logsvc``, ``btree``,
``unixemu``, ``modelcheck`` and ``analysis`` are left out.

``sim`` is the kernel: its self CPU is what the wrapped ``Environment.run``
spends outside every other span (heap, dispatch, process resumption) plus
the wrapped event and resource helpers. ``bench`` is the benchmark's own
client loop (choosing files, checking bytes).

A few private seams are wrapped because no public call shows the time a
layer spends: the server and disk service loops (so their CPU lands in
their own layer, not the kernel's), the per-replica write process (the
time to the P-FACTOR quorum), and the disk's request queue and geometry
(when each request leaves the queue, and its access time).
"""

from __future__ import annotations

import importlib
import inspect
import sys

__all__ = ["LAYERS", "Probe", "install"]

# (module, owner or None for a module function, attribute, layer)
_ENTRY_POINTS = [
    # sim
    ("repro.sim.core", "Environment", "run", "sim"),
    ("repro.sim.core", "Environment", "process", "sim"),
    ("repro.sim.core", "Environment", "timeout", "sim"),
    ("repro.sim.core", "Environment", "timeout_batch", "sim"),
    ("repro.sim.core", "Event", "succeed", "sim"),
    ("repro.sim.core", "Event", "fail", "sim"),
    ("repro.sim.resources", "Resource", "request", "sim"),
    ("repro.sim.resources", "Resource", "release", "sim"),
    ("repro.sim.resources", "Store", "put", "sim"),
    ("repro.sim.resources", "Store", "get", "sim"),
    # net
    ("repro.net.ethernet", "Ethernet", "send_fragments", "net.ethernet"),
    ("repro.net.ethernet", "Ethernet", "_background_traffic",
     "net.ethernet"),
    ("repro.net.rpc", "RpcTransport", "trans", "net.rpc"),
    ("repro.net.rpc", "ServiceEndpoint", "putrep", "net.rpc"),
    ("repro.client.bullet_client", "BulletClient", "read", "net.rpc"),
    ("repro.client.bullet_client", "BulletClient", "create", "net.rpc"),
    ("repro.client.bullet_client", "BulletClient", "delete", "net.rpc"),
    ("repro.client.bullet_client", "BulletClient", "restrict", "net.rpc"),
    ("repro.client.directory_client", "DirectoryClient", "lookup_set",
     "net.rpc"),
    ("repro.client.directory_client", "DirectoryClient", "replace",
     "net.rpc"),
    ("repro.client.directory_client", "DirectoryClient", "append",
     "net.rpc"),
    # core.server
    ("repro.core.server", "BulletServer", "_serve", "core.server"),
    ("repro.core.server", "BulletServer", "create", "core.server"),
    ("repro.core.server", "BulletServer", "read", "core.server"),
    ("repro.core.server", "BulletServer", "size", "core.server"),
    ("repro.core.server", "BulletServer", "delete", "core.server"),
    ("repro.core.server", "BulletServer", "restrict_cap", "core.server"),
    ("repro.core.server", "VerifiedCapCache", "hit", "core.server"),
    ("repro.core.server", "VerifiedCapCache", "add", "core.server"),
    # core.cache
    ("repro.core.cache", "BulletCache", "probe_slot", "core.cache"),
    ("repro.core.cache", "BulletCache", "peek", "core.cache"),
    ("repro.core.cache", "BulletCache", "insert", "core.cache"),
    ("repro.core.cache", "BulletCache", "reserve", "core.cache"),
    ("repro.core.cache", "BulletCache", "fill", "core.cache"),
    ("repro.core.cache", "BulletCache", "touch", "core.cache"),
    ("repro.core.cache", "BulletCache", "pin", "core.cache"),
    ("repro.core.cache", "BulletCache", "unpin", "core.cache"),
    ("repro.core.cache", "BulletCache", "remove", "core.cache"),
    # core.locks
    ("repro.core.locks", "FileLockTable", "acquire_read", "core.locks"),
    ("repro.core.locks", "FileLockTable", "acquire_write", "core.locks"),
    ("repro.core.locks", "FileLockTable", "release", "core.locks"),
    ("repro.core.locks", "FileLockTable", "transfer", "core.locks"),
    # core.inode
    ("repro.core.inode", "InodeTable", "get", "core.inode"),
    ("repro.core.inode", "InodeTable", "allocate", "core.inode"),
    ("repro.core.inode", "InodeTable", "release", "core.inode"),
    ("repro.core.inode", "InodeTable", "encode_block", "core.inode"),
    ("repro.core.inode", "InodeTable", "block_of_inode", "core.inode"),
    ("repro.core.inode", "InodeTable", "decode", "core.inode"),
    ("repro.core.inode", "Inode", "encode", "core.inode"),
    # core.freelist
    ("repro.core.freelist", "ExtentFreeList", "allocate", "core.freelist"),
    ("repro.core.freelist", "ExtentFreeList", "allocate_at",
     "core.freelist"),
    ("repro.core.freelist", "ExtentFreeList", "free", "core.freelist"),
    ("repro.core.freelist", "ExtentFreeList", "external_fragmentation",
     "core.freelist"),
    # disk
    ("repro.disk.vdisk", "VirtualDisk", "read", "disk"),
    ("repro.disk.vdisk", "VirtualDisk", "write", "disk"),
    ("repro.disk.vdisk", "VirtualDisk", "read_raw", "disk"),
    ("repro.disk.vdisk", "VirtualDisk", "write_raw", "disk"),
    ("repro.disk.vdisk", "VirtualDisk", "_serve", "disk"),
    ("repro.disk.geometry", "DiskGeometry", "access_time", "disk"),
    ("repro.disk.scheduler", "FcfsQueue", "push", "disk"),
    ("repro.disk.scheduler", "FcfsQueue", "pop", "disk"),
    # disk.mirror
    ("repro.disk.mirror", "MirroredDiskSet", "read_with_failover",
     "disk.mirror"),
    ("repro.disk.mirror", "MirroredDiskSet", "write", "disk.mirror"),
    ("repro.disk.mirror", "MirroredDiskSet", "resync_note", "disk.mirror"),
    ("repro.core.replication", None, "replicated_file_write", "disk.mirror"),
    ("repro.core.replication", None, "_write_one_replica", "disk.mirror"),
    # client.workstation
    ("repro.client.bullet_client", "CachingBulletClient", "read",
     "client.workstation"),
    ("repro.client.bullet_client", "CachingBulletClient", "restrict",
     "client.workstation"),
    ("repro.client.bullet_client", "CachingBulletClient",
     "lookup_validated", "client.workstation"),
    ("repro.client.workstation", "WorkstationCache", "lookup",
     "client.workstation"),
    ("repro.client.workstation", "WorkstationCache", "admit",
     "client.workstation"),
    ("repro.client.workstation", "WorkstationCache", "currency_evidence",
     "client.workstation"),
    ("repro.client.workstation", "WorkstationCache", "invalidate",
     "client.workstation"),
    # client.named
    ("repro.client.named", "NamedFileClient", "open", "client.named"),
    ("repro.client.named", "NamedFileClient", "read", "client.named"),
    ("repro.client.named", "NamedFileClient", "read_open", "client.named"),
    ("repro.client.named", "NamedFileClient", "publish", "client.named"),
    # directory
    ("repro.directory.server", "DirectoryServer", "_serve", "directory"),
    ("repro.directory.server", "DirectoryServer", "lookup_set", "directory"),
    ("repro.directory.server", "DirectoryServer", "append", "directory"),
    ("repro.directory.server", "DirectoryServer", "replace", "directory"),
    # capability
    ("repro.capability.capability", None, "require", "capability"),
    ("repro.capability.capability", None, "verify", "capability"),
    ("repro.capability.capability", None, "local_verifier", "capability"),
    ("repro.capability.capability", None, "restrict", "capability"),
    ("repro.capability.capability", None, "server_restrict", "capability"),
    ("repro.capability.capability", None, "mint_owner", "capability"),
    ("repro.capability.capability", "Capability", "pack", "capability"),
    # obs
    ("repro.obs.registry", "Counter", "inc", "obs.registry"),
    ("repro.obs.registry", "Gauge", "set", "obs.registry"),
    ("repro.obs.registry", "Gauge", "inc", "obs.registry"),
    ("repro.obs.registry", "Gauge", "dec", "obs.registry"),
    ("repro.obs.registry", "Histogram", "observe", "obs.registry"),
    ("repro.obs.registry", "MetricsRegistry", "counter", "obs.registry"),
    ("repro.obs.registry", "MetricsRegistry", "gauge", "obs.registry"),
    ("repro.obs.registry", "MetricsRegistry", "histogram", "obs.registry"),
]

#: Every layer the per-layer table reports, in table order.
LAYERS = ("sim", "net.ethernet", "net.rpc", "core.server", "core.cache",
          "core.locks", "core.inode", "core.freelist", "disk",
          "disk.mirror", "client.workstation", "client.named", "directory",
          "capability", "obs.registry", "bench")


class Probe:
    """Samples the wrappers collect besides spans: disk queue waits and
    service times, lock waits, and the time each replicated write took
    to reach its P-FACTOR quorum."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.disk_free = None       # the server's disk free list
        self.queue_waits = []       # s, per Bullet disk request
        self.service_times = []     # s, per Bullet disk request
        self.lock_waits = []        # s, per lock grant
        self.quorum_times = []      # s, per replicated file write
        self.disk_allocs = 0        # disk free-list allocations
        self._by_geometry = {}      # id(geometry) -> watched disk
        self._by_queue = {}         # id(request queue) -> watched disk
        self._queued = {}           # id(request) -> time it was queued
        self._serving = set()       # ids of disks whose next access time
                                    # is that of the request just popped
        self._submit = None         # [disk, arm busy, idle-path access time]
        self._group = None          # replicated write being started

    def watch(self, disks, disk_free) -> None:
        """Start the measured phase: forget setup's samples and record
        queueing for ``disks`` from here on."""
        self.disk_free = disk_free
        self._by_geometry = {id(d.geometry): d for d in disks}
        self._by_queue = {id(d._queue): d for d in disks}
        self._queued = {}
        self._serving = set()
        self.queue_waits = []
        self.service_times = []
        self.lock_waits = []
        self.quorum_times = []
        self.disk_allocs = 0

    # -- hooks ----------------------------------------------------------

    # A request takes one of two paths through ``VirtualDisk``. On an
    # idle arm the submission may collapse the whole operation into one
    # event: it waits 0 and is served for the access time computed during
    # the submission. Otherwise, even after that computation when the
    # collapse is refused, it is queued; its wait ends when the serve loop
    # pops it, and the access time computed right after the pop (no yield
    # lies between them) is its service time.

    def before_submit(self, args) -> None:
        disk = args[0]
        self._submit = None
        if id(disk.geometry) in self._by_geometry:
            self._submit = [disk, disk._fast_inflight, None]

    def after_submit(self, _args, _result) -> None:
        submit, self._submit = self._submit, None
        if submit is None:
            return
        disk, busy, duration = submit
        if not busy and disk._fast_inflight:
            self.queue_waits.append(0.0)
            self.service_times.append(duration * disk._slowdown)

    def after_push(self, args, _result) -> None:
        if id(args[0]) in self._by_queue:
            self._queued[id(args[1])] = self.tracer.now()

    def after_pop(self, args, request) -> None:
        disk = self._by_queue.get(id(args[0]))
        if disk is None or request is None:
            return
        queued = self._queued.pop(id(request), None)
        if queued is None or disk._failed:
            return      # queued before the measured phase, or drained
                        # by ``fail`` and never served
        self.queue_waits.append(self.tracer.now() - queued)
        self._serving.add(id(disk))

    def after_access_time(self, args, duration) -> None:
        disk = self._by_geometry.get(id(args[0]))
        if disk is None:
            return
        if id(disk) in self._serving:
            self._serving.discard(id(disk))
            self.service_times.append(duration * disk._slowdown)
        elif self._submit is not None and self._submit[0] is disk:
            self._submit[2] = duration

    def after_observe(self, args, _result) -> None:
        histogram, value = args[0], args[1]
        if histogram.name == "repro_lock_wait_seconds":
            self.lock_waits.append(value)

    def after_allocate(self, args, _result) -> None:
        if args[0] is self.disk_free:
            self.disk_allocs += 1

    def replicated_write(self, fn):
        """Wrap ``replicated_file_write`` so the replica processes it
        starts report to one quorum group."""
        probe = self

        def wrapper(env, mirror, data_block, data, inode_block,
                    inode_block_bytes, p_factor):
            group = _Quorum(probe, env.now, p_factor)
            probe._group = group
            try:
                result = fn(env, mirror, data_block, data, inode_block,
                            inode_block_bytes, p_factor)
            finally:
                probe._group = None
            group.need = min(p_factor, len(result.writes))
            group.settle()
            return result

        return wrapper

    def replica_started(self, _args):
        group = self._group
        return group.replica_done if group is not None else None


class _Quorum:
    __slots__ = ("probe", "start", "need", "ends")

    def __init__(self, probe, start, need):
        self.probe = probe
        self.start = start
        self.need = need
        self.ends = []

    def replica_done(self, span) -> None:
        self.ends.append(span.end)
        self.settle()

    def settle(self) -> None:
        if self.need and len(self.ends) == self.need:
            self.probe.quorum_times.append(max(self.ends) - self.start)


def install(tracer, probe) -> None:
    """Wrap every entry point in place. ``tracer.restore()`` undoes it."""
    before = {
        ("VirtualDisk", "read"): probe.before_submit,
        ("VirtualDisk", "write"): probe.before_submit,
    }
    after = {
        ("VirtualDisk", "read"): probe.after_submit,
        ("VirtualDisk", "write"): probe.after_submit,
        ("FcfsQueue", "push"): probe.after_push,
        ("FcfsQueue", "pop"): probe.after_pop,
        ("DiskGeometry", "access_time"): probe.after_access_time,
        ("Histogram", "observe"): probe.after_observe,
        ("ExtentFreeList", "allocate"): probe.after_allocate,
    }
    for module_name, owner_name, attr, layer in _ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = module.__dict__[attr]
            if attr == "replicated_file_write":
                replacement = tracer.wrap_sync(
                    probe.replicated_write(original), layer, attr)
            elif attr == "_write_one_replica":
                replacement = tracer.wrap_gen(original, layer, attr,
                                              on_call=probe.replica_started)
            else:
                replacement = _wrap(tracer, original, layer, attr)
            _rebind_everywhere(tracer, original, replacement)
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        name = f"{owner_name}.{attr}"
        if isinstance(raw, classmethod):
            tracer.patch(owner, attr,
                         classmethod(_wrap(tracer, raw.__func__, layer, name)))
            continue
        key = (owner_name, attr)
        tracer.patch(owner, attr, _wrap(tracer, raw, layer, name,
                                        before=before.get(key),
                                        hook=after.get(key)))


def _wrap(tracer, fn, layer, name, before=None, hook=None):
    if inspect.isgeneratorfunction(fn):
        return tracer.wrap_gen(fn, layer, name)
    if before is not None:
        inner = fn

        def fn(*args, **kwargs):
            before(args)
            return inner(*args, **kwargs)

    return tracer.wrap_sync(fn, layer, name, hook=hook)


def _rebind_everywhere(tracer, original, replacement) -> None:
    """Point every ``repro`` module's global bound to ``original`` at
    ``replacement`` (modules import these functions by name)."""
    for module_name in sorted(sys.modules):
        if not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        module = sys.modules[module_name]
        for attr, value in sorted(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, replacement)
