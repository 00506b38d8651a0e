"""The virtual disk: a block device with realistic timing.

Functionally it is a sparse block store: only written blocks are
indexed, and each write keeps one reference to its payload, which all
the blocks it covers share (a ``bytes`` payload is not copied, so
mirrored replicas share one copy of a file). Temporally it is a single
arm served by a scheduling discipline: each access costs seek +
rotation + transfer according to
:class:`~repro.disk.geometry.DiskGeometry`, and concurrent requests
queue.

Two access planes:

* **Timed** — :meth:`read` / :meth:`write` return events; yield them
  from a simulation process. This is what servers use.
* **Raw** — :meth:`read_raw` / :meth:`write_raw` move data instantly
  with no simulated cost. Used for formatting (mkfs), test setup, and
  whole-disk recovery copies whose time is charged explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConsistencyError, DiskIOError
from ..obs import MetricsRegistry, RegistryStats
from ..profiles import DiskProfile
from ..sim import Environment, Event, Store, Tracer
from .geometry import DiskGeometry
from .scheduler import make_queue

__all__ = ["VirtualDisk", "DiskStats"]


class DiskStats(RegistryStats):
    """Operation counters for one disk, backed by the observability
    registry (``repro_disk_<field>_total{disk=...}``)."""

    _PREFIX = "repro_disk"
    _COUNTER_FIELDS = (
        "reads",
        "writes",
        "blocks_read",
        "blocks_written",
        "busy_time",
        "seeks",
    )


@dataclass
class _DiskRequest:
    kind: str                     # "read" or "write"
    start_block: int
    nblocks: int
    data: Optional[bytes]
    completion: Event
    cylinder: int = 0


class VirtualDisk:
    """One simulated disk drive."""

    def __init__(
        self,
        env: Environment,
        profile: DiskProfile,
        name: str = "disk0",
        discipline: str = "fcfs",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.profile = profile
        self.name = name
        self.geometry = DiskGeometry(profile)
        self.stats = DiskStats(metrics, disk=name)
        # Direct counter handles for the service loop and the analytic
        # fast path (the facade costs a getattr+setattr per bump).
        self._c_reads = self.stats.handle("reads")
        self._c_writes = self.stats.handle("writes")
        self._c_blocks_read = self.stats.handle("blocks_read")
        self._c_blocks_written = self.stats.handle("blocks_written")
        self._c_busy_time = self.stats.handle("busy_time")
        self._c_seeks = self.stats.handle("seeks")
        self._tracer = tracer
        # Block number -> (payload, first block) of the write that last
        # covered it; every block of one write shares one record.
        self._blocks: dict[int, tuple[bytes, int]] = {}
        self._queue = make_queue(discipline)
        self._wakeups: Store = Store(env)
        self._current_cylinder = 0
        self._failed = False
        # Fault-plane injection seams (see repro.faults): a service-time
        # multiplier, a set of blocks that return media errors, and
        # completion hooks that fire after each successful operation.
        self._slowdown = 1.0
        self._flaky_blocks: set[int] = set()
        self._op_hooks: list[Callable[[str], None]] = []
        # True while an analytically collapsed operation occupies the
        # arm (its completion is on the heap but the serve loop never
        # saw it). Submissions arriving then are parked in the queue
        # without a wakeup token; the finish callback replays tokens.
        self._fast_inflight = False
        self._server = env.process(self._serve())

    # ------------------------------------------------------------ state

    @property
    def block_size(self) -> int:
        return self.profile.block_size

    @property
    def total_blocks(self) -> int:
        return self.geometry.total_blocks

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def fail(self, reason: str = "injected fault") -> None:
        """Mark the disk dead. Pending and future requests fail with
        :class:`DiskIOError`."""
        if self._failed:
            return
        self._failed = True
        self._trace("fault", f"{self.name} failed: {reason}")
        # Drain the queue, failing every pending request.
        while True:
            req = self._queue.pop(self._current_cylinder)
            if req is None:
                break
            req.completion.fail(DiskIOError(f"{self.name} is dead ({reason})"))

    def repair(self) -> None:
        """Bring a failed disk back (blank state is preserved as-is;
        callers decide whether a recovery copy is needed). Repair models
        a drive swap, so injected media faults and degradation clear."""
        if not self._failed:
            return
        self._failed = False
        self._slowdown = 1.0
        self._flaky_blocks.clear()
        self._trace("fault", f"{self.name} repaired")

    # --------------------------------------------- fault injection seams

    def set_slowdown(self, factor: float) -> None:
        """Multiply every access time by ``factor`` (a degraded drive
        retrying internally); ``1.0`` restores nominal speed."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0, got {factor}")
        self._slowdown = factor

    def mark_flaky(self, start_block: int, nblocks: int) -> None:
        """Make ``nblocks`` blocks from ``start_block`` return media
        errors on any timed access that touches them."""
        self.geometry._check_extent(start_block, nblocks)
        self._flaky_blocks.update(range(start_block, start_block + nblocks))

    def clear_flaky(self, start_block: int, nblocks: int) -> None:
        """Heal a previously marked flaky extent."""
        for block in range(start_block, start_block + nblocks):
            self._flaky_blocks.discard(block)

    def add_op_hook(self, hook: Callable[[str], None]) -> None:
        """Register ``hook(kind)`` to run synchronously after each
        *successful* operation completes (kind is "read" or "write").
        This is how write-count faults fire exactly, without polling."""
        self._op_hooks.append(hook)

    def remove_op_hook(self, hook: Callable[[str], None]) -> None:
        """Deregister a completion hook (missing hooks are ignored)."""
        if hook in self._op_hooks:
            self._op_hooks.remove(hook)

    def _flaky_extent(self, start_block: int, nblocks: int) -> bool:
        if not self._flaky_blocks:
            return False
        return any(
            start_block + i in self._flaky_blocks for i in range(nblocks)
        )

    # ------------------------------------------------------- timed plane

    def read(self, start_block: int, nblocks: int) -> Event:
        """Timed read of ``nblocks`` consecutive blocks; the returned
        event fires with the bytes."""
        return self._submit("read", start_block, nblocks, None)

    def write(self, start_block: int, data: bytes) -> Event:
        """Timed write of ``data`` (padded to whole blocks) starting at
        ``start_block``; the event fires with None when durable."""
        if not data:
            raise ValueError("write of zero bytes")
        nblocks = self._blocks_for(len(data))
        return self._submit("write", start_block, nblocks, bytes(data))

    def _submit(self, kind: str, start_block: int, nblocks: int,
                data: Optional[bytes]) -> Event:
        completion = Event(self.env)
        if self._failed:
            completion.fail(DiskIOError(f"{self.name} is dead"))
            return completion
        self.geometry._check_extent(start_block, nblocks)
        env = self.env
        if (not self._fast_inflight
                and len(self._queue) == 0
                and len(self._wakeups) == 0
                and self._wakeups.waiting == 1):
            # The arm is provably idle (serve loop parked on its wakeup
            # store, nothing queued). Collapse the whole operation —
            # wakeup, seek+rotate+transfer timeout, completion — into
            # one scheduled event when nothing else can observe the
            # interval (see sim.core.can_collapse); the finish callback
            # below replays the serve loop's completion-time sequence
            # verbatim at the identical instant.
            duration = self.geometry.access_time(
                self._current_cylinder, start_block, nblocks
            ) * self._slowdown
            if env.can_collapse(env.now + duration):
                completion.callbacks.append(
                    self._make_finish(kind, start_block, nblocks, data,
                                      duration))
                self._fast_inflight = True
                env._schedule(completion, duration)
                return completion
        req = _DiskRequest(
            kind=kind,
            start_block=start_block,
            nblocks=nblocks,
            data=data,
            completion=completion,
            cylinder=self.geometry.cylinder_of(start_block),
        )
        self._queue.push(req)
        if not self._fast_inflight:
            self._wakeups.put(None)
        return completion

    def _make_finish(self, kind: str, start_block: int, nblocks: int,
                     data: Optional[bytes], duration: float):
        """The analytic operation's completion callback: everything the
        serve loop does after its access-time timeout, in the same
        order, mutating the completion event in place (it is already
        being dispatched, so ``succeed`` must not re-schedule it)."""

        def finish(completion: Event) -> None:
            geometry = self.geometry
            if geometry.cylinder_of(start_block) != self._current_cylinder:
                self._c_seeks.inc(1)
            self._current_cylinder = geometry.cylinder_of(
                start_block + max(nblocks - 1, 0)
            )
            self._c_busy_time.inc(duration)
            # The failure/flaky re-checks mirror the serve loop. Under
            # the collapse guard no other process can have armed them
            # mid-flight, but mirroring keeps the two paths line-for-line
            # comparable (and correct even if the guard ever widens).
            if self._failed:
                completion._ok = False
                completion._value = DiskIOError(
                    f"{self.name} died mid-operation"
                )
                self._finish_epilogue()
                return
            if self._flaky_extent(start_block, nblocks):
                self._trace("fault", f"{self.name} media error",
                            block=start_block, n=nblocks)
                completion._ok = False
                completion._value = DiskIOError(
                    f"{self.name} unrecoverable media error in blocks "
                    f"[{start_block}, {start_block + nblocks})"
                )
                self._finish_epilogue()
                return
            if kind == "read":
                payload = self.read_raw(start_block, nblocks)
                self._c_reads.inc(1)
                self._c_blocks_read.inc(nblocks)
                if self._tracer is not None:
                    self._trace("disk", f"{self.name} read",
                                block=start_block, n=nblocks)
                completion._ok = True
                completion._value = payload
            else:
                if data is None:
                    raise ConsistencyError("write request carries no data")
                self.write_raw(start_block, data)
                self._c_writes.inc(1)
                self._c_blocks_written.inc(nblocks)
                if self._tracer is not None:
                    self._trace("disk", f"{self.name} write",
                                block=start_block, n=nblocks)
                completion._ok = True
                completion._value = None
            for hook in list(self._op_hooks):
                hook(kind)
            self._finish_epilogue()

        return finish

    def _finish_epilogue(self) -> None:
        """Release the arm and hand any parked submissions to the serve
        loop (one token per queued request, as the exact path would have
        deposited at submit time)."""
        self._fast_inflight = False
        for _ in range(len(self._queue)):
            self._wakeups.put(None)

    def _serve(self):
        """The arm: one request at a time, in scheduler order."""
        while True:
            yield self._wakeups.get()
            req = self._queue.pop(self._current_cylinder)
            if req is None:
                continue  # request was drained by fail()
            duration = self.geometry.access_time(
                self._current_cylinder, req.start_block, req.nblocks
            ) * self._slowdown
            yield self.env.timeout(duration)
            if self.geometry.cylinder_of(req.start_block) != self._current_cylinder:
                self._c_seeks.inc(1)
            self._current_cylinder = self.geometry.cylinder_of(
                req.start_block + max(req.nblocks - 1, 0)
            )
            self._c_busy_time.inc(duration)
            if self._failed:
                if not req.completion.triggered:
                    req.completion.fail(
                        DiskIOError(f"{self.name} died mid-operation")
                    )
                continue
            if self._flaky_extent(req.start_block, req.nblocks):
                self._trace("fault", f"{self.name} media error",
                            block=req.start_block, n=req.nblocks)
                if not req.completion.triggered:
                    req.completion.fail(DiskIOError(
                        f"{self.name} unrecoverable media error in blocks "
                        f"[{req.start_block}, {req.start_block + req.nblocks})"
                    ))
                continue
            if req.kind == "read":
                payload = self.read_raw(req.start_block, req.nblocks)
                self._c_reads.inc(1)
                self._c_blocks_read.inc(req.nblocks)
                if self._tracer is not None:
                    self._trace("disk", f"{self.name} read",
                                block=req.start_block, n=req.nblocks)
                req.completion.succeed(payload)
            else:
                if req.data is None:
                    raise ConsistencyError("write request carries no data")
                self.write_raw(req.start_block, req.data)
                self._c_writes.inc(1)
                self._c_blocks_written.inc(req.nblocks)
                if self._tracer is not None:
                    self._trace("disk", f"{self.name} write",
                                block=req.start_block, n=req.nblocks)
                req.completion.succeed(None)
            # Completion hooks run after the op is accounted, so a
            # write-count fault armed for the Nth write kills the disk
            # with the Nth write durable and nothing after it.
            for hook in list(self._op_hooks):
                hook(req.kind)

    # --------------------------------------------------------- raw plane

    def read_raw(self, start_block: int, nblocks: int) -> bytes:
        """Instant, cost-free read (setup/recovery plane)."""
        self.geometry._check_extent(start_block, nblocks)
        bs = self.block_size
        blocks = self._blocks
        end = start_block + nblocks
        record = blocks.get(start_block)
        if record is not None and all(
                blocks.get(b) is record for b in range(start_block + 1, end)):
            # The whole range is one write's payload: one slice.
            payload, first = record
            offset = (start_block - first) * bs
            chunk = payload[offset:offset + nblocks * bs]
            return chunk + bytes(nblocks * bs - len(chunk))
        empty = bytes(bs)
        parts = []
        for b in range(start_block, end):
            record = blocks.get(b)
            if record is None:
                parts.append(empty)
                continue
            payload, first = record
            offset = (b - first) * bs
            chunk = payload[offset:offset + bs]
            parts.append(chunk + bytes(bs - len(chunk)))
        return b"".join(parts)

    def write_raw(self, start_block: int, data: bytes) -> None:
        """Instant, cost-free write (setup/recovery plane). A ``bytes``
        payload is kept by reference, not copied."""
        nblocks = self._blocks_for(len(data))
        self.geometry._check_extent(start_block, nblocks)
        if type(data) is not bytes:
            data = bytes(data)  # the caller may mutate its buffer later
        record = (data, start_block)
        blocks = self._blocks
        for b in range(start_block, start_block + nblocks):
            blocks[b] = record

    def used_host_bytes(self) -> int:
        """Block-equivalent footprint of the sparse store: written blocks
        times the block size (payloads are shared, so actual host memory
        may be less)."""
        return len(self._blocks) * self.block_size

    # ------------------------------------------------------------ helpers

    def _blocks_for(self, nbytes: int) -> int:
        bs = self.block_size
        return (nbytes + bs - 1) // bs

    def _trace(self, category: str, message: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(category, message, **fields)
