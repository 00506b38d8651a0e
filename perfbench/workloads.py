"""The three benchmark workloads.

Every workload is a closed loop in simulated time: each simulated client
is a workstation process that waits for its whole-file reply before it
sends again. All clients run as coroutines of one simulation, in one OS
thread, with no real connections. The seed is an argument; the program
only ever sees the inputs generated from it.

* ``hot_read`` -- the Fig. 2 READ path under load. 8 clients read a hot
  set of 500 files, Zipf(0.9), that sits wholly in the server's RAM
  cache, over the normally loaded Ethernet, with one server worker. No
  disk read happens while it is measured, so a disk, inode or free-list
  change must leave it unchanged.
* ``churn_mix`` -- the write side and the larger-than-memory case. 8
  clients each run a ``TraceGenerator`` mix of 60% reads, 20% creates and
  20% deletes over their own files, against a server with 4 workers.
  Creates use P-FACTOR 2: written through to both mirror disks before the
  reply (the flush policy, held fixed). The live files hold about twice
  the server's 14 MB cache, so about half the reads miss to disk.
* ``named_open`` -- §5 open-by-name. 8 workstations, each with its own
  ``WorkstationCache`` and a check-always ``NamedFileClient``, open and
  read a directory-published Zipf hot set that fits each cache, while a
  writer REPLACEs one binding after another. The directory answers one currency check per
  open; the file server sees only cold misses and re-fetches.

File sizes in ``hot_read`` and ``named_open`` are the quantiles of the
paper's log-normal (median 1 KB, 99% under 64 KB, capped at 64 KB),
spread over the popularity ranks by a low-discrepancy sequence: with
sizes drawn at random, the size of the single hottest file (about a
tenth of all reads) would swing every latency from one seed to the next.
The seed still chooses every access, every file's bytes, the Ethernet
background traffic and the server's secrets.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import NormalDist

from repro import RIGHT_READ, ReproError
from repro.bench.harness import make_rig
from repro.bench.workload import FileSizeDistribution, TraceGenerator
from repro.client import (CachingBulletClient, CurrencyPolicy,
                          LocalBulletStub, NamedFileClient,
                          WorkstationCache)
from repro.errors import ConsistencyError
from repro.sim import SeededStream, derive_seed, run_process
from repro.units import KB

__all__ = ["WORKLOADS", "Outcome", "rank_sizes"]

HOT_FILES = 500
HOT_CLIENTS = 8
HOT_READS = 32000

CHURN_CLIENTS = 8
CHURN_FILES_PER_CLIENT = 900
CHURN_OPS = 6000
CHURN_WORKERS = 4
CHURN_P_FACTOR = 2

NAMED_WORKSTATIONS = 8
NAMED_FILES = 64
NAMED_OPENS = 16000
NAMED_REPLACE_INTERVAL = 0.2   # simulated s between writer REPLACEs

MIN_FILE = 32                  # room for the header naming the file
MAX_FILE = 64 * KB


def rank_sizes(n: int) -> list:
    """File size per popularity rank: log-normal quantiles at the points
    of the golden-ratio sequence, clamped to ``[MIN_FILE, MAX_FILE]``."""
    dist = FileSizeDistribution()
    normal = NormalDist()
    golden = (math.sqrt(5) - 1) / 2
    sizes = []
    for rank in range(n):
        u = ((rank + 1) * golden) % 1.0
        size = dist.median * math.exp(dist.sigma * normal.inv_cdf(u))
        sizes.append(min(MAX_FILE, max(MIN_FILE, int(size))))
    return sizes


def _contents(stream: SeededStream, header: str, size: int) -> bytes:
    """A file's own bytes: a header naming it (cut short in files too
    small to hold it), then seeded noise."""
    head = header.encode()[:size]
    return head + stream.randbytes(size - len(head))


@dataclass
class Outcome:
    """What one measured phase produced. Everything here except the
    ``checks`` messages is simulated, so it repeats exactly per seed."""

    ops: int = 0                 # measured client ops completed
    attempted: int = 0
    failed: int = 0
    reads: list = field(default_factory=list)    # latencies, s
    writes: list = field(default_factory=list)   # CREATE/DELETE, s
    sim_elapsed: float = 0.0
    writes_bytes: int = 0        # user bytes written (CREATE bodies)
    checks: dict = field(default_factory=dict)   # name -> failure or ""
    errors: dict = field(default_factory=dict)   # why -> failed ops

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors[why] = self.errors.get(why, 0) + 1


# ------------------------------------------------------------- hot_read


class HotRead:
    name = "hot_read"
    quantum = 1.5      # simulated s per metered slice (~30 ms of CPU)

    def setup(self, seed: int):
        rig = make_rig(seed=seed, with_nfs=False, workers=1)
        env, client = rig.env, rig.bullet_client
        stream = SeededStream(seed, "perfbench:hot:contents")
        self.files = [_contents(stream, f"hot{rank}:", size)
                      for rank, size in enumerate(rank_sizes(HOT_FILES))]

        def populate():
            caps = []
            for data in self.files:
                caps.append((yield from client.create(data, 2)))
            # One read of each file warms the verified-capability cache
            # and checks the bytes before anything is measured.
            for cap, data in zip(caps, self.files):
                if (yield from client.read(cap)) != data:
                    raise ConsistencyError("hot set read back wrong bytes")
            return caps

        self.caps = run_process(env, populate())
        self.rig = rig
        return rig

    def measure(self, seed: int, outcome: Outcome, wrap, meter):
        rig = self.rig
        env, client = rig.env, rig.bullet_client
        reads_each = HOT_READS // HOT_CLIENTS

        def client_loop(index):
            stream = SeededStream(seed, f"perfbench:hot:client{index}")
            for _ in range(reads_each):
                rank = stream.zipf_index(HOT_FILES, 0.9)
                outcome.attempted += 1
                start = env.now
                try:
                    data = yield from client.read(self.caps[rank])
                except ReproError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                outcome.reads.append(env.now - start)
                if data != self.files[rank]:
                    outcome.fail("wrong bytes")
                    continue
                outcome.ops += 1

        disks = rig.bullet.mirror.disks
        disk_reads = sum(d.stats.reads for d in disks)
        cache = rig.bullet.cache.stats
        hits, lookups = cache.hits, cache.lookups
        _run_clients(env, [wrap(client_loop)(i) for i in range(HOT_CLIENTS)],
                     outcome, meter)
        disk_reads = sum(d.stats.reads for d in disks) - disk_reads
        hit_ratio = (cache.hits - hits) / max(1, cache.lookups - lookups)
        outcome.checks["zero disk reads"] = (
            "" if disk_reads == 0 else f"{disk_reads} disk reads")
        outcome.checks["server cache hit ratio 1.0"] = (
            "" if hit_ratio == 1.0 else f"hit ratio {hit_ratio}")

    def workstation_caches(self):
        return []


# ------------------------------------------------------------ churn_mix


class ChurnMix:
    name = "churn_mix"
    quantum = 0.3

    def setup(self, seed: int):
        rig = make_rig(seed=seed, with_nfs=False, workers=CHURN_WORKERS)
        env = rig.env
        local = LocalBulletStub(rig.bullet)
        self.traces = []
        self.streams = []
        self.live = []     # per client: file_id -> (cap, size, digest)
        prepops = []
        for index in range(CHURN_CLIENTS):
            generator = TraceGenerator(
                derive_seed(seed, f"perfbench:churn:client{index}"),
                sizes=FileSizeDistribution(maximum=MAX_FILE),
                read_fraction=0.6, delete_fraction=0.2)
            prepops.append(generator.generate(
                0, prepopulate=CHURN_FILES_PER_CLIENT))
            self.traces.append(generator.generate(CHURN_OPS // CHURN_CLIENTS))
            self.streams.append(
                SeededStream(seed, f"perfbench:churn:bytes{index}"))
            self.live.append({})

        def populate(index):
            for op in prepops[index]:
                data = _contents(self.streams[index],
                                 f"c{index}:{op.file_id}:", op.size)
                cap = yield from local.create(data, CHURN_P_FACTOR)
                self.live[index][op.file_id] = (cap, op.size, _digest(data))

        waits = [env.process(populate(i)) for i in range(CHURN_CLIENTS)]
        for wait in waits:
            env.run(until=wait)
        self.rig = rig
        return rig

    def live_bytes(self) -> int:
        return sum(size for files in self.live for _c, size, _d in
                   files.values())

    def measure(self, seed: int, outcome: Outcome, wrap, meter):
        rig = self.rig
        env, client = rig.env, rig.bullet_client

        def client_loop(index):
            files = self.live[index]
            for op in self.traces[index]:
                outcome.attempted += 1
                start = env.now
                try:
                    if op.kind == "create":
                        data = _contents(self.streams[index],
                                         f"c{index}:{op.file_id}:", op.size)
                        cap = yield from client.create(data, CHURN_P_FACTOR)
                        files[op.file_id] = (cap, op.size, _digest(data))
                        outcome.writes_bytes += op.size
                        outcome.writes.append(env.now - start)
                    elif op.kind == "read":
                        cap, _size, digest = files[op.file_id]
                        data = yield from client.read(cap)
                        outcome.reads.append(env.now - start)
                        if _digest(data) != digest:
                            outcome.fail("wrong bytes")
                            continue
                    else:
                        cap = files.pop(op.file_id)[0]
                        yield from client.delete(cap)
                        outcome.writes.append(env.now - start)
                except ReproError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                outcome.ops += 1

        capacity = rig.bullet.cache.capacity
        live_before = self.live_bytes()
        cache = rig.bullet.cache.stats
        hits, lookups = cache.hits, cache.lookups
        _run_clients(env, [wrap(client_loop)(i)
                           for i in range(CHURN_CLIENTS)], outcome, meter)
        live_after = self.live_bytes()
        hit_ratio = (cache.hits - hits) / max(1, cache.lookups - lookups)
        smallest = min(live_before, live_after)
        outcome.checks["live bytes above server cache"] = (
            "" if smallest > capacity
            else f"live {smallest} <= cache {capacity}")
        outcome.checks["hit ratio strictly between 0 and 1"] = (
            "" if 0.0 < hit_ratio < 1.0 else f"hit ratio {hit_ratio}")

    def workstation_caches(self):
        return []


# ----------------------------------------------------------- named_open


def _version_of(data: bytes) -> int:
    return int(data.split(b":v", 1)[1].split(b":", 1)[0])


class NamedOpen:
    name = "named_open"
    quantum = 0.3

    def setup(self, seed: int):
        rig = make_rig(seed=seed, with_nfs=False, with_directory=True)
        env, testbed = rig.env, rig.testbed
        self.stream = SeededStream(seed, "perfbench:named:contents")
        self.names = [f"hot{rank:03d}" for rank in range(NAMED_FILES)]
        self.sizes = rank_sizes(NAMED_FILES)
        # Even ranks are published under owner capabilities, odd ones
        # under read-only restrictions, so the currency check runs both
        # of its evidence paths.
        self.masks = [None if rank % 2 == 0 else RIGHT_READ
                      for rank in range(NAMED_FILES)]
        self.contents = {}
        self.truth = {}
        root = run_process(env, rig.directory_client.create_directory())
        self.writer = NamedFileClient(
            CachingBulletClient(
                rig.bullet_client,
                cache=WorkstationCache(testbed.workstation.cache_bytes,
                                       name="writer", metrics=rig.metrics,
                                       cpu=testbed.cpu)),
            rig.directory_client, root, policy=CurrencyPolicy.session(),
            name="writer")

        def publish_all():
            for rank in range(NAMED_FILES):
                yield from self._publish(rank)

        run_process(env, publish_all())
        self.sessions = []
        for index in range(NAMED_WORKSTATIONS):
            cache = WorkstationCache(testbed.workstation.cache_bytes,
                                     name=f"ws{index}", metrics=rig.metrics,
                                     cpu=testbed.cpu)
            self.sessions.append(NamedFileClient(
                CachingBulletClient(rig.bullet_client, cache=cache),
                rig.directory_client, root, policy=CurrencyPolicy.always(),
                name=f"ws{index}"))

        def warm(session):
            # Each workstation opens every file once before measuring:
            # the measured phase sees a warm cache, not a cold-start
            # storm whose size depends on the run's length.
            for name in self.names:
                yield from session.read(name)

        waits = [env.process(warm(session)) for session in self.sessions]
        for wait in waits:
            env.run(until=wait)
        self.rig = rig
        return rig

    def _publish(self, rank: int):
        name = self.names[rank]
        version = self.truth.get(name, -1) + 1
        data = _contents(self.stream, f"{name}:v{version}:", self.sizes[rank])
        self.contents[(name, version)] = data
        yield from self.writer.publish(name, data, 1, mask=self.masks[rank])
        self.truth[name] = version

    def measure(self, seed: int, outcome: Outcome, wrap, meter):
        rig = self.rig
        env = rig.env
        opens_each = NAMED_OPENS // NAMED_WORKSTATIONS
        finished = []

        def reader(index):
            named = self.sessions[index]
            stream = SeededStream(seed, f"perfbench:named:ws{index}")
            for _ in range(opens_each):
                name = self.names[stream.zipf_index(NAMED_FILES, 0.9)]
                # The version bound before the open began: anything
                # older that comes back is a stale read.
                floor = self.truth[name]
                outcome.attempted += 1
                start = env.now
                try:
                    data = yield from named.read(name)
                except ReproError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                outcome.reads.append(env.now - start)
                version = _version_of(data)
                if version < floor:
                    outcome.fail("stale read under check-always")
                    continue
                if data != self.contents.get((name, version)):
                    outcome.fail("wrong bytes")
                    continue
                outcome.ops += 1
            finished.append(index)

        def writer():
            # The writer walks the files in a seeded order, each in turn:
            # with Zipf picks, which file sizes get re-fetched (and so
            # the open latency's tail) would change from seed to seed.
            order = list(range(NAMED_FILES))
            SeededStream(seed, "perfbench:named:writer").shuffle(order)
            replaced = 0
            while len(finished) < NAMED_WORKSTATIONS:
                yield env.timeout(NAMED_REPLACE_INTERVAL)
                if len(finished) == NAMED_WORKSTATIONS:
                    break
                rank = order[replaced % NAMED_FILES]
                replaced += 1
                outcome.attempted += 1
                try:
                    yield from self._publish(rank)
                except ReproError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                outcome.writes_bytes += self.sizes[rank]

        server = rig.bullet.stats
        server_reads = server.reads
        dir_rpcs = sum(s.stats.dir_rpcs for s in self.sessions)
        readers = [wrap(reader)(i) for i in range(NAMED_WORKSTATIONS)]
        _run_clients(env, readers, outcome, meter,
                     background=[wrap(writer)()])
        opens = NAMED_OPENS
        dir_rpcs = sum(s.stats.dir_rpcs for s in self.sessions) - dir_rpcs
        reads_per_op = (server.reads - server_reads) / opens
        outcome.checks["client.named.dir_rpcs_per_op == 1.0"] = (
            "" if dir_rpcs == opens else f"{dir_rpcs} dir RPCs / {opens}")
        outcome.checks["server READs per op well below 1"] = (
            "" if reads_per_op < 0.25 else f"{reads_per_op:.3f} per op")

    def workstation_caches(self):
        return [s.cache for s in self.sessions] + [self.writer.cache]


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _run_clients(env, loops, outcome: Outcome, meter,
                 background=()) -> None:
    """Start every client loop, run (metered) until all have finished,
    and record the simulated time they took. ``background`` processes
    (the named writer) run to completion too but do not count in the
    elapsed time."""
    start = env.now
    ends = []

    def timed(loop):
        yield from loop
        ends.append(env.now)

    waits = [env.process(timed(loop)) for loop in loops]
    waits.extend(env.process(loop) for loop in background)
    meter.run(env, waits)
    outcome.sim_elapsed = max(ends) - start


WORKLOADS = {w.name: w for w in (HotRead, ChurnMix, NamedOpen)}
