"""The virtual disk's host block store.

Each write keeps one reference to its immutable payload and maps every
block it covers to that record, instead of copying the payload into
per-block slices. These tests hold the store to the per-block copying
store it replaced (an in-test oracle) and check that mirrored replicas
really share one copy of a file's bytes.
"""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import MirroredDiskSet, VirtualDisk
from repro.profiles import DiskProfile
from repro.sim import Environment, run_process
from repro.units import MB

from conftest import make_bullet

#: 64 blocks of 16 bytes: random extents overlap constantly, and most
#: payloads end in a partial block.
TINY = DiskProfile(name="tiny", capacity_bytes=64 * 16, block_size=16,
                   cylinders=4, heads=2, sectors_per_track=8)
BS = TINY.block_size
NBLOCKS = TINY.total_blocks


class OracleStore:
    """The per-block copying store: ``dict[int, bytes]`` of private,
    zero-padded block copies."""

    def __init__(self):
        self.blocks: dict[int, bytes] = {}

    def write(self, start: int, data: bytes) -> None:
        for i in range(-(-len(data) // BS)):
            chunk = bytes(data[i * BS:(i + 1) * BS])
            self.blocks[start + i] = chunk + bytes(BS - len(chunk))

    def read(self, start: int, n: int) -> bytes:
        return b"".join(self.blocks.get(start + i, bytes(BS))
                        for i in range(n))


def _payload(seed: int, length: int, kind: str):
    raw = bytes((seed * 31 + i * 7 + 1) % 251 + 1 for i in range(length))
    if kind == "bytes":
        return raw
    if kind == "bytearray":
        return bytearray(raw)
    return memoryview(bytearray(raw))


def _scribble(buf) -> None:
    """Overwrite a mutable buffer in place after it was handed over."""
    if not isinstance(buf, bytes):
        buf[:] = b"\xff" * len(buf)


def _timed_read(disk, start, n):
    data = yield disk.read(start, n)
    return data


_WRITE = st.tuples(
    st.sampled_from(("write_raw", "write")),
    st.integers(0, NBLOCKS - 8),
    st.integers(1, 7 * BS),
    st.sampled_from(("bytes", "bytearray", "memoryview")),
    st.integers(0, 1000),
)
_READ = st.tuples(
    st.sampled_from(("read_raw", "read")),
    st.integers(0, NBLOCKS - 12),
    st.integers(0, 12),
    st.just(""),
    st.just(0),
)


@given(steps=st.lists(st.one_of(_WRITE, _READ), min_size=5, max_size=60))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_store_matches_per_block_copy_oracle(steps):
    env = Environment()
    disk = VirtualDisk(env, TINY, name="t0")
    oracle = OracleStore()
    for op, start, size, kind, seed in steps:
        if op in ("write_raw", "write"):
            data = _payload(seed, size, kind)
            oracle.write(start, data)
            if op == "write_raw":
                disk.write_raw(start, data)
                _scribble(data)
            else:
                done = disk.write(start, data)
                _scribble(data)  # after submit, before the write lands
                env.run(until=done)
        elif op == "read_raw":
            assert disk.read_raw(start, size) == oracle.read(start, size)
        elif size:
            got = run_process(env, _timed_read(disk, start, size))
            assert got == oracle.read(start, size)
        # Every step: the whole store, one block at a time and whole.
        for block in range(NBLOCKS):
            assert disk.read_raw(block, 1) == oracle.read(block, 1), block
        assert disk.read_raw(0, NBLOCKS) == oracle.read(0, NBLOCKS)
        assert disk.used_host_bytes() == len(oracle.blocks) * BS


def test_replicated_create_shares_one_payload(env):
    bullet = make_bullet(env, n_disks=2, workers=1)
    data = bytes(range(256)) * 9 + b"tail"   # ends in a partial block
    cap = run_process(env, bullet.create(data, 2))
    inode = bullet.table.get(cap.object)
    nblocks = bullet.layout.blocks_for(inode.size)
    d0, d1 = bullet.mirror.disks
    cached = bullet.cache.peek(cap.object).data
    for block in range(inode.start_block, inode.start_block + nblocks):
        assert d0._blocks[block][0] is d1._blocks[block][0]
        assert d0._blocks[block][0] is cached
    assert d1.read_raw(inode.start_block, nblocks)[:inode.size] == data


def test_mirrored_raw_write_retains_no_private_copies():
    env = Environment()
    profile = DiskProfile(name="mirror-test", capacity_bytes=4 * MB,
                          cylinders=64, heads=4, sectors_per_track=32)
    mirror = MirroredDiskSet(env, [VirtualDisk(env, profile, name=f"m{i}")
                                   for i in range(2)])
    payload = bytes(range(256)) * (MB // 256) + b"x" * 100
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mirror.write_raw(0, payload)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * len(payload), retained
    assert mirror.read_raw(0, 2049)[:len(payload)] == payload
