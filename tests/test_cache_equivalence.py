"""Reference-equivalence of the RAM cache's bookkeeping (property-based).

:class:`~repro.core.cache.BulletCache` picks eviction victims from an
eviction-order structure and rebuilds its arena after compaction as a
single hole. Both are only allowed because they are observationally
identical to the direct formulation of §3: scan every rnode and evict
the one with the smallest age (LRU) or insertion tick (FIFO) that is
neither busy nor pinned, and rebuild the arena by claiming each
compacted file's extent in turn. The oracle below is that direct
formulation. Random sequences of insert / reserve / fill / touch / pin /
unpin / remove / compact run against both, and after every step the
evictions, the placement of every cached file, the compaction results
and the error raised (if any) must agree, and the cache's own audit
must pass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BulletCache
from repro.core.freelist import ExtentFreeList
from repro.errors import (
    BadRequestError,
    ConsistencyError,
    FileTooBigError,
    NoSpaceError,
)

CAPACITY = 300
SLOTS = 6
INODES = 8


class OracleCache:
    """The whole-table reference: O(n) victim choice, per-file arena
    rebuild on compaction."""

    def __init__(self, policy, on_evict):
        self.policy = policy
        self.on_evict = on_evict
        self.arena = ExtentFreeList(0, CAPACITY)
        # inode -> {slot, addr, size, age, inserted, busy, pins}
        self.files: dict[int, dict] = {}
        self.free_slots = list(range(SLOTS, 0, -1))
        self.tick = 0

    def insert(self, inode, size):
        if size > CAPACITY:
            raise FileTooBigError(inode)
        if inode in self.files:
            raise BadRequestError(inode)
        if not self.free_slots and not self._evict_one():
            raise NoSpaceError(inode)
        addr = self._make_room(size)
        self.tick += 1
        self.files[inode] = dict(slot=self.free_slots.pop(), addr=addr,
                                 size=size, age=self.tick,
                                 inserted=self.tick, busy=False, pins=0)

    def reserve(self, inode, size):
        if size > CAPACITY:
            raise FileTooBigError(inode)
        self.insert(inode, 0)
        entry = self.files[inode]
        entry["busy"] = True
        if size > 0:
            try:
                entry["addr"] = self._make_room(size)
            except NoSpaceError:
                self._release(inode)
                raise
            entry["size"] = size

    def touch(self, inode):
        self.tick += 1
        if inode in self.files:
            self.files[inode]["age"] = self.tick

    def remove(self, inode):
        if inode in self.files:
            self._release(inode)

    def _release(self, inode):
        entry = self.files.pop(inode)
        if entry["size"] > 0:
            self.arena.free(entry["addr"], entry["size"])
        self.free_slots.append(entry["slot"])

    def _make_room(self, size):
        if size == 0:
            return 0
        while True:
            try:
                return self.arena.allocate(size)
            except NoSpaceError:
                if self.arena.free_units >= size:
                    self.compact()
                    continue
                if not self._evict_one():
                    raise

    def _evict_one(self):
        candidates = [
            (inode, entry) for inode, entry in self.files.items()
            if not entry["busy"] and entry["pins"] == 0
        ]
        if not candidates:
            return False
        field = "age" if self.policy == "lru" else "inserted"
        inode, _ = min(candidates, key=lambda item: item[1][field])
        self._release(inode)
        self.on_evict(inode)
        return True

    def compact(self):
        placed = sorted(
            (entry for entry in self.files.values() if entry["size"] > 0),
            key=lambda entry: entry["addr"],
        )
        self.arena = ExtentFreeList(0, CAPACITY)
        moved = 0
        cursor = 0
        for entry in placed:
            if entry["addr"] != cursor:
                entry["addr"] = cursor
                moved += 1
            self.arena.allocate_at(cursor, entry["size"])
            cursor += entry["size"]
        return moved

    def placement(self):
        return {(inode, e["slot"], e["addr"], e["size"])
                for inode, e in self.files.items()}


def _placement(cache):
    return {(r.inode_number, r.number, r.addr, r.size)
            for r in cache._rnodes.values()}


def _outcome(fn):
    """Run one step: None, or the type of the error it raised."""
    try:
        fn()
    except (BadRequestError, FileTooBigError, NoSpaceError) as exc:
        return type(exc)
    return None


#: Loads are weighted so that most sequences fill the cache and evict.
_STEP = st.tuples(
    st.sampled_from(("insert", "insert", "reserve", "reserve", "fill",
                     "fill", "touch", "touch", "touch_stale", "pin",
                     "unpin", "remove", "remove", "compact")),
    st.integers(0, INODES - 1),
    # Mostly 0..140 bytes; one draw in eight lands around the capacity.
    st.integers(0, 160).map(lambda n: n if n <= 140 else CAPACITY + n - 150),
)


@given(policy=st.sampled_from(("lru", "fifo")),
       steps=st.lists(_STEP, min_size=30, max_size=150))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cache_matches_whole_table_reference(policy, steps):
    real_evicted: list[int] = []
    ref_evicted: list[int] = []
    cache = BulletCache(CAPACITY, rnode_count=SLOTS, policy=policy,
                        on_evict=real_evicted.append)
    oracle = OracleCache(policy, ref_evicted.append)
    seen = {}   # every rnode object handed out, by id
    for op, inode, size in steps:
        rnode = cache.peek(inode)
        entry = oracle.files.get(inode)
        assert (rnode is None) == (entry is None)
        if rnode is not None:
            seen[id(rnode)] = rnode
        if op == "insert":
            got = _outcome(lambda: cache.insert(inode, bytes(size)))
            want = _outcome(lambda: oracle.insert(inode, size))
        elif op == "reserve":
            got = _outcome(lambda: cache.reserve(inode, size))
            want = _outcome(lambda: oracle.reserve(inode, size))
        elif op == "fill":
            if entry is None or not entry["busy"]:
                continue
            cache.fill(rnode, bytes(rnode.size))
            entry["busy"] = False
            got = want = None
        elif op == "touch":
            if rnode is None:
                continue
            got = cache.touch(rnode)
            want = oracle.touch(inode)
        elif op == "touch_stale":
            stale = [r for r in seen.values()
                     if cache.peek(r.inode_number) is not r]
            if not stale:
                continue
            got = cache.touch(stale[size % len(stale)])
            want = oracle.touch(None)
        elif op == "pin":
            if rnode is None:
                continue
            cache.pin(rnode)
            entry["pins"] += 1
            got = want = None
        elif op == "unpin":
            if rnode is None or entry["pins"] == 0:
                continue
            cache.unpin(rnode)
            entry["pins"] -= 1
            got = want = None
        elif op == "remove":
            if entry is not None and entry["pins"]:
                continue  # removing a pinned file is a caller bug
            got = cache.remove(inode)
            want = oracle.remove(inode)
        else:
            got = cache.compact()
            want = oracle.compact()
        assert got == want, (op, inode, size)
        assert real_evicted == ref_evicted
        assert _placement(cache) == oracle.placement()
        assert cache.free_bytes == oracle.arena.free_units
        cache.check_invariants()
        oracle.arena.check_invariants()


def test_audit_catches_a_desynchronised_eviction_order():
    cache = BulletCache(CAPACITY, rnode_count=SLOTS)
    cache.insert(1, bytes(10))
    cache.insert(2, bytes(10))
    cache._order.move_to_end(1)   # the order no longer follows the ages
    with pytest.raises(ConsistencyError, match="LRU order"):
        cache.check_invariants()
    cache._order.pop(1)
    with pytest.raises(ConsistencyError, match="exactly the live rnodes"):
        cache.check_invariants()
