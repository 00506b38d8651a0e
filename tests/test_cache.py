"""Tests for the whole-file RAM cache (rnodes, LRU, compaction)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BulletCache
from repro.errors import BadRequestError, FileTooBigError, NoSpaceError


def make_cache(capacity=1000, rnodes=16, **kw):
    return BulletCache(capacity, rnode_count=rnodes, **kw)


def test_constructor_validation():
    with pytest.raises(BadRequestError):
        BulletCache(0)
    with pytest.raises(BadRequestError):
        BulletCache(100, rnode_count=0)
    with pytest.raises(BadRequestError):
        BulletCache(100, policy="random")


def test_insert_and_lookup():
    cache = make_cache()
    rnode = cache.insert(5, b"file contents")
    assert cache.lookup(5) is rnode
    assert rnode.data == b"file contents"
    assert rnode.size == 13
    assert cache.used_bytes == 13
    assert cache.cached_files == 1


def test_lookup_miss_counts():
    cache = make_cache()
    assert cache.lookup(1) is None
    cache.insert(1, b"x")
    cache.lookup(1)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5


def test_peek_does_not_count():
    cache = make_cache()
    cache.peek(1)
    assert cache.stats.misses == 0


def test_double_insert_rejected():
    cache = make_cache()
    cache.insert(1, b"a")
    with pytest.raises(BadRequestError):
        cache.insert(1, b"b")


def test_get_slot_resolves_rnode_number():
    cache = make_cache()
    rnode = cache.insert(1, b"abc")
    assert cache.get_slot(rnode.number) is rnode
    with pytest.raises(BadRequestError):
        cache.get_slot(rnode.number + 1)


def test_file_bigger_than_cache_rejected():
    cache = make_cache(capacity=100)
    with pytest.raises(FileTooBigError):
        cache.insert(1, bytes(101))


def test_zero_size_file_cached():
    cache = make_cache()
    rnode = cache.insert(1, b"")
    assert rnode.size == 0
    assert cache.used_bytes == 0
    cache.remove(1)
    cache.check_invariants()


def test_lru_eviction_order():
    cache = make_cache(capacity=100)
    evicted = []
    cache.on_evict = evicted.append
    cache.insert(1, bytes(40))
    cache.insert(2, bytes(40))
    cache.touch(cache.peek(1))  # 1 is now more recent than 2
    cache.insert(3, bytes(40))  # must evict 2, the least recently used
    assert evicted == [2]
    assert cache.peek(1) is not None
    assert cache.peek(2) is None


def test_fifo_eviction_order():
    cache = make_cache(capacity=100, policy="fifo")
    evicted = []
    cache.on_evict = evicted.append
    cache.insert(1, bytes(40))
    cache.insert(2, bytes(40))
    cache.touch(cache.peek(1))  # irrelevant under FIFO
    cache.insert(3, bytes(40))
    assert evicted == [1]


def test_eviction_cascades_until_room():
    cache = make_cache(capacity=100)
    for i in range(4):
        cache.insert(i, bytes(25))
    cache.insert(9, bytes(80))  # needs several evictions
    assert cache.peek(9) is not None
    assert cache.stats.evictions >= 3
    cache.check_invariants()


def test_busy_rnodes_not_evicted():
    cache = make_cache(capacity=100)
    rnode = cache.insert(1, bytes(60))
    rnode.busy = True
    with pytest.raises(NoSpaceError):
        cache.insert(2, bytes(60))
    rnode.busy = False
    cache.insert(2, bytes(60))
    assert cache.peek(1) is None


def test_rnode_slot_exhaustion_evicts():
    cache = make_cache(capacity=1000, rnodes=2)
    cache.insert(1, b"a")
    cache.insert(2, b"b")
    cache.insert(3, b"c")  # slots full: evict LRU first
    assert cache.cached_files == 2
    assert cache.peek(1) is None


def test_remove_frees_space():
    cache = make_cache(capacity=100)
    cache.insert(1, bytes(60))
    cache.remove(1)
    assert cache.used_bytes == 0
    cache.insert(2, bytes(100))  # full capacity available again
    cache.check_invariants()


def test_remove_absent_is_noop():
    cache = make_cache()
    cache.remove(42)  # must not raise


def test_compaction_merges_free_space():
    """Deleting alternating files fragments the arena; a large insert
    must succeed anyway via compaction."""
    cache = make_cache(capacity=100)
    for i in range(4):
        cache.insert(i, bytes(25))
    cache.remove(0)
    cache.remove(2)
    assert cache.free_bytes == 50
    cache.insert(10, bytes(50))  # no contiguous 50-hole without compaction
    assert cache.stats.compactions >= 1
    assert cache.peek(1).data == bytes(25)
    cache.check_invariants()


def test_explicit_compact_moves_files_low():
    cache = make_cache(capacity=100)
    a = cache.insert(1, bytes(30))
    b = cache.insert(2, bytes(30))
    cache.remove(1)
    moved = cache.compact()
    assert moved == 1
    assert cache.peek(2).addr == 0
    cache.check_invariants()


def test_reserve_and_fill():
    cache = make_cache(capacity=100)
    rnode = cache.reserve(1, 40)
    assert rnode.busy
    assert cache.used_bytes == 40
    cache.fill(rnode, bytes(40))
    assert not rnode.busy
    assert cache.peek(1).data == bytes(40)
    cache.check_invariants()


def test_reserve_zero_size():
    cache = make_cache()
    rnode = cache.reserve(1, 0)
    cache.fill(rnode, b"")
    assert cache.peek(1).size == 0


def test_fill_size_mismatch_rejected():
    cache = make_cache()
    rnode = cache.reserve(1, 10)
    with pytest.raises(BadRequestError):
        cache.fill(rnode, bytes(9))


def test_reserve_too_big_rolls_back():
    cache = make_cache(capacity=100)
    with pytest.raises(FileTooBigError):
        cache.reserve(1, 200)
    assert cache.cached_files == 0
    assert cache.used_bytes == 0
    cache.check_invariants()


def test_reserve_too_big_evicts_nothing():
    """An oversize reserve is refused before it takes an rnode slot, so
    a full slot table does not cost a valid file its cache entry."""
    evicted = []
    cache = make_cache(capacity=1000, rnodes=2, on_evict=evicted.append)
    cache.insert(1, b"a")
    cache.insert(2, b"b")
    with pytest.raises(FileTooBigError):
        cache.reserve(3, 5000)
    assert evicted == []
    assert cache.stats.evictions == 0
    assert cache.peek(1) is not None and cache.peek(2) is not None
    cache.check_invariants()


def test_reserve_without_room_does_not_evict_its_own_placeholder():
    """When only the reserving file could go, reserve fails with
    NoSpaceError and leaves the cache as it was (the placeholder rnode
    used to be its own eviction victim, and the rollback then crashed
    on the already-released slot)."""
    evicted = []
    cache = make_cache(capacity=100, on_evict=evicted.append)
    cache.reserve(1, 90)  # in flight: busy, not evictable
    with pytest.raises(NoSpaceError):
        cache.reserve(2, 20)
    assert evicted == []
    assert cache.peek(2) is None
    assert cache.cached_files == 1
    cache.check_invariants()


def test_reserve_evicts_like_insert():
    cache = make_cache(capacity=100)
    cache.insert(1, bytes(80))
    rnode = cache.reserve(2, 80)
    assert cache.peek(1) is None
    cache.fill(rnode, bytes(80))
    cache.check_invariants()


def test_on_evict_callback_gets_inode_number():
    seen = []
    cache = make_cache(capacity=50, on_evict=seen.append)
    cache.insert(7, bytes(40))
    cache.insert(8, bytes(40))
    assert seen == [7]


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "touch", "compact"]),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=80,
    )
)
@settings(max_examples=150)
def test_cache_invariants_under_random_workload(script):
    """Property: any interleaving of inserts, removes, touches and
    compactions preserves the arena/rnode invariants, and cached data is
    never corrupted."""
    cache = make_cache(capacity=300, rnodes=8)
    contents: dict[int, bytes] = {}
    cache.on_evict = lambda n: contents.pop(n, None)
    for op, key, size in script:
        if op == "insert" and key not in contents:
            data = bytes([key]) * size
            try:
                cache.insert(key, data)
            except (FileTooBigError, NoSpaceError):
                continue
            contents[key] = data
        elif op == "remove":
            cache.remove(key)
            contents.pop(key, None)
        elif op == "touch":
            rnode = cache.peek(key)
            if rnode is not None:
                cache.touch(rnode)
        elif op == "compact":
            cache.compact()
        cache.check_invariants()
        for inode_number, expected in contents.items():
            rnode = cache.peek(inode_number)
            assert rnode is not None, "tracked file vanished without on_evict"
            assert rnode.data == expected


def test_rnode_exhaustion_all_busy_raises():
    cache = make_cache(capacity=1000, rnodes=2)
    cache.insert(1, b"a").busy = True
    cache.insert(2, b"b").busy = True
    with pytest.raises(NoSpaceError):
        cache.insert(3, b"c")
    cache.check_invariants()


def test_pinned_rnode_is_not_evictable():
    """A pin holds the arena extent across a timed transfer: eviction
    pressure must skip pinned files (and fail if nothing else can go)."""
    from repro.errors import ConsistencyError

    cache = make_cache(capacity=100, rnodes=4)
    rnode = cache.insert(1, b"x" * 60)
    cache.pin(rnode)
    with pytest.raises(NoSpaceError):
        cache.insert(2, b"y" * 60)  # only eviction candidate is pinned
    cache.unpin(rnode)
    cache.insert(2, b"y" * 60)  # now 1 is evictable
    assert cache.peek(1) is None
    assert cache.peek(2) is not None
    cache.check_invariants()


def test_release_while_pinned_is_a_consistency_error():
    """Freeing a file some transfer is still copying is exactly the
    torn-read race the lock plane prevents — fail loudly, never tear."""
    from repro.errors import ConsistencyError

    cache = make_cache()
    rnode = cache.insert(1, b"abc")
    cache.pin(rnode)
    cache.pin(rnode)  # pins nest (two overlapping reads of one file)
    cache.unpin(rnode)
    with pytest.raises(ConsistencyError):
        cache.remove(1)
    cache.unpin(rnode)
    cache.remove(1)
    with pytest.raises(ConsistencyError):
        cache.unpin(rnode)  # no pins left to drop
