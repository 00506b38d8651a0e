"""Tests for the extent free list, including hypothesis properties on the
coalescing/overlap invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Extent, ExtentFreeList
from repro.errors import BadRequestError, ConsistencyError, NoSpaceError


def test_new_list_is_one_hole():
    fl = ExtentFreeList(100, 1000)
    assert fl.free_units == 1000
    assert fl.hole_count == 1
    assert fl.holes() == [Extent(100, 1000)]


def test_extent_validation():
    with pytest.raises(BadRequestError):
        Extent(0, 0)
    with pytest.raises(BadRequestError):
        Extent(-1, 5)


def test_unknown_strategy_rejected():
    with pytest.raises(BadRequestError):
        ExtentFreeList(0, 10, strategy="worst_fit")


def test_allocate_first_fit_takes_lowest_hole():
    fl = ExtentFreeList(0, 100)
    a = fl.allocate(10)
    b = fl.allocate(10)
    assert (a, b) == (0, 10)


def test_allocate_exact_hole_removes_it():
    fl = ExtentFreeList(0, 10)
    fl.allocate(10)
    assert fl.hole_count == 0
    assert fl.free_units == 0


def test_allocate_zero_rejected():
    fl = ExtentFreeList(0, 10)
    with pytest.raises(BadRequestError):
        fl.allocate(0)


def test_allocate_beyond_capacity():
    fl = ExtentFreeList(0, 10)
    with pytest.raises(NoSpaceError, match="out of space"):
        fl.allocate(11)


def test_fragmentation_failure_distinguished_from_exhaustion():
    """Total free space is sufficient but no hole is large enough."""
    fl = ExtentFreeList(0, 30)
    a = fl.allocate(10)
    b = fl.allocate(10)
    c = fl.allocate(10)
    fl.free(a, 10)
    fl.free(c, 10)
    assert fl.free_units == 20
    with pytest.raises(NoSpaceError, match="fragmented"):
        fl.allocate(15)


def test_free_coalesces_left_and_right():
    fl = ExtentFreeList(0, 30)
    a = fl.allocate(10)
    b = fl.allocate(10)
    c = fl.allocate(10)
    fl.free(a, 10)
    fl.free(c, 10)
    assert fl.hole_count == 2
    fl.free(b, 10)  # merges everything back into one hole
    assert fl.hole_count == 1
    assert fl.holes() == [Extent(0, 30)]


def test_double_free_detected():
    fl = ExtentFreeList(0, 30)
    a = fl.allocate(10)
    fl.free(a, 10)
    with pytest.raises(ConsistencyError, match="double free"):
        fl.free(a, 10)
    with pytest.raises(ConsistencyError, match="double free"):
        fl.free(a + 5, 2)  # partial overlap with a hole


def test_free_outside_area_rejected():
    fl = ExtentFreeList(100, 50)
    with pytest.raises(BadRequestError):
        fl.free(90, 5)
    with pytest.raises(BadRequestError):
        fl.free(140, 20)


def test_allocate_at_claims_specific_extent():
    fl = ExtentFreeList(0, 100)
    fl.allocate_at(40, 20)
    assert fl.free_units == 80
    assert fl.holes() == [Extent(0, 40), Extent(60, 40)]


def test_allocate_at_on_used_extent_rejected():
    fl = ExtentFreeList(0, 100)
    fl.allocate_at(40, 20)
    with pytest.raises(ConsistencyError):
        fl.allocate_at(50, 20)  # overlaps the used region


def test_allocate_at_edge_of_hole():
    fl = ExtentFreeList(0, 100)
    fl.allocate_at(0, 10)   # left edge: no left remainder
    fl.allocate_at(90, 10)  # right edge: no right remainder
    assert fl.holes() == [Extent(10, 80)]


def test_best_fit_prefers_snuggest_hole():
    fl = ExtentFreeList(0, 100, strategy="best_fit")
    # Carve holes of sizes 30 (at 0), 10 (at 50), 25 (at 75) by allocating
    # the complement.
    fl.allocate_at(30, 20)
    fl.allocate_at(60, 15)
    assert [h.length for h in fl.holes()] == [30, 10, 25]
    start = fl.allocate(9)
    assert start == 50  # the 10-unit hole, not the first-fit 30-unit one


def test_first_vs_best_fit_differ():
    ff = ExtentFreeList(0, 100, strategy="first_fit")
    bf = ExtentFreeList(0, 100, strategy="best_fit")
    for fl in (ff, bf):
        fl.allocate_at(30, 20)
        fl.allocate_at(60, 15)
    assert ff.allocate(9) == 0
    assert bf.allocate(9) == 50


def test_is_free():
    fl = ExtentFreeList(0, 100)
    fl.allocate_at(40, 20)
    assert fl.is_free(0, 40)
    assert fl.is_free(60, 40)
    assert not fl.is_free(39, 2)
    assert not fl.is_free(45, 1)
    assert not fl.is_free(0, 0)


def test_fragmentation_metric():
    fl = ExtentFreeList(0, 100)
    assert fl.external_fragmentation() == 0.0
    fl.allocate_at(40, 20)
    # Holes of 40 and 40; largest/free = 40/80.
    assert fl.external_fragmentation() == pytest.approx(0.5)
    full = ExtentFreeList(0, 10)
    full.allocate(10)
    assert full.external_fragmentation() == 0.0


def test_stats_track_usage():
    fl = ExtentFreeList(0, 100)
    fl.allocate(25)
    assert fl.used_units == 25
    assert fl.largest_hole == 75


def test_audit_catches_a_drifted_free_total():
    fl = ExtentFreeList(0, 100)
    fl.allocate(25)
    fl.check_invariants()
    fl._free += 1   # the running total no longer matches the holes
    with pytest.raises(ConsistencyError, match="free total"):
        fl.check_invariants()


# ----------------------------------------------------- property testing


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocations and frees."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=40)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=60,
    ))


@given(script=alloc_free_script())
@settings(max_examples=200)
def test_freelist_invariants_under_random_workload(script):
    """Property: under any allocate/free interleaving, the hole list
    stays sorted, bounded, non-overlapping and coalesced, and the unit
    accounting balances."""
    fl = ExtentFreeList(0, 500)
    allocated: list[tuple[int, int]] = []
    for op, arg in script:
        if op == "alloc":
            try:
                start = fl.allocate(arg)
            except NoSpaceError:
                continue
            allocated.append((start, arg))
        elif allocated:
            start, length = allocated.pop(arg % len(allocated))
            fl.free(start, length)
        fl.check_invariants()
        in_use = sum(length for _, length in allocated)
        assert fl.free_units + in_use == 500
    # No allocated extent may be marked free.
    for start, length in allocated:
        assert not fl.is_free(start, length)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=20)
)
def test_alloc_all_then_free_all_restores_single_hole(lengths):
    """Property: freeing everything always coalesces back to one hole."""
    fl = ExtentFreeList(0, 1000)
    extents = []
    for length in lengths:
        extents.append((fl.allocate(length), length))
    for start, length in sorted(extents, key=lambda e: (e[0] * 7919) % 101):
        fl.free(start, length)
    assert fl.hole_count == 1
    assert fl.free_units == 1000
    fl.check_invariants()
