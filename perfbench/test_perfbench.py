"""Fast checks of the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import (SpanTracer, covered, highest_percentile,  # noqa: E402
                     percentile, samples_beyond, self_time)
from workloads import MAX_FILE, MIN_FILE, rank_sizes  # noqa: E402


# ------------------------------------------------------------- self time


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.0, []) == 3.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    # [1,3] and [2,5] overlap: together they cover [1,5], not 2 + 3.
    assert self_time(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0)]) == 6.0


def test_self_time_counts_a_nested_child_once():
    assert self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 2.0


def test_self_time_clips_children_to_the_span():
    assert covered(0.0, 10.0, [(-5.0, 1.0), (8.0, 12.0)]) == 3.0
    assert self_time(0.0, 10.0, [(-5.0, 1.0), (8.0, 12.0)]) == 7.0


def test_self_time_of_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0), (9.0, 10.0)]) == 6.0


# ------------------------------------------------------- percentile rule


@pytest.mark.parametrize("n, expected", [
    (19, None),
    (20, 50),
    (99, 50),
    (100, 90),
    (999, 90),
    (1000, 99),
    (9999, 99),
    (10000, 99.9),
])
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_samples_beyond_uses_the_nearest_rank():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(10000, 99.9) == 10


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990
    assert percentile([7.0], 99) == 7.0


# ---------------------------------------------------------------- tracer


def _traced_simulation(trace: bool):
    from repro.sim import Environment

    tracer = SpanTracer()

    def child(env, delay):
        yield env.timeout(delay)
        return delay

    def parent(env):
        yield env.timeout(1.0)
        got = yield from child_fn(env, 2.0)
        yield env.timeout(got)

    child_fn, parent_fn = child, parent
    if trace:
        child_fn = tracer.wrap_gen(child, "layer.b", "child")
        parent_fn = tracer.wrap_gen(parent, "layer.a", "parent")
    env = Environment()
    tracer.attach(env)
    process = env.process(parent_fn(env))
    env.run(until=process)
    return tracer, env


def test_tracer_records_sim_self_time_and_nesting():
    tracer, env = _traced_simulation(trace=True)
    parent = tracer.aggregates[("layer.a", "parent")]
    child = tracer.aggregates[("layer.b", "child")]
    assert parent.durations == [5.0]
    assert child.durations == [2.0]
    assert parent.sim_self == 3.0
    assert child.sim_self == 2.0
    assert parent.cpu_self >= 0 and child.cpu_self >= 0
    assert env.now == 5.0


def test_tracing_does_not_change_the_simulation():
    _t, traced = _traced_simulation(trace=True)
    _u, plain = _traced_simulation(trace=False)
    assert traced.now == plain.now
    assert traced.events_scheduled == plain.events_scheduled


def test_wrapped_generators_keep_their_process_names():
    from repro.sim import Environment

    tracer = SpanTracer()

    def worker(env):
        yield env.timeout(1.0)

    env = Environment()
    process = env.process(tracer.wrap_gen(worker, "x", "worker")(env))
    assert process.name.split("#")[0] == worker.__qualname__


def test_exceptions_pass_through_a_wrapped_generator():
    from repro.sim import Environment

    tracer = SpanTracer()

    def failing(env):
        yield env.timeout(1.0)
        raise KeyError("boom")

    def catcher(env):
        try:
            yield from wrapped(env)
        except KeyError:
            return "caught"

    wrapped = tracer.wrap_gen(failing, "x", "failing")
    env = Environment()
    tracer.attach(env)
    assert env.run(until=env.process(catcher(env))) == "caught"
    assert tracer.aggregates[("x", "failing")].count == 1


# ------------------------------------------------------------ disk probe


def _probed_disk_reads(refuse_collapse: bool):
    """Two reads submitted back to back on an idle disk; returns the
    probe's queue waits and service times, the two reads' access times
    and whether the first read collapsed."""
    from layers import Probe, install
    from repro.disk.vdisk import VirtualDisk
    from repro.profiles import DiskProfile
    from repro.sim import Environment

    tracer = SpanTracer()
    probe = Probe(tracer)
    install(tracer, probe)
    try:
        env = Environment()
        tracer.attach(env)
        disk = VirtualDisk(env, DiskProfile())
        env.run(until=0.001)    # the serve loop parks on its wakeup store
        probe.watch([disk], None)
        geometry = disk.geometry
        collapsed = []

        def user():
            if refuse_collapse:
                env.timeout(1e-4)   # an earlier event refuses the collapse
            first = disk.read(0, 1)
            collapsed.append(disk.queue_depth == 0)
            second = disk.read(5000, 8)
            yield first
            yield second

        env.run(until=env.process(user()))
    finally:
        tracer.restore()
    expected = [geometry.access_time(0, 0, 1),
                geometry.access_time(geometry.cylinder_of(0), 5000, 8)]
    return probe.queue_waits, probe.service_times, expected, collapsed[0]


@pytest.mark.parametrize("refuse_collapse", [True, False])
def test_disk_probe_ties_each_sample_to_its_request(refuse_collapse):
    waits, services, (first, second), collapsed = _probed_disk_reads(
        refuse_collapse)
    assert collapsed is not refuse_collapse
    # The first read leaves the queue at once (or never enters it); the
    # second waits for the first's whole service time.
    assert waits == [0.0, pytest.approx(first)]
    assert services == [pytest.approx(first), pytest.approx(second)]
    assert first != pytest.approx(second)


# ----------------------------------------------------------------- sizes


def test_rank_sizes_are_seed_free_log_normal_quantiles():
    sizes = rank_sizes(500)
    assert sizes == rank_sizes(500)
    assert all(MIN_FILE <= size <= MAX_FILE for size in sizes)
    ordered = sorted(sizes)
    assert 700 <= ordered[len(ordered) // 2] <= 1400
