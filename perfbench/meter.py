"""CPU metering of a measured phase, steadied by a reference loop.

On a shared machine one core's speed swings by tens of percent from one
second to the next: on the 2-vCPU x86-64 VM (Intel Xeon, 300 MB shared
L3) this benchmark was defined on, a fixed arithmetic loop took between
0.47 and 0.69 CPU-seconds over eight runs. The swings hit whatever runs
at that moment, and hardest what waits on memory, as the simulator does.

So the meter runs the simulation in slices of simulated time, each
followed by a fixed reference loop that walks a heap larger than the
core's L2 cache, and reports the simulation's CPU time in units of the
reference loop's: ``cpu_s = sim_cpu / ref_cpu * slices * REFERENCE_S``.
Set-up CPU time is scaled by the same factor, the one measured over the
phase that follows it.
``REFERENCE_S`` is the reference slice's median CPU time on that VM
(CPython 3.11) inside a benchmark run, so ``cpu_s`` reads as CPU seconds
there.

The reference loop is part of the benchmark, not of the program: no
change to ``src/`` makes it faster or slower, short of leaving it more
or less of the shared cache. Slicing by simulated time keeps the
simulation deterministic: the slice boundaries fall at the same
instants on every run of a seed.
"""

from __future__ import annotations

import time

__all__ = ["Meter", "Reference", "REFERENCE_S"]

#: Median CPU seconds of one :meth:`Reference.slice` on the reference VM.
REFERENCE_S = 0.008


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.next = None


class Reference:
    """A fixed slice of pure-Python work over a private heap of 128 Ki
    small objects (about 10 MB), linked in a scattered order. Each slice
    continues the walk where the last one stopped, so it always reaches
    past the L2 cache the simulation slice before it has just filled."""

    NODES = 1 << 17
    STEPS = 18000
    STRIDE = 40503        # odd, so the walk visits every node

    def __init__(self):
        nodes = [_Node(i & 1023, i % 7) for i in range(self.NODES)]
        for i, node in enumerate(nodes):
            node.next = nodes[(i + self.STRIDE) % self.NODES]
        self._cursor = nodes[0]

    def slice(self) -> float:
        """Run one slice; return its CPU seconds."""
        node = self._cursor
        table = {}
        start = time.process_time()
        for _ in range(self.STEPS):
            table[node.key] = table.get(node.key, 0) + node.weight
            node = node.next
        elapsed = time.process_time() - start
        self._cursor = node
        if len(table) != 1024:
            raise AssertionError("reference slice went wrong")
        return elapsed


class Meter:
    """Runs a simulation until given events fire, in slices of
    ``quantum`` simulated seconds, and meters its CPU time against
    ``reference``."""

    def __init__(self, quantum: float, reference: Reference):
        self.quantum = quantum
        self.reference = reference
        self.sim_cpu = 0.0
        self.ref_cpu = 0.0
        self.slices = 0

    def run(self, env, events) -> None:
        """Run ``env`` until every one of ``events`` has been processed.
        The last slice runs on to its boundary."""
        deadline = env.now
        clock = time.process_time
        while any(not event.processed for event in events):
            deadline += self.quantum
            start = clock()
            env.run(until=deadline)
            self.sim_cpu += clock() - start
            self.ref_cpu += self.reference.slice()
            self.slices += 1

    @property
    def scale(self) -> float:
        """Reference-VM seconds per CPU second while this meter ran."""
        return self.slices * REFERENCE_S / self.ref_cpu

    @property
    def cpu_s(self) -> float:
        """The simulation's CPU seconds, in reference-VM seconds."""
        return self.sim_cpu * self.scale
