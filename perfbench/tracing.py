"""Span tracing for the benchmark's traced run.

The benchmark wraps the public entry points of each layer (see
``layers.py``) with the wrappers built here. Every wrapped call records
a span: its layer, its name, simulated begin and end, the process CPU
time spent in its own Python frames, and the span that encloses it in
the same simulated process.

How "the same simulated process" is found: the kernel resumes one
process at a time, and a resume runs the whole ``yield from`` chain of
that process inside one ``send``. Each wrapper pushes its span on a
stack while its code runs and pops it before it yields, so during any
step the stack holds exactly the spans of the running process, outermost
first. A span's parent is the top of the stack when its first step runs.
A generator handed to ``env.process`` starts on its own, later, and so
has no parent inside the process that forked it.

The wrappers never schedule an event, add a callback or read the
simulated clock other than through ``env.now``, so a traced run makes
the same simulation as an untraced one; the benchmark checks that.

Self time is a span's time minus the part its child spans cover: for
simulated time, the measure of the union of the child intervals (children
of one span may overlap); for CPU time, the children's CPU, which never
overlaps because one process runs at a time.
"""

from __future__ import annotations

import math
import statistics
import time
import types
from fractions import Fraction

__all__ = [
    "SpanTracer",
    "covered",
    "self_time",
    "highest_percentile",
    "percentile",
    "samples_beyond",
]


# ------------------------------------------------------------ arithmetic


def covered(begin: float, end: float, intervals) -> float:
    """Length of ``[begin, end]`` covered by the union of ``intervals``
    (pairs ``(b, e)``; overlapping and out-of-range parts count once)."""
    total = 0.0
    cursor = begin
    for b, e in sorted(intervals):
        b = max(b, cursor)
        e = min(e, end)
        if e > b:
            total += e - b
            cursor = e
    return total


def self_time(begin: float, end: float, intervals) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - begin) - covered(begin, end, intervals)


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of
    ``n`` samples."""
    rank = math.ceil(Fraction(str(p)) * n / 100)
    return n - max(rank, 1)


#: The percentiles a timing may be reported at, and how many samples
#: must lie beyond the one reported.
PERCENTILES = (50, 90, 99, 99.9, 99.99)
BEYOND = 10


def highest_percentile(n: int):
    """The highest of :data:`PERCENTILES` with at least :data:`BEYOND`
    of ``n`` samples above it, or None when not even the lowest does."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= BEYOND:
            best = p
    return best


def percentile(sorted_samples, p: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = math.ceil(Fraction(str(p)) * n / 100)
    return sorted_samples[max(rank, 1) - 1]


# ----------------------------------------------------------------- spans

#: Calibration: rounds measured, wrapped children per parent, and yields
#: per child generator.
ROUNDS = 2000
FANOUT = 10
STEPS = 4


class Span:
    """One wrapped call."""

    __slots__ = ("key", "begin", "end", "cpu", "child_cpu", "n_children",
                 "steps", "child_steps", "children", "parent", "is_gen")

    def __init__(self, key, begin, parent, is_gen):
        self.key = key            # (layer, name)
        self.begin = begin
        self.end = begin
        self.cpu = 0              # ns, own frames plus children
        self.child_cpu = 0        # ns, children only
        self.n_children = 0
        self.steps = 1            # timed sections (a generator's sends)
        self.child_steps = 0      # generator children's steps
        self.children = []        # child (begin, end) in simulated s
        self.parent = parent
        self.is_gen = is_gen


class Aggregate:
    """Per (layer, name) totals over closed spans."""

    __slots__ = ("count", "sim_self", "cpu_self", "durations")

    def __init__(self):
        self.count = 0
        self.sim_self = 0.0       # simulated s
        self.cpu_self = 0         # ns
        self.durations = []       # simulated s, generator spans only


class SpanTracer:
    """Records spans from wrapped calls and folds them into aggregates.

    ``env`` must be set (``attach``) before the first wrapped call that
    runs in a simulation; calls with no environment yet count at time 0.
    """

    def __init__(self):
        self.clock = time.process_time_ns
        self.env = None
        self.stack = []
        self.open = set()          # generator spans not yet closed
        self.aggregates = {}       # (layer, name) -> Aggregate
        self.setup_aggregates = {}  # the same, for the set-up phase
        # Calibrated tracer costs, in ns (see calibrate).
        self.span_overhead = 0     # per timed section, in its own span
        self.child_overhead = 0    # per child span, in its parent
        self.step_overhead = 0     # per child generator step, in its parent
        self._wrapped = []         # (owner, attr, original) to restore

    def attach(self, env) -> None:
        self.env = env

    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # ------------------------------------------------------------ phases

    def begin_phase(self) -> None:
        """Forget everything aggregated so far. Spans still open (server
        and disk service loops) restart their counts from here."""
        self.aggregates = {}
        now = self.now()
        for span in self.open:
            span.begin = now
            span.cpu = 0
            span.child_cpu = 0
            span.n_children = 0
            span.steps = 0
            span.child_steps = 0
            span.children = []

    def end_phase(self) -> dict:
        """Fold the spans still open into the aggregates as of now and
        return the aggregates."""
        now = self.now()
        for span in sorted(self.open, key=lambda s: (s.begin, s.key)):
            span.end = now
            self._fold(span)
        return self.aggregates

    # --------------------------------------------------------- recording

    def _close(self, span: Span) -> None:
        span.end = self.now()
        parent = span.parent
        if parent is not None and parent.is_gen and span.end > span.begin:
            parent.children.append((span.begin, span.end))
        if span.is_gen:
            self.open.discard(span)
        self._fold(span)

    def _fold(self, span: Span) -> None:
        agg = self.aggregates.get(span.key)
        if agg is None:
            agg = self.aggregates[span.key] = Aggregate()
        agg.count += 1
        agg.sim_self += self_time(span.begin, span.end, span.children)
        # Take off what the tracer itself costs, as calibrated, so the
        # layer shares describe the program rather than the wrappers.
        agg.cpu_self += max(0, span.cpu - span.child_cpu
                            - span.steps * self.span_overhead
                            - span.n_children * self.child_overhead
                            - span.child_steps * self.step_overhead)
        if span.is_gen:
            agg.durations.append(span.end - span.begin)

    # ---------------------------------------------------------- wrappers

    def wrap_sync(self, fn, layer: str, name: str, hook=None):
        """A wrapper recording a zero-duration span per call of ``fn``.
        ``hook(args, result)`` runs after a successful call."""
        key = (layer, name)
        tracer = self
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(key, tracer.now(), parent, False)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = clock() - t0
                stack.pop()
                if parent is not None:
                    parent.child_cpu += span.cpu
                    parent.n_children += 1
                tracer._close(span)
            if hook is not None:
                hook(args, result)
            return result

        return _named_like(wrapper, fn)

    def wrap_gen(self, fn, layer: str, name: str, on_call=None):
        """A wrapper driving the generator ``fn`` returns, one step at a
        time, recording its span. ``on_call(args)`` runs when the
        generator is created and may return a callback that receives
        the closed span."""
        key = (layer, name)
        tracer = self
        drive = _drive_named_like(fn)

        def wrapper(*args, **kwargs):
            on_close = on_call(args) if on_call is not None else None
            return drive(tracer, fn(*args, **kwargs), key, on_close)

        return _named_like(wrapper, fn)

    # ---------------------------------------------------------- patching

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` (remembering the original)."""
        self._wrapped.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- calibration

    def calibrate(self) -> None:
        """Measure what tracing adds to self times, so it can be taken
        off: the CPU a timed section charges to its own span, the CPU
        each child span charges to its parent, and the CPU each step of a
        child generator charges to its parent (the bookkeeping between
        the clock readings).

        Empty functions and generators are wrapped and called from a
        wrapped parent, :data:`ROUNDS` times over; medians give the costs.
        They are approximations of what the wrappers cost inside the
        program, where caches are colder.
        """
        def child():
            return None

        def child_gen():
            for _ in range(STEPS):
                yield None

        call = self.wrap_sync(child, "trace", "child")
        step = self.wrap_gen(child_gen, "trace", "child_gen")

        def calls():
            for _ in range(FANOUT):
                call()

        def gens():
            for _ in range(FANOUT):
                yield from step()

        sync_parent = self.wrap_sync(calls, "trace", "parent")
        gen_parent = self.wrap_sync(lambda: list(gens()), "trace", "parent")
        saved = self.aggregates
        self.span_overhead = self.child_overhead = self.step_overhead = 0
        own, per_call, per_gen = [], [], []
        for _ in range(ROUNDS):
            self.aggregates = {}
            sync_parent()
            own.append(self.aggregates[("trace", "child")].cpu_self / FANOUT)
            per_call.append(self.aggregates[("trace", "parent")].cpu_self
                            / FANOUT)
            self.aggregates = {}
            gen_parent()
            per_gen.append(self.aggregates[("trace", "parent")].cpu_self
                           / FANOUT)
        self.aggregates = saved
        median = statistics.median
        self.span_overhead = int(median(own))
        self.child_overhead = int(max(0, median(per_call)))
        # A generator child of STEPS yields runs STEPS + 1 sends.
        self.step_overhead = int(max(
            0, (median(per_gen) - self.child_overhead) / (STEPS + 1)))


def _drive(tracer, gen, key, on_close):
    """Run ``gen`` as ``yield from`` would, recording its span."""
    stack = tracer.stack
    clock = tracer.clock
    parent = stack[-1] if stack else None
    span = Span(key, tracer.now(), parent, True)
    tracer.open.add(span)
    if parent is not None:
        parent.n_children += 1
    value = None
    error = None
    span.steps = 0
    while True:
        # CPU goes to whichever span runs below this one now: a service
        # loop outlives the ``Environment.run`` call it started under.
        below = stack[-1] if stack else None
        span.steps += 1
        stack.append(span)
        t0 = clock()
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            _step_done(span, below, clock() - t0, stack)
            tracer._close(span)
            if on_close is not None:
                on_close(span)
            return stop.value
        except BaseException:
            _step_done(span, below, clock() - t0, stack)
            tracer._close(span)
            if on_close is not None:
                on_close(span)
            raise
        _step_done(span, below, clock() - t0, stack)
        value = None
        error = None
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:
            error = exc


def _step_done(span, below, elapsed, stack) -> None:
    span.cpu += elapsed
    stack.pop()
    if below is not None:
        below.child_cpu += elapsed
        below.child_steps += 1


def _drive_named_like(fn):
    """A copy of :func:`_drive` whose generators carry ``fn``'s
    qualified name, so the kernel's process names (quoted in lock and
    race reports) read the same traced and untraced."""
    code = _drive.__code__
    qualname = getattr(fn, "__qualname__", fn.__name__)
    if hasattr(code, "co_qualname"):
        code = code.replace(co_name=fn.__name__, co_qualname=qualname)
    else:
        code = code.replace(co_name=fn.__name__)
    return types.FunctionType(code, _drive.__globals__, fn.__name__)


def _named_like(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__qualname__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper
