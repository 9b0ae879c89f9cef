"""Machine speed, sampled with a fixed calibration loop.

The reference machine shares its host, and its speed is not steady: a
fixed pure-Python loop runs at 1.0-2.1x its fastest time, in phases of
5-20 s. Process CPU time slows down with it (the host does not report
the time as stolen), so neither clock measures the program alone. A run
therefore times :func:`kernel`, a fixed loop of the operations the VM
spends its time on, before an iteration at most every :data:`PERIOD`
seconds, and divides each interval it measures by the loop's slowdown
around that interval. Times are then in seconds at the reference
machine's full speed.

The loop is benchmark code: no change under ``src/`` changes its work.
It allocates no object the garbage collector tracks, so the size of the
program's heap cannot slow it down either. It is timed on its thread's
CPU clock, so on serve-fleet the time it waits for the GIL while the
compile worker holds it does not count as slowness.
"""

import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

#: Least time between two samples. A sample takes about 3.6 ms at full
#: speed, so sampling takes 3-7% of a run, none of it inside a timed
#: interval.
PERIOD = 0.1

#: An interval's slowdown is the mean over the samples taken within this
#: many seconds of it. Of 0.05-1.2 s, 0.15-0.3 s left the least spread
#: between runs; the mean spread less than the median.
WINDOW = 0.3

#: About :func:`kernel`'s fastest time on the reference machine (2-core
#: VM, Python 3.11), in seconds.
REFERENCE_SECONDS = 0.0036

# Kernel part one: a stack-machine loop over (op, argument) pairs.
_PROGRAM = tuple(
    pair
    for index in range(40)
    for pair in ((0, index), (0, 3), (1, 0), (0, 7), (2, 0), (3, 0))
)


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids, value):
        self.op = op
        self.kids = kids
        self.value = value


def _tree(rng, depth):
    if depth == 0:
        if rng.random() < 0.5:
            return _Node(0, (), rng.randrange(9))
        return _Node(1, (), rng.choice("xy"))
    kids = (_tree(rng, depth - 1), _tree(rng, depth - 1))
    return _Node(rng.choice((2, 3)), kids, None)


# Kernel part two: a recursive walk over a tree of slotted nodes.
_TREE = _tree(random.Random(5), 8)
_ENV = {"x": 3, "y": 5}


def _walk(node):
    op = node.op
    if op == 0:
        return node.value
    if op == 1:
        return _ENV[node.value]
    left, right = node.kids
    if op == 2:
        return (_walk(left) + _walk(right)) & 0xFFFFF
    return (_walk(left) * _walk(right)) & 0xFFFFF


_STACK = []
_SLOTS = {}


def kernel():
    """The calibration loop: dispatch on small tuples, a reused operand
    stack, dict stores and recursive calls. Returns a checksum."""
    stack = _STACK
    slots = _SLOTS
    acc = 0
    for _ in range(200):
        del stack[:]
        for op, arg in _PROGRAM:
            if op == 0:
                stack.append(arg)
            elif op == 1:
                right = stack.pop()
                stack.append(stack.pop() + right)
            elif op == 2:
                right = stack.pop()
                stack.append((stack.pop() * right) & 0xFFFF)
            else:
                value = stack.pop()
                acc ^= value
                slots[value & 63] = acc
    for _ in range(20):
        acc ^= _walk(_TREE)
    return acc


class Speedometer:
    """Samples of :func:`kernel`'s slowdown against the reference, and
    intervals converted to seconds at the reference speed."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.slowdowns = []

    def sample(self):
        """Time the kernel once, unless the last sample is recent."""
        if self.ends and perf_counter() - self.ends[-1] < PERIOD:
            return
        start, cpu = perf_counter(), thread_time()
        kernel()
        self.slowdowns.append((thread_time() - cpu) / REFERENCE_SECONDS)
        self.starts.append(start)
        self.ends.append(perf_counter())

    def slowdown(self, start, end):
        """Mean slowdown of the samples within :data:`WINDOW` of
        ``[start, end]``; of the nearest sample on each side when there
        is none; 1.0 before the first sample."""
        starts = self.starts
        if not starts:
            return 1.0
        lo = bisect_left(starts, start - WINDOW)
        hi = bisect_right(starts, end + WINDOW)
        if hi <= lo:
            lo, hi = max(0, lo - 1), min(len(starts), lo + 1)
        chosen = self.slowdowns[lo:hi]
        return sum(chosen) / len(chosen)

    def wall_seconds(self, start, end):
        """``end - start`` on the wall clock, less the time samples took
        inside it (serve-fleet samples between a wave's iterations)."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        inside = sum(
            min(e, end) - s
            for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
        )
        return end - start - inside

    def seconds(self, start, end):
        """:meth:`wall_seconds` in seconds at the reference speed."""
        return self.wall_seconds(start, end) / self.slowdown(start, end)

    def median_slowdown(self):
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0
