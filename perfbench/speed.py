"""The host's speed, measured with a fixed reference task.

The benchmark shares a few cores of a host whose speed drifts: on a 2-vCPU
Xeon VM the same job set ran 20-50% slower in some 30-second runs than in
others, and up to 60% slower within one run.  The program's times follow
that drift, and so does a fixed task that does not call linadd: building
and walking a small tree of objects and filling a dict, as linadd does with
terms and names.  The benchmark runs the task between jobs and reports each
time scaled by REF_S / (the task's time around it): the time the work would
take when the task takes REF_S.  A change to linadd moves the job times and
not the task's, so it shows in full; the drift of the host moves both and
cancels.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The reference task's time on that VM when it ran fastest, so that scaled
# times are close to the fastest raw times seen there.
REF_S = 0.0015


class _Node:
    __slots__ = ("left", "right", "name")

    def __init__(self, left, right, name):
        self.left, self.right, self.name = left, right, name


def _build(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(None, None, "v%d" % k)
    return _Node(_build(depth - 1, 2 * k), _build(depth - 1, 2 * k + 1), None)


def _walk(t: _Node, env: dict) -> int:
    if t.name is not None:
        env[t.name] = len(env)
        return 1
    return _walk(t.left, env) + _walk(t.right, env)


def _task() -> int:
    return _walk(_build(10, 1), {})


def reference(repeat: int = 1) -> float:
    """The reference task's time in seconds, the median of `repeat` runs.

    The collector is off while it runs: the task makes no cycles, and a
    collection would scan the program's objects, whose number a change to
    linadd may alter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeat):
            t0 = perf_counter()
            _task()
            times.append(perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()
