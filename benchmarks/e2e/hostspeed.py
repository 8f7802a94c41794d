"""Host-speed calibration: report host times at one reference speed.

The 2-vCPU VM the bounds were set on shares its machine, and its speed
drifts by up to 1.8x over minutes, with sub-second swings on top
(NOISE.md has the measurements).  A raw wall time then varies more
between runs than the regressions the benchmark must catch.  So every
timed phase is bracketed or interleaved with short *calibration bursts*
of a frozen kernel that no change under ``src/`` can speed up or slow
down, shaped like the work being timed:

* ``"event-loop"`` (simulation runs): a heap of timed callbacks hopping
  between slotted objects, the shape of the simulator's hot loop;
* ``"import"`` (set-up probes): unmarshalling and executing the code of
  a fixed synthetic module, the shape of importing ``repro``.

Inside a run, bursts of about 5 ms are taken whenever they have used
less than ``BURST_SHARE`` of the phase's host time so far, so they
sample the host every 50 ms or so.  A phase's host time is then reported at the
reference speed::

    slowdown     = mean(burst times) / reference burst time
    at_reference = measured / slowdown ** elasticity

with the bursts' own time excluded from ``measured``.  The elasticity
is how strongly the work timed follows the kernel: on the study host
the simulator slows by the 0.85th power of the event-loop kernel's
slowdown (NOISE.md fits it on every study).  Set-up probes use 1.  The raw time and the slowdown are printed
beside every normalized value.
"""

from __future__ import annotations

import gc
import heapq
import marshal
import time
from typing import List, Optional

#: Share of a timed phase's host time spent in interleaved bursts.
BURST_SHARE = 0.1

_HOPS = 64
_MAX_HOP = 6


class _Hop:
    __slots__ = ("peer", "count", "backlog")

    def __init__(self) -> None:
        self.peer: "_Hop" = self
        self.count = 0
        self.backlog: List[int] = []

    def receive(self, loop: "_Loop", size: int, hop: int) -> None:
        self.count += 1
        backlog = self.backlog
        backlog.append(size)
        if len(backlog) > 8:
            del backlog[0]
        if hop < _MAX_HOP:
            loop.schedule(size // 64 + 1, self.peer.receive, size, hop + 1)


class _Loop:
    __slots__ = ("now", "seq", "heap", "state", "fired")

    def __init__(self) -> None:
        self.now = 0
        self.seq = 0
        self.heap: list = []
        self.state = 12345
        self.fired: dict = {}

    def rand(self, n: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state % n

    def schedule(self, delay: int, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, args))

    def run(self, events: int) -> None:
        heap, fired = self.heap, self.fired
        for _ in range(events):
            when, _, fn, args = heapq.heappop(heap)
            self.now = when
            fn(self, *args)
            name = fn.__name__
            fired[name] = fired.get(name, 0) + 1


def _event_loop(events: int) -> int:
    loop = _Loop()
    hops = [_Hop() for _ in range(_HOPS)]
    for i, hop in enumerate(hops):
        hop.peer = hops[(7 * i + 3) % _HOPS]

    def source(loop: _Loop, k: int) -> None:
        hops[k % _HOPS].receive(loop, (4096, 16384)[loop.rand(2)], 0)
        loop.schedule(50 + loop.rand(450), source, k + 1)

    for k in range(16):
        loop.schedule(k, source, k)
    loop.run(events)
    return sum(hop.count for hop in hops)


#: A synthetic module: classes with methods and properties, functions,
#: constant tables -- what the import of a ``repro`` module executes.
_MODULE_SOURCE = "\n".join(
    f"class C{i}:\n    '''Doc {i}.'''\n    x = {i}\n    names = ('a{i}', 'b{i}')\n"
    f"    def __init__(self, a, b=1):\n        self.a = a\n        self.b = b\n"
    f"    def m{i}(self, v, *args, **kw):\n        return self.a + v * {i}\n"
    f"    @property\n    def p(self):\n        return self.b\n"
    f"def f{i}(x, y={i}):\n    return [x, y, {{'k': x}}]\n"
    f"TABLE{i} = {{'k{i}': {i}, 'v': ({i}, {i}.5, 'c{i}')}}\n"
    for i in range(40)
)
_MODULE_CODE = marshal.dumps(compile(_MODULE_SOURCE, "<calibration>", "exec"))


def _import(modules: int) -> int:
    defined = 0
    for _ in range(modules):
        namespace = {"__name__": "calibration"}
        exec(marshal.loads(_MODULE_CODE), namespace)
        defined += len(namespace)
    return defined


#: kind -> (kernel, its size, one burst's host time at the reference
#: speed, elasticity).  The reference is a quiet period of the 2-vCPU,
#: Python 3.11 host the bounds in BENCHMARK.json were set on.
KERNELS = {
    "event-loop": (_event_loop, 3_750, 0.005, 0.85),
    "import": (_import, 40, 0.020, 1.0),
}


class HostSpeed:
    """Calibration bursts taken around and inside one phase of one process."""

    def __init__(self, kind: str = "event-loop") -> None:
        self._kernel, self._size, self.reference_s, self.elasticity = KERNELS[kind]
        self._kernel(max(1, self._size // 8))  # untimed: first-call costs of a fresh interpreter
        self.bursts: List[float] = []
        self._phase_start: Optional[float] = None
        self._phase_bursts_s = 0.0

    def burst(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the burst must not pay for collecting the workload's heap
        try:
            t0 = time.perf_counter()
            self._kernel(self._size)
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.bursts.append(elapsed)
        return elapsed

    def start_phase(self) -> None:
        self._phase_start = time.perf_counter()
        self._phase_bursts_s = 0.0

    def keep_share(self) -> None:
        """Inside a phase: take bursts until they fill ``BURST_SHARE`` of
        its host time so far."""
        while self._phase_bursts_s < BURST_SHARE * (time.perf_counter() - self._phase_start):
            self._phase_bursts_s += self.burst()

    def end_phase(self) -> float:
        """The phase's host time so far, its bursts excluded."""
        return time.perf_counter() - self._phase_start - self._phase_bursts_s

    @property
    def slowdown(self) -> float:
        """Mean burst time over the reference: 1.25 means 25% slower."""
        return sum(self.bursts) / len(self.bursts) / self.reference_s

    def at_reference(self, seconds: float) -> float:
        return seconds / self.slowdown ** self.elasticity
