"""Per-layer host-time ledger, measured from outside the simulator.

While a :class:`Ledger` is installed it wraps two kinds of call sites,
each as a *span* charged to one layer (a ``repro.<layer>`` package):

* every callback handed to ``Simulator.schedule``/``schedule_at``/
  ``schedule_fire``/``schedule_at_fire``/``call_soon`` -- an *event*
  span, charged to the package that defined the callback;
* every public method of the classes each layer package lists in its
  ``__all__`` -- a *call* span, charged to that package.

Spans nest on one stack.  Per layer the ledger keeps calls, events,
total time and self time in memory; self time is a span's duration
minus its children's, less the calibrated cost the wrapper itself adds
to the parent (measured per span kind on a no-op, see
:func:`calibrate_span_costs`).  The event loop is ``Simulator.run``,
itself a wrapped method, so its time between callbacks is the ``sim``
layer's self time; nothing is charged to a layer by subtraction, and the
self times plus :attr:`Ledger.wrapper_s` must add up to the traced wall
on their own.  The first ``sample_cap`` raw spans (id, parent, layer,
name, start, end) are kept too, for reading one I/O's path by hand.
Nothing under ``src/`` is edited: the wrappers are class attributes set
by :meth:`install` and restored, identity for identity, by
:meth:`uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: The simulator's layers, one ``repro`` package each.  Anything else --
#: ``repro.profiles``, ``repro.lab``, stdlib callables -- is "other".
LAYERS = (
    "sim", "net", "core", "transport", "agent", "storage", "host", "metrics",
    "ebs", "workloads", "control", "rebuild", "telemetry", "faults", "dist",
)
OTHER = "other"
SCHEDULE_METHODS = ("schedule", "schedule_at", "schedule_fire", "schedule_at_fire", "call_soon")

# Indices into a layer's stats row.
CALLS, EVENTS, SELF_S, TOTAL_S = range(4)


def layer_of(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def _public_methods(cls: type) -> List[Tuple[str, Callable]]:
    """Plain public functions defined on ``cls`` itself (inherited ones
    are wrapped on the base that defines them, if it is listed)."""
    return [
        (name, value)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
        and not inspect.iscoroutinefunction(value)
    ]


class Ledger:
    """Span stack plus per-layer aggregates; see the module docstring."""

    def __init__(self, sample_cap: int = 20_000):
        self.stats: Dict[str, List[float]] = {
            layer: [0, 0, 0.0, 0.0] for layer in (*LAYERS, OTHER)
        }
        self.sample_cap = sample_cap
        #: Raw spans: (id, parent_id, layer, name, start_s, end_s).
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        #: Per-span wrapper cost charged to the parent, by kind (CALLS, EVENTS).
        self.span_cost_s = [0.0, 0.0]
        self.wrapped = 0
        self._stack: List[List[float]] = [[0.0, 0]]  # [children_s, span_id]
        self._ids = itertools.count(1)
        self._patched: List[Tuple[type, str, Any]] = []
        self._callback_layers: Dict[str, str] = {}

    # -- span machinery --------------------------------------------------
    def _span(self, layer: str, name: str, kind: int, fn: Callable, args, kwargs):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        stats = self.stats[layer]
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            parent = stack[-1]
            d = t1 - t0
            parent[0] += d + self.span_cost_s[kind]
            stats[kind] += 1
            stats[SELF_S] += d - frame[0]
            stats[TOTAL_S] += d
            if len(spans) < self.sample_cap:
                spans.append((frame[1], parent[1], layer, name, t0, t1))

    def _wrap_method(self, fn: Callable, layer: str) -> Callable:
        name, span = fn.__qualname__, self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(layer, name, CALLS, fn, args, kwargs)

        return wrapper

    def _fire(self, fn: Callable, args: tuple) -> None:
        callback = fn
        while isinstance(callback, functools.partial):
            callback = callback.func
        module = getattr(callback, "__module__", None) or ""
        layer = self._callback_layers.get(module)
        if layer is None:
            layer = self._callback_layers[module] = layer_of(module)
        self._span(layer, getattr(callback, "__qualname__", "?"), EVENTS, fn, args, {})

    def _wrap_schedule(self, original: Callable) -> Callable:
        fire = self._fire

        @functools.wraps(original)
        def schedule(sim, when, fn, *args):
            return original(sim, when, fire, fn, args)

        return schedule

    def _wrap_call_soon(self, original: Callable) -> Callable:
        fire = self._fire

        @functools.wraps(original)
        def call_soon(sim, fn, *args):
            return original(sim, fire, fn, args)

        return call_soon

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner: type, name: str, value: Any) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> "Ledger":
        """Calibrate the per-span cost, then wrap every layer's surface.
        Call before the workload is built, so pre-bound methods and the
        callbacks scheduled at build time are wrapped too."""
        if self._patched:
            raise RuntimeError("ledger already installed")
        self.span_cost_s = calibrate_span_costs()
        from repro.sim import Simulator

        for name in SCHEDULE_METHODS:
            wrap = self._wrap_call_soon if name == "call_soon" else self._wrap_schedule
            self._patch(Simulator, name, wrap(vars(Simulator)[name]))
        seen = set()
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            for export in getattr(package, "__all__", ()):
                cls = getattr(package, export)
                if not inspect.isclass(cls) or cls in seen or issubclass(cls, BaseException):
                    continue
                seen.add(cls)
                owner_layer = layer_of(cls.__module__)
                for name, fn in _public_methods(cls):
                    self._patch(cls, name, self._wrap_method(fn, owner_layer))
        self.wrapped = len(self._patched)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> List[Tuple[type, str, Any]]:
        return list(self._patched)

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        for row in self.stats.values():
            row[:] = [0, 0, 0.0, 0.0]
        self.spans.clear()
        self._stack[:] = [[0.0, 0]]

    # -- results ---------------------------------------------------------
    @property
    def span_count(self) -> int:
        return sum(int(row[CALLS] + row[EVENTS]) for row in self.stats.values())

    @property
    def wrapper_s(self) -> float:
        """Host time the wrappers themselves cost the traced run."""
        return sum(
            row[CALLS] * self.span_cost_s[CALLS] + row[EVENTS] * self.span_cost_s[EVENTS]
            for row in self.stats.values()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_cost_s": self.span_cost_s,
            "wrapped_methods": self.wrapped,
            "spans": self.span_count,
            "wrapper_s": self.wrapper_s,
            "layers": {
                layer: {
                    "calls": int(row[CALLS]),
                    "events": int(row[EVENTS]),
                    "self_s": row[SELF_S],
                    "total_s": row[TOTAL_S],
                }
                for layer, row in self.stats.items()
            },
            "span_sample": [
                {"id": i, "parent": p, "layer": layer, "name": name, "start_s": t0, "end_s": t1}
                for i, p, layer, name, t0, t1 in self.spans
            ],
        }


def _noop() -> None:
    return None


def calibrate_span_costs(calls: int = 20_000, repeats: int = 5) -> List[float]:
    """Host time one span adds to its parent outside its own interval,
    per kind: the median over ``repeats`` of (wrapped-call loop - empty
    loop - recorded span time) / calls, on a no-op method and a no-op
    callback."""
    t0 = time.perf_counter()
    for _ in range(calls):
        pass
    loop_s = time.perf_counter() - t0
    costs = []
    for kind in (CALLS, EVENTS):
        samples = []
        for _ in range(repeats):
            probe = Ledger(sample_cap=0)
            if kind == CALLS:
                call, args = probe._wrap_method(_noop, OTHER), ()
            else:
                call, args = probe._fire, (_noop, ())
            t0 = time.perf_counter()
            for _ in range(calls):
                call(*args)
            elapsed = time.perf_counter() - t0
            samples.append((elapsed - loop_s - probe.stats[OTHER][TOTAL_S]) / calls)
        costs.append(max(0.0, statistics.median(samples)))
    return costs
