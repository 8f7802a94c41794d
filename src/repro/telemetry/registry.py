"""Per-node/per-VD metric registry and the simulated-cadence scraper.

The registry is the fleet's metric surface: components register named
**counters** (monotonic), **gauges** (read-through callables — the scrape
hook pattern: the gauge *pulls* from the live object, the object never
pushes) and **sketch histograms** (bounded-memory latency distributions,
see :mod:`repro.telemetry.sketch`).  Metrics carry sorted label tuples
(``node=...``, ``vd=...``), so one registry holds the whole deployment
without per-entity registries.

The :class:`MetricScraper` samples everything on a fixed simulated
cadence, exactly like the paper's always-on monitoring: each tick builds
a :class:`Snapshot` of flat rows (counter values + ``.rate`` deltas,
gauge readings, per-window histogram quantiles) and hands it to
subscribers (the alert evaluator, the flight recorder, the dashboard).
An idle window produces a zero/None-marked row — never an exception —
which is the empty-scrape contract the metrics satellites harden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from .sketch import QuantileSketch

Labels = Tuple[Tuple[str, str], ...]

#: Window quantiles every histogram reports per scrape.
WINDOW_QUANTILES = ((50, "p50"), (95, "p95"), (99, "p99"))


def _label_key(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Labels) -> str:
    """Flat row key, e.g. ``vd.inflight{vd=vd0}`` or ``fleet.hangs``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class CounterMetric:
    """A monotonic counter; the scraper derives per-second rates."""

    name: str
    labels: Labels = ()
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


@dataclass
class GaugeMetric:
    """A point-in-time reading, pulled from ``fn`` at scrape time."""

    name: str
    labels: Labels = ()
    fn: Optional[Callable[[], float]] = None
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        return float(self.fn()) if self.fn is not None else self.value

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class HistogramMetric:
    """A cumulative sketch plus a per-scrape-window sketch.

    ``observe`` feeds both; the scraper reports the *window* quantiles
    (what alerting wants: "p99 over the last interval") and resets the
    window, while ``sketch`` keeps the whole-run distribution for final
    summaries.  Memory stays O(1) either way.
    """

    def __init__(self, name: str, labels: Labels = (), relative_accuracy: float = 0.01):
        self.name = name
        self.labels = labels
        self.sketch = QuantileSketch(relative_accuracy)
        self.window = QuantileSketch(relative_accuracy)

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)

    def observe(self, value: float) -> None:
        self.sketch.add(value)
        self.window.add(value)

    def scrape_rows(self) -> Dict[str, Optional[float]]:
        """Window rows; an idle window yields count 0 and None quantiles."""
        rows: Dict[str, Optional[float]] = {f"{self.key}.count": float(self.window.count)}
        for pct, suffix in WINDOW_QUANTILES:
            rows[f"{self.key}.{suffix}"] = (
                self.window.percentile(pct) if self.window.count else None
            )
        return rows

    def reset_window(self) -> None:
        self.window = QuantileSketch(self.sketch.relative_accuracy)


class MetricRegistry:
    """Get-or-create registry of counters, gauges and histograms."""

    def __init__(self, relative_accuracy: float = 0.01):
        self.relative_accuracy = relative_accuracy
        self._counters: Dict[str, CounterMetric] = {}
        self._gauges: Dict[str, GaugeMetric] = {}
        self._histograms: Dict[str, HistogramMetric] = {}

    def _claim(self, key: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and key in table:
                raise ValueError(f"metric {key!r} already registered as a {other}")

    def counter(self, name: str, **labels: str) -> CounterMetric:
        key = metric_key(name, _label_key(labels))
        if key not in self._counters:
            self._claim(key, "counter")
            self._counters[key] = CounterMetric(name, _label_key(labels))
        return self._counters[key]

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None, **labels: str
    ) -> GaugeMetric:
        key = metric_key(name, _label_key(labels))
        if key not in self._gauges:
            self._claim(key, "gauge")
            self._gauges[key] = GaugeMetric(name, _label_key(labels), fn=fn)
        elif fn is not None:
            raise ValueError(f"gauge {key!r} already registered with a reader")
        return self._gauges[key]

    def histogram(self, name: str, **labels: str) -> HistogramMetric:
        key = metric_key(name, _label_key(labels))
        if key not in self._histograms:
            self._claim(key, "histogram")
            self._histograms[key] = HistogramMetric(
                name, _label_key(labels), self.relative_accuracy
            )
        return self._histograms[key]

    # -- deterministic iteration (scrape order = sorted key order) -------
    def counters(self) -> List[CounterMetric]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[GaugeMetric]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[HistogramMetric]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


@dataclass(frozen=True)
class Snapshot:
    """One scrape: flat metric rows at one simulated instant."""

    index: int
    t_ns: int
    interval_ns: int
    rows: Dict[str, Optional[float]] = field(default_factory=dict)

    def get(self, key: str) -> Optional[float]:
        return self.rows.get(key)


class MetricScraper:
    """Samples a registry on a fixed simulated cadence."""

    def __init__(self, sim: Simulator, registry: MetricRegistry, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError(f"scrape interval must be positive: {interval_ns}")
        self.sim = sim
        self.registry = registry
        self.interval_ns = interval_ns
        self.scrapes = 0
        self.last: Optional[Snapshot] = None
        self._last_counter_values: Dict[str, int] = {}
        self._subscribers: List[Callable[[Snapshot], None]] = []
        self._started = False
        self._stop_ns: Optional[int] = None

    def subscribe(self, callback: Callable[[Snapshot], None]) -> None:
        self._subscribers.append(callback)

    def start(self, until_ns: Optional[int] = None) -> None:
        """Begin scraping; ``until_ns`` bounds the last tick so the event
        heap drains at the end of a run (same idiom as HealthMonitor)."""
        if self._started:
            raise RuntimeError("scraper already started")
        self._started = True
        self._stop_ns = until_ns
        self.sim.schedule_fire(self.interval_ns, self._tick)

    # ------------------------------------------------------------------
    def scrape_once(self) -> Snapshot:
        """Build one snapshot now (also usable without a cadence)."""
        interval_s = self.interval_ns / 1e9
        rows: Dict[str, Optional[float]] = {}
        for counter in self.registry.counters():
            rows[counter.key] = float(counter.value)
            prev = self._last_counter_values.get(counter.key, 0)
            rows[f"{counter.key}.rate"] = (counter.value - prev) / interval_s
            self._last_counter_values[counter.key] = counter.value
        for gauge in self.registry.gauges():
            rows[gauge.key] = gauge.read()
        for hist in self.registry.histograms():
            rows.update(hist.scrape_rows())
            hist.reset_window()
        snapshot = Snapshot(self.scrapes, self.sim.now, self.interval_ns, rows)
        self.scrapes += 1
        self.last = snapshot
        for subscriber in self._subscribers:
            subscriber(snapshot)
        return snapshot

    def _tick(self) -> None:
        self.scrape_once()
        next_ns = self.sim.now + self.interval_ns
        if self._stop_ns is None or next_ns <= self._stop_ns:
            self.sim.schedule_fire(self.interval_ns, self._tick)
