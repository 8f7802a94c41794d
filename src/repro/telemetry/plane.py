"""The telemetry plane: one object that wires observability onto a
deployment.

A :class:`TelemetryPlane` assembles the subsystem end to end:

* a :class:`~repro.telemetry.registry.MetricRegistry` holding fleet
  counters (completions, errors, hangs, bytes), a fleet latency sketch
  histogram, per-VD metrics and per-node SA gauges;
* the deployment's scrape hooks — ``EbsDeployment.attach_telemetry``
  streams every completed trace into the plane and exposes each storage
  agent's counters; ``VirtualDisk.subscribe`` feeds per-VD completions;
* a :class:`~repro.telemetry.diagnosis.SlowIoDiagnoser` attributing SLO
  violations and hangs to SA/FN/BN/SSD while the run is live;
* a :class:`~repro.telemetry.registry.MetricScraper` on a simulated
  cadence, an :class:`~repro.telemetry.alerts.AlertEvaluator` over each
  snapshot (optionally declaring incidents on a
  :class:`repro.control.health.HealthMonitor`), and an optional
  :class:`~repro.telemetry.recorder.FlightRecorder`.

Everything the plane stores is O(1) per metric — sketches, counters,
bounded verdict lists — so it runs alongside millions of simulated I/Os.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..agent.base import IoRequest, StorageAgent
from ..metrics.trace import IoTrace
from ..sim.events import MS
from .alerts import ABOVE, Alert, AlertEvaluator, AlertRule
from .diagnosis import SlowIoDiagnoser
from .recorder import FlightRecorder
from .registry import MetricRegistry, MetricScraper, Snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..control.health import HealthMonitor
    from ..ebs.deployment import EbsDeployment
    from ..ebs.virtual_disk import VirtualDisk

#: Default scrape cadence (simulated).
DEFAULT_INTERVAL_NS = 1 * MS
#: Default per-I/O latency SLO — generous against Figure 6's ~100-200us
#: healthy-path latencies, so only genuinely slow I/Os are flagged.
DEFAULT_SLO_NS = 500_000


def default_rules(slo_ns: int = DEFAULT_SLO_NS) -> List[AlertRule]:
    """The paper's three operational triggers: SLO, hangs, errors."""
    return [
        AlertRule(
            "latency-slo", "fleet.latency.p99", float(slo_ns), ABOVE,
            description=f"window p99 above the {slo_ns}ns latency SLO",
        ),
        AlertRule(
            "hang-burst", "fleet.hangs.rate", 0.0, ABOVE,
            description="any I/O unanswered past the hang threshold",
        ),
        AlertRule(
            "error-burst", "fleet.errors.rate", 0.0, ABOVE,
            description="any failed I/O in the window",
        ),
    ]


class TelemetryPlane:
    """Fleet observability for one deployment."""

    def __init__(
        self,
        deployment: "EbsDeployment",
        interval_ns: int = DEFAULT_INTERVAL_NS,
        slo_ns: int = DEFAULT_SLO_NS,
        relative_accuracy: float = 0.01,
        health: Optional["HealthMonitor"] = None,
        rules: Optional[Sequence[AlertRule]] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        self.deployment = deployment
        self.sim = deployment.sim
        self.interval_ns = interval_ns
        self.slo_ns = slo_ns
        self.health = health
        self.recorder = recorder
        self.registry = MetricRegistry(relative_accuracy)
        self.diagnoser = SlowIoDiagnoser(slo_ns)
        self.scraper = MetricScraper(self.sim, self.registry, interval_ns)
        self.evaluator = AlertEvaluator(
            default_rules(slo_ns) if rules is None else rules, health=health
        )
        # Fleet-level metrics (labels-free keys the default rules target).
        self._completed = self.registry.counter("fleet.completed")
        self._errors = self.registry.counter("fleet.errors")
        self._hangs = self.registry.counter("fleet.hangs")
        self._bytes = self.registry.counter("fleet.bytes")
        self._latency = self.registry.histogram("fleet.latency")
        self.scraper.subscribe(self._on_scrape)
        deployment.attach_telemetry(self)

    # ------------------------------------------------------------------
    # Scrape-hook inlets (called by ebs/agent/fault machinery)
    # ------------------------------------------------------------------
    def on_trace(self, trace: IoTrace) -> None:
        """One completed trace (TraceCollector subscription)."""
        if trace.ok:
            self._completed.inc()
            self._bytes.inc(trace.size_bytes)
            self._latency.observe(trace.total_ns)
        else:
            self._errors.inc()
        verdict = self.diagnoser.observe(trace)
        if verdict is not None and self.recorder is not None:
            self.recorder.record(
                "slow-io", self.sim.now, io_id=verdict.io_id,
                reason=verdict.reason, component=verdict.component,
                total_ns=verdict.total_ns, share=round(verdict.share, 4),
            )

    def register_agent(self, node: str, agent: StorageAgent) -> None:
        """Expose one storage agent's counters as per-node gauges."""
        for key in sorted(agent.scrape_counters()):
            self.registry.gauge(
                f"sa.{key}",
                fn=(lambda a=agent, k=key: float(a.scrape_counters()[k])),
                node=node,
            )

    def watch_vd(self, vd: "VirtualDisk") -> None:
        """Track one virtual disk: gauges, counters and a latency sketch."""
        vd_id = vd.vd_id
        self.registry.gauge("vd.inflight", fn=lambda: float(len(vd.inflight)), vd=vd_id)
        self.registry.gauge("vd.reads", fn=lambda: float(vd.reads), vd=vd_id)
        self.registry.gauge("vd.writes", fn=lambda: float(vd.writes), vd=vd_id)
        completed = self.registry.counter("vd.completed", vd=vd_id)
        failed = self.registry.counter("vd.failed", vd=vd_id)
        latency = self.registry.histogram("vd.latency", vd=vd_id)

        def observe(io: IoRequest) -> None:
            if io.trace is not None and io.trace.ok:
                completed.inc()
                latency.observe(io.trace.total_ns)
            else:
                failed.inc()

        vd.subscribe(observe)

    def watch_rebuild(self, executor) -> None:
        """Export one rebuild executor's storm progress as gauges, and feed
        its throttle policy each scrape window's foreground p99.

        ``rebuild.rate_bps`` samples the throttle policy's current answer,
        so a scraped dashboard shows the reactive policy breathing; the
        byte/transfer gauges make recovery progress and its foreground
        impact (via ``fleet.latency.p99`` on the same snapshots) a single
        correlated time series.  The p99 feed closes the reactive policy's
        loop; for the other policies ``observe_window`` is a no-op.
        """
        policy = executor.policy
        self.scraper.subscribe(
            lambda snap: policy.observe_window(snap.get("fleet.latency.p99"))
        )
        self.registry.gauge(
            "rebuild.bytes_planned", fn=lambda: float(executor.bytes_planned)
        )
        self.registry.gauge(
            "rebuild.bytes_done", fn=lambda: float(executor.bytes_done)
        )
        self.registry.gauge(
            "rebuild.active", fn=lambda: float(executor.active_count)
        )
        self.registry.gauge(
            "rebuild.queued", fn=lambda: float(executor.queued_count)
        )
        self.registry.gauge(
            "rebuild.transfers_done", fn=lambda: float(executor.transfers_done)
        )
        self.registry.gauge(
            "rebuild.rate_bps", fn=lambda: float(executor.current_rate_bps())
        )

    def on_hang(self, io: IoRequest) -> None:
        """Hang-signal inlet — wire as ``IoHangMonitor(on_hang=...)``."""
        self._hangs.inc()
        verdict = self.diagnoser.observe_hang(io)
        if self.health is not None:
            self.health.report_hang(io)
        if self.recorder is not None:
            self.recorder.record(
                "hang", self.sim.now, io_id=io.io_id, vd=io.vd_id,
                component=verdict.component,
            )

    # ------------------------------------------------------------------
    def start(self, until_ns: Optional[int] = None) -> None:
        self.scraper.start(until_ns)

    def _on_scrape(self, snapshot: Snapshot) -> None:
        fired = self.evaluator.evaluate(snapshot)
        if self.recorder is not None:
            self.recorder.record("scrape", snapshot.t_ns, rows=snapshot.rows)
            for alert in fired:
                self.recorder.record(
                    "alert", snapshot.t_ns, rule=alert.rule.name,
                    metric=alert.rule.metric, value=alert.value,
                )

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def fleet_row(self, snapshot: Snapshot) -> Dict[str, Any]:
        """One dashboard row from one snapshot (per-deployment view)."""
        p50 = snapshot.get("fleet.latency.p50")
        p99 = snapshot.get("fleet.latency.p99")
        return {
            "t_ns": snapshot.t_ns,
            "iops": snapshot.get("fleet.completed.rate") or 0.0,
            "mb_s": (snapshot.get("fleet.bytes.rate") or 0.0) / (1024 * 1024),
            "p50_us": None if p50 is None else p50 / 1_000,
            "p99_us": None if p99 is None else p99 / 1_000,
            "window_ios": int(snapshot.get("fleet.latency.count") or 0),
            "hangs": int(snapshot.get("fleet.hangs") or 0),
            "errors": int(snapshot.get("fleet.errors") or 0),
            "active_alerts": [a.rule.name for a in self.evaluator.active()],
        }

    def _quantiles(self) -> Dict[str, Optional[float]]:
        sketch = self._latency.sketch
        if sketch.count == 0:
            return {"count": 0, "mean": None, "p50": None, "p95": None,
                    "p99": None, "max": None}
        return {
            "count": sketch.count,
            "mean": round(sketch.mean(), 3),
            "p50": round(sketch.percentile(50), 3),
            "p95": round(sketch.percentile(95), 3),
            "p99": round(sketch.percentile(99), 3),
            "max": round(sketch.max_value, 3),
        }

    def summary(self) -> Dict[str, Any]:
        """Machine-readable run summary (canonical-JSON-safe, simulated
        time only — byte-identical across processes for one spec+seed)."""
        return {
            "interval_ns": self.interval_ns,
            "slo_ns": self.slo_ns,
            "relative_accuracy": self.registry.relative_accuracy,
            "scrapes": self.scraper.scrapes,
            "completed": self._completed.value,
            "errors": self._errors.value,
            "hangs": self._hangs.value,
            "bytes_moved": self._bytes.value,
            "latency_ns": self._quantiles(),
            "sketch_buckets": len(self._latency.sketch),
            "slow_io": self.diagnoser.summary(),
            "alerts": [
                {
                    "rule": alert.rule.name,
                    "metric": alert.rule.metric,
                    "value": round(alert.value, 6),
                    "fired_ns": alert.fired_ns,
                    "resolved_ns": alert.resolved_ns,
                }
                for alert in self.evaluator.alerts
            ],
        }
