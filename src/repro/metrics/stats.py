"""Latency statistics: streaming collection, percentiles, summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or sorted_values[lo] == sorted_values[hi]:
        return float(sorted_values[lo])
    frac = rank - lo
    return float(sorted_values[lo]) * (1 - frac) + float(sorted_values[hi]) * frac


#: The zero-marked row an empty summary produces: an idle scrape window
#: must render as "no traffic", never crash the reporter.
EMPTY_SUMMARY_US = {
    "count": 0,
    "mean_us": 0.0,
    "p50_us": 0.0,
    "p95_us": 0.0,
    "p99_us": 0.0,
    "max_us": 0.0,
}


@dataclass
class LatencyStats:
    """Accumulates samples (ns) and reports summary statistics.

    Two backing modes:

    * the default keeps every sample (what lab artifacts serialize and
      exact percentiles need), with a sort cached per sample count so a
      summary sorts once instead of once per percentile;
    * ``bounded=True`` holds a :class:`repro.telemetry.sketch.
      QuantileSketch` instead of the sample list — O(1) memory with a
      relative-error guarantee, for hot loops that must not retain every
      I/O (``samples`` stays empty in this mode).
    """

    name: str = ""
    samples: List[int] = field(default_factory=list)
    bounded: bool = False
    _sketch: object = field(default=None, init=False, repr=False, compare=False)
    _sorted: List[int] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _sorted_count: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bounded:
            if self.samples:
                raise ValueError("bounded stats cannot start from samples")
            from ..telemetry.sketch import QuantileSketch

            self._sketch = QuantileSketch()

    def record(self, value_ns: int) -> None:
        if value_ns < 0:
            raise ValueError(f"negative latency sample: {value_ns}")
        if self.bounded:
            self._sketch.add(value_ns)
        else:
            self.samples.append(value_ns)

    def extend(self, values: Iterable[int]) -> None:
        for value in values:
            self.record(value)

    def __len__(self) -> int:
        return self.count

    @property
    def count(self) -> int:
        return self._sketch.count if self.bounded else len(self.samples)

    def _ordered(self) -> List[int]:
        """Sorted samples, re-sorted only when the count has changed."""
        if self._sorted_count != len(self.samples):
            self._sorted = sorted(self.samples)
            self._sorted_count = len(self.samples)
        return self._sorted

    def mean(self) -> float:
        if not self.count:
            raise ValueError(f"no samples in {self.name!r}")
        if self.bounded:
            return self._sketch.mean()
        return sum(self.samples) / len(self.samples)

    def p(self, pct: float) -> float:
        if self.bounded:
            if not self._sketch.count:
                raise ValueError(f"no samples in {self.name!r}")
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"percentile out of range: {pct}")
            return self._sketch.percentile(pct)
        return percentile(self._ordered(), pct)

    def median(self) -> float:
        return self.p(50)

    def summary_us(self) -> Dict[str, float]:
        """Summary in microseconds — the unit the paper's figures use.

        Empty stats produce the zero-marked :data:`EMPTY_SUMMARY_US` row
        rather than raising, so idle measurement windows stay renderable.
        """
        if not self.count:
            return dict(EMPTY_SUMMARY_US)
        if self.bounded:
            sk = self._sketch
            return {
                "count": sk.count,
                "mean_us": round(sk.mean() / 1_000, 2),
                "p50_us": round(sk.percentile(50) / 1_000, 2),
                "p95_us": round(sk.percentile(95) / 1_000, 2),
                "p99_us": round(sk.percentile(99) / 1_000, 2),
                "max_us": round(sk.max_value / 1_000, 2),
            }
        ordered = self._ordered()
        return {
            "count": len(ordered),
            "mean_us": round(sum(ordered) / len(ordered) / 1_000, 2),
            "p50_us": round(percentile(ordered, 50) / 1_000, 2),
            "p95_us": round(percentile(ordered, 95) / 1_000, 2),
            "p99_us": round(percentile(ordered, 99) / 1_000, 2),
            "max_us": round(ordered[-1] / 1_000, 2),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return f"<LatencyStats {self.name!r} empty>"
        return f"<LatencyStats {self.name!r} {self.summary_us()}>"

    @classmethod
    def merged(
        cls, parts: Iterable["LatencyStats"], name: str = "merged"
    ) -> "LatencyStats":
        """Pool several runs' samples (e.g. seed replicates) into one
        distribution, so percentiles are computed over all I/Os rather
        than averaged across runs (averaging percentiles is biased).
        Bounded parts merge their sketches; mixing modes is rejected
        because the sample-backed result would silently lose the
        sketch-held I/Os."""
        parts = list(parts)
        if any(part.bounded for part in parts):
            if not all(part.bounded for part in parts):
                raise ValueError("cannot merge bounded and sample-backed stats")
            out = cls(name, bounded=True)
            for part in parts:
                out._sketch.merge(part._sketch)
            return out
        out = cls(name)
        for part in parts:
            out.samples.extend(part.samples)
        return out


#: Two-sided 95% Student-t critical values by degrees of freedom.  Seed
#: replicate counts are small (2-10 runs), where the normal 1.96 badly
#: understates the interval; beyond the table the normal value is close.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    15: 2.131, 20: 2.086, 30: 2.042,
}


def mean_ci(values: Sequence[float]) -> tuple:
    """Mean and 95% confidence half-width of replicate measurements.

    Returns ``(mean, half_width)``; the half-width is 0.0 for a single
    replicate (no variance estimate is possible).
    """
    if not values:
        raise ValueError("mean_ci of empty sequence")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    df = n - 1
    t = _T95.get(df) or next(
        (_T95[k] for k in sorted(_T95) if k >= df), 1.960
    )
    return mean, t * math.sqrt(var / n)
