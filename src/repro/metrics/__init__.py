"""Measurement utilities: latency statistics and distributed I/O traces."""

from .stats import LatencyStats, mean_ci, percentile
from .trace import COMPONENTS, IoTrace, TraceCollector

__all__ = [
    "LatencyStats",
    "percentile",
    "mean_ci",
    "IoTrace",
    "TraceCollector",
    "COMPONENTS",
]
