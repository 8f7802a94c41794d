"""Workload generation: fio-like closed-loop jobs and production-shaped
open-loop traffic (Figures 3-5's distributions)."""

from .distributions import (
    EBS_TX_SHARE,
    IO_SIZE_PMF,
    READ_FRACTION,
    SizeDistribution,
    diurnal_iops,
    weekly_modulation,
)
from .fio import FioJob, FioResult, FioSpec, run_fio
from .production import (
    ProductionWorkload,
    TrafficSample,
    synthesize_day,
    synthesize_week,
)

__all__ = [
    "FioSpec",
    "FioJob",
    "FioResult",
    "run_fio",
    "ProductionWorkload",
    "TrafficSample",
    "synthesize_week",
    "synthesize_day",
    "SizeDistribution",
    "IO_SIZE_PMF",
    "READ_FRACTION",
    "EBS_TX_SHARE",
    "diurnal_iops",
    "weekly_modulation",
]

from .replay import IoRecord, replay  # noqa: E402

__all__ += ["IoRecord", "replay"]

from .patterns import SequentialPattern, ZipfianPattern  # noqa: E402

__all__ += ["SequentialPattern", "ZipfianPattern"]
