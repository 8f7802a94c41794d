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

from .replay import (  # noqa: E402
    IoRecord,
    TraceFormatError,
    TraceRecorder,
    load_trace,
    replay,
)

__all__ += ["IoRecord", "TraceFormatError", "TraceRecorder", "load_trace", "replay"]

from .patterns import (  # noqa: E402
    SequentialPattern,
    StridedPattern,
    UniformPattern,
    ZipfianPattern,
)

__all__ += ["SequentialPattern", "UniformPattern", "ZipfianPattern", "StridedPattern"]
