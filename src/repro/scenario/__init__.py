"""repro.scenario — trace ingestion, recording, and the fleet-behavior
scenario catalog.

The scenario plane closes the loop between the repo's synthetic
workload generators and the fleet behaviors the paper's production
system is shaped by: record any simulated run as a versioned, digest-
keyed :class:`FleetTrace`; import public block-trace corpora (MSR
Cambridge, Alibaba) into the same format; replay any trace against any
stack/topology/deployment; and run the curated :data:`CATALOG` of
gated fleet behaviors (boot storms, incast, noisy neighbors, upgrades
under peak, background floods, rebuild storms) as pass/fail SLO
regression gates.
"""

from .catalog import (
    CATALOG,
    ENVELOPE_VERSION,
    CATALOG_DEPLOYMENT,
    Scenario,
    SloGate,
    catalog_names,
    get_scenario,
    trace_scenario,
)
from .envelope import ENVELOPE_KINDS, load_envelope
from .importers import IMPORT_FORMATS, ImportOptions, import_trace
from .record import FleetTraceRecorder
from .run import REPORT_SCHEMA_VERSION, record_scenario, run_scenario
from .trace import (
    TRACE_ALIGN,
    TRACE_SCHEMA_VERSION,
    FleetTrace,
    StreamMeta,
    TraceFormatError,
    from_records,
)

__all__ = [
    "CATALOG",
    "CATALOG_DEPLOYMENT",
    "ENVELOPE_VERSION",
    "IMPORT_FORMATS",
    "REPORT_SCHEMA_VERSION",
    "TRACE_ALIGN",
    "TRACE_SCHEMA_VERSION",
    "FleetTrace",
    "FleetTraceRecorder",
    "ImportOptions",
    "Scenario",
    "SloGate",
    "StreamMeta",
    "TraceFormatError",
    "ENVELOPE_KINDS",
    "catalog_names",
    "from_records",
    "load_envelope",
    "get_scenario",
    "import_trace",
    "record_scenario",
    "run_scenario",
    "trace_scenario",
]
