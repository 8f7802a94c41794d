"""`repro.dist` — fleet simulation as independent deployment points.

A :class:`FleetSpec` (:mod:`repro.dist.fleet`) declares deployments and
the cross-deployment events between them.  Each event's effect on its
destination is a function of the spec alone, so every deployment is
built with its inbound effects already scheduled and runs to the
horizon in its own :class:`repro.sim.Simulator`, in any process
(:mod:`repro.dist.shardsim`).  :func:`run_fleet`
(:mod:`repro.dist.coordinator`) fans the deployments out over worker
processes with :func:`repro.lab.runner.map_parallel` and merges their
artifacts.  The fleet digest is byte-identical for every worker count.
"""

from .coordinator import FleetResult, run_fleet
from .fleet import FleetEvent, FleetSpec, reference_fleet

__all__ = [
    "FleetEvent",
    "FleetSpec",
    "FleetResult",
    "reference_fleet",
    "run_fleet",
]
