"""repro.rebuild: re-replication storms as real backend-network traffic.

This package is the control plane's one recovery path: every storage-node
death the failover orchestrator handles is re-replicated here.  The lost
replicas' bytes move through the same BN/chunk-server/SSD resources that
serve foreground I/O, under a pluggable throttle policy, optionally
swarming from every surviving replica at once.

* :mod:`~repro.rebuild.planner` — failure events to transfer schedules,
  plus the started/completed/requeued/stalled ledger, and
  :func:`build_recovery`, the one place a recovery stack is wired;
* :mod:`~repro.rebuild.executor` — transfers as closed-loop chunk copies
  over :class:`~repro.storage.bn.BackendNetwork`;
* :mod:`~repro.rebuild.throttle` — static-cap, deadline-paced and
  foreground-latency-reactive policies;
* :mod:`~repro.rebuild.drill` — the packaged experiment behind
  ``python -m repro rebuild`` and ``RebuildSpec`` lab points.
"""

from .executor import RebuildExecutor
from .planner import (
    REBUILD_STUCK,
    RebuildPlanner,
    RebuildRecord,
    RebuildTransfer,
    build_recovery,
)
from .throttle import (
    REBUILD_POLICIES,
    DeadlinePolicy,
    ReactivePolicy,
    StaticCapPolicy,
    ThrottlePolicy,
    make_policy,
)

__all__ = [
    "REBUILD_POLICIES",
    "REBUILD_STUCK",
    "DeadlinePolicy",
    "ReactivePolicy",
    "RebuildExecutor",
    "RebuildPlanner",
    "RebuildRecord",
    "RebuildTransfer",
    "StaticCapPolicy",
    "ThrottlePolicy",
    "build_recovery",
    "make_policy",
]
