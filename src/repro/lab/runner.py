"""Parallel point execution: fan experiment points out to worker processes.

Every (spec, seed) point is a pure function of its spec, so points can run
in any order, in any process, and must produce byte-identical artifacts
either way — `tests/test_lab.py` holds the runner to that.  The execution
strategy is:

* ``jobs <= 1`` — run in-process, serially (the reference behaviour);
* ``jobs > 1`` — a stdlib :class:`concurrent.futures.ProcessPoolExecutor`
  with the multiprocessing start method pinned to ``spawn``, one
  simulation per worker task.  Workers receive the spec as canonical
  JSON (cheap to pickle, independent of import state) and return plain
  dict artifacts.
* any point whose worker crashes or errors, or whose arguments cannot
  reach a worker at all, is retried **once**, serially in the parent — a
  deterministic failure then reproduces with a clean traceback instead
  of a dead pool.

``spawn`` on every platform: fork-inherited state is the classic source
of Linux-vs-macOS and version-to-version divergence, and workers that
re-import from a clean interpreter are the only configuration whose
determinism holds everywhere.

``run_sweep`` layers the content-addressed store on top: cached points
skip simulation entirely, fresh results are persisted as canonical JSON.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..metrics.stats import LatencyStats
from ..workloads import replay
from .results import SweepResult
from .rig import DRAIN_NS, Rig
from .spec import ExperimentSpec, canonical_json
from .store import ResultStore
from .telemetry import (
    CACHED,
    FAILED,
    RETRIED,
    SIMULATED,
    PointEvent,
    ProgressFn,
    RunTelemetry,
)

#: Environment knob: default worker count for sweeps and benches.
JOBS_ENV = "REPRO_JOBS"

#: The pinned multiprocessing start method (see module docstring).
START_METHOD = "spawn"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial).

    Zero, negative and non-integer values are rejected here, with the
    offending value in the message — not silently clamped, and never
    handed onward for a worker pool to choke on.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# Point execution (pure: spec + seed -> artifact dict)
# ----------------------------------------------------------------------
def execute_point(
    spec: ExperimentSpec,
    seed: int,
    observe: Optional[Callable[..., None]] = None,
) -> Dict[str, Any]:
    """Simulate one point and return its JSON-ready result artifact.

    The artifact contains only values derived from the simulation (never
    wall-clock readings), so the same point always yields the same bytes
    under :func:`repro.lab.spec.canonical_json`.

    ``observe(deployment, vd)`` is called after the deployment and
    virtual disk are built but before any I/O is issued — the in-process
    hook `repro.scenario` records traces through.  Hooks are local
    closures, so observed points always run in the calling process
    (``run_sweep``'s worker path never passes one); drill points
    (upgrade/rebuild) run their own loops and refuse the hook rather
    than silently never calling it.  Plain points run on a
    :class:`~repro.lab.rig.Rig`, which wires everything but the load.
    """
    if spec.upgrade is not None:
        if observe is not None:
            raise ValueError("upgrade drill points cannot be observed")
        # Control-plane drills replace the plain workload entirely.  Lazy
        # import: repro.control imports repro.lab.spec, so the module-level
        # direction must stay lab <- control.
        from ..control.drill import execute_upgrade_point

        return execute_upgrade_point(spec, seed)
    if spec.rebuild is not None:
        if observe is not None:
            raise ValueError("rebuild drill points cannot be observed")
        # Same lazy-import rule: lab <- rebuild only inside the dispatch.
        from ..rebuild.drill import execute_rebuild_point

        return execute_rebuild_point(spec, seed)
    rig = Rig(spec, seed)
    dep = rig.deployment
    vd = rig.add_vd("lab-vd0")
    if observe is not None:
        observe(dep, vd)
    rig.start()

    w = spec.workload
    latency = LatencyStats("lab")
    issued = completed = failed = bytes_moved = 0
    #: Measurement window for rate metrics: issue horizon for closed-loop
    #: fio, last completion for paced/replayed workloads (excludes the
    #: idle tail of the drain window either way).
    duration_ns = 0

    if w.mode == "fio":
        job = rig.fio_job(vd, "lab")
        job.start()
        rig.run()
        issued, completed, failed = job.issues, job.completed, job.failed
        bytes_moved, latency = job.bytes_moved, job.latency
        duration_ns = job.result().duration_ns
    elif w.mode == "isolated":
        span = vd.size_bytes - w.size_bytes
        if span < 0:
            raise ValueError(
                f"isolated I/O of {w.size_bytes}B exceeds VD of {vd.size_bytes}B"
            )

        def finish(io) -> None:
            nonlocal completed, failed, bytes_moved, duration_ns
            duration_ns = dep.sim.now
            if io.trace is not None and io.trace.ok:
                completed += 1
                bytes_moved += io.size_bytes
                latency.record(io.trace.total_ns)
            else:
                failed += 1

        def issue(i: int) -> None:
            offset = (i * w.size_bytes) % span if span > 0 else 0
            offset -= offset % 4096
            op = vd.write if w.kind == "write" else vd.read
            rig.hangs.watch(op(offset, w.size_bytes, finish))

        for i in range(w.count):
            dep.sim.schedule_fire(i * w.gap_ns, issue, i)
        issued = w.count
        rig.run()
    else:  # trace
        result = replay(
            dep.sim, vd, w.records, time_scale=w.time_scale, size_scale=w.size_scale,
            on_each=rig.hangs.note_completion, on_issue=rig.hangs.watch,
        )
        rig.run()
        issued, completed, failed = result.issued, result.completed, result.failed
        latency = result.latency
        bytes_moved = result.issued_bytes
        duration_ns = min(dep.sim.now, w.horizon_ns + DRAIN_NS)

    return rig.artifact(w.mode, issued, completed, failed, bytes_moved,
                        duration_ns, latency.samples)


def _simulate_point(spec_json: str, seed: int) -> Dict[str, Any]:
    """Worker entry point: rebuild the spec from JSON and execute."""
    return execute_point(ExperimentSpec.from_json(spec_json), seed)


def _timed(fn: Callable[..., Any], args: Tuple) -> Tuple[float, Any]:
    """Worker-side wrapper: the task's result and its own wall seconds."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


# ----------------------------------------------------------------------
# Generic parallel map with crash retry
# ----------------------------------------------------------------------
def map_parallel(
    fn: Callable[..., Any],
    argslist: Sequence[Tuple],
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, str, float, Any], None]] = None,
) -> List[Any]:
    """Run ``fn(*args)`` for every args tuple, ``jobs`` at a time.

    Results come back in input order.  ``on_result(index, status, wall_s,
    result)`` streams completions as they happen.  Tasks whose worker
    dies or raises are retried once, serially, in the calling process;
    a second failure propagates the real exception.  A task that cannot
    reach a worker at all (``fn`` or an argument that does not pickle)
    takes the same retry, so callers never need a platform case-split.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    n = len(argslist)
    results: List[Any] = [None] * n

    def run_serial(index: int, status: str) -> None:
        t0 = time.perf_counter()
        try:
            results[index] = fn(*argslist[index])
        except Exception as exc:
            if on_result is not None:
                on_result(index, FAILED, time.perf_counter() - t0, exc)
            raise
        if on_result is not None:
            on_result(index, status, time.perf_counter() - t0, results[index])

    if jobs <= 1 or n <= 1:
        for i in range(n):
            run_serial(i, SIMULATED)
        return results

    # Imported here so serial callers and set-up probes never pay for it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    retry: List[int] = []
    context = multiprocessing.get_context(START_METHOD)
    with ProcessPoolExecutor(min(jobs, n), mp_context=context) as pool:
        index_of = {}
        for i, args in enumerate(argslist):
            try:
                index_of[pool.submit(_timed, fn, args)] = i
            except BrokenProcessPool:  # a worker died while we were submitting
                retry.append(i)
        # A crashed worker (BrokenProcessPool), a task's own exception and
        # a pickling failure all surface from result(); all get the retry.
        for future in as_completed(index_of):
            i = index_of[future]
            try:
                wall_s, results[i] = future.result()
            except Exception:
                retry.append(i)
                continue
            if on_result is not None:
                on_result(i, SIMULATED, wall_s, results[i])
    for i in sorted(retry):
        run_serial(i, RETRIED)
    return results


# ----------------------------------------------------------------------
# Sweeps: store-aware fan-out over experiment points
# ----------------------------------------------------------------------
def run_sweep(
    specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Resolve every point of every spec: cache, else simulate, persist.

    Returns a :class:`repro.lab.results.SweepResult` carrying the spec
    list, the per-point artifacts (in spec x seed order) and the run's
    :class:`~repro.lab.telemetry.RunTelemetry`.
    """
    if isinstance(specs, ExperimentSpec):
        specs = [specs]
    specs = list(specs)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))

    points = [point for spec in specs for point in spec.points()]
    telemetry = RunTelemetry(total=len(points), jobs=jobs)
    artifacts: Dict[str, Dict[str, Any]] = {}

    def label(spec: ExperimentSpec, seed: int) -> str:
        return f"{spec.name} seed={seed}"

    def emit(event: PointEvent) -> None:
        telemetry.note(event)
        if progress is not None:
            progress(event)

    todo: List[Tuple[int, ExperimentSpec, int, str]] = []
    for index, (spec, seed, digest) in enumerate(points):
        cached = store.get_artifact(digest) if (store is not None and not force) else None
        if cached is not None:
            artifacts[digest] = cached
            emit(PointEvent(index, len(points), label(spec, seed), CACHED))
        else:
            todo.append((index, spec, seed, digest))

    def on_result(pos: int, status: str, wall_s: float, result: Any) -> None:
        index, spec, seed, _digest = todo[pos]
        error = str(result) if status == FAILED else ""
        emit(PointEvent(index, len(points), label(spec, seed), status, wall_s, error))

    try:
        fresh = map_parallel(
            _simulate_point,
            [(spec.to_json(), seed) for _, spec, seed, _ in todo],
            jobs=jobs,
            on_result=on_result,
        )
    except Exception as exc:
        # The failing point has already been retried serially; surface it
        # with enough context to re-run by hand.
        telemetry.finish()
        raise RuntimeError(f"sweep failed after retry: {exc}") from exc

    for (index, spec, seed, digest), artifact in zip(todo, fresh):
        if store is not None:
            store.put(digest, canonical_json(artifact))
        artifacts[digest] = artifact

    telemetry.finish()
    ordered = [artifacts[digest] for _, _, digest in points]
    return SweepResult(specs=specs, points=points, artifacts=ordered, telemetry=telemetry)
