"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper: it runs
the simulation experiment, prints the same rows/series the paper reports,
saves them under ``benchmarks/out/``, and asserts the qualitative shape
(who wins, by roughly what factor).  Timing is taken by pytest-benchmark
with a single round — these are experiment harnesses, not microbenchmarks.

Multi-point benches (one independent simulation per stack/seed/scenario
point) fan their points through :func:`fanout`, which delegates to the
experiment lab's process-pool runner.  Set ``REPRO_JOBS=N`` to run ``N``
simulations concurrently; the default (1) executes serially in-process,
and results are identical either way because every point is a pure
function of its arguments.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.ebs import DeploymentSpec, EbsDeployment, VirtualDisk
from repro.lab.runner import default_jobs, map_parallel

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def fanout(fn: Callable, argslist: Sequence[Tuple], jobs: Optional[int] = None) -> List:
    """Run ``fn(*args)`` for every args tuple, ``REPRO_JOBS`` at a time.

    Results return in input order.  ``fn`` must be a module-level function
    and its arguments picklable; a crashed worker is retried once serially
    (see :func:`repro.lab.runner.map_parallel`).
    """
    return map_parallel(fn, argslist, jobs=default_jobs() if jobs is None else jobs)


def save_output(name: str, text: str) -> str:
    """Persist a rendered table/series next to the benchmarks."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    return path


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def small_deployment(stack: str, seed: int = 42, **kwargs) -> EbsDeployment:
    """A compact deployment sized for fast benchmark runs."""
    spec = DeploymentSpec(
        stack=stack,
        seed=seed,
        compute_racks=kwargs.pop("compute_racks", 1),
        compute_hosts_per_rack=kwargs.pop("compute_hosts_per_rack", 2),
        storage_racks=kwargs.pop("storage_racks", 2),
        storage_hosts_per_rack=kwargs.pop("storage_hosts_per_rack", 4),
        **kwargs,
    )
    return EbsDeployment(spec)


def provisioned_vd(dep: EbsDeployment, host_index: int = 0,
                   size_mb: int = 512, vd_id: str = "vd0") -> VirtualDisk:
    host = dep.compute_host_names()[host_index]
    return VirtualDisk(dep, vd_id, host, size_mb * 1024 * 1024)


def run_single_ios(
    dep: EbsDeployment,
    vd: VirtualDisk,
    kind: str,
    count: int,
    size_bytes: int = 4096,
    gap_ns: int = 200_000,
) -> List:
    """Issue ``count`` isolated I/Os (one at a time) and return traces."""
    done: List = []
    # Guard the offset walk: an I/O as large as the VD always lands at 0,
    # and one larger than the VD can never fit (the old modulo produced a
    # zero divisor / negative offsets for those sizes).
    span = vd.size_bytes - size_bytes
    if span < 0:
        raise ValueError(
            f"I/O size {size_bytes}B exceeds VD size {vd.size_bytes}B"
        )

    def issue(i: int) -> None:
        offset = (i * size_bytes) % span if span > 0 else 0
        offset -= offset % 4096
        if kind == "write":
            vd.write(offset, size_bytes, done.append)
        else:
            vd.read(offset, size_bytes, done.append)

    for i in range(count):
        dep.sim.schedule(i * gap_ns, issue, i)
    dep.run()
    assert len(done) == count, f"only {len(done)}/{count} I/Os completed"
    return [io.trace for io in done]


def once(benchmark, fn: Callable, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
