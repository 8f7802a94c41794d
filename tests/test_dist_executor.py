"""Process fan-out: ``map_parallel`` over a spawn process pool.

The contracts under test:

* results come back in input order, serially or from worker processes;
* a failed task is retried once, serially, in the parent, and a second
  failure raises the real exception;
* a worker that dies mid-task, and a task whose arguments cannot be
  pickled, are both recovered by that parent retry;
* worker processes use the ``spawn`` start method (no forked simulator
  state, identical semantics on every platform);
* ``REPRO_JOBS`` is validated loudly, not coerced.
"""

import multiprocessing
import os

import pytest

from repro.lab import runner
from repro.lab.runner import JOBS_ENV, default_jobs, map_parallel

#: Set in the parent only; a forked worker would inherit it, a spawned
#: one re-imports this module and sees the default.
_PARENT_STATE = {"touched": False}


def square(x):
    return x * x


def square_first(x, _payload):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * 10


def crash_in_worker(x):
    # os._exit in a *worker* only: the parent retry then succeeds, which
    # is exactly the crash-recovery path map_parallel promises.
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return x + 100


def saw_parent_state(_x):
    return multiprocessing.parent_process() is not None, _PARENT_STATE["touched"]


def recorder():
    statuses = []

    def on_result(index, status, wall_s, result):
        statuses.append((index, status))

    return statuses, on_result


# ----------------------------------------------------------------------
# Serial path (jobs=1)
# ----------------------------------------------------------------------
def test_serial_map_order_and_stats():
    statuses, on_result = recorder()
    assert map_parallel(square, [(i,) for i in range(6)], jobs=1,
                        on_result=on_result) == [0, 1, 4, 9, 16, 25]
    assert statuses == [(i, "simulated") for i in range(6)]


def test_serial_submit_future_error():
    # Serially there is no second attempt: the real exception surfaces
    # at once, after a "failed" status for the task that raised.
    statuses, on_result = recorder()
    with pytest.raises(ValueError, match="three is right out"):
        map_parallel(fail_on_three, [(i,) for i in range(5)], jobs=1,
                     on_result=on_result)
    assert statuses[-1] == (3, "failed")


# ----------------------------------------------------------------------
# Process pool (jobs > 1)
# ----------------------------------------------------------------------
def test_pool_map_order():
    assert map_parallel(square, [(i,) for i in range(8)], jobs=2) == [
        i * i for i in range(8)
    ]


def test_pool_uses_spawn_start_method():
    assert runner.START_METHOD == "spawn"
    _PARENT_STATE["touched"] = True
    try:
        seen = map_parallel(saw_parent_state, [(0,), (1,)], jobs=2)
    finally:
        _PARENT_STATE["touched"] = False
    assert seen == [(True, False), (True, False)]


def test_pool_map_retries_failure_serially_then_raises():
    statuses, on_result = recorder()
    # The serial retry surfaces the *real* exception, not a wrapper.
    with pytest.raises(ValueError, match="three is right out"):
        map_parallel(fail_on_three, [(i,) for i in range(5)], jobs=2,
                     on_result=on_result)
    assert statuses[-1] == (3, "failed")
    assert sorted(i for i, s in statuses if s == "simulated") == [0, 1, 2, 4]


def test_pool_map_recovers_from_worker_crash():
    statuses, on_result = recorder()
    results = map_parallel(crash_in_worker, [(i,) for i in range(4)], jobs=2,
                           on_result=on_result)
    assert results == [100, 101, 102, 103]
    assert (0, "retried") in statuses


def test_pool_unpicklable_args_run_inline():
    statuses, on_result = recorder()
    unpicklable = lambda: None  # noqa: E731
    results = map_parallel(
        square_first, [(2, unpicklable), (3, unpicklable)],
        jobs=2, on_result=on_result,
    )
    assert results == [4, 9]
    assert sorted(statuses) == [(0, "retried"), (1, "retried")]


# ----------------------------------------------------------------------
# REPRO_JOBS and the lab's status vocabulary
# ----------------------------------------------------------------------
def test_default_jobs_validation(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(JOBS_ENV, "3")
    assert default_jobs() == 3
    for bad in ("0", "-2", "abc", "1.5"):
        monkeypatch.setenv(JOBS_ENV, bad)
        with pytest.raises(ValueError, match=JOBS_ENV):
            default_jobs()


def test_map_parallel_rides_executor_plane():
    statuses, on_result = recorder()
    results = map_parallel(
        square, [(i,) for i in range(4)], jobs=2, on_result=on_result
    )
    assert results == [0, 1, 4, 9]
    assert sorted(i for i, _ in statuses) == [0, 1, 2, 3]
    assert {s for _, s in statuses} == {"simulated"}
