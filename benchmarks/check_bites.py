"""Bite checks: each exactness test is shown to fail on a known mutant.

An exactness test compares a fold, a queue or a fast path against a
reference model, or pins a fact a shortcut relies on.  It proves
something only while it can still tell wrong code from right code, so
each entry of ``BITES`` keeps one mutation that it must catch: a file,
an exact source edit (a text that occurs exactly once, and its
replacement) and the test ids that must fail under it.

The script copies the tree to a temporary directory and runs every
named test there unmutated: each must pass, or its failure under a
mutant would prove nothing.  Then it applies one edit at a time, runs
only that entry's tests (the hypothesis example database is cleared
before each run, so no mutant inherits another's failing example) and
restores the file.  Tests are never edited.

Run from the repo root::

    python benchmarks/check_bites.py [NAME ...]

With names, only those entries run.  Exit status 0 when every named
test fails under its mutant, 1 when an edit no longer applies, a test
fails unmutated or a test passes under its mutant.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/repro/sim/engine.py"
SIM_ENGINE_TESTS = "tests/test_sim_engine.py"
KERNEL_MODEL = f"{SIM_ENGINE_TESTS}::TestKernelAgainstSortedList::runTest"
TIMER_UNITS = (
    f"{SIM_ENGINE_TESTS}::TestTimers::test_wake_ups_are_not_events",
    f"{SIM_ENGINE_TESTS}::TestTimers::test_earlier_timer_supersedes_the_armed_wake_up",
)
JOIN_TESTS = (
    f"{SIM_ENGINE_TESTS}::TestJoin::test_fires_where_the_last_of_separate_events_would",
    f"{SIM_ENGINE_TESTS}::TestJoin::test_foreign_event_between_arrivals_at_the_same_nanosecond",
)
FAN_OUT = "tests/test_exact_folds.py::test_block_server_fan_out_matches_event_per_reply_reference"
LINK = "src/repro/net/link.py"
NET_TESTS = "tests/test_net.py"
CHANNEL_MODEL = f"{NET_TESTS}::TestChannelAgainstTwoEventModel::runTest"
NO_GARBAGE = (
    "tests/test_ebs.py::TestNoCyclicGarbage::"
    "test_fio_run_leaves_no_unreachable_objects[{}]"
)
JOIN_QUEUE = (
    "        sim._queue_as(last_seq, last_time, self._fn, "
    "(*self._args, [a[2] for a in arrivals]))\n"
)


@dataclass(frozen=True)
class Bite:
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


BITES = (
    Bite(
        "wake-up-counted-as-event", ENGINE,
        "                    if timers._wake(entry, bound):\n"
        "                        continue\n",
        "                    if timers._wake(entry, bound):\n"
        "                        self.events_processed += 1\n"
        "                        continue\n",
        (KERNEL_MODEL, *TIMER_UNITS),
    ),
    Bite(
        "due-timer-fresh-seq", ENGINE,
        "                sim._queue_as(seq, time_ns, fn, args)\n",
        "                sim.schedule_at_fire(time_ns, fn, *args)\n",
        (KERNEL_MODEL,),
    ),
    Bite(
        "no-re-arm-after-cancel", ENGINE,
        "            heappop(kernel)\n"
        "            self._arm()\n"
        "            return True\n",
        "            heappop(kernel)\n"
        "            return True\n",
        (KERNEL_MODEL, *TIMER_UNITS),
    ),
    Bite(
        "join-fresh-seq", ENGINE,
        JOIN_QUEUE,
        "        sim.schedule_at_fire(last_time, self._fn, "
        "*self._args, [a[2] for a in arrivals])\n",
        # The fan-out test is left out: its random examples miss this
        # mutant in some runs.
        JOIN_TESTS,
    ),
    Bite(
        "join-at-completing-arrival", ENGINE,
        JOIN_QUEUE,
        "        sim._queue_as(seq, time_ns, self._fn, "
        "(*self._args, [a[2] for a in arrivals]))\n",
        (*JOIN_TESTS, FAN_OUT),
    ),
    Bite(
        "idle-line-no-capacity-check", LINK,
        "            if size > self.capacity_bytes:\n"
        "                self.dropped += 1\n"
        "                return False\n"
        "            frames.clear()\n",
        "            frames.clear()\n",
        (f"{NET_TESTS}::TestChannel::test_idle_line_drops_a_frame_over_capacity",
         CHANNEL_MODEL),
    ),
    Bite(
        "idle-line-strict-test", LINK,
        "        if self._free_ns <= now:\n",
        "        if self._free_ns < now:\n",
        (f"{NET_TESTS}::TestChannel::test_send_at_the_serialization_end_finds_the_line_idle",
         CHANNEL_MODEL),
    ),
    Bite(
        "drop-rate-keeps-stale-fault-flag", "src/repro/net/switch.py",
        "        self.drop_rate = rate\n"
        "        self._refresh_faulty()\n",
        "        self.drop_rate = rate\n",
        (f"{NET_TESTS}::TestSwitchHop::test_drop_rate_drops_and_clears",),
    ),
    Bite(
        "int-tx-bytes-before-settle", LINK,
        "        queued = self._settle()\n"
        "        return queued, self._sent_bytes - self._frame_bytes\n",
        "        tx_bytes = self._sent_bytes - self._frame_bytes\n"
        "        return self._settle(), tx_bytes\n",
        (f"{NET_TESTS}::TestSwitchHop::test_int_stamp_reads_the_settled_egress",),
    ),
    Bite(
        "rpc-exchange-keeps-on-done", "src/repro/transport/base.py",
        "            self.on_done = None\n"
        "            on_done(self, ok)\n",
        "            on_done(self, ok)\n",
        tuple(NO_GARBAGE.format(stack) for stack in ("kernel", "luna", "rdma")),
    ),
    Bite(
        "solar-rpc-keeps-on-done", "src/repro/core/solar.py",
        "        rpc.on_done = None  # fired: see SolarRpc.on_done\n",
        "",
        tuple(NO_GARBAGE.format(stack) for stack in ("solar", "solar_star")),
    ),
)

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out"
)


def run_tests(tree: Path, tests: Tuple[str, ...]) -> int:
    """Run ``tests`` in ``tree`` against its own ``src``; pytest's exit code."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "pythonpath=src", *tests],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(bite: Bite, tree: Path) -> List[str]:
    """Apply ``bite`` in ``tree``, run its tests, restore; the problems."""
    path = tree / bite.path
    source = path.read_text()
    found = source.count(bite.old)
    if found != 1:
        return [f"{bite.name}: the edit's text occurs {found} times in {bite.path}"]
    path.write_text(source.replace(bite.old, bite.new))
    problems = []
    try:
        for test in bite.tests:
            started = time.perf_counter()
            code = run_tests(tree, (test,))
            verdict = {0: "PASSED", 1: "failed"}.get(code, f"pytest exit {code}")
            print(f"  {verdict:<8} {time.perf_counter() - started:6.1f} s  {test}")
            if code != 1:
                problems.append(f"{bite.name}: {test} {verdict}")
    finally:
        path.write_text(source)
    return problems


def main(argv: List[str]) -> int:
    names = set(argv)
    unknown = names - {bite.name for bite in BITES}
    if unknown:
        print(f"unknown bite(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bites = [bite for bite in BITES if not names or bite.name in names]
    with tempfile.TemporaryDirectory(prefix="bites-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        tests = tuple(dict.fromkeys(test for bite in bites for test in bite.tests))
        print(f"unmutated: {len(tests)} tests")
        if run_tests(tree, tests) != 0:
            print("FAIL: a named test fails on the unmutated tree", file=sys.stderr)
            return 1
        problems = []
        for bite in bites:
            print(f"{bite.name} ({bite.path})")
            problems += check(bite, tree)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"all {len(bites)} mutants bite")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
