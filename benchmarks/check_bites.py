"""Bite checks: each exactness test is shown to fail on a known mutant.

An exactness test compares a fold or a queue against a reference model.
It proves something only while the reference can still tell a wrong
kernel from a right one, so each entry of ``BITES`` keeps one mutation
that it must catch: a file, an exact source edit (a text that occurs
exactly once, and its replacement) and the test ids that must fail
under it.

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
