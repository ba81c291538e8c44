"""Shared pieces of the benchmark: source location, budgets, timing helpers.

The benchmark always measures the package under ``<checkout>/src``; it
refuses to run when that source tree is missing, so it can never measure an
installed copy by accident.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch space for inputs, child span files and written traces; named in
# the repository's .gitignore.
OUT_DIR = ROOT / ".bench_out"

# Budgets.  Any operation or pass that runs over its budget counts as
# failed; a pass that hits its budget is reported with status "timeout".
# SETUP_BUDGET_S covers all set-ups of a run together.
OP_BUDGET_S = {"homology": 60.0, "algebra": 10.0, "cli": 20.0}
PASS_BUDGET_S = {"homology": 90.0, "algebra": 60.0, "cli": 90.0}
SETUP_BUDGET_S = 60.0
# Hard stop for the timed phase, so a run ends well inside 180 s even when
# the program under test has become very slow.
RUN_DEADLINE_S = 140.0


class SourceMissing(RuntimeError):
    """The checkout has no src/diffchar package to measure."""


class OverBudget(BaseException):
    """Raised by the alarm when an operation exceeds its budget.

    A BaseException, so no `except Exception` in the code under test can
    swallow it.
    """


def require_source():
    """Put <checkout>/src first on sys.path and check diffchar loads from it."""
    pkg = SRC / "diffchar" / "__init__.py"
    if not pkg.is_file():
        raise SourceMissing(f"no package source at {pkg.parent}")
    src = str(SRC)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    import diffchar

    loaded = Path(diffchar.__file__).resolve()
    if loaded.parent != (SRC / "diffchar").resolve():
        raise SourceMissing(f"diffchar was imported from {loaded}, not {SRC}")
    return diffchar


def child_env():
    """Environment for child interpreters: only the checkout's src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _alarm(signum, frame):
    raise OverBudget()


class Alarm:
    """Context manager raising OverBudget after `seconds` of wall time."""

    def __init__(self, seconds):
        self.seconds = max(seconds, 0.001)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


class Workload:
    """What run.py needs from a workload; in-process defaults.

    Subclasses provide `name`, `setup()` (repeatable; the last set-up's
    state is what the passes use), `ops()` (the fixed operation list: pairs
    of label and callable) and `check(label, result)` (None, or a message
    saying why the answer is wrong).
    """

    in_process = True
    setup_reps = 3

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.setup_failures = []
        self.setup_attempted = 0
        self.child_records = []
        self.op_counter = 0
        self.tracer = None

    def execute(self, fn, budget, traced):
        return fn()

    def prepare_pass(self):
        """Untimed preparation before every pass but the first."""

    def finish(self):
        """Release what the run created."""

    def peak_rss(self):
        return peak_rss_mib()


def percentile(values, q):
    """q-th percentile (0 < q < 100), interpolated between measured values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib(children=False):
    """Peak resident set size of this process, or of its largest child."""
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


now = time.perf_counter
