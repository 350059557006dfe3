"""Shared pieces of the benchmark: grids, digests, the gate, statistics.

Every workload simulates points of two fixed grids, both with a 512 KB
LLC and 2,000 warmup events per core (so dirty evictions, and with them
DRAM writes, happen from the first timed event):

* the *run* grid: Baseline and PRA on one workload at 3,000 events per
  core (run-scatter: MIX2, run-stream: libquantum);
* the *screen* grid: five schemes x four workloads at 300 events per
  core (sweep-screen and service).

A point's identity is its result row ``{scheme, workload, **summary}``
— the row ``Sweep`` and the service return — hashed as canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "digests.json")
PINNED_FORMAT = "perfbench-digests-v1"
#: Seeds whose digests are committed: the default and one held out.
PINNED_SEEDS = (1, 2)

LLC_BYTES = 512 * 1024
WARMUP = 2000

RUN_EVENTS = 3000
RUN_SCHEMES = ("Baseline", "PRA")
RUN_WORKLOAD = {"run-scatter": "MIX2", "run-stream": "libquantum"}

SCREEN_EVENTS = 300
SCREEN_SCHEMES = ("Baseline", "PRA", "SDS", "Half-DRAM", "DBI+PRA")
SCREEN_WORKLOADS = ("GUPS", "MIX1", "MIX2", "libquantum")

Point = Tuple[str, str]  # (scheme, workload)

#: Cached gets per window (see best_window): ten samples beyond the p90.
GET_WINDOW = 100


def grid_name(workload: str) -> str:
    """Which pinned grid a benchmark workload simulates."""
    if workload in RUN_WORKLOAD:
        return f"run-{RUN_WORKLOAD[workload]}"
    return "screen"


def grid_points(grid: str) -> List[Point]:
    """The grid's points in Sweep grid order (scheme-major)."""
    if grid == "screen":
        return [(s, w) for s in SCREEN_SCHEMES for w in SCREEN_WORKLOADS]
    workload = grid[len("run-"):]
    return [(s, workload) for s in RUN_SCHEMES]


def point_id(point: Point) -> str:
    return f"{point[0]}/{point[1]}"


def row_of(point: Point, summary: Dict[str, float]) -> Dict[str, Any]:
    """The flattened result row, exactly as ``Sweep`` builds it."""
    row: Dict[str, Any] = {"scheme": point[0], "workload": point[1]}
    row.update(summary)
    return row


def row_digest(row: Dict[str, Any]) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_pinned(grid: str, seed: int) -> Optional[Dict[str, Dict[str, Any]]]:
    """Committed reference records of one grid and seed, if pinned."""
    with open(PINNED_PATH) as handle:
        pinned = json.load(handle)
    if pinned.get("format") != PINNED_FORMAT:
        raise ValueError(f"{PINNED_PATH}: unexpected format")
    return pinned["grids"].get(grid, {}).get(str(seed))


class Gate:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []
        self.coverage: Dict[str, bool] = {}

    def op(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def check_row(self, refs: Dict[str, Dict[str, Any]], row: Dict[str, Any],
                  where: str) -> bool:
        """One op: ``row`` must hash to its point's reference digest."""
        key = point_id((row.get("scheme", "?"), row.get("workload", "?")))
        ref = refs.get(key)
        ok = ref is not None and row_digest(row) == ref["digest"]
        return self.op(ok, f"{where}: {key} digest mismatch")

    def assert_path(self, name: str, ok: bool) -> None:
        """A path-coverage assertion on deterministic counters; one that
        is made again holds only if it held every time."""
        self.coverage[name] = self.coverage.get(name, True) and bool(ok)
        if not ok and len(self.errors) < 20:
            self.errors.append(f"path coverage failed: {name}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.coverage.values())


def quantile(values: Sequence[float], q: float) -> float:
    """Interpolated quantile ``q`` in [0, 1] (inclusive method)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    if q == 0.5:
        return float(statistics.median(values))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def best_window(samples: Sequence[Sequence[float]], q: float, size: int) -> float:
    """Lowest over windows of ``size`` samples of each window's ``q``
    quantile.

    ``samples`` are cut into windows (a short tail is dropped unless it
    is all there is); each holds enough samples for its own percentile,
    ten beyond it.  On a shared host the speed of this process switches
    between a fast and a slow state (a third apart) several times a
    second, and the share of slow spells changes from run to run; a
    short window of fast-state samples comes up in nearly every run, so
    the best window follows the program's own cost where the median
    over windows followed how busy the host was.
    """
    windows = [s[i:i + size] for s in samples for i in range(0, len(s), size)]
    windows = [w for w in windows if len(w) == size] or windows
    return min(quantile(window, q) for window in windows)


def best_half(values: Sequence[float], lower: bool = True) -> float:
    """Median of the better half of a few long samples (whole jobs):
    their lower quartile for times (``lower``), upper for rates.

    A job of a second or more spans both host states (see
    :func:`best_window`); a slow spell worsens the jobs it falls in,
    and the better half of the jobs leaves them out.
    """
    return quantile(values, 0.25 if lower else 0.75)


def fastest_half(values: Sequence[float]) -> List[float]:
    """The lower half of ``values`` (at least one)."""
    ordered = sorted(values)
    return ordered[:max(1, (len(ordered) + 1) // 2)]


def pin_to_one_cpu(pids: Iterable[int]) -> None:
    """Pin processes (or threads, by id) to this process's highest CPU
    (the lowest tends to take more of the host's interrupts).

    Used for closed loops whose parts never run at once — one is always
    waiting for the other — so a second CPU buys them nothing, and
    moving between CPUs only adds wakeup and cache noise.
    """
    cpu = max(os.sched_getaffinity(0))
    for pid in pids:
        os.sched_setaffinity(pid, {cpu})
