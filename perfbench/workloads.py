"""The in-process workloads (run-scatter, run-stream, sweep-screen),
their reference oracle and their set-up probe.

Each workload is a closed loop: one client (this process) submits the
next *job* when the previous one is done, until the run's seconds are
used up.  A job is a unit a user would ask for with warm caches:

* run-*: the Baseline and PRA points of one workload, each a fresh
  ``System(...)`` restored from the cached warm state and ``run()``;
* sweep-screen: the whole screen grid through a fresh
  ``Sweep.run(batch="auto")``.

After every job the loop also times a window of ``GETS_PER_JOB``
builds of the job's points from the cached warm state (the *cached
get*: the batch kernel's copy-on-write snapshot restore plus shared
trace blocks; the eager restore's copies made its latency swing with
the host's memory traffic from run to run).  Job figures count over
the faster half of the run's jobs (:func:`common.best_half`); get
percentiles are those of the best window of 100 samples
(:func:`common.best_window`).
The cyclic collector is paused for each get sample, as ``BatchSystem``
pauses it for its own construction: a full collection triggered by
earlier work lands on about 1% of builds, which put the tail on the
edge between two modes.  Collector time still shows in the job
latencies and rates.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    GET_WINDOW,
    LLC_BYTES,
    RUN_EVENTS,
    SCREEN_EVENTS,
    SCREEN_SCHEMES,
    SCREEN_WORKLOADS,
    WARMUP,
    Gate,
    Point,
    best_half,
    best_window,
    fastest_half,
    grid_name,
    grid_points,
    median,
    point_id,
    quantile,
    row_digest,
    row_of,
)

from repro.core.schemes import by_name
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep, auto_batch_lanes
from repro.sim.system import System
from repro.workloads.mixes import workload as lookup_workload

#: Warm-state builds timed after each job (cached-get samples).
GETS_PER_JOB = 2000
#: Traced runs do a fixed plan: one traced warm-up job, then this many
#: (untraced, traced) job pairs for the overhead ratio.
TRACE_PAIRS = 2


def base_config(seed: int, scheme: str = "Baseline") -> SystemConfig:
    return SystemConfig(
        scheme=by_name(scheme), cache=CacheConfig(llc_bytes=LLC_BYTES), seed=seed
    )


def build(point: Point, events: int, seed: int, snapshot_dir: Optional[str],
          **kwargs: Any) -> System:
    return System(
        base_config(seed, point[0]),
        lookup_workload(point[1]),
        events,
        seed=seed,
        warmup_events_per_core=WARMUP,
        snapshot_dir=snapshot_dir,
        **kwargs,
    )


def grid_events(grid: str) -> int:
    return SCREEN_EVENTS if grid == "screen" else RUN_EVENTS


# ----------------------------------------------------------------------
def reference(grid: str, seed: int, fast: bool = False) -> Dict[str, Dict[str, Any]]:
    """Reference records of every grid point, from a serial path.

    By default each point runs the oracle path: per-event trace
    generators with a cold warmup (no trace blocks, no snapshots) and
    the polling event loop.  ``fast`` runs the ordinary serial path
    (``System.run`` with snapshots, which ``Sweep.run()`` uses).
    """
    events = grid_events(grid)
    refs: Dict[str, Dict[str, Any]] = {}
    for point in grid_points(grid):
        if fast:
            result = build(point, events, seed, None).run()
        else:
            system = build(point, events, seed, None, precompiled_traces=False)
            result = system.run(strict_polling=True)
        refs[point_id(point)] = {
            "digest": row_digest(row_of(point, result.summary())),
            "requests": result.controller.total_served,
        }
    return refs


def sweep_reference(seed: int) -> Dict[str, str]:
    """Row digests of the screen grid from serial ``Sweep.run()``."""
    rows = screen_sweep(seed, None).run()
    return {point_id((r["scheme"], r["workload"])): row_digest(r) for r in rows}


def probe_setup(workload: str, seed: int, snapshot_dir: str) -> None:
    """Build the cold warm state a workload's first job needs.

    run-*: the first point's System (trace-block compile, LLC warmup,
    snapshot capture); sweep-screen: one System per warm fingerprint
    of the screen grid.
    """
    if workload == "sweep-screen":
        points = [(s, w) for s in ("Baseline", "DBI+PRA") for w in SCREEN_WORKLOADS]
        for point in points:
            build(point, SCREEN_EVENTS, seed, snapshot_dir)
    else:
        build(grid_points(grid_name(workload))[0], RUN_EVENTS, seed, snapshot_dir)


def screen_sweep(seed: int, snapshot_dir: Optional[str]) -> Sweep:
    sweep = Sweep(
        events_per_core=SCREEN_EVENTS,
        base_config=base_config(seed),
        seed=seed,
        warmup_events_per_core=WARMUP,
        snapshot_dir=snapshot_dir,
    )
    sweep.add_axis("scheme", list(SCREEN_SCHEMES))
    sweep.add_axis("workload", list(SCREEN_WORKLOADS))
    return sweep


# ----------------------------------------------------------------------
class Job:
    """Timing and work of one job."""

    __slots__ = ("latency_s", "sim_s", "points", "requests", "results")

    def __init__(self) -> None:
        self.latency_s = 0.0
        self.sim_s = 0.0
        self.points = 0
        self.requests = 0
        self.results: List[Any] = []


class LoopRun:
    """The in-process closed loop shared by the workloads below."""

    def __init__(self, grid: str, seed: int, refs: Dict[str, Dict[str, Any]],
                 snapshot_dir: str, gate: Gate) -> None:
        self.seed = seed
        self.refs = refs
        self.snapshot_dir = snapshot_dir
        self.gate = gate
        self.points = grid_points(grid)
        self.events = grid_events(grid)
        #: One window of cached-get latencies (seconds) per job.
        self.get_windows: List[List[float]] = []
        self._next_get = 0
        #: Snapshot restores made inside timed jobs (not cached gets).
        self.job_restores = 0

    def job(self) -> Job:  # pragma: no cover - overridden
        raise NotImplementedError

    def cached_gets(self, count: int) -> None:
        """Time ``count`` warm-state builds as one window."""
        points = self.points
        window: List[float] = []
        self.get_windows.append(window)
        for _ in range(count):
            point = points[self._next_get % len(points)]
            self._next_get += 1
            gc.disable()
            try:
                start = time.perf_counter()
                build(point, self.events, self.seed, self.snapshot_dir,
                      cow_restore=True)
                window.append(time.perf_counter() - start)
                # The System just built is cyclic garbage: collect it
                # here, untimed, or a window of builds piles it up.
                gc.collect(0)
            finally:
                gc.enable()

    def loop(self, seconds: float) -> List[Job]:
        """Run jobs back to back until ``seconds`` have passed."""
        jobs: List[Job] = []
        deadline = time.perf_counter() + seconds
        while True:
            jobs.append(self.job())
            self.cached_gets(GETS_PER_JOB)
            if time.perf_counter() >= deadline:
                return jobs

    def traced_plan(self, tracer: Any) -> Tuple[List[Job], List[Job]]:
        """One traced warm-up job, then alternating untraced/traced jobs.

        Returns (untraced, traced) jobs; the warm-up is traced (so the
        cold set-up layers are recorded) but left out of the ratio.
        """
        tracer.install()
        tracer.op = 1
        self.job()
        untraced: List[Job] = []
        traced: List[Job] = []
        for pair in range(TRACE_PAIRS):
            tracer.uninstall()
            untraced.append(self.job())
            tracer.install()
            tracer.op = 2 + pair
            traced.append(self.job())
        tracer.uninstall()
        return untraced, traced


class SingleRun(LoopRun):
    """run-scatter / run-stream: serial ``System(...).run()`` pairs."""

    def job(self) -> Job:
        job = Job()
        for point in self.points:
            start = time.perf_counter()
            system = build(point, self.events, self.seed, self.snapshot_dir)
            built = time.perf_counter()
            result = system.run()
            done = time.perf_counter()
            job.latency_s += done - start
            job.sim_s += done - built
            job.points += 1
            job.requests += result.controller.total_served
            job.results.append(result)
            self.gate.check_row(
                self.refs, row_of(point, result.summary()), "serial System.run"
            )
        return job


class ScreenRun(LoopRun):
    """sweep-screen: the screen grid through ``Sweep.run(batch="auto")``."""

    def job(self) -> Job:
        job = Job()
        sweep = screen_sweep(self.seed, self.snapshot_dir)
        hits = SNAPSHOTS.hits
        start = time.perf_counter()
        rows = sweep.run(batch="auto")
        job.latency_s = job.sim_s = time.perf_counter() - start
        self.job_restores += SNAPSHOTS.hits - hits
        self.gate.op(len(rows) == len(self.points), "sweep returned a short grid")
        for row in rows:
            self.gate.check_row(self.refs, row, "batched Sweep.run")
        job.points = len(rows)
        job.requests = sum(ref["requests"] for ref in self.refs.values())
        return job


def end_to_end(jobs: List[Job], get_windows: List[List[float]]) -> Dict[str, float]:
    """The loop's end-to-end metrics: job figures over the better half
    of the jobs, get percentiles from the best window."""
    fastest = fastest_half([j.latency_s for j in jobs])
    return {
        "requests_per_s": best_half([j.requests / j.sim_s for j in jobs], lower=False),
        "points_per_s": best_half([j.points / j.latency_s for j in jobs], lower=False),
        "cached_job_ms_p50": 1e3 * quantile(fastest, 0.5),
        "cached_job_ms_p90": 1e3 * quantile(fastest, 0.9),
        "cached_get_ms_p50": 1e3 * best_window(get_windows, 0.5, GET_WINDOW),
        "cached_get_ms_p90": 1e3 * best_window(get_windows, 0.9, GET_WINDOW),
    }


def single_coverage(workload: str, gate: Gate, results: List[Any]) -> Dict[str, int]:
    """Path-coverage counters of a run-* pair, asserted on the gate."""
    pra = [r for r in results if r.scheme_name == "PRA"]
    streaks = sum(r.controller.streaks for r in pra)
    false_hits = sum(
        r.controller.reads.false_hits + r.controller.writes.false_hits for r in pra
    )
    partial = sum(
        n for r in pra for g, n in r.activation_histogram.items() if g < 8
    )
    if workload == "run-stream":
        gate.assert_path("run-stream PRA streaks > 0", streaks > 0)
        gate.assert_path("run-stream PRA false hits >= 1", false_hits >= 1)
    else:
        gate.assert_path("run-scatter PRA partial activations > 0", partial > 0)
    return {"pra_streaks": streaks, "pra_false_hits": false_hits,
            "pra_partial_acts": partial}


def run_loop_workload(
    workload: str,
    seed: int,
    seconds: float,
    refs: Dict[str, Dict[str, Any]],
    snapshot_dir: str,
    gate: Gate,
    tracer: Any = None,
) -> Dict[str, Any]:
    """Run one in-process workload; returns metrics and counters."""
    screen = workload == "sweep-screen"
    runner: LoopRun = (ScreenRun if screen else SingleRun)(
        grid_name(workload), seed, refs, snapshot_dir, gate
    )
    out: Dict[str, Any] = {}
    if tracer is None:
        warm = runner.job()  # the parent's own cold set-up, untimed
        jobs = runner.loop(seconds)
        out["metrics"] = end_to_end(jobs, runner.get_windows)
        out["samples"] = {
            "jobs": len(jobs),
            "gets": sum(map(len, runner.get_windows)),
            "job_requests_per_s": [j.requests / j.sim_s for j in jobs],
            "job_ms": [1e3 * j.latency_s for j in jobs],
            "job_get_ms_p50": [1e3 * quantile(w, 0.5) for w in runner.get_windows],
        }
        results = warm.results
    else:
        untraced, traced = runner.traced_plan(tracer)
        ratio = median(j.requests / j.sim_s for j in traced) / median(
            j.requests / j.sim_s for j in untraced
        )
        out["trace_overhead"] = ratio
        out["traced_points"] = sum(j.points for j in traced) + len(runner.points)
        results = list(tracer.results)
    if screen:
        lanes = auto_batch_lanes(len(runner.points), base_config(seed))
        restores = runner.job_restores
        gate.assert_path("sweep-screen batch lanes > 1", lanes > 1)
        gate.assert_path("sweep-screen snapshot restores > 1", restores > 1)
        out["counters"] = {"batch_lanes": lanes, "snapshot_restores": restores}
    else:
        out["counters"] = single_coverage(workload, gate, results)
    return out

