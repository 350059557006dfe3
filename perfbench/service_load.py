"""The service workload: ``repro serve`` driven by one HTTP client.

The client is single-threaded and closed-loop: it sends its next
request when the previous response has arrived, one connection at a
time.  Three steps run against one service:

1. one cold grid job (the screen grid, every point novel), followed
   over the job's event stream until done;
2. rounds of ``ROUND_JOBS`` distinct jobs whose points are all stored
   (ordered subsets of the screen grid's axes, drawn from the seed);
3. and ``ROUND_GETS`` ``GET /results/<digest>`` of stored points.

The service is started ``STARTS`` times on fresh roots; each start runs
step 1 and its share of a fixed number of rounds of steps 2 and 3,
three per second of the run's seconds.

The untraced run spawns ``python -m repro serve`` with a pool of at
most two workers; for the rounds, the client and the service process
share one CPU (they take turns in the closed loop, and the idle pool
workers are left unpinned); the traced run hosts ``ServiceServer`` on a thread of
this process, so its store, journal and pool calls can be wrapped.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from common import (
    LLC_BYTES,
    SCREEN_EVENTS,
    SCREEN_SCHEMES,
    SCREEN_WORKLOADS,
    WARMUP,
    GET_WINDOW,
    Gate,
    best_window,
    grid_points,
    median,
    pin_to_one_cpu,
    point_id,
    quantile,
)

from repro.service.client import ServiceClient, ServiceError

#: Simulation workers of the service's pool (at most the CPU count).
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Service starts per run, each on a fresh root with one cold job;
#: setup_s and the cold-job rates are medians over them.
STARTS = 7
#: Shapes (schemes, workloads) of the all-cached jobs; each has at
#: least 1,440 distinct ordered selections of the screen grid's axes.
JOB_SHAPES = [(s, w) for s in (3, 4, 5) for w in (3, 4)]
#: One round: enough jobs that their p90 has ten samples beyond it (18
#: of each shape), and two windows of GETs (see common.best_window).
ROUND_JOBS = 18 * len(JOB_SHAPES)
ROUND_GETS = 2 * GET_WINDOW
#: Rounds per run at most: each round uses 18 selections of each shape.
MAX_ROUNDS = 80
#: Rounds are a fixed count, ``ROUNDS_PER_SECOND`` per second of the
#: run's seconds: the service keeps every job in memory, so its heap
#: (and collector cost) grows with the jobs submitted, and a fixed count
#: keeps that growth the same from run to run.
ROUNDS_PER_SECOND = 3
#: Traced runs do a fixed plan: the cold job and this many rounds.
TRACE_ROUNDS = 2
#: Per-request client timeout; a timeout is a failed op.
TIMEOUT_S = 60.0

_CLIENT_ERRORS = (ServiceError, OSError, TimeoutError, ValueError, KeyError)


def spec(seed: int, schemes: List[str], workloads: List[str]) -> Dict[str, Any]:
    return {
        "events_per_core": SCREEN_EVENTS,
        "warmup_events_per_core": WARMUP,
        "llc_bytes": LLC_BYTES,
        "seed": seed,
        "axes": {"scheme": list(schemes), "workload": list(workloads)},
    }


def cached_specs(seed: int) -> Iterator[Dict[str, Any]]:
    """Distinct specs whose points all lie in the screen grid, in rounds.

    Ordered subsets of the axes: the service keeps the submitted value
    order, so every (scheme order, workload order) pair is its own job.
    Each round of ``ROUND_JOBS`` holds the same number of jobs of every
    shape in ``JOB_SHAPES``, in an order drawn from the seed, so every
    round and every seed asks the service for the same amount of work.
    """
    rng = random.Random(seed)
    cold = (tuple(SCREEN_SCHEMES), tuple(SCREEN_WORKLOADS))
    pools: Dict[Any, List[Any]] = {}
    for schemes, workloads in JOB_SHAPES:
        pool = [(s, w) for s in itertools.permutations(SCREEN_SCHEMES, schemes)
                for w in itertools.permutations(SCREEN_WORKLOADS, workloads)
                if (s, w) != cold]
        rng.shuffle(pool)
        pools[schemes, workloads] = pool
    per_shape = ROUND_JOBS // len(JOB_SHAPES)
    while True:
        batch = [pools[shape].pop() for shape in JOB_SHAPES for _ in range(per_shape)]
        rng.shuffle(batch)
        for schemes, workloads in batch:
            yield spec(seed, list(schemes), list(workloads))


# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        for path in glob.glob(f"/proc/{current}/task/*/children"):
            try:
                with open(path) as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            stack.extend(children)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_kb(pid: int) -> int:
    """Sum of the high-water marks of a process and its descendants."""
    return sum(_vm_hwm_kb(p) for p in [pid] + _descendants(pid))


class ServiceProcess:
    """``python -m repro serve`` in its own session."""

    def __init__(self, root: str, env: Dict[str, str]) -> None:
        self.root = root
        self.env = env
        self.port_file = os.path.join(root, "port")
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> float:
        """Spawn the service; returns seconds until ``/healthz`` is ok.

        :attr:`client` is bound to the service once this returns.
        """
        os.makedirs(self.root, exist_ok=True)
        log = open(os.path.join(self.root, "serve.log"), "wb")
        start = time.perf_counter()
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", self.root,
                 "--port-file", self.port_file, "--pools", "1",
                 "--workers-per-pool", str(WORKERS)],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = start + TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if self.client is None and os.path.exists(self.port_file):
                with open(self.port_file) as handle:
                    self.client = ServiceClient(port=int(handle.read()),
                                                timeout=TIMEOUT_S)
            if self.client is not None and self.client.healthy():
                return time.perf_counter() - start
            time.sleep(0.002)
        raise TimeoutError("repro serve did not become healthy")

    def thread_ids(self) -> List[int]:
        """Thread ids of the service process (not its pool workers)."""
        if self.proc is None:
            return []
        return [int(tid) for tid in os.listdir(f"/proc/{self.proc.pid}/task")]

    def peak_rss_kb(self) -> int:
        return tree_peak_rss_kb(self.proc.pid) if self.proc is not None else 0

    def stop(self) -> None:
        """Interrupt the service (it closes its pool) and reap it."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)


class InProcessService:
    """``ServiceServer`` on a thread of this process (traced runs)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.client: Optional[ServiceClient] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: List[BaseException] = []

    async def _serve(self) -> None:
        from repro.service.jobs import JobManager
        from repro.service.server import ServiceServer

        manager = JobManager(self.root, pools=1, workers_per_pool=WORKERS)
        server = ServiceServer(manager, port=0)
        try:
            await server.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.client = ServiceClient(port=server.port, timeout=TIMEOUT_S)
            self._ready.set()
            await self._stop.wait()
        finally:
            await server.close()

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # thread boundary: start() reports it
            self._error.append(exc)
            self._ready.set()

    def start(self) -> ServiceClient:
        """Start the server thread; returns a client bound to it."""
        self._thread = threading.Thread(target=self._main, name="service")
        self._thread.start()
        if not self._ready.wait(TIMEOUT_S) or self._error or self.client is None:
            raise RuntimeError(f"in-process service failed: {self._error}")
        return self.client

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("in-process service did not stop")
        self._thread = None


# ----------------------------------------------------------------------
class Drive:
    """The client's three steps against one service."""

    def __init__(self, client: ServiceClient, seed: int,
                 refs: Dict[str, Dict[str, Any]], gate: Gate) -> None:
        self.client = client
        self.seed = seed
        self.refs = refs
        self.gate = gate
        self.points = grid_points("screen")
        self.digests: Dict[str, str] = {}  # point id -> point digest
        #: Per-round latency samples (ms) of all-cached jobs and GETs.
        self.job_ms: List[List[float]] = []
        self.get_ms: List[List[float]] = []
        #: Triage counters summed over every job status seen.
        self.triage = {"cached": 0, "coalesced": 0, "computed": 0}
        #: Points computed by all-cached jobs (must stay 0).
        self.cached_computed = 0
        self.cold_s = 0.0
        self._specs = cached_specs(seed)
        self._rng = random.Random(seed + 1)

    def cold_job(self) -> None:
        client = self.client
        start = time.perf_counter()
        status = client.submit(spec(self.seed, list(SCREEN_SCHEMES),
                                    list(SCREEN_WORKLOADS)))
        for _event in client.events(status["job_id"]):
            pass
        self.cold_s = time.perf_counter() - start
        final = client.status(status["job_id"])
        self._count(final)
        self.gate.op(final["state"] == "done", f"cold job ended {final['state']}")
        self.gate.assert_path("service cold job computed == grid size",
                              final["computed"] == len(self.points))
        self.digests = {point_id(p): d for p, d in zip(self.points, final["points"])}
        rows = client.rows(status["job_id"])
        self.gate.op(len(rows) == len(self.points), "cold job returned a short grid")
        for row in rows:
            self.gate.check_row(self.refs, row, "service cold job")

    def _op(self, fn: Any, what: str) -> None:
        try:
            fn()
        except _CLIENT_ERRORS as exc:
            self.gate.op(False, f"{what}: {type(exc).__name__}: {exc}")

    def _cached_job(self) -> None:
        job = next(self._specs)
        start = time.perf_counter()
        status = self.client.submit(job)
        if status["state"] == "running":
            status = self.client.wait(status["job_id"], poll_interval=0.001)
        self.job_ms[-1].append(1e3 * (time.perf_counter() - start))
        self._count(status)
        self.cached_computed += status["computed"]
        axes = job["axes"]
        expected = [self.digests[point_id((s, w))]
                    for s in axes["scheme"] for w in axes["workload"]]
        ok = (status["state"] == "done" and status["computed"] == 0
              and status["cached"] == len(expected) and status["points"] == expected)
        self.gate.op(ok, f"cached job {status['job_id'][:12]} was not all cached")

    def _get(self) -> None:
        point = self._rng.choice(self.points)
        digest = self.digests[point_id(point)]
        start = time.perf_counter()
        row = self.client.result(digest)
        self.get_ms[-1].append(1e3 * (time.perf_counter() - start))
        if (row.get("scheme"), row.get("workload")) != point:
            self.gate.op(False, f"GET {digest[:12]} returned another point")
        else:
            self.gate.check_row(self.refs, row, "service GET /results")

    def _count(self, status: Dict[str, Any]) -> None:
        for key in self.triage:
            self.triage[key] += status[key]

    def rounds(self, count: int) -> None:
        """``count`` rounds of cached jobs and GETs.

        Each round holds enough jobs for their own p90 (ten beyond it)
        and two windows of GETs; the run reports the best round of jobs
        and the best window of GETs (:func:`common.best_window`).

        The client's own cyclic collector is paused within a round, so
        its pauses are not billed to the service; the service's are.
        """
        for _ in range(count):
            self.job_ms.append([])
            self.get_ms.append([])
            gc.disable()
            try:
                for _ in range(ROUND_JOBS):
                    self._op(self._cached_job, "cached job")
                for _ in range(ROUND_GETS):
                    self._op(self._get, "GET /results")
            finally:
                gc.enable()
        self.gate.assert_path("service all-cached jobs computed == 0",
                              any(self.job_ms) and self.cached_computed == 0)


def requests_of(refs: Dict[str, Dict[str, Any]]) -> int:
    return sum(ref["requests"] for ref in refs.values())


def run_service(seed: int, seconds: float, refs: Dict[str, Dict[str, Any]],
                tmp: str, env: Dict[str, str], gate: Gate) -> Dict[str, Any]:
    """Untraced service run: end-to-end metrics.

    The service is started ``STARTS`` times on fresh roots; each start
    gives one set-up sample, runs the cold job (novel again on a fresh
    store), then its share of the run's rounds.  Spreading the rounds
    over every start spreads them over the whole run, so that a slow
    spell of the host as long as the rounds of one service does not
    cover them all.
    """
    total = min(MAX_ROUNDS, max(1, round(seconds * ROUNDS_PER_SECOND)))
    shares = [total // STARTS + (i < total % STARTS) for i in range(STARTS)]
    affinity = os.sched_getaffinity(0)
    setups: List[float] = []
    cold_s: List[float] = []
    job_ms: List[List[float]] = []
    get_ms: List[List[float]] = []
    triage = {"cached": 0, "coalesced": 0, "computed": 0}
    peak_kb = 0
    for start, share in enumerate(shares):
        service = ServiceProcess(os.path.join(tmp, f"serve-{start}"), env)
        try:
            setups.append(service.start())
            drive = Drive(service.client, seed, refs, gate)
            drive.cold_job()
            cold_s.append(drive.cold_s)
            pin_to_one_cpu([0] + service.thread_ids())
            if share:
                drive.rounds(share)
            stats = service.client.stats()
            gate.op(stats["scheduler"]["computed"] == len(drive.points),
                    "service computed points more than once")
            peak_kb = max(peak_kb, service.peak_rss_kb())
        finally:
            service.stop()
            # The next service (and its pool) inherits this process's CPUs.
            os.sched_setaffinity(0, affinity)
        job_ms += drive.job_ms
        get_ms += drive.get_ms
        for key in triage:
            triage[key] += drive.triage[key]
    peak_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cold = median(cold_s)
    metrics = {
        "setup_s": median(setups),
        "requests_per_s": requests_of(refs) / cold,
        "points_per_s": len(drive.points) / cold,
        "cached_job_ms_p50": best_window(job_ms, 0.5, ROUND_JOBS),
        "cached_job_ms_p90": best_window(job_ms, 0.9, ROUND_JOBS),
        "cached_get_ms_p50": best_window(get_ms, 0.5, GET_WINDOW),
        "cached_get_ms_p90": best_window(get_ms, 0.9, GET_WINDOW),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {
        "metrics": metrics,
        "samples": {"starts": len(setups), "cold_s": cold_s, "setups": setups,
                    "rounds": len(job_ms),
                    "cached_jobs": sum(map(len, job_ms)),
                    "gets": sum(map(len, get_ms)),
                    "round_job_ms_p50": [quantile(r, 0.5) for r in job_ms],
                    "round_get_ms_p50": [quantile(r, 0.5) for r in get_ms]},
        "counters": triage,
    }


def run_service_traced(seed: int, refs: Dict[str, Dict[str, Any]], tmp: str,
                       gate: Gate, tracer: Any) -> Dict[str, Any]:
    """Traced service run: an untraced cold job for the overhead ratio,
    then the traced plan on a fresh in-process service."""
    plain = InProcessService(os.path.join(tmp, "serve-untraced"))
    try:
        baseline = Drive(plain.start(), seed, refs, gate)
        baseline.cold_job()
    finally:
        plain.stop()

    dump_dir = os.path.join(tmp, "worker-totals")
    os.makedirs(dump_dir)
    tracer.worker_dump_dir = dump_dir
    tracer.install()
    traced = InProcessService(os.path.join(tmp, "serve-traced"))
    try:
        drive = Drive(traced.start(), seed, refs, gate)
        tracer.op = 1
        drive.cold_job()
        tracer.op = 2
        drive.rounds(TRACE_ROUNDS)
        stats = drive.client.stats()
    finally:
        traced.stop()
        tracer.uninstall()
    worker_counters: List[Dict[str, int]] = []
    dumps = sorted(glob.glob(os.path.join(dump_dir, "worker-*.json")))
    for path in dumps:
        with open(path) as handle:
            dump = json.load(handle)
        tracer.merge_totals(dump)
        worker_counters.extend(dump["result_counters"])
    gate.op(stats["scheduler"]["computed"] == len(drive.points),
            "service computed points more than once")
    return {
        "trace_overhead": baseline.cold_s / drive.cold_s,
        "traced_points": len(drive.points),
        "counters": drive.triage,
        "worker_counters": worker_counters,
        "scheduler": stats["scheduler"],
        "samples": {"worker_dumps": len(dumps)},
    }
