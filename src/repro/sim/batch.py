"""Batch kernel: build N grid points together, then run them back to back.

A sweep grid point is one (config, workload) simulation.  The scalar
path builds a :class:`~repro.sim.system.System` per point and runs it
before touching the next point; at screening fidelity (small event
counts) much of the wall time is construction, not scheduling work.
This module changes the *unit of construction*: a :class:`BatchSystem`
holds N points as *lanes*, builds them in one pass, and then runs each
lane to completion in lane order.

* **Lane-major timing state.**  Each channel index gets one
  :class:`~repro.dram.soa_batch.BatchTimingCore` slab — ``TimingCore``'s
  flat vectors with a leading lane dimension, bulk-allocated as
  whole-array ops (numpy via the ``.[fast]`` extra, pure-list fallback
  with identical semantics; :data:`HAVE_NUMPY` is the loud-skip shim).
  Every lane's controllers run against lane-sliced views (real
  ``TimingCore`` objects aliasing the slab rows), so the scheduler hot
  path is byte-for-byte the scalar one and bit-identity holds by
  construction.
* **One event loop.**  Each lane runs through
  :meth:`repro.sim.system._Lane.run` — the same loop ``System.run``
  drives for a serial run.  Lanes share no mutable state (slab rows
  are disjoint, snapshot sharing is copy-on-write), so running one
  lane before the next cannot change any lane's result.
* **Shared construction.**  Lanes are built in warm-fingerprint groups:
  the first lane of a fingerprint builds (or disk-loads) the warm
  snapshot, the rest restore from the in-process cache — copy-on-write
  (``System(cow_restore=True)``), so N lanes share one snapshot's
  per-set state until they actually diverge.  Compiled
  :class:`~repro.workloads.synthetic.TraceBlocks` are shared through
  the existing block cache.

The scalar engine remains the oracle: every lane's
:class:`~repro.sim.results.SimResult` must equal its serial run
bit-for-bit (``tests/test_batch.py`` pins this across schemes,
backends, lane orders, and mixed snapshot-restored/cold batches).

Entry points: :class:`BatchSystem` directly, :func:`simulate_batch`
for one-shot use, ``Sweep.run(batch=N)`` for grids, and
:func:`_run_lane_group` as the :class:`~repro.sim.pool.SimPool` task
body that ships whole lane-groups to warm workers.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.dram.soa import TimingCore
from repro.dram.soa_batch import HAVE_NUMPY, BatchTimingCore
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.snapshot import default_warmup, warm_fingerprint
from repro.sim.sweep import SweepContext, _apply_point
from repro.sim.system import System, _Lane
from repro.workloads.mixes import Workload
from repro.workloads.mixes import workload as lookup_workload

__all__ = ["HAVE_NUMPY", "BatchSystem", "simulate_batch"]

# Oracle-parity declaration enforced by reprolint: the batch kernel
# is a fast path; the scalar ``System.run`` is the oracle every lane
# must match bit-for-bit.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.system.System.run"
ORACLE_TESTS = ("tests/test_batch.py",)

# COW contract for the aliasing pass (repro.analysis.cowcheck): the
# TimingCore views slab.lane() returns alias slab rows — this module
# may read through them freely but must never mutate one in place
# (mutation belongs to the controller that owns the lane's channel).
REPRO_COW_PROTOCOL = {
    "shared_roots": (),
    "shared_calls": ("lane",),
    "privatizers": (),
}

#: One lane: a specialized config plus its workload (or workload name).
LaneSpec = Tuple[SystemConfig, Union[Workload, str]]


class BatchSystem:
    """N grid points built together and run back to back."""

    def __init__(
        self,
        lanes: Sequence[LaneSpec],
        events_per_core: int,
        seed: Optional[int] = None,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Build all lanes (shared slabs, snapshots, trace blocks).

        ``lanes`` is one ``(config, workload)`` pair per grid point
        (workloads may be names).  ``events_per_core`` / ``seed`` /
        ``warmup_events_per_core`` / ``snapshot_dir`` are grid-wide
        invariants, exactly as in :class:`~repro.sim.sweep.Sweep`.
        ``backend`` forces the slab allocation backend (tests); the
        default follows :func:`repro.dram.soa_batch.default_backend`.

        Construction runs with the cyclic GC paused: building N lanes
        allocates hundreds of thousands of container objects that are
        all provably live, and generational collections triggered by
        that allocation burst dominated batch wall time.  The guard
        restores the collector's prior state on every exit path.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._build(
                lanes,
                events_per_core,
                seed,
                warmup_events_per_core,
                snapshot_dir,
                backend,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(
        self,
        lanes: Sequence[LaneSpec],
        events_per_core: int,
        seed: Optional[int],
        warmup_events_per_core: Optional[int],
        snapshot_dir: Optional[str],
        backend: Optional[str],
    ) -> None:
        specs: List[Tuple[SystemConfig, Workload]] = []
        for config, wl in lanes:
            workload = lookup_workload(wl) if isinstance(wl, str) else wl
            specs.append((config, workload))
        if not specs:
            raise ValueError("BatchSystem needs at least one lane")

        # Slab allocation: one BatchTimingCore per channel index per
        # geometry group (grids normally share one geometry; mixed
        # geometries each get their own lane-major slabs).
        geo_groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for i, (config, _) in enumerate(specs):
            geo = config.geometry
            geo_key = (geo.channels, geo.ranks_per_channel, geo.chip.banks)
            geo_groups.setdefault(geo_key, []).append(i)
        lane_cores: Dict[int, List[TimingCore]] = {}
        for (channels, ranks, banks), members in geo_groups.items():
            slabs = [
                BatchTimingCore(len(members), ranks, banks, backend=backend)
                for _ in range(channels)
            ]
            for slot, i in enumerate(members):
                lane_cores[i] = [slab.lane(slot) for slab in slabs]

        # Construction in warm-fingerprint groups: the first lane of a
        # group builds/loads the snapshot, the rest restore from the
        # in-process cache (copy-on-write) before another fingerprint
        # can age it out of the LRU.
        fp_groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for i, (config, workload) in enumerate(specs):
            warmup = warmup_events_per_core
            if warmup is None:
                warmup = default_warmup(config, workload)
            resolved_seed = config.seed if seed is None else seed
            fp = warm_fingerprint(config, workload, resolved_seed, warmup)
            fp_groups.setdefault(fp, []).append(i)

        systems: List[Optional[System]] = [None] * len(specs)
        for members in fp_groups.values():
            for i in members:
                config, workload = specs[i]
                systems[i] = System(
                    config,
                    workload,
                    events_per_core,
                    seed=seed,
                    warmup_events_per_core=warmup_events_per_core,
                    snapshot_dir=snapshot_dir,
                    cow_restore=True,
                    channel_cores=lane_cores[i],
                )
        self.lanes: List[_Lane] = [
            _Lane(system) for system in systems if system is not None
        ]
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    def run(self) -> List[SimResult]:
        """Run each lane to completion in lane order; results in lane order.

        Each lane runs its own event loop (:meth:`_Lane.run`) start to
        finish before the next lane starts, then finalizes (stats flush
        + summary).  Lanes never share mutable state, so the order
        cannot affect any lane's result.
        """
        if self._ran:
            raise RuntimeError("BatchSystem.run() may only be called once")
        self._ran = True
        return [lane.run() for lane in self.lanes]


def simulate_batch(
    lanes: Sequence[LaneSpec],
    events_per_core: int,
    seed: Optional[int] = None,
    warmup_events_per_core: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> List[SimResult]:
    """Convenience one-shot: build a :class:`BatchSystem` and run it."""
    return BatchSystem(
        lanes,
        events_per_core,
        seed=seed,
        warmup_events_per_core=warmup_events_per_core,
        snapshot_dir=snapshot_dir,
        backend=backend,
    ).run()


def _run_lane_group(ctx: SweepContext, points: List[Dict]) -> List[Dict]:
    """Sweep/pool task body: one whole lane-group per task.

    ``ctx`` is the grid-wide :data:`~repro.sim.sweep.SweepContext`;
    ``points`` are the group's point dicts (config deltas).  Runs the
    group as one :class:`BatchSystem` and returns the flattened result
    rows in group order.  Module-level so :class:`~repro.sim.pool
    .SimPool` workers can unpickle it by reference.
    """
    base_config, events, seed, warmup, snapshot_dir = ctx
    specs: List[LaneSpec] = [
        (_apply_point(base_config, point), point["workload"]) for point in points
    ]
    results = simulate_batch(
        specs,
        events,
        seed=seed,
        warmup_events_per_core=warmup,
        snapshot_dir=snapshot_dir,
    )
    rows: List[Dict] = []
    for point, result in zip(points, results):
        row = {**point}
        row.update(result.summary())
        rows.append(row)
    return rows
