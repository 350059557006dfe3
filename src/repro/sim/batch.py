"""Lane-parallel batch kernel: advance N grid points through one loop.

A sweep grid point is one (config, workload) simulation.  The scalar
path builds a :class:`~repro.sim.system.System` per point and runs its
event loop to completion before touching the next point; at screening
fidelity (small event counts) most of the wall time is construction and
interpreter overhead, not scheduling work.  This module changes the
*unit of work*: a :class:`BatchSystem` holds N points as *lanes* and
drives them all through one shared event loop.

* **Lane-major timing state.**  Each channel index gets one
  :class:`~repro.dram.soa_batch.BatchTimingCore` slab — ``TimingCore``'s
  flat vectors with a leading lane dimension, bulk-allocated as
  whole-array ops (numpy via the ``.[fast]`` extra, pure-list fallback
  with identical semantics; :data:`HAVE_NUMPY` is the loud-skip shim).
  Every lane's controllers run against lane-sliced views (real
  ``TimingCore`` objects aliasing the slab rows), so the scheduler hot
  path is byte-for-byte the scalar one and bit-identity holds by
  construction.
* **Shared wake heap keyed ``(cycle, lane)``.**  Popping the heap
  advances the earliest-due lane by exactly one pass of the event
  loop — :meth:`repro.sim.system._Lane.advance`, the same step
  ``System.run`` drives for a serial run — then re-keys it at its
  next event cycle.  Each lane's pass sequence is identical to its
  solo run; the heap only interleaves lanes, it never reorders one
  lane's events.
* **Cohort stepping.**  All lanes waking at the same cycle pop
  together as a *cohort*.  Lanes whose pass would provably do nothing
  but probe idle controllers are screened out column-wise: the slab
  ingredients of the idle screen (:func:`_screened_wake`) — open-bank
  bits, power-down residency, refresh horizons — are evaluated for
  the whole cohort with one array op each
  (:func:`~repro.dram.soa_batch.open_row_hits` /
  :func:`~repro.dram.soa_batch.power_down_resident` /
  :func:`~repro.dram.soa_batch.refresh_due`), and screened lanes are
  re-keyed at the exact wake hint the scalar probe would have
  computed, without entering ``step()`` at all.  Only lanes with real
  work (or unscreenable shapes) drop into the scalar engine.
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
backends, and mixed snapshot-restored/cold batches).

Entry points: :class:`BatchSystem` directly, :func:`simulate_batch`
for one-shot use, ``Sweep.run(batch=N)`` for grids, and
:func:`_run_lane_group` as the :class:`~repro.sim.pool.SimPool` task
body that ships whole lane-groups to warm workers.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.cpu.core_model import NEVER
from repro.dram.soa import TimingCore
from repro.dram.soa_batch import (
    HAVE_NUMPY,
    BatchTimingCore,
    next_wake_min,
    open_row_hits,
    power_down_resident,
    refresh_due,
)
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.snapshot import default_warmup, warm_fingerprint
from repro.sim.sweep import SweepContext, _apply_point
from repro.sim.system import System, _Lane
from repro.workloads.mixes import Workload
from repro.workloads.mixes import workload as lookup_workload

__all__ = ["HAVE_NUMPY", "BatchSystem", "simulate_batch"]

# Oracle-parity declaration enforced by reprolint: the batch event loop
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.memctrl import ChannelController


def _screened_wake(
    ctrl: "ChannelController",
    local: int,
    hit: int,
    horizon: int,
    pd_all: Optional[bool],
) -> Optional[Tuple[int, bool]]:
    """The idle screen: can this controller's ``step`` at ``local`` do anything?

    Returns ``(wake, is_idle_shape)`` — the exact hint a
    :meth:`~repro.controller.memctrl.ChannelController.step` call at
    ``local`` would return, **proving** that call would issue nothing
    and mutate nothing, plus which screenable shape matched — or
    ``None`` when a real step is (or may be) needed.  The slab-backed
    ingredients (open-bank union ``hit``, earliest refresh deadline
    ``horizon``, power-down residency ``pd_all``) arrive precomputed by
    the cohort column ops; only the per-queue checks read the
    controller.

    Exactly two ``step`` shapes are screenable:

    * **busy bus** — no overflow and ``local < cmd_bus_free``: ``step``
      bails immediately with ``(False, cmd_bus_free)``;
    * **empty idle** — no overflow, both queues empty, not draining,
      no open banks, power-down (when the policy uses it) already
      entered on every rank, and every refresh deadline in the future:
      the rank walk and both passes fall through side-effect-free and
      ``step`` returns ``(False, min(next_refresh))``.

    Anything else (queued work, due refresh, open rows to close, a rank
    still awaiting power-down entry) can mutate state or issue.  A
    draining controller is declined too: an idle step would still flip
    the drain-hysteresis flag off, and *when* that happens is observable
    once new writes arrive.  The cohort identity suite
    (``tests/test_batch.py``) pins screened runs to unscreened ones.
    """
    if ctrl.overflow:
        return None
    bus_free = ctrl.channel.cmd_bus_free
    if local < bus_free:
        return bus_free, False
    if ctrl.read_q._count or ctrl.write_q._count:
        return None
    if ctrl.draining:
        return None
    if hit:
        return None
    if ctrl._uses_power_down and not pd_all:
        return None
    if local >= horizon:
        return None
    return horizon, True


class BatchSystem:
    """N grid points advanced together through one shared event loop."""

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
        #: Slab sets per geometry group (introspection/tests).
        self.slabs: List[List[BatchTimingCore]] = []
        #: Lane index -> (geometry-group index, slab slot); the cohort
        #: screen uses this to address each lane's slab rows.
        self._lane_slot: Dict[int, Tuple[int, int]] = {}
        lane_cores: Dict[int, List[TimingCore]] = {}
        for group, ((channels, ranks, banks), members) in enumerate(
            geo_groups.items()
        ):
            slabs = [
                BatchTimingCore(len(members), ranks, banks, backend=backend)
                for _ in range(channels)
            ]
            self.slabs.append(slabs)
            for slot, i in enumerate(members):
                self._lane_slot[i] = (group, slot)
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
            _Lane(i, system) for i, system in enumerate(systems) if system is not None
        ]
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    def run(self, *, _cohort: bool = True) -> List[SimResult]:
        """Drive every lane to completion; results in lane order.

        The shared heap holds ``(cycle, lane_index)``; every lane at the
        heap's front cycle pops together as a **cohort**.  The cohort
        first runs the column-wise idle screen (:meth:`_cohort_step`):
        lanes whose whole pass would provably issue nothing are re-keyed
        at their exact scalar wake hints without entering the scheduler;
        the rest advance one pass of the scalar loop body each, in lane
        order — the same order the PR-6 one-pop-per-lane loop produced,
        since heap ties break on lane index.  Lanes never share mutable
        state (slab rows are disjoint, snapshot sharing is
        copy-on-write), so the split cannot affect per-lane results; a
        lane that terminates finalizes immediately (stats flush +
        summary) and leaves the heap.

        ``_cohort=False`` forces the PR-6 one-lane-per-pop loop —
        a test hook so the identity suite can pin cohort stepping
        against the un-screened interleaving on the same inputs.
        """
        if self._ran:
            raise RuntimeError("BatchSystem.run() may only be called once")
        self._ran = True
        results: List[Optional[SimResult]] = [None] * len(self.lanes)
        heap: List[Tuple[int, int]] = [(0, lane.index) for lane in self.lanes]
        heapify(heap)
        lanes = self.lanes
        while heap:
            cycle = heap[0][0]
            if _cohort and len(heap) > 1:
                cohort: List[int] = []
                while heap and heap[0][0] == cycle:
                    _, index = heappop(heap)
                    cohort.append(index)
                scalar = (
                    self._cohort_step(cycle, cohort, heap)
                    if len(cohort) > 1
                    else cohort
                )
            else:
                _, index = heappop(heap)
                scalar = [index]
            for index in scalar:
                lane = lanes[index]
                nxt = lane.advance()
                if nxt is None:
                    results[index] = lane.finalize()
                else:
                    heappush(heap, (nxt, index))
        final = [result for result in results if result is not None]
        if len(final) != len(self.lanes):  # pragma: no cover - defensive
            raise RuntimeError("batch run finished with unfinalized lanes")
        return final

    # ------------------------------------------------------------------
    def _cohort_step(
        self, cycle: int, cohort: List[int], heap: List[Tuple[int, int]]
    ) -> List[int]:
        """Screen a same-cycle cohort; return the lanes needing scalar work.

        A lane can skip its scalar pass entirely when the pass would
        provably only *probe*: no demand completions due, no cores due,
        no dirtied channels, and :func:`_screened_wake` proves every due
        controller's ``run_until`` would return a wake hint without
        issuing or mutating anything.  For those lanes this method
        replicates the pass's only observable effects — the new per-
        controller wake hints and the lane's next event cycle — and
        re-keys the lane on ``heap`` directly.  Termination checks may
        be skipped for screened lanes: a screened pass mutates nothing
        the termination predicate reads, and the previous scalar pass
        already evaluated that predicate on identical state.

        The slab-backed screen ingredients (open-bank bits, power-down
        residency, refresh horizons) are gathered per (geometry group,
        channel) with one column op each across the cohort's slots;
        :func:`~repro.dram.soa_batch.next_wake_min` then folds each
        screened lane's wake candidates into its next event cycle.
        """
        lanes = self.lanes
        scalar: List[int] = []
        fast: List[Tuple[int, int, int]] = []  # (lane index, core_min, limit)
        for index in cohort:
            lane = lanes[index]
            system = lane.system
            if system._dirty_channels:
                scalar.append(index)
                continue
            next_completion = NEVER
            due_now = False
            for ctrl in system.controllers:
                cr = ctrl.completed_reads
                if cr:
                    c0 = cr[0][0]
                    if c0 <= cycle:
                        due_now = True
                        break
                    if c0 < next_completion:
                        next_completion = c0
            if due_now:
                scalar.append(index)
                continue
            core_min = NEVER
            for action in lane.core_next:
                if action < core_min:
                    core_min = action
            if core_min <= cycle:
                scalar.append(index)
                continue
            limit = next_completion if next_completion < core_min else core_min
            if limit <= cycle:
                limit = cycle + 1
            fast.append((index, core_min, limit))
        if not fast:
            return scalar

        # Column phase: gather the slab screen ingredients for every
        # due (lane, channel) pair, one whole-column op per slab.
        lane_due: Dict[int, List[int]] = {}
        buckets: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for index, _, _ in fast:
            lane = lanes[index]
            wake = lane.wake
            due = [idx for idx in range(len(wake)) if wake[idx] <= cycle]
            lane_due[index] = due
            group, slot = self._lane_slot[index]
            for ctrl_idx in due:
                buckets.setdefault((group, ctrl_idx), []).append((index, slot))
        cols: Dict[Tuple[int, int], Tuple[int, int, Optional[bool]]] = {}
        for (group, ctrl_idx), members in buckets.items():
            slab = self.slabs[group][ctrl_idx]
            slots = [slot for _, slot in members]
            hits = open_row_hits(slab, slots)
            horizons = refresh_due(slab, slots)
            pd_all: Optional[List[bool]] = None
            if any(
                lanes[index].system.controllers[ctrl_idx]._uses_power_down
                for index, _ in members
            ):
                pd_all = power_down_resident(slab, slots)
            for pos, (index, _) in enumerate(members):
                cols[(index, ctrl_idx)] = (
                    hits[pos],
                    horizons[pos],
                    None if pd_all is None else pd_all[pos],
                )

        # Scalar residue: compose the per-queue checks with the column
        # values; any unscreenable controller sends its lane scalar.
        screened: List[int] = []
        wake_rows: List[List[int]] = []
        for index, core_min, limit in fast:
            lane = lanes[index]
            controllers = lane.system.controllers
            new_wakes: Dict[int, int] = {}
            ok = True
            for ctrl_idx in lane_due[index]:
                ctrl = controllers[ctrl_idx]
                clock = ctrl.local_clock
                local = cycle if clock <= cycle else clock
                if local >= limit:
                    # run_until bails before stepping; no screen ran.
                    new_wakes[ctrl_idx] = local
                    continue
                hit, horizon, pd_all_lane = cols[(index, ctrl_idx)]
                res = _screened_wake(ctrl, local, hit, horizon, pd_all_lane)
                if res is None:
                    ok = False
                    break
                w, idle_shape = res
                # Busy-bus shape with pending work: run_until only stops
                # here if the bus outlasts the horizon.
                if (
                    not idle_shape
                    and (ctrl.read_q._count or ctrl.write_q._count)
                    and w < limit
                ):
                    ok = False
                    break
                new_wakes[ctrl_idx] = w
            if not ok:
                scalar.append(index)
                continue
            # Commit: replicate the pass's heap bookkeeping (pop every
            # due-or-stale entry, re-key the due controllers).
            lheap = lane.heap
            wake = lane.wake
            while lheap and lheap[0][0] <= cycle:
                heappop(lheap)
            for ctrl_idx, w in new_wakes.items():
                wake[ctrl_idx] = w
                heappush(lheap, (w, ctrl_idx))
            screened.append(index)
            # Phase-6 fold: min over live controller wakes and the
            # external horizon (core_min; completions are folded into
            # limit only when earlier, but the true completion horizon
            # is >= limit >= every candidate we keep, so folding
            # min(wake) with core_min and limit is exact).
            row = list(wake)
            row.append(core_min)
            row.append(limit)
            wake_rows.append(row)
        if not screened:
            return scalar

        backend = self.slabs[0][0].backend if self.slabs else "list"
        nxts = next_wake_min(wake_rows, backend)
        for index, nxt in zip(screened, nxts):
            lane = lanes[index]
            lane.cycle = nxt if nxt > cycle else cycle + 1
            heappush(heap, (lane.cycle, index))
        return scalar


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
