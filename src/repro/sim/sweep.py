"""Parameter sweeps: run a grid of configurations, export CSV/JSON.

Lightweight harness used by the sensitivity benches and available to
users exploring the design space::

    from repro.sim.sweep import Sweep
    sweep = Sweep(events_per_core=4000)
    sweep.add_axis("scheme", ["Baseline", "PRA", "Half-DRAM"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    rows = sweep.run()
    sweep.to_csv("results.csv")

Axes:

* ``scheme`` — scheme name (see :data:`repro.core.schemes.ALL_SCHEMES`),
* ``workload`` — any of the 14 evaluation workloads,
* ``policy`` — ``relaxed`` / ``restricted`` / ``open``,
* ``ecc_chips`` — 0 or 1.

Each grid point yields one flattened result row (the ``summary`` of
the run plus identification columns).

Execution backends, all bit-identical row for row:

* serial in-process (the oracle the others must match),
* ``run(pool=...)`` — a :class:`repro.sim.pool.SimPool`, the one way
  to use more than one process.  The grid-wide invariants (base
  config, run length, seed, snapshot dir) are shipped once per worker
  per sweep, so each task payload is just its point dict (the config
  *delta*); warm workers carry snapshot/trace caches across points
  *and* across sweeps, and points are grouped by warm fingerprint so
  each fingerprint warms exactly one worker.  For N processes::

      with SimPool(workers=N) as pool:
          rows = sweep.run(pool=pool)

* ``run(batch=N)`` — the batch kernel (:mod:`repro.sim.batch`): up
  to N points are built together, sharing warm snapshots
  (copy-on-write) and compiled trace blocks, then run back to back;
  combines with ``pool`` to ship whole lane groups per task.  ``batch="auto"`` sizes the lane count from the
  grid and available memory (:func:`auto_batch_lanes`).
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.sim.pool import SimPool

from repro.controller.policies import RowPolicy
from repro.core.schemes import by_name
from repro.sim.config import SystemConfig
from repro.sim.snapshot import resolve_fingerprint
from repro.sim.system import simulate
from repro.workloads.mixes import workload as lookup_workload

_POLICIES = {
    "relaxed": RowPolicy.RELAXED_CLOSE,
    "restricted": RowPolicy.RESTRICTED_CLOSE,
    "open": RowPolicy.OPEN_PAGE,
}

_KNOWN_AXES = ("scheme", "workload", "policy", "ecc_chips")

#: Grid-wide run invariants shipped to workers once per batch:
#: (base_config, events_per_core, seed, warmup, snapshot_dir).
SweepContext = Tuple[SystemConfig, int, int, Optional[int], Optional[str]]


def _apply_point(base_config: SystemConfig, point: Dict) -> SystemConfig:
    """Specialize ``base_config`` for one grid point."""
    config = base_config
    if "scheme" in point:
        config = config.with_scheme(by_name(point["scheme"]))
    if "policy" in point:
        config = config.with_policy(_POLICIES[point["policy"]])
    if "ecc_chips" in point:
        config = replace(config, ecc_chips=int(point["ecc_chips"]))
    return config


def _run_point(ctx: SweepContext, point: Dict) -> Dict:
    """Simulate one grid point; module-level so worker processes can
    unpickle it.  ``ctx`` carries the grid-wide invariants (shipped
    once per worker); ``point`` is only the config delta.  Returns the
    flattened result row (small and picklable; the heavy ``System``
    never crosses the process boundary)."""
    base_config, events, seed, warmup, snapshot_dir = ctx
    config = _apply_point(base_config, point)
    result = simulate(
        config,
        lookup_workload(point["workload"]),
        events,
        seed=seed,
        warmup_events_per_core=warmup,
        snapshot_dir=snapshot_dir,
    )
    row = {**point}
    row.update(result.summary())
    return row


def _available_memory_bytes() -> Optional[int]:
    """Currently available physical memory, or ``None`` if unknowable.

    Monkeypatchable in tests; uses the POSIX ``sysconf`` keys, which
    the supported platforms expose.
    """
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        pages = os.sysconf("SC_AVPHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        return None
    if page <= 0 or pages <= 0:  # pragma: no cover - degenerate sysconf
        return None
    return page * pages


def auto_batch_lanes(num_points: int, base_config: SystemConfig) -> int:
    """Lane count for ``batch="auto"``: the whole grid, memory permitting.

    The batch kernel's sweet spot is one lane group for the entire
    grid (maximum construction sharing: one slab allocation, one
    snapshot restore pass), so that is the default answer.  Each lane's dominant resident cost is its private
    LLC tag state (three flat 8-byte arrays per slot, plus privatized
    per-set dicts as it diverges from the shared snapshot); the
    estimate below envelopes that at one byte of lane state per two
    bytes of modelled LLC capacity, floored at 4 MB to cover queues,
    cores and controller state.  Lanes are capped so their combined
    envelope stays within half of currently-available memory —
    conservative, because an overcommitted batch run swaps and loses
    far more than extra groups cost.  When available memory cannot be
    determined the grid size is used unchanged.
    """
    if num_points < 1:
        raise ValueError("auto batch sizing needs at least one grid point")
    avail = _available_memory_bytes()
    if avail is None:
        return num_points
    per_lane = max(4 << 20, base_config.cache.llc_bytes // 2)
    budget = max(1, (avail // 2) // per_lane)
    return min(num_points, budget)


class Sweep:
    """Cartesian-product sweep over named configuration axes."""

    def __init__(
        self,
        events_per_core: int = 4000,
        base_config: Optional[SystemConfig] = None,
        seed: int = 1,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Configure grid-wide run parameters.

        ``snapshot_dir`` opts the grid into the on-disk warm-state
        snapshot layer: every scheme/policy point of the same
        (workload, seed) restores one shared post-warmup state instead
        of replaying warmup — including across ``run(pool=...)``
        worker processes, which share no in-process cache.
        """
        self.events_per_core = events_per_core
        self.base_config = base_config if base_config is not None else SystemConfig()
        self.seed = seed
        self.warmup = warmup_events_per_core
        self.snapshot_dir = snapshot_dir
        self._axes: Dict[str, Sequence] = {}
        self.rows: List[Dict] = []

    def add_axis(self, name: str, values: Sequence) -> "Sweep":
        """Add one grid axis; returns self for chaining."""
        if name not in _KNOWN_AXES:
            raise ValueError(f"unknown axis {name!r}; known: {_KNOWN_AXES}")
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        self._axes[name] = list(values)
        return self

    # ------------------------------------------------------------------
    def _config_for(self, point: Dict) -> SystemConfig:
        return _apply_point(self.base_config, point)

    def _context(self) -> SweepContext:
        """The grid-wide invariants every execution backend shares."""
        return (
            self.base_config,
            self.events_per_core,
            self.seed,
            self.warmup,
            self.snapshot_dir,
        )

    def _tasks(self) -> List[Dict]:
        """Materialize the grid as per-point payloads, in grid order.

        Each payload is only the point dict (the config *delta*); the
        grid-wide invariants travel separately via :meth:`_context`,
        once per worker instead of once per point.
        """
        if not self._axes:
            raise ValueError("add at least one axis before running")
        if "workload" not in self._axes:
            raise ValueError("a 'workload' axis is required")
        names = list(self._axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self._axes[n] for n in names))
        ]

    def _group_key(self, point: Dict) -> tuple:
        """Warm fingerprint of a point, for pool cache-affinity grouping.

        Resolves the same default warmup length the ``System`` will, so
        points that share post-warmup state (every non-DBI scheme of one
        (workload, seed) column) land on one warm worker back to back.
        """
        config = _apply_point(self.base_config, point)
        workload = lookup_workload(point["workload"])
        return resolve_fingerprint(config, workload, self.seed, self.warmup)

    def run(
        self,
        pool: "Optional[SimPool]" = None,
        batch: "Optional[Union[int, str]]" = None,
    ) -> List[Dict]:
        """Execute the grid; returns (and stores) one row per point.

        ``pool`` runs the grid on a :class:`repro.sim.pool.SimPool`
        (warm workers, fingerprint-grouped scheduling); without one
        the grid runs in this process.

        ``batch=N`` selects the batch kernel (:mod:`repro.sim.batch`):
        points are chunked into lane groups of up to N and each group
        is built and run as one :class:`~repro.sim.batch.BatchSystem`.
        Groups are cut along warm-fingerprint order so lanes in a group
        share snapshots and trace blocks.  Combines with ``pool``: each
        lane group then ships whole to a warm worker
        (:meth:`~repro.sim.pool.SimPool.map_groups`), amortizing the
        per-point IPC as well.

        ``batch="auto"`` picks the lane count itself: the whole grid
        as one lane group, capped by available physical memory
        (:func:`auto_batch_lanes`).

        Every point carries the same deterministic seed on every
        backend and the rows are merged back in grid order, so pooled
        and batched sweeps are row-for-row identical to a serial one.
        """
        tasks = self._tasks()
        if isinstance(batch, str):
            if batch != "auto":
                raise ValueError(
                    f"batch={batch!r}: expected a positive integer or 'auto'"
                )
            batch = auto_batch_lanes(max(1, len(tasks)), self.base_config)
        elif batch is not None and batch < 1:
            raise ValueError("batch must be a positive integer or 'auto'")
        ctx = self._context()
        if batch is not None and batch > 1 and len(tasks) > 1:
            self.rows = self._run_batched(tasks, ctx, batch, pool)
            return self.rows
        if pool is not None:
            self.rows = pool.map(
                _run_point,
                tasks,
                shared=ctx,
                group_keys=[self._group_key(point) for point in tasks],
            )
        else:
            self.rows = [_run_point(ctx, task) for task in tasks]
        return self.rows

    def _run_batched(
        self,
        tasks: List[Dict],
        ctx: SweepContext,
        batch: int,
        pool: "Optional[SimPool]",
    ) -> List[Dict]:
        """Run the grid through the batch kernel in lane groups.

        Points are reordered so same-fingerprint points sit adjacent,
        then cut into groups of up to ``batch`` lanes: a group whose
        lanes share a fingerprint restores from one warm snapshot
        (copy-on-write) and shares one compiled trace-block set, and a
        group spanning fingerprints still shares one slab allocation
        and one GC-paused construction pass.  Rows come back in grid order regardless.
        """
        # Imported here: repro.sim.batch imports this module at top
        # level (for SweepContext/_apply_point), so the lazy import
        # breaks the cycle.
        from repro.sim.batch import _run_lane_group

        order: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for index, point in enumerate(tasks):
            order.setdefault(self._group_key(point), []).append(index)
        ordered = [index for members in order.values() for index in members]
        chunks = [ordered[i : i + batch] for i in range(0, len(ordered), batch)]
        payloads = [[tasks[index] for index in chunk] for chunk in chunks]
        if pool is not None:
            flat = pool.map_groups(
                _run_lane_group,
                payloads,
                shared=ctx,
                group_keys=[self._group_key(group[0]) for group in payloads],
            )
        else:
            flat = [
                row for group in payloads for row in _run_lane_group(ctx, group)
            ]
        rows: List[Optional[Dict]] = [None] * len(tasks)
        for index, row in zip(ordered, flat):
            rows[index] = row
        return [row for row in rows if row is not None]

    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Export the grid rows as CSV."""
        if not self.rows:
            raise ValueError("run() the sweep before exporting")
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.rows[0]))
            writer.writeheader()
            writer.writerows(self.rows)

    def to_json(self, path: str) -> None:
        """Export the grid rows as pretty-printed JSON."""
        if not self.rows:
            raise ValueError("run() the sweep before exporting")
        with open(path, "w") as handle:
            json.dump(self.rows, handle, indent=2)
