"""Span tracer that wraps the simulator's entry points from outside.

The traced run installs a :class:`Tracer` over the public entry points
of each ``repro`` package (see :data:`TARGETS`).  Every wrapped call
records one span: name, start, end, parent span and the benchmark's
current op id.  Spans stay in memory (columnar arrays, capped) and are
written out when the run ends; per-name call counts, inclusive time
and self time (duration minus the time covered by child spans) are
kept for every call, capped or not.

Names are patched where they are looked up: ``restore_warm_state`` and
``compiled_trace`` are imported by name into ``repro.sim.system``, so
that module's binding is the one replaced.  A class whose attributes
cannot be set (a mypyc-compiled class) is left alone and listed in
:attr:`Tracer.unwrapped`; its layer is then reported from result
counters only.

SimPool workers forked from a traced process inherit the wrappers.
The wrapped worker entry point resets the inherited totals and, when
the worker exits, writes its own totals to ``worker_dump_dir`` so the
parent can merge them (workers started with ``spawn`` import fresh
modules and report nothing).
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, kind).  ``kind`` is "call" for
#: plain functions and methods and "gen" for generator functions, whose
#: span covers the whole iteration.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.sweep", "Sweep.run", "sim.sweep.run", "call"),
    ("repro.sim.system", "System.__init__", "sim.system.build", "call"),
    ("repro.sim.system", "System.run", "sim.system.run", "call"),
    ("repro.sim.system", "System._finalize", "sim.system.finalize", "call"),
    ("repro.sim.system", "restore_warm_state", "sim.snapshot.restore", "call"),
    ("repro.sim.system", "capture_warm_state", "sim.snapshot.capture", "call"),
    ("repro.sim.system", "SNAPSHOTS.lookup", "sim.snapshot.lookup", "call"),
    ("repro.sim.system", "compiled_trace", "workloads.compiled_trace", "call"),
    ("repro.workloads.synthetic", "TraceBlocks._materialize_block",
     "workloads.compile", "call"),
    ("repro.sim.batch", "BatchSystem.run", "sim.batch.run", "call"),
    ("repro.sim.batch", "_Lane.advance", "sim.batch.advance", "call"),
    ("repro.controller.memctrl", "ChannelController.run_until",
     "controller.run_until", "call"),
    ("repro.controller.memctrl", "ChannelController.submit",
     "controller.submit", "call"),
    ("repro.power.accounting", "PowerAccountant.on_activate",
     "power.on_activate", "call"),
    ("repro.power.accounting", "PowerAccountant.on_activate_fraction",
     "power.on_activate_fraction", "call"),
    ("repro.power.accounting", "PowerAccountant.on_read_burst",
     "power.on_read_burst", "call"),
    ("repro.power.accounting", "PowerAccountant.on_write_burst",
     "power.on_write_burst", "call"),
    ("repro.power.accounting", "PowerAccountant.on_refresh",
     "power.on_refresh", "call"),
    ("repro.power.accounting", "PowerAccountant.add_background",
     "power.add_background", "call"),
    ("repro.power.accounting", "PowerAccountant.breakdown",
     "power.breakdown", "call"),
    ("repro.cpu.core_model", "Core.try_advance", "cpu.advance", "call"),
    ("repro.cache.hierarchy", "CacheHierarchy.access", "cache.access", "call"),
    ("repro.cache.hierarchy", "CacheHierarchy.warm_block", "cache.warm", "call"),
    ("repro.sim.pool", "SimPool.stream", "sim.pool.stream", "gen"),
    ("repro.service.store", "ResultStore.get", "service.store.get", "call"),
    ("repro.service.store", "ResultStore.put", "service.store.put", "call"),
    ("repro.service.store", "ResultStore.has", "service.store.has", "call"),
    ("repro.service.journal", "Journal.record_job",
     "service.journal.append", "call"),
    ("repro.service.journal", "Journal.record_point",
     "service.journal.append", "call"),
    ("repro.service.journal", "Journal.record_done",
     "service.journal.append", "call"),
)


class _Totals:
    """Per-name call count, inclusive seconds and self seconds."""

    __slots__ = ("calls", "total", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        #: Items yielded by a generator span (pool tasks).
        self.items = 0


class Tracer:
    """In-memory spans and per-name totals around wrapped callables."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.totals: Dict[str, _Totals] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Spans beyond ``max_spans``: counted in the totals, not kept.
        self.dropped = 0
        #: Benchmark op id stamped on every span (set per job/request).
        self.op = 0
        #: Targets that refused wrapping (compiled classes).
        self.unwrapped: List[str] = []
        #: SimResults seen by ``System._finalize`` since the last reset.
        self.results: List[Any] = []
        #: Snapshot cache lookups that hit / missed.
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        #: Lanes of every BatchSystem run.
        self.batch_lanes = 0
        #: Directory where traced pool workers write their totals.
        self.worker_dump_dir: Optional[str] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin = perf_counter()

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.totals[name] = _Totals()
        return nid

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int, start: float, parent: int) -> int:
        with self._lock:
            if len(self.span_name) >= self.max_spans:
                self.dropped += 1
                return -1
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(start - self.origin)
            self.span_end.append(0.0)
            return len(self.span_name) - 1

    def _close(self, name: str, idx: int, end: float, dur: float,
               child: float, items: int = 0) -> None:
        with self._lock:
            totals = self.totals[name]
            totals.calls += 1
            totals.total += dur
            totals.self_s += dur - child
            totals.items += items
            if idx >= 0:
                self.span_end[idx] = end - self.origin

    # ------------------------------------------------------------------
    def _wrap_call(self, name: str, fn: Callable[..., Any],
                   hook: Optional[Callable[[tuple, Any], None]]) -> Callable[..., Any]:
        nid = self._name_id(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            start = perf_counter()
            parent = int(stack[-1][0]) if stack else -1
            frame = [float(tracer._open(nid, start, parent)), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer._close(name, int(frame[0]), end, dur, frame[1])
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_gen(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._name_id(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            start = perf_counter()
            parent = int(stack[-1][0]) if stack else -1
            idx = tracer._open(nid, start, parent)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                end = perf_counter()
                tracer._close(name, idx, end, end - start, 0.0, items)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def _hooks(self) -> Dict[str, Callable[[tuple, Any], None]]:
        def finalize(_args: tuple, result: Any) -> None:
            self.results.append(result)

        def lookup(_args: tuple, snapshot: Any) -> None:
            if snapshot is None:
                self.snapshot_misses += 1
            else:
                self.snapshot_hits += 1

        def batch_run(args: tuple, _result: Any) -> None:
            self.batch_lanes += args[0].num_lanes

        return {
            "sim.system.finalize": finalize,
            "sim.snapshot.lookup": lookup,
            "sim.batch.run": batch_run,
        }

    def install(self) -> None:
        """Patch every target; compiled classes are skipped and listed."""
        if self._patches:
            return
        hooks = self._hooks()
        for module_name, path, name, kind in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            if kind == "gen":
                wrapped = self._wrap_gen(name, original)
            else:
                wrapped = self._wrap_call(name, original, hooks.get(name))
            try:
                setattr(owner, attr, wrapped)
            except (TypeError, AttributeError):
                target = f"{module_name}.{path}"
                if target not in self.unwrapped:
                    self.unwrapped.append(target)
                continue
            self._patches.append((owner, attr, original))
        self._install_worker_hook()

    def _install_worker_hook(self) -> None:
        pool_module: Any = importlib.import_module("repro.sim.pool")
        original = pool_module._worker_main
        tracer = self

        def traced_worker(*args: Any, **kwargs: Any) -> Any:
            tracer.reset()
            try:
                return original(*args, **kwargs)
            finally:
                if tracer.worker_dump_dir is not None:
                    path = os.path.join(
                        tracer.worker_dump_dir, f"worker-{os.getpid()}.json"
                    )
                    with open(path, "w") as handle:
                        json.dump(tracer.export_totals(), handle)

        pool_module._worker_main = traced_worker
        self._patches.append((pool_module, "_worker_main", original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, (type, types.ModuleType)):
                setattr(owner, attr, original)
            else:
                # An instance attribute shadowed a class method: drop it.
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget totals, spans and observations (keeps the patches).

        Also replaces the lock and thread-local stacks, so a forked
        worker never inherits a lock held by another parent thread.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        with self._lock:
            for name in self.totals:
                self.totals[name] = _Totals()
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                del arr[:]
            self.dropped = 0
            self.results = []
            self.snapshot_hits = 0
            self.snapshot_misses = 0
            self.batch_lanes = 0

    def export_totals(self) -> Dict[str, Any]:
        """Totals and observations as plain JSON (worker dumps)."""
        return {
            "totals": {
                name: [t.calls, t.total, t.self_s, t.items]
                for name, t in self.totals.items()
            },
            "snapshot_hits": self.snapshot_hits,
            "snapshot_misses": self.snapshot_misses,
            "batch_lanes": self.batch_lanes,
            "result_counters": [result_counters(r) for r in self.results],
        }

    def merge_totals(self, dump: Dict[str, Any]) -> None:
        """Add a worker's exported totals to this tracer's."""
        for name, (calls, total, self_s, items) in dump["totals"].items():
            self._name_id(name)
            totals = self.totals[name]
            totals.calls += calls
            totals.total += total
            totals.self_s += self_s
            totals.items += items
        self.snapshot_hits += dump["snapshot_hits"]
        self.snapshot_misses += dump["snapshot_misses"]
        self.batch_lanes += dump["batch_lanes"]

    def write_spans(self, path: str) -> None:
        """Write the retained spans as one columnar JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "name": self.span_name.tolist(),
                    "start_s": [round(v, 7) for v in self.span_start],
                    "end_s": [round(v, 7) for v in self.span_end],
                    "parent": self.span_parent.tolist(),
                    "op": self.span_op.tolist(),
                    "dropped": self.dropped,
                    "unwrapped": self.unwrapped,
                },
                handle,
            )

    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.totals[n].calls for n in names if n in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n].self_s for n in names if n in self.totals)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[n].total for n in names if n in self.totals)

    def items(self, *names: str) -> int:
        return sum(self.totals[n].items for n in names if n in self.totals)

    def prefixed(self, prefix: str) -> List[str]:
        return [n for n in self.names if n.startswith(prefix)]


def result_counters(result: Any) -> Dict[str, int]:
    """Deterministic work counters of one SimResult."""
    ctrl = result.controller
    hist = result.activation_histogram
    llc = result.llc
    column_decisions = ctrl.total_served - ctrl.streak_commands + ctrl.streaks
    return {
        "served": ctrl.total_served,
        "passes": ctrl.sched_passes,
        "decisions": (ctrl.total_activations + column_decisions
                      + ctrl.precharges + ctrl.refreshes),
        "streaks": ctrl.streaks,
        "streak_commands": ctrl.streak_commands,
        "false_hits": ctrl.reads.false_hits + ctrl.writes.false_hits,
        "drain_entries": ctrl.drain_entries,
        "row_hits": ctrl.total_hits,
        "act": sum(hist.values()),
        "partial_act": sum(n for g, n in hist.items() if g < 8),
        "pre": ctrl.precharges,
        "llc_accesses": llc.hits + llc.misses,
        "llc_misses": llc.misses,
        "writebacks": llc.dirty_evictions,
    }
