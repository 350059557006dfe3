"""Lane-major timing state for the batch kernel: N lanes x (ranks*banks).

:class:`BatchTimingCore` is :class:`~repro.dram.soa.TimingCore` with a
leading *lane* dimension: every flat per-(rank,bank) and per-rank
vector declared in :data:`~repro.dram.soa.TIMING_FIELDS` becomes a
matrix whose row ``lane`` is one grid point's channel state.  The
batch kernel (:mod:`repro.sim.batch`) allocates one slab per
channel index and hands each lane its row set via :meth:`lane` — a
real :class:`TimingCore` whose slots *are* the slab rows, so the
controller's scheduling passes (which bind the arrays as locals and
mutate them in place) run unchanged against lane-sliced views, and
bit-identity with the scalar engine holds by construction.

Slab allocation goes through a backend selected at import: numpy
(installed via the ``.[fast]`` extra) builds each matrix in one
vectorized call, the pure-list fallback uses per-lane list ops.  Both
produce *identical* structures (nested plain lists of Python
ints/bools: ``ndarray.tolist()`` converts element types), so the
backend can never change simulation results — only how fast lane
state is materialized.  ``REPRO_BATCH_BACKEND=list|numpy`` forces a
backend; :data:`HAVE_NUMPY` is the loud-skip shim tests and callers
consult.

Why the *hot path* stays scalar per lane: the FR-FCFS scheduler is
deeply data-dependent (burst-streak commits, useless-row masks) and
lanes sit at different cycles, so cross-lane SIMD of ``step()`` cannot
be bit-identical.  CPython also indexes plain lists faster than numpy
scalars.  The lane dimension instead amortizes allocation and snapshot
restore — see DESIGN.md §7.  Nothing reads the slabs column-wise
during a run: each lane runs alone through its own row views.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.dram.soa import TIMING_FIELDS, TimingCore

try:  # the `.[fast]` optional extra; tier-1 must run without it
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None  # type: ignore[assignment]

#: Loud-skip shim: ``False`` means the pure-list fallback backend is in
#: use (identical semantics, slower bulk ops).  Re-exported as
#: ``repro.sim.batch.HAVE_NUMPY``.
HAVE_NUMPY = _numpy is not None

#: Backends a :class:`BatchTimingCore` can allocate with.
BACKENDS = ("numpy", "list")


def default_backend() -> str:
    """Backend selected at import: env override, else numpy if present.

    ``REPRO_BATCH_BACKEND=list`` forces the fallback (e.g. to compare
    backends on one install); ``=numpy`` fails loudly when the extra is
    missing instead of silently degrading.
    """
    forced = os.environ.get("REPRO_BATCH_BACKEND", "").strip().lower()
    if forced:
        if forced not in BACKENDS:
            raise ValueError(
                f"REPRO_BATCH_BACKEND={forced!r}: expected one of {BACKENDS}"
            )
        if forced == "numpy" and not HAVE_NUMPY:
            raise ImportError(
                "REPRO_BATCH_BACKEND=numpy but numpy is not installed; "
                "install the extra: pip install 'repro[fast]'"
            )
        return forced
    return "numpy" if HAVE_NUMPY else "list"


def full_rows(lanes: int, width: int, fill: int, backend: str) -> List[List[int]]:
    """``lanes`` rows of ``width`` ints, every element ``fill``.

    The numpy backend materializes the whole matrix in one array op
    (``tolist()`` yields plain Python ints, bit-identical to the
    fallback's per-lane list repeats).
    """
    if backend == "numpy":
        assert _numpy is not None
        matrix: List[List[int]] = _numpy.full(
            (lanes, width), fill, dtype=_numpy.int64
        ).tolist()
        return matrix
    return [[fill] * width for _ in range(lanes)]


def false_rows(lanes: int, width: int, backend: str) -> List[List[bool]]:
    """``lanes`` rows of ``width`` ``False`` flags (same contract)."""
    if backend == "numpy":
        assert _numpy is not None
        matrix: List[List[bool]] = _numpy.zeros(
            (lanes, width), dtype=bool
        ).tolist()
        return matrix
    return [[False] * width for _ in range(lanes)]


def none_rows(lanes: int, width: int) -> List[List[Optional[int]]]:
    """``lanes`` rows of ``width`` ``None`` slots (no numpy analogue:
    object matrices gain nothing from vectorization)."""
    return [[None] * width for _ in range(lanes)]


# Oracle-parity declaration enforced by reprolint: the lane-major slab
# is the batch fast path; the scalar per-channel TimingCore it hands
# out rows of is the oracle.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.dram.soa"
ORACLE_TESTS = ("tests/test_batch.py",)

# COW contract for the aliasing pass (repro.analysis.cowcheck): every
# column row is aliased by the TimingCore views lane() hands out, so any
# in-place write through a row is visible to a live lane.  Nothing in
# this module writes through one.
REPRO_COW_PROTOCOL = {
    "shared_roots": ("columns",),
    "shared_calls": ("lane",),
    "privatizers": (),
}


class BatchTimingCore:
    """Lane-major DRAM timing state: one slab for N lanes of a channel.

    :attr:`columns` holds one matrix per
    :data:`~repro.dram.soa.TIMING_FIELDS` entry, with the same name
    and encoding as the :class:`~repro.dram.soa.TimingCore` field plus
    a leading lane dimension.  Row ``lane`` of each matrix is the
    lane's live state — :meth:`lane` returns a ``TimingCore`` whose
    slots alias those rows, so there is exactly one copy of the state
    and no synchronization step.
    """

    __slots__ = ("num_lanes", "num_ranks", "num_banks", "backend", "columns")

    def __init__(
        self,
        num_lanes: int,
        num_ranks: int,
        num_banks: int,
        backend: Optional[str] = None,
    ) -> None:
        if num_lanes <= 0:
            raise ValueError("BatchTimingCore needs at least one lane")
        if num_ranks <= 0 or num_banks <= 0:
            raise ValueError("BatchTimingCore needs at least one rank and bank")
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected {BACKENDS}")
        if backend == "numpy" and not HAVE_NUMPY:
            raise ImportError(
                "numpy backend requested but numpy is not installed; "
                "install the extra: pip install 'repro[fast]'"
            )
        self.num_lanes = num_lanes
        self.num_ranks = num_ranks
        self.num_banks = num_banks
        self.backend = backend
        #: Field name -> lane-major matrix: ``[lane][g]`` for per-bank
        #: fields (``g = rank * num_banks + bank``), ``[lane][rank]``
        #: for per-rank ones.
        self.columns: Dict[str, List[list]] = {}
        for name, fill, extent in TIMING_FIELDS:
            width = num_ranks * num_banks if extent == "bank" else num_ranks
            if fill is None:
                rows: List[list] = none_rows(num_lanes, width)
            elif isinstance(fill, bool):
                rows = false_rows(num_lanes, width, backend)
            else:
                rows = full_rows(num_lanes, width, fill, backend)
            self.columns[name] = rows

    # ------------------------------------------------------------------
    def lane(self, lane: int) -> TimingCore:
        """A :class:`TimingCore` whose arrays *are* this slab's rows.

        The returned core is the lane's only state copy: controller
        mutations through the view are mutations of the slab rows, and
        whole-slab operations observe them immediately.
        """
        if not 0 <= lane < self.num_lanes:
            raise IndexError(f"lane {lane} out of range 0..{self.num_lanes - 1}")
        core = TimingCore(self.num_ranks, self.num_banks)
        for name, rows in self.columns.items():
            setattr(core, name, rows[lane])
        return core

