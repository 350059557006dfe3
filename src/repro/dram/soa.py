"""Structure-of-arrays timing state shared by a channel's ranks/banks.

The scheduler's hot loops (housekeeping walk, FR-FCFS passes, burst
streak commits) read and write per-bank and per-rank timing state tens
of times per issued command.  Scattering that state across ``Bank`` /
``Rank`` objects costs an attribute load per touch; flattening it into
plain integer lists indexed by ``g = rank_index * num_banks +
bank_index`` turns readiness checks and wake-hint computation into flat
array min/compare loops.

One :class:`TimingCore` is created per channel and adopted by that
channel's :class:`~repro.controller.memctrl.ChannelController`, which
binds the arrays as locals in its scheduling passes.  The ``Bank`` and
``Rank`` classes remain the public API: they are thin views whose
properties read and write these arrays, so unit tests, the protocol
checker and the ``strict_polling`` oracle keep working unchanged.

Encoding conventions:

* ``open_row[g]`` is ``-1`` for a precharged bank (``Bank.open_row``
  translates to/from ``None``),
* ``autopre[g]`` / ``reserved[g]`` mirror ``Bank.pending_autopre`` /
  ``Bank.reserved_req``,
* ``open_bits[r]`` is the rank's open-bank bitmask,
* ``gate[r]`` caches ``max(pd_exit_ready, refresh_until)`` — the
  earliest cycle any command may issue on the rank,
* ``pd[r]`` is 1 while the rank sits in precharge power-down
  (``Rank.powered_down`` translates to/from ``bool``),
* ``next_refresh[r]`` is the rank's next refresh deadline.

The last two moved here from plain ``Rank`` attributes, so the batch
kernel's lane-major slabs (:mod:`repro.dram.soa_batch`) hold every
per-rank field the scheduler reads; ``Rank`` keeps properties over the
same storage.

:data:`TIMING_FIELDS` declares the per-bank and per-rank fields once.
The slab allocates one lane-major column per entry and rebinds lane
views from it; ``TimingCore`` spells the same fields out with exact
types because the mypyc build needs them, and
``tests/test_batch.py`` pins its slots and fills to the schema.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dram.geometry import FULL_MASK

# Oracle-parity declaration enforced by reprolint: this module is the
# array-backed fast path; the Bank/Rank object views are the oracle.
# It is also on the compiled-engine list (repro.engine.COMPILED_MODULES):
# the mypyc build must stay bit-identical to this source, pinned by the
# golden digests in tests/test_engine_identity.py.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.dram.bank", "repro.dram.rank")
ORACLE_TESTS = (
    "tests/test_engine_equivalence.py",
    "tests/test_engine_identity.py",
)


#: ``(name, fill, extent)`` per timing field, in slot order: ``extent``
#: is ``"bank"`` (one element per ``g = rank * num_banks + bank``) or
#: ``"rank"`` (one per rank); ``fill`` is the freshly built value.
TIMING_FIELDS: Tuple[Tuple[str, Optional[int], str], ...] = (
    ("open_row", -1, "bank"),
    ("open_mask", FULL_MASK, "bank"),
    ("act_ready", 0, "bank"),
    ("col_ready", 0, "bank"),
    ("pre_ready", 0, "bank"),
    ("last_act", -1, "bank"),
    ("accesses", 0, "bank"),
    ("autopre", False, "bank"),
    ("reserved", None, "bank"),
    ("next_act_ok", 0, "rank"),
    ("next_col_ok", 0, "rank"),
    ("next_read_ok", 0, "rank"),
    ("next_write_ok", 0, "rank"),
    ("gate", 0, "rank"),
    ("open_bits", 0, "rank"),
    ("pd", 0, "rank"),
    ("next_refresh", 0, "rank"),
)


class TimingCore:
    """Flat per-(rank, bank) and per-rank timing state for one channel.

    The fields are :data:`TIMING_FIELDS`, spelled out with exact types.
    """

    __slots__ = (
        "num_ranks",
        "num_banks",
        # -- per-bank arrays, indexed by g = rank * num_banks + bank --
        "open_row",
        "open_mask",
        "act_ready",
        "col_ready",
        "pre_ready",
        "last_act",
        "accesses",
        "autopre",
        "reserved",
        # -- per-rank arrays, indexed by rank --
        "next_act_ok",
        "next_col_ok",
        "next_read_ok",
        "next_write_ok",
        "gate",
        "open_bits",
        "pd",
        "next_refresh",
    )

    def __init__(self, num_ranks: int, num_banks: int) -> None:
        if num_ranks <= 0 or num_banks <= 0:
            raise ValueError("TimingCore needs at least one rank and bank")
        self.num_ranks = num_ranks
        self.num_banks = num_banks
        n = num_ranks * num_banks
        # Element types are annotated explicitly (not inferred from the
        # literals) so the mypyc build of this module gives every array
        # an exact native attribute type.
        #: Open row per bank; -1 when precharged.
        self.open_row: List[int] = [-1] * n
        #: PRA mask the open row was activated under.
        self.open_mask: List[int] = [FULL_MASK] * n
        #: Earliest cycle an ACT may be issued to the bank.
        self.act_ready: List[int] = [0] * n
        #: Earliest cycle a column (RD/WR) command may be issued.
        self.col_ready: List[int] = [0] * n
        #: Earliest cycle a PRE may be issued.
        self.pre_ready: List[int] = [0] * n
        #: Cycle of the most recent activation (stats/debug).
        self.last_act: List[int] = [-1] * n
        #: Column accesses served by the open row (row-hit cap).
        self.accesses: List[int] = [0] * n
        #: Pending auto-precharge flag (restricted close-page).
        self.autopre: List[bool] = [False] * n
        #: Request id the activation was reserved for, or None.
        self.reserved: List[Optional[int]] = [None] * n
        #: Earliest next-ACT cycle per rank (tRRD).
        self.next_act_ok: List[int] = [0] * num_ranks
        #: Earliest next column command per rank (tCCD).
        self.next_col_ok: List[int] = [0] * num_ranks
        #: Earliest READ per rank (write-to-read turnaround).
        self.next_read_ok: List[int] = [0] * num_ranks
        #: Earliest WRITE per rank (DM-pin write-buffer hold).
        self.next_write_ok: List[int] = [0] * num_ranks
        #: max(pd_exit_ready, refresh_until) per rank.
        self.gate: List[int] = [0] * num_ranks
        #: Bitmask of banks with an open row, per rank.
        self.open_bits: List[int] = [0] * num_ranks
        #: 1 while the rank is in precharge power-down, else 0.
        self.pd: List[int] = [0] * num_ranks
        #: Next refresh deadline per rank (``Rank.__init__`` seeds tREFI).
        self.next_refresh: List[int] = [0] * num_ranks
