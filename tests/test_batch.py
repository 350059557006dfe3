"""Oracle-parity tests for the lane-parallel batch kernel.

``repro.sim.batch`` and ``repro.dram.soa_batch`` are registered fast
paths: every lane of a :class:`BatchSystem` must produce a
:class:`SimResult` bit-identical to running that lane's (config,
workload) through the scalar ``System.run`` on its own — values *and*
structure, pinned here via ``to_dict()`` deep equality.  These tests
cover both slab backends (numpy and the pure-list fallback), batches
mixing snapshot-restored and cold lanes, the ``Sweep.run(batch=N)``
and ``SimPool.map_groups`` integration layers, the CLI worker-budget
guard, and a hypothesis property test driving randomized lane
counts/configs through the kernel.

Each lane runs to completion before the next one starts, so the suite
also pins lane *order* as irrelevant: a reversed batch with duplicate
specs (lanes sharing one snapshot copy-on-write) gives every lane the
same result.  It also covers ``batch="auto"`` lane sizing and pins the
``TimingCore`` slots to the shared ``TIMING_FIELDS`` schema the slab
allocates from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.schemes import by_name
from repro.dram.soa import TIMING_FIELDS, TimingCore
from repro.dram.soa_batch import (
    BACKENDS,
    BatchTimingCore,
    HAVE_NUMPY,
    default_backend,
)
from repro.sim.batch import BatchSystem, simulate_batch
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import SimPool, SimPoolError
from repro.sim.snapshot import SNAPSHOTS
from repro.sim import sweep as sweep_mod
from repro.sim.sweep import Sweep, auto_batch_lanes
from repro.sim.system import System
from repro.workloads.mixes import workload as lookup_workload

SMALL_CACHE = CacheConfig(llc_bytes=128 * 1024)
EVENTS = 400
WARMUP = 1200

#: Skip marker for tests that exercise the numpy backend specifically.
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (pip install 'repro[fast]')"
)


def _specs(schemes=("Baseline", "PRA", "SDS", "DBI+PRA"), workloads=("GUPS", "MIX1")):
    base = SystemConfig(cache=SMALL_CACHE)
    return [
        (base.with_scheme(by_name(scheme)), wl)
        for scheme in schemes
        for wl in workloads
    ]


def _serial(specs, events=EVENTS, warmup=WARMUP):
    """The scalar oracle: each lane run on its own, cold caches."""
    SNAPSHOTS.clear()
    out = []
    for config, wl in specs:
        system = System(
            config, lookup_workload(wl), events, warmup_events_per_core=warmup
        )
        out.append(system.run().to_dict())
    return out


def _small_sweep():
    sweep = Sweep(
        events_per_core=EVENTS,
        base_config=SystemConfig(cache=SMALL_CACHE),
        warmup_events_per_core=WARMUP,
    )
    sweep.add_axis("scheme", ["Baseline", "PRA", "SDS", "DBI+PRA"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    return sweep


# ----------------------------------------------------------------------
class TestLaneBitIdentity:
    @pytest.mark.parametrize(
        "backend",
        [pytest.param("numpy", marks=needs_numpy), "list"],
    )
    def test_every_lane_matches_its_serial_run(self, backend):
        specs = _specs()
        serial = _serial(specs)
        SNAPSHOTS.clear()
        results = simulate_batch(
            specs, EVENTS, warmup_events_per_core=WARMUP, backend=backend
        )
        assert [r.to_dict() for r in results] == serial

    def test_mixed_cold_and_snapshot_restored_lanes(self):
        # With a cold snapshot cache, the first lane of each warm
        # fingerprint warms cold and stores; the rest of its group
        # restore copy-on-write — a genuinely mixed batch.
        specs = _specs()
        serial = _serial(specs)
        SNAPSHOTS.clear()
        batch = BatchSystem(specs, EVENTS, warmup_events_per_core=WARMUP)
        restored = [lane.system.snapshot_restored for lane in batch.lanes]
        assert True in restored and False in restored
        assert [r.to_dict() for r in batch.run()] == serial

    def test_all_lanes_snapshot_restored(self):
        specs = _specs()
        serial = _serial(specs)  # leaves SNAPSHOTS warm
        batch = BatchSystem(specs, EVENTS, warmup_events_per_core=WARMUP)
        assert all(lane.system.snapshot_restored for lane in batch.lanes)
        assert [r.to_dict() for r in batch.run()] == serial

    def test_single_lane_batch(self):
        specs = _specs(schemes=("DBI+PRA",), workloads=("MIX1",))
        serial = _serial(specs)
        SNAPSHOTS.clear()
        results = simulate_batch(specs, EVENTS, warmup_events_per_core=WARMUP)
        assert [r.to_dict() for r in results] == serial

    def test_run_is_single_shot(self):
        specs = _specs(schemes=("Baseline",), workloads=("GUPS",))
        batch = BatchSystem(specs, 100, warmup_events_per_core=200)
        batch.run()
        with pytest.raises(RuntimeError, match="only be called once"):
            batch.run()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            BatchSystem([], 100)


# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_sweep_batched_identical_to_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        batched = _small_sweep().run(batch=4)
        assert batched == serial  # values AND grid ordering

    def test_sweep_batched_on_pool_identical_to_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        with SimPool(workers=1) as pool:
            batched = _small_sweep().run(pool=pool, batch=3)
        assert batched == serial

    def test_batch_size_larger_than_grid(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        batched = _small_sweep().run(batch=64)
        assert batched == serial

    def test_batch_of_one_falls_back_to_serial_path(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        assert _small_sweep().run(batch=1) == serial

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            _small_sweep().run(batch=0)


# ----------------------------------------------------------------------
def _double_each(shared, group):
    return [shared * item for item in group]


def _wrong_shape(shared, group):
    return "not a list"


class TestMapGroups:
    def test_flattens_in_submission_order(self):
        groups = [[1, 2], [3], [4, 5, 6]]
        with SimPool(workers=2) as pool:
            flat = pool.map_groups(_double_each, groups, shared=10)
        assert flat == [10, 20, 30, 40, 50, 60]

    def test_misshapen_group_result_rejected(self):
        pool = SimPool(workers=1)
        try:
            with pytest.raises(SimPoolError, match="one result per group item"):
                pool.map_groups(_wrong_shape, [[1, 2]])
        finally:
            pool.close()


# ----------------------------------------------------------------------
class TestSlab:
    @pytest.mark.parametrize(
        "backend",
        [pytest.param("numpy", marks=needs_numpy), "list"],
    )
    def test_backends_allocate_identical_state(self, backend):
        slab = BatchTimingCore(3, 2, 8, backend=backend)
        reference = BatchTimingCore(3, 2, 8, backend="list")
        assert list(slab.columns) == [name for name, _, _ in TIMING_FIELDS]
        for name, rows in slab.columns.items():
            assert rows == reference.columns[name], name
            assert [type(v) for v in rows[0]] == [
                type(v) for v in reference.columns[name][0]
            ], name

    def test_timing_core_slots_match_schema(self):
        # TimingCore spells the schema out by hand (mypyc needs typed
        # attributes); its slots, widths and fills must match it.
        names = [name for name, _, _ in TIMING_FIELDS]
        assert TimingCore.__slots__ == ("num_ranks", "num_banks", *names)
        core = TimingCore(2, 8)
        for name, fill, extent in TIMING_FIELDS:
            width = 16 if extent == "bank" else 2
            values = getattr(core, name)
            assert values == [fill] * width, name
            assert {type(v) for v in values} == {type(fill)}, name

    def test_lane_views_alias_slab_rows(self):
        slab = BatchTimingCore(2, 2, 8, backend="list")
        lane0 = slab.lane(0)
        lane1 = slab.lane(1)
        for name, rows in slab.columns.items():
            assert getattr(lane1, name) is rows[1], name
        lane0.open_row[3] = 77
        assert slab.columns["open_row"][0][3] == 77
        assert lane1.open_row[3] == -1  # other lanes unaffected

    def test_geometry_and_lane_validation(self):
        with pytest.raises(ValueError, match="at least one lane"):
            BatchTimingCore(0, 2, 8)
        slab = BatchTimingCore(1, 2, 8, backend="list")
        with pytest.raises(IndexError, match="out of range"):
            slab.lane(1)
        with pytest.raises(ValueError, match="unknown backend"):
            BatchTimingCore(1, 2, 8, backend="cuda")

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "list")
        assert default_backend() == "list"
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "weird")
        with pytest.raises(ValueError, match="REPRO_BATCH_BACKEND"):
            default_backend()
        monkeypatch.delenv("REPRO_BATCH_BACKEND")
        assert default_backend() in BACKENDS


# ----------------------------------------------------------------------
#: Randomized lane mixes for the serial-oracle property test:
#: schemes and workloads sampled with repetition, so duplicate specs
#: exercise multi-lane fingerprint groups sharing one snapshot.
_SCHEME_NAMES = ["Baseline", "PRA", "SDS", "DBI+PRA"]
_WORKLOADS = ["GUPS", "MIX1"]

lane_choices = st.lists(
    st.tuples(
        st.sampled_from(_SCHEME_NAMES),
        st.sampled_from(_WORKLOADS),
    ),
    min_size=1,
    max_size=5,
)


# ----------------------------------------------------------------------
class TestAutoBatch:
    """``batch="auto"``: grid-sized lane count, memory permitting."""

    def test_auto_matches_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        assert _small_sweep().run(batch="auto") == serial

    def test_lane_count_capped_by_available_memory(self, monkeypatch):
        base = SystemConfig(cache=CacheConfig(llc_bytes=8 * 1024 * 1024))
        # 64 MB available, 8 MB LLC -> 4 MB/lane envelope, half of
        # available budgeted: 32 MB / 4 MB = 8 lanes.
        monkeypatch.setattr(
            sweep_mod, "_available_memory_bytes", lambda: 64 << 20
        )
        assert auto_batch_lanes(24, base) == 8
        # Tiny machines still get one lane rather than zero.
        monkeypatch.setattr(
            sweep_mod, "_available_memory_bytes", lambda: 1 << 20
        )
        assert auto_batch_lanes(24, base) == 1

    def test_unknown_memory_uses_grid_size(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_available_memory_bytes", lambda: None)
        assert auto_batch_lanes(24, SystemConfig()) == 24
        assert auto_batch_lanes(3, SystemConfig()) == 3
        with pytest.raises(ValueError, match="at least one grid point"):
            auto_batch_lanes(0, SystemConfig())

    def test_small_llc_floors_at_minimum_envelope(self, monkeypatch):
        # A 128 KB LLC must not let the estimate claim thousands of
        # lanes fit: the 4 MB floor covers queues/cores/controllers.
        monkeypatch.setattr(
            sweep_mod, "_available_memory_bytes", lambda: 256 << 20
        )
        assert auto_batch_lanes(1000, SystemConfig(cache=SMALL_CACHE)) == 32

    def test_bad_batch_string_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            _small_sweep().run(batch="turbo")

    def test_cli_parses_auto_and_rejects_junk(self, capsys):
        common = ["sweep", "--out", "grid.csv", "--batch"]
        args = cli.build_parser().parse_args(common + ["auto"])
        assert args.batch == "auto"
        args = cli.build_parser().parse_args(common + ["6"])
        assert args.batch == 6
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(common + ["fast"])
        assert "--batch" in capsys.readouterr().err

    def test_cli_auto_sweep_matches_plain(self, tmp_path):
        plain, auto = tmp_path / "plain.csv", tmp_path / "auto.csv"
        common = [
            "sweep", "--schemes", "Baseline", "PRA", "--workloads", "GUPS",
            "--events", "300",
        ]
        assert cli.main(common + ["--out", str(plain)]) == 0
        assert cli.main(common + ["--batch", "auto", "--out", str(auto)]) == 0
        assert auto.read_text() == plain.read_text()


# ----------------------------------------------------------------------
class TestWorkerBudgetGuard:
    def test_sweep_pool_over_cpu_budget_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["sweep", "--pool", "3", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--pool 3 exceeds the 2 available CPU" in err

    def test_sweep_workers_flag_is_an_argparse_error(self, tmp_path, capsys):
        # ``--pool N`` is the only way to fan a sweep out over processes.
        out = str(tmp_path / "grid.csv")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--workers", "2", "--out", out])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_bench_pool_over_cpu_budget_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        rc = cli.main(["bench", "--suite", "quick", "--pool", "16"])
        assert rc == 2
        assert "--pool 16 exceeds the 2 available CPU" in capsys.readouterr().err

    def test_bench_default_pool_respects_cpu_budget(self, monkeypatch):
        # The default (no explicit --pool) must resolve to a legal
        # worker count instead of tripping the guard on small machines.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        args = cli.build_parser().parse_args(["bench", "--suite", "quick"])
        assert args.pool is None  # resolved inside cmd_bench, not argparse

    def test_within_budget_passes(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        cli._check_worker_budget("--pool", 4)  # no raise

    def test_invalid_batch_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["sweep", "--batch", "0", "--out", out])
        assert rc == 2
        assert "--batch" in capsys.readouterr().err

    def test_cli_batched_sweep_matches_plain(self, tmp_path):
        plain, batched = tmp_path / "plain.csv", tmp_path / "batched.csv"
        common = [
            "sweep", "--schemes", "Baseline", "PRA", "--workloads", "GUPS",
            "--events", "300",
        ]
        assert cli.main(common + ["--out", str(plain)]) == 0
        assert cli.main(common + ["--batch", "2", "--out", str(batched)]) == 0
        assert batched.read_text() == plain.read_text()


# ----------------------------------------------------------------------
# Property test: randomized lane counts and configurations, every lane
# bit-identical to its serial run.  DBI+PRA lanes are always in the mix
# (distinct warm fingerprint → snapshot-restored and cold lanes coexist
# in one batch), and duplicate specs exercise multi-lane fingerprint
# groups sharing one snapshot copy-on-write.
@given(lanes=lane_choices, events=st.integers(min_value=50, max_value=250))
@settings(max_examples=5, deadline=None)
def test_randomized_batches_match_serial(lanes, events):
    base = SystemConfig(cache=CacheConfig(llc_bytes=64 * 1024))
    # Always include a DBI+PRA lane so DBI state (separate fingerprint,
    # tuple-COW restore path) is exercised in every example.
    lanes = lanes + [("DBI+PRA", "MIX1")]
    specs = [(base.with_scheme(by_name(s)), wl) for s, wl in lanes]
    warmup = 600
    SNAPSHOTS.clear()
    serial = []
    for config, wl in specs:
        system = System(
            config, lookup_workload(wl), events, warmup_events_per_core=warmup
        )
        serial.append(system.run().to_dict())
    SNAPSHOTS.clear()
    results = simulate_batch(specs, events, warmup_events_per_core=warmup)
    assert [r.to_dict() for r in results] == serial


def test_lane_order_does_not_change_lane_results():
    # Lanes run back to back, so a lane that finishes first must leave
    # nothing behind for the next: reversing the batch (which also
    # swaps which lane of each fingerprint group warms cold and which
    # restore copy-on-write) keeps every lane's result.
    specs = _specs(workloads=("MIX1",))
    specs = specs + [specs[1], specs[3]]  # duplicate PRA and DBI+PRA lanes
    assert [config.scheme.name for config, _ in specs].count("DBI+PRA") == 2
    SNAPSHOTS.clear()
    forward = simulate_batch(specs, EVENTS, warmup_events_per_core=WARMUP)
    SNAPSHOTS.clear()
    backward = simulate_batch(specs[::-1], EVENTS, warmup_events_per_core=WARMUP)
    assert [r.to_dict() for r in backward[::-1]] == [r.to_dict() for r in forward]
