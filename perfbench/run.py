#!/usr/bin/env python3
"""Layered benchmark of the PRA simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-scatter --seed 1 --seconds 10 --trace 0

Workloads: ``run-scatter``, ``run-stream``, ``sweep-screen``, ``service``
(see ``perfbench/README.md`` for why each exists).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs a fixed traced plan and
prints the per-layer metrics.  Every simulated result is checked
against the references of its seed: the committed digests in
``perfbench/digests.json`` for the pinned seeds, and for every seed the
serial oracle run in a child process.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--pin`` regenerates ``digests.json`` from the serial paths.

The simulated statistics are pinned, not graded: the model is not
validated against hardware, and no accuracy figure is reported.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

WORKLOADS = ("run-scatter", "run-stream", "sweep-screen", "service")
#: Environment switches that would let one run warm or reshape the
#: next (disk snapshots, a shared pool, a forced batch backend) or
#: change what is timed (the sanitizer).  Each run ignores them.
ISOLATED_ENV = ("REPRO_SNAPSHOT_DIR", "REPRO_POOL", "REPRO_BATCH_BACKEND",
                "REPRO_SANITIZE")
#: Fresh-interpreter set-up probes per run-*/sweep-screen run.
SETUP_PROBES = 9


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="regenerate perfbench/digests.json and exit")
    parser.add_argument("--probe-setup", metavar="DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env(tmp: Optional[str]) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = SRC
    if tmp is not None:
        env["TMPDIR"] = tmp
    return env


def run_child(args: List[str], tmp: str) -> Dict[str, Any]:
    """Run this script in a fresh interpreter; parse its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        env=child_env(tmp), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
def provenance() -> Dict[str, Any]:
    """Engine, interpreter, batch backend, and the source revision."""
    from repro.dram.soa_batch import default_backend
    from repro.engine import engine_env

    record: Dict[str, Any] = dict(engine_env())
    record["batch_backend"] = default_backend()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    record["src_digest"] = digest.hexdigest()[:16]
    record["git_sha"] = None
    record["git_diff_digest"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        def git(*cmd: str) -> str:
            return subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                                  text=True, timeout=30).stdout
        record["git_sha"] = git("rev-parse", "HEAD").strip() or None
        diff = git("diff", "HEAD", "--", "src")
        if diff:
            record["git_diff_digest"] = hashlib.sha256(diff.encode()).hexdigest()[:16]
    return record


def benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
def references(workload: str, seed: int, tmp: str, gate: Any) -> Dict[str, Any]:
    """The oracle's records for this seed, checked against the pins."""
    from common import grid_name, load_pinned

    grid = grid_name(workload)
    refs = run_child(["--reference", "--workload", workload, "--seed", str(seed)], tmp)
    pinned = load_pinned(grid, seed)
    if pinned is not None:
        for key, record in pinned.items():
            ours = refs.get(key)
            gate.op(ours is not None and ours["digest"] == record["digest"]
                    and ours["requests"] == record["requests"],
                    f"oracle {key} differs from the pinned digest")
    return refs


def measure_setup(workload: str, seed: int, tmp: str) -> float:
    from common import median

    samples = []
    for probe in range(SETUP_PROBES):
        snapdir = os.path.join(tmp, f"setup-{probe}")
        os.makedirs(snapdir)
        out = run_child(["--probe-setup", snapdir, "--workload", workload,
                         "--seed", str(seed)], tmp)
        samples.append(out["setup_s"])
    return median(samples)


def layer_metrics(tracer: Any, counters: List[Dict[str, int]],
                  extra: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from the tracer's totals and result counters."""

    def total(key: str) -> int:
        return sum(c[key] for c in counters)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_ms(name: str) -> float:
        return 1e3 * ratio(tracer.total_s(name), tracer.calls(name))

    power = tracer.prefixed("power.")
    scheduler = extra.get("scheduler", {})
    triage = extra.get("triage", {})
    return {
        "controller.self_s": tracer.self_s("controller.run_until",
                                           "controller.submit"),
        "controller.passes_per_request": ratio(total("passes"), total("served")),
        "controller.commands_per_pass": ratio(total("decisions"), total("passes")),
        "controller.streaks": total("streaks"),
        "controller.streak_cmd_frac": ratio(total("streak_commands"),
                                            total("served")),
        "controller.false_hits": total("false_hits"),
        "controller.drain_entries": total("drain_entries"),
        "controller.row_hit_rate": ratio(total("row_hits"), total("served")),
        "dram.act": total("act"),
        "dram.pre": total("pre"),
        "dram.partial_act_frac": ratio(total("partial_act"), total("act")),
        "power.calls": tracer.calls(*power),
        "power.self_s": tracer.self_s(*power),
        "sim.system.loop_self_s": tracer.self_s("sim.system.run", "sim.batch.run",
                                                "sim.batch.advance"),
        "cpu.advance_calls": tracer.calls("cpu.advance"),
        "cpu.advance_s": tracer.self_s("cpu.advance"),
        "cache.access_calls": tracer.calls("cache.access"),
        "cache.access_s": tracer.self_s("cache.access"),
        "cache.warm_s": tracer.self_s("cache.warm"),
        "cache.llc_miss_rate": ratio(total("llc_misses"), total("llc_accesses")),
        "cache.writebacks": total("writebacks"),
        "workloads.compile_s": tracer.total_s("workloads.compile"),
        "sim.snapshot.hits": tracer.snapshot_hits,
        "sim.snapshot.misses": tracer.snapshot_misses,
        "sim.snapshot.restore_s": tracer.total_s("sim.snapshot.restore"),
        "sim.snapshot.capture_s": tracer.total_s("sim.snapshot.capture"),
        "sim.batch.lanes": tracer.batch_lanes,
        "sim.batch.run_s": tracer.total_s("sim.batch.run"),
        "sim.pool.tasks": tracer.items("sim.pool.stream"),
        "sim.pool.roundtrip_ms": 1e3 * ratio(tracer.total_s("sim.pool.stream"),
                                             tracer.items("sim.pool.stream")),
        "sim.pool.worker_restarts": scheduler.get("worker_restarts", 0),
        "service.triage_cached": triage.get("cached", 0),
        "service.triage_coalesced": triage.get("coalesced", 0),
        "service.computed": scheduler.get("computed", 0),
        "service.journal_append_ms": mean_ms("service.journal.append"),
        "service.store_get_ms": mean_ms("service.store.get"),
        "service.store_put_ms": mean_ms("service.store.put"),
        "trace.overhead_ratio": extra["trace_overhead"],
        "trace.spans": len(tracer.span_name) + tracer.dropped,
    }


def self_time_split(tracer: Any) -> List[Tuple[str, float]]:
    """Self time per layer, as shares of all traced self time.

    ``SimPool.stream`` is left out: its self time is the service
    waiting for its workers, whose own layers are counted from their
    totals.
    """
    layers = {
        "controller": tracer.prefixed("controller."),
        "sim event loop": ["sim.system.run", "sim.batch.run", "sim.batch.advance"],
        "cache": tracer.prefixed("cache."),
        "cpu": tracer.prefixed("cpu."),
        "power": tracer.prefixed("power."),
        "workloads": tracer.prefixed("workloads."),
        "snapshot": tracer.prefixed("sim.snapshot."),
        "service store and journal": tracer.prefixed("service."),
    }
    seconds = {layer: tracer.self_s(*names) for layer, names in layers.items()}
    everything = tracer.self_s(*[n for n in tracer.names if n != "sim.pool.stream"])
    seconds["other (build, sweep, finalize)"] = everything - sum(seconds.values())
    return [(layer, s / everything if everything else 0.0)
            for layer, s in seconds.items()]


# ----------------------------------------------------------------------
def run_benchmark(args: argparse.Namespace) -> int:
    from common import Gate

    spec = benchmark_spec()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        gate = Gate()
        setup_s = None
        if not args.trace and args.workload != "service":
            setup_s = measure_setup(args.workload, args.seed, tmp)
        refs = references(args.workload, args.seed, tmp, gate)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        if args.workload == "service":
            import service_load

            if tracer is None:
                out = service_load.run_service(args.seed, args.seconds, refs, tmp,
                                               child_env(tmp), gate)
            else:
                out = service_load.run_service_traced(args.seed, refs, tmp, gate,
                                                      tracer)
        else:
            from workloads import run_loop_workload

            snapdir = os.path.join(tmp, "snapshots")
            out = run_loop_workload(args.workload, args.seed, args.seconds, refs,
                                    snapdir, gate, tracer)
            if tracer is None:
                out["metrics"]["setup_s"] = setup_s
                out["metrics"]["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is None:
            metrics = out["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            from tracing import result_counters

            counters = [result_counters(r) for r in tracer.results]
            counters += out.get("worker_counters", [])
            extra = {"trace_overhead": out["trace_overhead"],
                     "scheduler": out.get("scheduler", {}),
                     "triage": out["counters"] if args.workload == "service" else {}}
            metrics = layer_metrics(tracer, counters, extra)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
            tracer.write_spans(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        if set(metrics) != set(wanted):
            raise RuntimeError(
                f"metric set drifted from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(),
            "correct": gate.correct,
            "ops": gate.ops,
            "failed_ops": gate.failed,
            "errors": gate.errors,
            "coverage": gate.coverage,
            "samples": out.get("samples", {}),
            "counters": dict(out.get("counters", {})),
            "metrics": metrics,
        }
        if tracer is not None:
            record["self_time_split"] = self_time_split(tracer)
            record["unwrapped"] = tracer.unwrapped
            record["traced_points"] = out.get("traced_points")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
        report(record, wanted)
        print(json.dumps({
            "correct": gate.correct,
            "attempted": gate.ops,
            "failed": gate.failed,
            "metrics": {k: {"value": float(v), "unit": wanted[k]}
                        for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(record: Dict[str, Any], units: Dict[str, str]) -> None:
    """Human-readable summary (every line before the JSON result)."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}  (simulated statistics are pinned, not "
          f"graded: the model is unvalidated against hardware)")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"ops={record['ops']} failed_ops={record['failed_ops']} "
          f"correct={record['correct']} samples={record['samples']}")
    for name, ok in record["coverage"].items():
        print(f"  path {'ok  ' if ok else 'FAIL'} {name}")
    for error in record["errors"]:
        print(f"  error: {error}")
    for name, value in record["metrics"].items():
        print(f"  {name:<32}{value:>16.6g} {units[name]}")
    for layer, share in record.get("self_time_split", []):
        print(f"  self time {layer:<32}{100 * share:6.1f}%")
    if record.get("unwrapped"):
        print("  not wrapped (compiled classes; counters only): "
              + ", ".join(record["unwrapped"]))


# ----------------------------------------------------------------------
def pin() -> int:
    """Regenerate digests.json for the pinned seeds from serial paths."""
    from common import PINNED_FORMAT, PINNED_PATH, PINNED_SEEDS
    from workloads import reference, sweep_reference

    grids: Dict[str, Dict[str, Any]] = {}
    for grid in ("run-MIX2", "run-libquantum", "screen"):
        grids[grid] = {}
        for seed in PINNED_SEEDS:
            fast = reference(grid, seed, fast=True)
            oracle = reference(grid, seed)
            if fast != oracle:
                raise RuntimeError(f"{grid} seed {seed}: serial path != oracle")
            if grid == "screen":
                rows = sweep_reference(seed)
                if {k: v["digest"] for k, v in fast.items()} != rows:
                    raise RuntimeError(f"seed {seed}: Sweep.run() rows != serial")
            grids[grid][str(seed)] = fast
    with open(PINNED_PATH, "w") as handle:
        json.dump({"format": PINNED_FORMAT, "grids": grids}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINNED_PATH}")
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    for key in ISOLATED_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, SRC)
    if args.pin:
        return pin()
    if args.probe_setup:
        from workloads import probe_setup

        probe_setup(args.workload, args.seed, args.probe_setup)
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0
    if args.reference:
        from common import grid_name
        from workloads import reference

        print(json.dumps(reference(grid_name(args.workload), args.seed)))
        return 0
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
