"""The repro benchmark: one command, three workloads, a gate and a layer trace.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload spmv-r150 --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every run writes its raw samples (and,
traced, its spans) to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  See
perfbench/README.md for the exit codes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import (
    GcMonitor,
    PassFailed,
    Tracer,
    cpu_times,
    in_fork,
    peak_rss_mb,
    reference_loop_s,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("spmv-r150", "spmv-r150-sharded", "calibrate")
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: Timed passes (untraced) and trace rounds run at least this often.
MIN_PASSES = 3
MIN_TRACE_ROUNDS = 2
#: Pass throughputs are scaled to a host on which the reference loop
#: (spans.reference_loop_s) takes this long: about its median on the
#: 2-vCPU x86_64 VM the bounds were set on, so scaled and raw figures are
#: close there.
REFERENCE_NOMINAL_S = 0.07
#: Settings that would change which code path the library takes.
IGNORED_ENV = ("REPRO_BACKEND", "REPRO_FAULTS")

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_mape_pct": "%",
}

PER_LAYER = {
    "specs.expand_s": "s",
    "session.cache_key_s": "s",
    "session.unattributed_s": "s",
    "batch.rounds": "count",
    "batch.round_s": "s",
    "batch.cells": "count",
    "lower.busy_s": "s",
    "lower.cells": "count",
    "lower.fallback_cells": "count",
    "lower.fallback_frac": "ratio",
    "noise.busy_s": "s",
    "noise.draws": "count",
    "evaluate.busy_s": "s",
    "evaluate.self_s": "s",
    "assemble.busy_s": "s",
    "envelope.create_s": "s",
    "envelope.to_json_s": "s",
    "envelope.json_bytes_per_cell": "bytes",
    "ipc.bytes_per_cell": "bytes",
    "ipc.pickle_s": "s",
    "ipc.unpickle_s": "s",
    "cpu.parent_s": "s",
    "cpu.parent_wait_s": "s",
    "cpu.total_s": "s",
    "cpu.cores_busy": "ratio",
    "store.write_s": "s",
    "manifest.checkpoint_s": "s",
    "store.load_s": "s",
    "store.bytes": "bytes",
    "store.files": "count",
    "frame.build_s": "s",
    "frame.query_s": "s",
    "soc.derive_s": "s",
    "soc.templates_built": "count",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "trace.overhead_s": "s",
}

#: Per-layer counters that must repeat exactly between runs of one seed.
EXACT = (
    "batch.rounds",
    "batch.cells",
    "lower.cells",
    "lower.fallback_cells",
    "noise.draws",
    "envelope.json_bytes_per_cell",
    "ipc.bytes_per_cell",
    "store.bytes",
    "store.files",
    "soc.templates_built",
    "gc.collections",
)


class BenchmarkBroken(RuntimeError):
    """The benchmark itself misbehaved; no timing may be reported."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    resolved = str(path.resolve())
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            inside = resolved == point or resolved.startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, fstype = point, fields[2]
    return fstype


def environment(workers: int, scratch: Path) -> dict:
    import numpy

    import repro

    return {
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "machine": platform.machine(),
        "store_filesystem": filesystem_of(scratch),
    }


def measure_setup(name: str, workers: int, scratch: Path) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes (imports + warm-up)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", name,
             "--t0", repr(t0), "--workers", str(workers), "--scratch", str(scratch)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise BenchmarkBroken(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_pass(workload, *, full: bool = False) -> dict:
    """One pass (run inside a fork): timed execution, then its check."""
    from repro.sim.machine import machine_template

    before = reference_loop_s()
    gc.collect()  # the loop's allocations must not shift the pass's collections
    marks: list[float] = []
    templates = machine_template.cache_info().misses
    collections = sum(stat["collections"] for stat in gc.get_stats())
    with GcMonitor() as monitor:
        cpu_before = cpu_times()
        start = time.perf_counter()
        output = workload.execute(lambda: marks.append(time.perf_counter()))
        wall = time.perf_counter() - start
        cpu_after = cpu_times()
    edges = [start] + marks
    record = {
        "wall_s": wall,
        "parent_cpu_s": cpu_after[0] - cpu_before[0],
        "children_cpu_s": cpu_after[1] - cpu_before[1],
        "peak_rss_mb": peak_rss_mb(),
        "rounds_s": [b - a for a, b in zip(edges, edges[1:])],
        "templates_built": machine_template.cache_info().misses - templates,
        "gc_collections": sum(stat["collections"] for stat in gc.get_stats()) - collections,
        "gc_pause_s": monitor.pause_s,
        "reference_s": (before + reference_loop_s()) / 2,
    }
    record.update(workload.check(output, full))
    return record


def reference_pass(workload, untraced: dict) -> dict:
    """The untraced path the replay is of (run inside a fork)."""
    from phases import digest_texts

    start = time.perf_counter()
    envelopes = workload.execute_reference(untraced)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "digest": digest_texts(e.to_json() for e in envelopes)}


def replay_pass(workload, untraced: dict) -> dict:
    """A traced stage-by-stage replay of the pass (run inside a fork).

    ``off_path_s`` sums the replay's top-level stages that the untraced
    path does not run: the re-drawn noise, JSON encoding and the probes.
    """
    from phases import digest_texts

    tracer = Tracer(workload.name)
    with tracer.span("replay") as root:
        texts, counts = workload.replay(tracer, untraced)
    counts["envelope.cells"] = len(texts)
    counts["envelope.json_bytes"] = sum(len(text.encode()) for text in texts)
    counts["digest"] = digest_texts(texts)
    stages = [span for span in tracer.spans if span["parent"] == root["id"]]
    return {
        "wall_s": root["end"] - root["start"],
        "path_s": sum(
            s["end"] - s["start"] for s in stages if s["name"] in workload.real_path
        ),
        "off_path_s": sum(
            s["end"] - s["start"] for s in stages if s["name"] not in workload.real_path
        ),
        "counts": counts,
        "busy": {name: tracer.busy(name) for name in {s["name"] for s in tracer.spans}},
        "spans": tracer.spans,
    }


def counted_fork(fn) -> bytes | None:
    """``in_fork(fn)``, or ``None`` when the forked pass raised."""
    try:
        return in_fork(fn)
    except PassFailed as exc:
        print(f"error: a forked pass raised:\n{exc}", file=sys.stderr)
        return None


def decode(forks: list) -> list:
    return [json.loads(data) if data is not None else None for data in forks]


def timed_run(workload, seconds: float) -> list[dict | None]:
    """Untraced passes, each in a fresh fork, for ``seconds`` (>= MIN_PASSES).

    A pass that raised is ``None``.
    """
    passes: list[bytes | None] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(counted_fork(lambda: run_pass(workload)))
    return decode(passes)


def host_scaled_s(sample: dict) -> float:
    """A sample's wall time on a host whose reference loop takes
    REFERENCE_NOMINAL_S: the host's speed when the sample ran divides out."""
    return sample["wall_s"] * REFERENCE_NOMINAL_S / sample["reference_s"]


def end_to_end(passes: list[dict], setup: list[float], gate: dict) -> dict:
    metrics = {
        "setup_s": statistics.median(setup),
        "cells_per_s": statistics.median(p["delivered"] / host_scaled_s(p) for p in passes),
        "reps_per_s": statistics.median(p["ops"] / host_scaled_s(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    if "paper_mape_pct" in gate:  # absent when that gate check raised
        metrics["paper_mape_pct"] = gate["paper_mape_pct"]
    return metrics


def traced_run(workload, seconds: float) -> list[dict]:
    """Trace rounds: an untraced pass, a reference pass where the replay is
    of another path, and a replay.  A fork that raised is ``None``.

    Every round runs the same inputs, so every round does identical work.
    """
    rounds: list[dict[str, bytes | None]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        rnd = {"untraced": counted_fork(lambda: run_pass(workload, full=True))}
        if rnd["untraced"] is not None:
            if workload.reference_path:
                rnd["reference"] = counted_fork(
                    lambda: reference_pass(workload, json.loads(rnd["untraced"]))
                )
            rnd["replay"] = counted_fork(
                lambda: replay_pass(workload, json.loads(rnd["untraced"]))
            )
        rounds.append(rnd)
    return [dict(zip(rnd, decode(list(rnd.values())))) for rnd in rounds]


def layer_metrics(rnd: dict) -> dict:
    """Per-layer metrics of one trace round."""
    untraced, replay = rnd["untraced"], rnd["replay"]
    reference = rnd.get("reference", untraced)

    def busy(name: str) -> float:
        return replay["busy"].get(name, 0.0)

    counts = replay["counts"]
    cells = counts["envelope.cells"]
    total_cpu = untraced["parent_cpu_s"] + untraced["children_cpu_s"]
    return {
        "specs.expand_s": busy("specs.expand"),
        "session.cache_key_s": busy("session.cache_key"),
        "session.unattributed_s": reference["wall_s"] - replay["path_s"],
        "batch.rounds": len(untraced["rounds_s"]),
        "batch.round_s": statistics.median(untraced["rounds_s"]),
        "batch.cells": untraced["batch_cells"],
        "lower.busy_s": busy("lower"),
        "lower.cells": counts["lower.cells"],
        "lower.fallback_cells": counts["lower.fallback_cells"],
        "lower.fallback_frac": counts["lower.fallback_cells"] / cells,
        "noise.busy_s": busy("noise"),
        "noise.draws": counts["noise.draws"],
        "evaluate.busy_s": busy("evaluate"),
        "evaluate.self_s": busy("evaluate") - busy("noise") - busy("assemble"),
        "assemble.busy_s": busy("assemble"),
        "envelope.create_s": busy("envelope.create"),
        "envelope.to_json_s": busy("envelope.to_json"),
        "envelope.json_bytes_per_cell": counts["envelope.json_bytes"] / cells,
        "ipc.bytes_per_cell": counts["ipc.bytes"] / counts["ipc.cells"],
        "ipc.pickle_s": busy("ipc.pickle"),
        "ipc.unpickle_s": busy("ipc.unpickle"),
        "cpu.parent_s": untraced["parent_cpu_s"],
        "cpu.parent_wait_s": untraced["wall_s"] - untraced["parent_cpu_s"],
        "cpu.total_s": total_cpu,
        "cpu.cores_busy": total_cpu / untraced["wall_s"],
        "store.write_s": busy("store.write"),
        "manifest.checkpoint_s": busy("manifest.checkpoint"),
        "store.load_s": busy("store.load"),
        "store.bytes": counts["store.bytes"],
        "store.files": counts["store.files"],
        "frame.build_s": busy("frame.build"),
        "frame.query_s": busy("frame.query"),
        "soc.derive_s": busy("soc.derive"),
        "soc.templates_built": untraced["templates_built"],
        "gc.pause_s": untraced["gc_pause_s"],
        "gc.collections": untraced["gc_collections"],
        "trace.overhead_s": replay["wall_s"] - replay["off_path_s"] - reference["wall_s"],
    }


def per_layer(rounds: list[dict]) -> dict:
    """Medians over trace rounds; exact counters must agree across rounds."""
    per_round = [layer_metrics(rnd) for rnd in rounds]
    for name in EXACT:
        values = {m[name] for m in per_round}
        if len(values) != 1:
            raise BenchmarkBroken(
                f"exact counter {name} differs between runs of one seed: {sorted(values)}"
            )
    return {
        name: statistics.median(m[name] for m in per_round) for name in PER_LAYER
    }


def report(args, env: dict, gate: dict, metrics: dict, units: dict, samples: dict) -> None:
    """Human-readable summary (the JSON result line follows it)."""
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    checks = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in gate["checks"].items())
    print(f"gate: {checks}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]:<6} {samples.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in IGNORED_ENV:
        os.environ.pop(name, None)

    import gate as correctness
    import phases

    workers = len(os.sched_getaffinity(0))
    scratch = OUT / f"scratch-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    phase_s: dict[str, float] = {}
    clock = time.perf_counter()

    def phase_done(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phase_s[name] = now - clock
        clock = now

    try:
        setup = [] if args.trace else measure_setup(args.workload, workers, scratch)
        phase_done("setup_probes")
        workload = phases.WORKLOADS[args.workload](args.seed, scratch, workers)
        workload.warm_up()
        phase_done("warm_up")
        units = workload.pass_units()
        try:
            gate = json.loads(in_fork(lambda: correctness.run_gate(workload)))
        except PassFailed as exc:
            print(f"error: the correctness gate raised:\n{exc}", file=sys.stderr)
            print(json.dumps(
                {"correct": False, "attempted": units, "failed": units, "metrics": {}}
            ))
            return 1
        phase_done("gate")
        workload.reference = gate.pop("reference")
        attempted, failed = gate["attempted"], gate["failed"]
        env = environment(workers, scratch)
        if args.trace:
            rounds = traced_run(workload, args.seconds)
            good = [rnd for rnd in rounds if None not in rnd.values()]
            crashed = sum(data is None for rnd in rounds for data in rnd.values())
            for rnd in good:
                untraced, counts = rnd["untraced"], rnd["replay"]["counts"]
                attempted += untraced["attempted"] + counts["study.cells"]
                failed += untraced["failed"] + counts["study.failed"]
                digests = {untraced["digest"], counts["digest"]}
                digests.add(rnd.get("reference", untraced)["digest"])
                if len(digests) != 1:  # the replay measured another program
                    failed += untraced["attempted"]
            metrics, unit_of = (per_layer(good) if good else {}), PER_LAYER
            samples = {name: f"median of {len(good)} trace rounds" for name in PER_LAYER}
            record = {"rounds": rounds}
        else:
            passes = timed_run(workload, args.seconds)
            good = [p for p in passes if p is not None]
            crashed = len(passes) - len(good)
            attempted += sum(p["attempted"] for p in good)
            failed += sum(p["failed"] for p in good)
            if len({p["digest"] for p in good}) > 1:  # same inputs, other bytes
                failed += sum(p["attempted"] for p in good)
            metrics, unit_of = (end_to_end(good, setup, gate) if good else {}), END_TO_END
            per_pass = f"median of {len(good)} passes"
            samples = {
                "setup_s": f"median of {len(setup)} fresh processes",
                "peak_rss_mb": per_pass,
                "paper_mape_pct": f"mean of {gate.get('paper_replicas')} paper studies",
            }
            if good:
                for name, key in (("cells_per_s", "delivered"), ("reps_per_s", "ops")):
                    raw = statistics.median(p[key] / p["wall_s"] for p in good)
                    samples[name] = (
                        f"{per_pass} ({good[0][key]} {key} each), host-scaled; "
                        f"raw {raw:.6g}/s"
                    )
            record = {"setup_s": setup, "passes": passes}
        # a fork that raised fails every cell (or fit) of its pass
        attempted += crashed * units
        failed += crashed * units
        phase_done("timed")
        record.update(environment=env, gate=gate, metrics=metrics, phase_s=phase_s)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1)
        )
    except BenchmarkBroken as exc:
        print(f"error: benchmark broken: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report(args, env, gate, metrics, unit_of, samples)
    result = {
        "correct": all(gate["checks"].values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    # exit 1: every pass raised, so nothing was measured
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
