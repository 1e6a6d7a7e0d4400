#!/usr/bin/env python3
"""Perf ledger for ebs-skew: one benchmark, two workloads.

Builds the ledger (perfbench/ledger.cc against the repo's src/) into
.bench_build/, runs one workload in its own process, checks every run's
fingerprints against perfbench/pins.json and prints the metrics as one JSON
object on the last line of stdout.

  python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest   # tiny sizes: metric names/units, wrong-pin check
  python3 perfbench/run.py --pin        # re-baseline pins.json (declare it in CHANGES.md)

Metric names, units and the layer -> end-to-end table are in perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"
WORKLOADS = ("closed_loop", "paper_batch")
STREAMING = ("closed_loop",)
LEDGER_TIMEOUT_S = 170

# name -> unit. BENCHMARK.json lists the same names; --selftest checks that.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "trace.rollup_step_ms": "ms",
    "trace.rollup_share": "ratio",
    "trace.rollup_s": "s",
    "cache.sink_event_ns": "ns",
    "cache.sink_hit_ratio": "ratio",
    "cache.replay_fifo_ns_per_access": "ns",
    "cache.replay_lru_ns_per_access": "ns",
    "cache.replay_2q_ns_per_access": "ns",
    "cache.hit_ratio_fifo": "ratio",
    "cache.hit_ratio_lru": "ratio",
    "cache.hit_ratio_2q": "ratio",
    "control.sink_step_ms": "ms",
    "control.decisions": "count",
    "qmodel.sink_event_ns": "ns",
    "qmodel.run_over_traces_s": "s",
    "throttle.lending_step_ms": "ms",
    "hypervisor.wt_cov_step_ms": "ms",
    "throttle.lending_ms": "ms",
    "analysis.skew_s": "s",
    "workload.generate_s": "s",
    "workload.generate_1w_s": "s",
    "fault.apply_ns": "ns",
    "replay.engine_self_s": "s",
    "replay.collector_event_ns": "ns",
    "replay.events": "count",
    "trace.store_encode_s": "s",
    "trace.store_decode_s": "s",
    "trace.store_bytes_per_record": "B",
    "topology.build_fleet_ms": "ms",
    "core.tracing_overhead": "ratio",
}


class BenchError(Exception):
    """A failure that must end the benchmark without a result line."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the ledger; returns the binary's path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "--target", "ledger", "-j", jobs])
    return out / "ledger"


def run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


# ---------------------------------------------------------------------------
# Ledger runs.
# ---------------------------------------------------------------------------

def run_ledger(binary, args):
    """Runs the ledger to completion and returns its JSON lines."""
    cmd = [str(binary)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=LEDGER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"ledger timed out after {LEDGER_TIMEOUT_S}s: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"ledger exited {proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


def workload_seed(pins, workload, seed):
    """--seed picks one of the workload's pinned input variants."""
    seeds = pins["seeds"][workload]
    return seeds[seed % len(seeds)]


def workers():
    """Generation workers: the merge thread takes one core, at most 3 shards."""
    return max(1, min(3, (os.cpu_count() or 1) - 1))


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def pin_mismatches(fp, expected):
    """Names of pinned fingerprints the run did not reproduce."""
    if expected is None:
        return ["<no pin for this input>"]
    return sorted(k for k in set(expected) | set(fp) if fp.get(k) != expected.get(k))


def measure(binary, workload, seed, seconds, trace, tiny=False, pins=None):
    """Runs one workload in its own process; returns (manifest, result)."""
    pins = pins or load_pins()
    wseed = workload_seed(pins, workload, seed)
    size = "tiny" if tiny else "full"
    expected = pins["pins"][workload][size].get(str(wseed))
    args = ["--workload", workload, "--workload-seed", str(wseed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--workers", str(workers())]
    if tiny:
        args.append("--tiny")
    lines = run_ledger(binary, args)
    by_kind = {}
    for line in lines:
        by_kind.setdefault(line["kind"], []).append(line)
    if "setup" not in by_kind or "process" not in by_kind:
        raise BenchError("ledger output is incomplete")
    setup = by_kind["setup"][0]
    runs = by_kind.get("run", [])
    traced = by_kind.get("traced", [])

    attempted = len(runs) + len(traced)
    failed = 0
    for line in runs + traced:
        if not line["ok"]:
            log(f"{line['kind']} failed: {line['error']}")
            failed += 1
        elif pin_mismatches(line["fp"], expected):
            log(f"{line['kind']} differs from pins.json in "
                f"{', '.join(pin_mismatches(line['fp'], expected))}")
            failed += 1
    done = [r for r in runs if r["ok"]]
    for u, t in zip(runs, traced):
        if u["ok"] and t["ok"] and u["fp"] != t["fp"]:
            raise BenchError(f"traced run diverged from the facade: {t['fp']} != {u['fp']}")

    if trace:
        values = traced_metrics(setup, done, [t for t in traced if t["ok"]],
                                by_kind.get("layers_once", []))
        units = PER_LAYER
    else:
        values = end_to_end_metrics(workload, setup, done, by_kind["process"][0], attempted,
                                    failed)
        units = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    build_line = (by_kind.get("build") or [{}])[0]
    manifest = {
        "workload": workload, "seed": seed, "workload_seed": wseed, "size": size,
        "trace": int(trace), "seconds": seconds, "workers": workers(),
        "nproc": os.cpu_count(), "vds": setup["vds"], "window_steps": setup["window_steps"],
        "compiler": build_line.get("compiler"), "build_type": build_line.get("build_type"),
        "cxx_flags": build_line.get("cxx_flags"), "git_describe": git_describe(),
        "src_sha256": src_digest(),
    }
    result = {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
              "failed": failed if attempted > 0 else 1, "metrics": metrics}
    return manifest, result


def end_to_end_metrics(workload, setup, runs, process, attempted, failed):
    walls = [r["wall_s"] for r in runs]
    run_s = median(walls)
    if workload in STREAMING:
        steps = [ms for r in runs for ms in r["step_ms"]]
    else:
        # No step loop in the batch path: each run's wall time per simulated
        # second, so p50/p99 are taken over runs.
        steps = [1e3 * w / setup["window_steps"] for w in walls]
    return {
        "setup_s": median(setup["setup_s"]),
        "run_s": run_s,
        "events_per_s": runs[0]["events"] / run_s if runs and run_s > 0 else 0.0,
        "step_ms_p50": percentile(steps, 0.50),
        "step_ms_p99": percentile(steps, 0.99),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": process["peak_rss_mib"],
        "success_rate": 1.0 - failed / attempted if attempted else 0.0,
    }


def traced_metrics(setup, runs, traced, once):
    names = sorted({k for t in traced for k in t["layers"]})
    values = {name: median([t["layers"][name] for t in traced if name in t["layers"]])
              for name in names}
    for line in once:
        if line["ok"]:
            values.update(line["layers"])
        else:
            log(f"layer probe failed: {line['error']}")
    values["topology.build_fleet_ms"] = 1e3 * median(setup["build_fleet_s"])
    untraced_wall = median([r["wall_s"] for r in runs])
    if untraced_wall > 0 and traced:
        values["core.tracing_overhead"] = median([t["wall_s"] for t in traced]) / untraced_wall
    return values


def git_describe():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def src_digest():
    """sha256 over src/ so builds of a checkout without git history still compare."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Self-test and re-baseline.
# ---------------------------------------------------------------------------

def selftest(binary):
    problems = []
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} != {table}")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    pins = load_pins()
    for workload in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            _, result = measure(binary, workload, 0, 1, trace, tiny=True, pins=pins)
            label = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: tiny run failed its pins")
            for name, unit in table.items():
                metric = result["metrics"].get(name)
                if metric is None or metric["unit"] != unit or not math.isfinite(metric["value"]):
                    problems.append(f"{label}: metric {name} missing or malformed: {metric}")
            if set(result["metrics"]) != set(table):
                problems.append(f"{label}: unexpected metrics {set(result['metrics']) - set(table)}")
        # A deliberately wrong pin must fail every run: error rate 1.
        broken = json.loads(json.dumps(pins))
        wseed = str(workload_seed(pins, workload, 0))
        broken["pins"][workload]["tiny"][wseed]["records"] = "ffffffffffffffff"
        _, result = measure(binary, workload, 0, 1, False, tiny=True, pins=broken)
        if result["correct"] or result["failed"] != result["attempted"] or \
                result["metrics"]["success_rate"]["value"] != 0.0:
            problems.append(f"{workload}: a wrong pin did not fail every run: {result}")
    for p in problems:
        log(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def repin(binary):
    """Re-baselines every pinned fingerprint from one run per input variant."""
    pins = load_pins()
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            table = {}
            for wseed in pins["seeds"][workload]:
                args = ["--workload", workload, "--workload-seed", str(wseed), "--seconds", "0",
                        "--min-runs", "1", "--setup-reps", "1", "--workers", str(workers())]
                if size == "tiny":
                    args.append("--tiny")
                run = next(l for l in run_ledger(binary, args) if l["kind"] == "run")
                if not run["ok"]:
                    raise BenchError(f"{workload} {wseed}: {run['error']}")
                table[str(wseed)] = run["fp"]
                log(f"pinned {workload} {size} {wseed}")
            pins["pins"][workload][size] = table
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if args.pin:
            return repin(binary)
        if args.workload is None:
            parser.error("--workload is required")
        manifest, result = measure(binary, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
