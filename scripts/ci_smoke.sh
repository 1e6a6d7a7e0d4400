#!/usr/bin/env bash
# CI smoke: build the Release config with the strict-warning set
# (EBS_STRICT_WARNINGS=ON: -Wshadow -Wconversion -Wdouble-promotion -Werror),
# run the full test suite on Release, gate the tree on the ebs_lint invariant
# linter (self-check first, then src/ tools/ bench/ must come back clean),
# re-run the replay determinism tests under ASan, run the numeric/container
# tests under UBSan (which mechanically catches the NaN-bin-index class of bug
# the histogram regression test pins down), and re-run the fault chaos +
# replay suites under ThreadSanitizer — the crash-heavy and mid-run-abort
# schedules exercise the engine's queue drain and worker join paths where a
# race would hide. The TSan stage also runs the control-plane battery
# (tests/control_test.cc): control-enabled streaming replay at 1/2/4 workers,
# healthy and crash-heavy, with the decision-log bit-identity contracts
# checked under the race detector — the scenario battery
# (tests/scenario_test.cc), whose batch-vs-streaming worker sweeps run every
# committed time-varying scenario through the same multi-worker merge, and
# the queueing battery (tests/qmodel_test.cc), whose queue-model sink runs on
# the merge thread while the shards generate, and the EBST codec: the store
# battery (tests/trace_store_test.cc), store replay
# (tests/store_replay_test.cc), whose metrics load is the parallel decode,
# the ordered ParallelFor underneath (tests/util_parallel_test.cc), the
# rollup folds, which fill chunks of entities on its helpers
# (tests/rollup_dense_test.cc), and the online cache replay and the skew
# kernel, which run chunks of VDs and of entities on them
# (tests/cache_test.cc, tests/analysis_test.cc).
#
# The ASan and UBSan stages also run the trace-store corruption battery
# (tests/trace_store_test.cc): its truncation and byte-flip sweeps mutate
# every byte of a valid store file, so a decoder path that reads out of
# bounds or shifts past the type width on corrupt input fails here rather
# than silently passing on well-formed files. Both also run store replay
# (tests/store_replay_test.cc), whose decoded segment maps are read through
# the recorded source indices and weights. They also run the page-cache
# tests (tests/cache_test.cc): the flat eviction caches do their own slot and
# probe arithmetic, and the differential test drives every policy hit for hit
# against the node-based reference over millions of accesses. And they run
# the config guards: qmodel_test (an out-of-range segment_bs_remap entry is an
# ASan heap overflow unless the simulator rejects it), throttle_test and
# hypervisor_test (a zero lending period or CoV window is a UBSan division by
# zero unless the sinks reject it), shapes_test (a fleet config that fails
# validation must never reach BuildFleet's divisions) and extensions_test
# (the hybrid cache-placement study divides offsets by block_bytes, so it
# must reject a zero block or a NaN threshold before any work). The storage domain's
# index arithmetic runs under both as well: segment entries name their source
# series by index, and trace_test (ASan; it copies and moves results and frees
# the originals), rollup_dense_test and control_test (both stages) and
# replay_test (UBSan) read every segment cell through them.
#
# The final stages re-run the deterministic benches and gate them against
# their committed baselines via scripts/check_bench.py: bench_latency's tail
# distribution against BENCH_LATENCY.json and bench_scale's fleet-tier sweep
# (record counts, per-record memory, rollup fingerprints, worker-count
# invariance) against BENCH_SCALE.json, and bench_control's closed-vs-open-
# loop comparison against BENCH_CONTROL.json (bench_control additionally
# self-gates: it exits nonzero unless the closed loop beats the best
# open-loop configuration on a tail axis) — deterministic-field drift beyond
# 5% or a dropped baseline field fails CI; wall_-prefixed timings never gate.
#
# The Clang thread-safety build (-Werror=thread-safety over the
# EBS_GUARDED_BY annotations) runs as its own CI job — see
# .github/workflows/ci.yml — since this script assumes only the default
# toolchain.
#
# Usage: scripts/ci_smoke.sh [build-root]   (default: ./ci-build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/ci-build}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== [1/13] Configure + build: Release (strict warnings) =="
cmake -S "${repo_root}" -B "${build_root}/release" \
  -DCMAKE_BUILD_TYPE=Release -DEBS_STRICT_WARNINGS=ON >/dev/null
cmake --build "${build_root}/release" -j "${jobs}"

echo "== [2/13] Tier-1 tests (Release) =="
ctest --test-dir "${build_root}/release" --output-on-failure -j "${jobs}"

echo "== [3/13] ebs_lint: self-check + tree invariants (v2: layers, taint, coverage) =="
"${build_root}/release/tools/ebs_lint" --self-check
"${build_root}/release/tools/ebs_lint" --check \
  --layers="${repo_root}/tools/ebs_lint/layers.txt" \
  --tests="${repo_root}/tests" \
  "${repo_root}/src" "${repo_root}/tools" "${repo_root}/bench"
# Module-level include DAG as a reviewable artifact (red edges = violations).
"${build_root}/release/tools/ebs_lint" \
  --layers="${repo_root}/tools/ebs_lint/layers.txt" --graph=dot \
  "${repo_root}/src" > "${build_root}/include_layers.dot"
echo "include graph: ${build_root}/include_layers.dot"

echo "== [4/13] Configure + build: AddressSanitizer (with fuzz harnesses) =="
cmake -S "${repo_root}" -B "${build_root}/asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEBS_SANITIZE=address -DEBS_FUZZERS=ON >/dev/null
cmake --build "${build_root}/asan" -j "${jobs}" \
  --target replay_test fault_test trace_store_test store_replay_test cache_test \
           qmodel_test throttle_test hypervisor_test shapes_test extensions_test \
           trace_test rollup_dense_test control_test \
           fuzz_scenario fuzz_store

echo "== [5/13] Replay determinism + fault chaos + store corruption + cache + config-guard + storage-domain tests (ASan) =="
"${build_root}/asan/tests/replay_test"
"${build_root}/asan/tests/fault_test"
"${build_root}/asan/tests/trace_store_test"
"${build_root}/asan/tests/store_replay_test"
"${build_root}/asan/tests/cache_test"
"${build_root}/asan/tests/qmodel_test"
"${build_root}/asan/tests/throttle_test"
"${build_root}/asan/tests/hypervisor_test"
"${build_root}/asan/tests/shapes_test"
"${build_root}/asan/tests/extensions_test"
"${build_root}/asan/tests/trace_test"
"${build_root}/asan/tests/rollup_dense_test"
"${build_root}/asan/tests/control_test"

echo "== [6/13] Fuzz harnesses: corpus replay + bounded mutations (ASan) =="
# Replays the committed corpora (regression crashers must stay fixed), then
# runs deterministic mutations until the run or time budget is hit. A crash,
# ASan report, or violated round-trip invariant fails the stage.
"${build_root}/asan/tools/fuzz_scenario" \
  "${repo_root}/tests/data/scenarios" "${repo_root}/tests/data/fuzz/scenario" \
  --runs=200000 --max-seconds=30 --seed=1
"${build_root}/asan/tools/fuzz_store" \
  "${repo_root}/tests/data/golden_small.ebst" "${repo_root}/tests/data/fuzz/store" \
  --runs=30000 --max-seconds=30 --seed=1

echo "== [7/13] Configure + build: UndefinedBehaviorSanitizer =="
cmake -S "${repo_root}" -B "${build_root}/ubsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEBS_SANITIZE=undefined >/dev/null
cmake --build "${build_root}/ubsan" -j "${jobs}" \
  --target util_container_test util_stats_test trace_test csv_export_test obs_test \
           fault_test trace_store_test store_replay_test cache_test \
           qmodel_test throttle_test hypervisor_test shapes_test extensions_test \
           rollup_dense_test control_test replay_test

echo "== [8/13] Numeric + export + obs + fault + store corruption + cache + config-guard + storage-domain tests (UBSan) =="
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/util_container_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/util_stats_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/trace_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/csv_export_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/obs_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/fault_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/trace_store_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/store_replay_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/cache_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/qmodel_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/throttle_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/hypervisor_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/shapes_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/extensions_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/rollup_dense_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/control_test"
UBSAN_OPTIONS=halt_on_error=1 "${build_root}/ubsan/tests/replay_test"

echo "== [9/13] Configure + build: ThreadSanitizer =="
cmake -S "${repo_root}" -B "${build_root}/tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEBS_SANITIZE=thread >/dev/null
cmake --build "${build_root}/tsan" -j "${jobs}" \
  --target replay_test fault_test obs_test control_test scenario_test workload_test \
  qmodel_test trace_store_test store_replay_test util_parallel_test rollup_dense_test \
  cache_test analysis_test

echo "== [10/13] Replay + fault chaos + obs registry + control + scenario + generator + qmodel + store codec + rollup fold + cache replay + skew tests (TSan) =="
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/replay_test"
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/fault_test"
# The metric registry takes registrations from 8 threads at once (shared
# names, disjoint names, lookups racing new names) under one mutex.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/obs_test"
# Control-enabled streaming replay at 1/2/4 workers (healthy and crash-heavy):
# the decision-log bit-identity contracts run with the race detector on.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/control_test"
# Scenario battery: every committed time-varying scenario replayed batch vs
# streaming at 1/2/4 workers, fingerprints compared under the race detector.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/scenario_test"
# Generate() is the replay engine, so the generator suite starts shard
# threads too: its goldens run at 1/2/4 workers under the race detector.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/workload_test"
# Every queueing EbsSimulation runs the QueueModelSink on the merge thread
# while the shards generate: the qmodel suite's facades run under it too.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/qmodel_test"
# The EBST codec encodes and decodes its chunks and metric series on worker
# threads (ParallelFor); StoreReplaySource::PrepareResult runs the parallel
# metrics decode.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/util_parallel_test"
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/trace_store_test"
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/store_replay_test"
# Every rollup level fills chunks of entities on ParallelFor helpers: the
# fold battery runs its split levels under the race detector (replay_test's
# RollupCachesAreThreadSafe above starts helpers from each concurrent reader).
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/rollup_dense_test"
# OnlineCacheSink::OnFinish replays chunks of VDs on ParallelFor helpers, and
# ComputeLevelSkewness folds chunks of entities on them.
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/cache_test"
TSAN_OPTIONS=halt_on_error=1 "${build_root}/tsan/tests/analysis_test"

echo "== [11/13] Latency bench vs committed baseline =="
"${build_root}/release/bench/bench_latency" "${build_root}/BENCH_LATENCY.fresh.json" \
  >/dev/null
python3 "${repo_root}/scripts/check_bench.py" \
  "${repo_root}/BENCH_LATENCY.json" "${build_root}/BENCH_LATENCY.fresh.json"

echo "== [12/13] Scale bench vs committed baseline =="
"${build_root}/release/bench/bench_scale" "${build_root}/BENCH_SCALE.fresh.json" \
  >/dev/null
python3 "${repo_root}/scripts/check_bench.py" \
  "${repo_root}/BENCH_SCALE.json" "${build_root}/BENCH_SCALE.fresh.json"

echo "== [13/13] Control bench (closed vs open loop) vs committed baseline =="
# bench_control is itself a gate: it exits nonzero unless the closed loop
# beats the best open-loop configuration on a tail axis.
"${build_root}/release/bench/bench_control" "${build_root}/BENCH_CONTROL.fresh.json" \
  >/dev/null
python3 "${repo_root}/scripts/check_bench.py" \
  "${repo_root}/BENCH_CONTROL.json" "${build_root}/BENCH_CONTROL.fresh.json"

echo "ci_smoke: all green"
