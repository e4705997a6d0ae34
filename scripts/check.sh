#!/usr/bin/env bash
# Tier-1 gate: plain build + full ctest, the flake gate, the perfbench
# smoke correctness runs, then the same suite under AddressSanitizer.
# Usage: scripts/check.sh [--no-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    *) echo "usage: scripts/check.sh [--no-asan]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Flake gate: the process, trace-determinism, runner hand-off and tiered
# restart tests (forked nodes, SIGKILL, timing-sensitive replay, handlers
# held mid-run, replay runs acted on mid-drain) must pass ten times in a
# row.
echo "== flake gate: process + trace-determinism + hand-off + restart x10 =="
ctest --test-dir build -R 'ProcessTest|TraceDeterminism|HandoffTest|TieredRestartTest' \
  --repeat until-fail:10 -j"$(nproc)"

# Perf gate: build perfbench and run every workload (chain-hop,
# fanin-2node, restart-replay) at its smoke size. Each run checks its own
# output and must report correct with no failed operation; the end-to-end
# bounds in BENCHMARK.json are compared across commits, not here.
echo "== perfbench smoke =="
PERFBENCH_SMOKE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'

# Migration smoke: one live round trip of a stateful component between
# engines over loopback, asserting completion, a bounded blackout, and an
# advancing placement epoch (docs/PLACEMENT.md).
echo "== migration bench smoke =="
./build/bench/bench_migration --smoke

# Exposition lint: the Prometheus-conventions linter (obs::lint_exposition)
# must pass both on synthetic pages (obs_test) and against a real gateway
# scrape (gateway_test's MetricsAndHealthz). Run them by name so a filter
# change in the suites can't silently drop the gate.
echo "== exposition lint =="
./build/tests/obs_test \
  --gtest_filter='ExpositionLint.*:Exposition.*:Exemplars.*' --gtest_brief=1
./build/tests/gateway_test \
  --gtest_filter='*MetricsAndHealthz*:*StatusReportsSilenceWavefront*' \
  --gtest_brief=1

if [[ "$run_asan" == 1 ]]; then
  echo "== tier-1 under AddressSanitizer =="
  cmake -B build-asan -S . -DTART_SANITIZE=address >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
  # The fuzz tests (HTTP parser in gateway_test, transport frames and peer
  # control bodies in net_frame_test, on-disk decoders in durability_test,
  # NodeReport in obs_test, migration slices in placement_test, trace
  # files in trace_test) run again here under ASan — the memory-safety net
  # for the byte-mutation corpus. GatewayTest.* drives concurrent clients
  # through the group-commit path under ASan here too.
fi

echo "OK"
