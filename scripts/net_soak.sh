#!/usr/bin/env bash
# Multi-process soak: repeatedly runs the two-process deployment test
# (real tart-node processes over loopback TCP, SIGKILL + restart included)
# to shake out timing-dependent bugs in the socket transport and the
# recovery path. A live-migration phase moves a stateful component
# between engines mid-traffic over HTTP and asserts checkpoint-bounded
# retention stays flat (docs/PLACEMENT.md). Each run also boots a live
# two-node deployment and
# scrapes /metrics + /status from both gateways mid-run with
# `tart-obs --scrape` (lint-clean exposition, stall-attribution series
# present, parsable wavefront JSON), aggregates both nodes' GET /obs
# once with `tart-obs --once --series` (which must append a JSONL
# line), renders the live profiler view with
# `tart-obs top --once`, and gates `GET /profile` on both nodes (span
# profiler snapshot present and self-consistent — loop span time <=
# wall time, saturation in [0,1]). Both nodes record flight-recorder traces;
# after shutdown, `tart-trace explain --json` over the pair must find
# >=1 stall episode with >=90% of stall time attributed, and
# `tart-trace lineage --json` must reconstruct complete causal DAGs for
# >=95% of the acked inputs (request-lineage gate, docs/TRACING.md).
# Usage: scripts/net_soak.sh [iterations]   (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

iters="${1:-20}"

cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" --target net_process_test net_loop_test \
  gateway_process_test tart-node tart-trace tart-obs

wait_healthy() {
  local addr="$1"
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "ERROR: node at $addr never became healthy" >&2
  return 1
}

# Live telemetry scrape against a real two-node deployment. Traffic is
# still flowing when tart-obs runs — this is the "scrape a busy cluster"
# path, not a quiesced snapshot.
scrape_phase() {
  echo "== live two-node telemetry scrape =="
  local dir
  dir="$(mktemp -d)"
  local ports=()
  local i
  for i in 1 2 3 4 5 6; do ports+=("$((20000 + RANDOM % 30000))"); done
  local left_http="127.0.0.1:${ports[4]}" right_http="127.0.0.1:${ports[5]}"
  cat > "$dir/deploy.conf" <<EOF
topology = wordcount
param senders = 2
partition left = 127.0.0.1:${ports[0]}
partition right = 127.0.0.1:${ports[2]}
place sender1 = left
place sender2 = left
place merger = right
EOF
  mkdir -p "$dir/left" "$dir/right"
  ./build/src/tools/tart-node "$dir/deploy.conf" left \
    --http="$left_http" --log-dir="$dir/left" --trace="$dir/left.trc" \
    > "$dir/left.out" 2>&1 &
  local left_pid=$!
  ./build/src/tools/tart-node "$dir/deploy.conf" right \
    --http="$right_http" --log-dir="$dir/right" --trace="$dir/right.trc" \
    > "$dir/right.out" 2>&1 &
  local right_pid=$!
  # shellcheck disable=SC2064
  trap "kill $left_pid $right_pid 2>/dev/null || true; rm -rf '$dir'" RETURN

  wait_healthy "$left_http"
  wait_healthy "$right_http"

  # Keep traffic flowing in the background while the scrape happens.
  (
    for i in $(seq 1 200); do
      curl -fsS -X POST --data "word$((i % 7))" \
        -H 'Content-Type: text/plain' \
        "http://$left_http/inject/sender$(((i % 2) + 1))" >/dev/null || true
    done
  ) &
  local feeder_pid=$!

  # Mid-run: both gateways must serve a lint-clean Prometheus page with
  # the per-wire stall-attribution family, and a parsable /status page.
  ./build/src/tools/tart-obs --scrape "$left_http" "$right_http"
  # Both nodes' GET /obs reports aggregated into one cluster table, plus
  # one JSONL series line per round in the file.
  ./build/src/tools/tart-obs --once --series="$dir/cluster.jsonl" \
    "$left_http" "$right_http"

  wait "$feeder_pid" || true

  # Live per-node profiler view over the same HTTP addresses. This runs
  # after the feeder so both nodes are past their first gauge sweep (the
  # sweep is what harvests the profiler into the registry GET /obs ships).
  ./build/src/tools/tart-obs top --once "$left_http" "$right_http"

  # Profile gate (docs/OBSERVABILITY.md "Hot-path profiling"): both live
  # nodes must serve the span-profiler snapshot on GET /profile, with the
  # event-loop spans present, the saturation gauge in [0,1], and totals
  # that are self-consistent — recorded span time cannot exceed the wall
  # time available to the profiled threads. The JSON is passed via argv
  # (not a pipe) because the heredoc already owns python's stdin.
  echo "== hot-path profile gate =="
  local addr profile_json
  for addr in "$left_http" "$right_http"; do
    profile_json="$(curl -fsS "http://$addr/profile")"
    python3 - "$addr" "$profile_json" <<'PY'
import json, sys
addr = sys.argv[1]
doc = json.loads(sys.argv[2])
assert doc["enabled"] in (True, False), "bad 'enabled' flag"
assert doc["uptime_ns"] > 0, "uptime_ns not positive"
sat = doc["loop"]["saturation"]
assert 0.0 <= sat <= 1.0, f"saturation {sat} out of [0,1]"
spans = {s["name"]: s for s in doc["spans"]}
if doc["enabled"]:
    for want in ("loop.poll_wait", "loop.dispatch"):
        assert want in spans, f"span '{want}' missing from /profile"
for s in doc["spans"]:
    assert s["count"] >= 0 and s["total_ns"] >= 0, f"negative span {s}"
    if s["count"] > 0:
        assert s["total_ns"] >= s["max_ns"], f"total < max in {s}"
# Self-consistency: the loop-phase spans are disjoint slices of each
# event-loop thread's wall time, so their combined total (total dispatch
# time) cannot exceed uptime x profiled-thread-count. Nested spans
# (net.decode inside loop.dispatch) legitimately double-count, so only
# the disjoint top-level set is summed.
wall = doc["uptime_ns"] * max(doc["threads"], 1)
loop_phases = ("loop.poll_wait", "loop.dispatch", "loop.posted",
               "loop.timers")
dispatch_ns = sum(spans[n]["total_ns"] for n in loop_phases if n in spans)
assert dispatch_ns <= wall, \
    f"loop span time {dispatch_ns}ns > wall {wall}ns"
loop_ns = doc["loop"]["busy_ns"] + doc["loop"]["idle_ns"]
assert loop_ns <= wall, f"loop busy+idle {loop_ns}ns > wall {wall}ns"
print(f"profile {addr}: enabled={doc['enabled']} "
      f"saturation={sat:.3f} spans={len(spans)}")
PY
  done
  curl -fsS -X POST "http://$left_http/drain" >/dev/null
  curl -fsS -X POST "http://$right_http/drain" >/dev/null
  # Post-drain scrape: the counters page must still lint clean once the
  # pessimism/stall series carry real observations.
  ./build/src/tools/tart-obs --scrape "$left_http" "$right_http"
  [[ -s "$dir/cluster.jsonl" ]] || {
    echo "ERROR: tart-obs --series produced no JSONL" >&2
    return 1
  }

  curl -fsS -X POST "http://$left_http/shutdown" >/dev/null || true
  curl -fsS -X POST "http://$right_http/shutdown" >/dev/null || true
  wait "$left_pid" "$right_pid" 2>/dev/null || true

  # Forensics gate: the two nodes' traces (written at shutdown) must join
  # into a report where real stall episodes exist and nearly all recorded
  # stall time is attributed to a (blocking wire, sender) pair.
  echo "== stall forensics gate =="
  local explain_json episodes frac
  explain_json="$(./build/src/tools/tart-trace explain --json \
    "$dir/left.trc" "$dir/right.trc")"
  episodes="$(sed -n 's/.*"episodes":\([0-9]*\).*/\1/p' <<<"$explain_json")"
  frac="$(sed -n 's/.*"attributed_fraction":\([0-9.]*\).*/\1/p' \
    <<<"$explain_json")"
  echo "forensics: episodes=$episodes attributed_fraction=$frac"
  [[ -n "$episodes" && "$episodes" -ge 1 ]] || {
    echo "ERROR: explain found no stall episodes in the soak traces" >&2
    return 1
  }
  awk -v f="$frac" 'BEGIN { exit (f >= 0.9) ? 0 : 1 }' || {
    echo "ERROR: attributed_fraction $frac < 0.9" >&2
    return 1
  }

  # Request-lineage gate (docs/TRACING.md "Request lineage"): joining the
  # two nodes' traces must reconstruct a complete causal DAG for >=95% of
  # the inputs the gateway acked — the edge stamps, the per-hop records,
  # and the cross-node (wire, seq) joins all have to line up.
  echo "== request lineage gate =="
  local lineage_json acked resolved_frac
  lineage_json="$(./build/src/tools/tart-trace lineage --json \
    "$dir/left.trc" "$dir/right.trc")"
  # At least one digit required: per-input "acked":true/false booleans in
  # the inputs array must not shadow the top-level count.
  acked="$(sed -n 's/.*"acked":\([0-9][0-9]*\),.*/\1/p' <<<"$lineage_json")"
  resolved_frac="$(sed -n 's/.*"resolved_fraction":\([0-9.]*\).*/\1/p' \
    <<<"$lineage_json")"
  echo "lineage: acked=$acked resolved_fraction=$resolved_frac"
  [[ -n "$acked" && "$acked" -ge 1 ]] || {
    echo "ERROR: lineage found no acked inputs in the soak traces" >&2
    return 1
  }
  awk -v f="$resolved_frac" 'BEGIN { exit (f >= 0.95) ? 0 : 1 }' || {
    echo "ERROR: resolved_fraction $resolved_frac < 0.95" >&2
    return 1
  }

  trap - RETURN
  rm -rf "$dir"
  echo "== live scrape clean =="
}

# Durable checkpoint + tiered-restart phase: a left node with a log dir
# ingests,
# checkpoints on demand (POST /checkpoint), is SIGKILLed, and must come
# back through the fast path — the restart metrics have to show a
# checkpoint-covered prefix that was NOT replayed (docs/RECOVERY.md).
checkpoint_phase() {
  echo "== durable checkpoint + tiered restart =="
  local dir
  dir="$(mktemp -d)"
  local ports=()
  local i
  for i in 1 2 3 4 5 6; do ports+=("$((20000 + RANDOM % 30000))"); done
  local left_http="127.0.0.1:${ports[4]}" right_http="127.0.0.1:${ports[5]}"
  cat > "$dir/deploy.conf" <<EOF
topology = wordcount
param senders = 2
partition left = 127.0.0.1:${ports[0]}
partition right = 127.0.0.1:${ports[2]}
place sender1 = left
place sender2 = left
place merger = right
EOF
  mkdir -p "$dir/left"
  local durable_flags=(--log-dir="$dir/left" --segment-bytes=1024)
  ./build/src/tools/tart-node "$dir/deploy.conf" left \
    --http="$left_http" "${durable_flags[@]}" > "$dir/left.out" 2>&1 &
  local left_pid=$!
  ./build/src/tools/tart-node "$dir/deploy.conf" right \
    --http="$right_http" > "$dir/right.out" 2>&1 &
  local right_pid=$!
  # shellcheck disable=SC2064
  trap "kill $left_pid $right_pid 2>/dev/null || true; rm -rf '$dir'" RETURN

  wait_healthy "$left_http"
  wait_healthy "$right_http"

  for i in $(seq 1 60); do
    curl -fsS -X POST --data "ckpt$((i % 5))" -H 'Content-Type: text/plain' \
      "http://$left_http/inject/sender$(((i % 2) + 1))" >/dev/null
  done
  local ck
  ck="$(curl -fsS -X POST "http://$left_http/checkpoint")"
  echo "checkpoint: $ck"
  grep -q '"ok":true' <<<"$ck" || {
    echo "ERROR: on-demand checkpoint failed: $ck" >&2
    return 1
  }

  # A post-checkpoint suffix, then the crash.
  for i in $(seq 61 80); do
    curl -fsS -X POST --data "ckpt$((i % 5))" -H 'Content-Type: text/plain' \
      "http://$left_http/inject/sender$(((i % 2) + 1))" >/dev/null
  done
  kill -9 "$left_pid"
  wait "$left_pid" 2>/dev/null || true

  ./build/src/tools/tart-node "$dir/deploy.conf" left \
    --http="$left_http" "${durable_flags[@]}" > "$dir/left2.out" 2>&1 &
  left_pid=$!
  # shellcheck disable=SC2064
  trap "kill $left_pid $right_pid 2>/dev/null || true; rm -rf '$dir'" RETURN
  wait_healthy "$left_http"

  local covered
  covered="$(curl -fsS "http://$left_http/metrics" \
    | awk '/^tart_restart_covered_records/ {print int($2)}')"
  echo "restart: covered_records=$covered"
  [[ -n "$covered" && "$covered" -gt 0 ]] || {
    echo "ERROR: restart did not boot from the durable checkpoint" >&2
    return 1
  }

  # The restarted node keeps accepting and checkpointing.
  curl -fsS -X POST --data "after" -H 'Content-Type: text/plain' \
    "http://$left_http/inject/sender1" >/dev/null
  ck="$(curl -fsS -X POST "http://$left_http/checkpoint")"
  grep -q '"ok":true' <<<"$ck" || {
    echo "ERROR: post-restart checkpoint failed: $ck" >&2
    return 1
  }
  curl -fsS -X POST "http://$left_http/drain" >/dev/null
  curl -fsS -X POST "http://$right_http/drain" >/dev/null

  curl -fsS -X POST "http://$left_http/shutdown" >/dev/null || true
  curl -fsS -X POST "http://$right_http/shutdown" >/dev/null || true
  wait "$left_pid" "$right_pid" 2>/dev/null || true
  trap - RETURN
  rm -rf "$dir"
  echo "== checkpoint restart clean =="
}

# Retained-message sum across all components on one node, from /metrics.
# Empty (no gauge sweep yet) prints -1 so callers can poll.
retained_sum() {
  local addr="$1"
  curl -fsS "http://$addr/metrics" | awk '
    /^tart_component_retained_messages\{/ { sum += $2; seen = 1 }
    END { print seen ? sum : -1 }'
}

# Messages dispatched to handlers on one node. /drain is off-limits in the
# migration phase (draining closes external inputs for good, and the closed
# flag would ride the slice to the target), so quiescence is observed via
# this counter instead.
processed_total() {
  local addr="$1"
  curl -fsS "http://$addr/metrics" \
    | awk '/^tart_messages_processed_total/ {print int($2)}'
}

wait_processed() {
  local addr="$1" want="$2" got=0
  local i
  for i in $(seq 1 100); do
    got="$(processed_total "$addr")"
    [[ -n "$got" && "$got" -ge "$want" ]] && return 0
    sleep 0.1
  done
  echo "ERROR: node $addr processed $got messages, wanted >= $want" >&2
  return 1
}

# Elastic-placement phase (docs/PLACEMENT.md): three nodes, live traffic.
#   1. Checkpoint-bounded retention: the durable consumer checkpoints, the
#      kCoverUpdate broadcast must trim the senders' output retention to
#      zero — the memory-flatness guarantee.
#   2. Live migration over HTTP: POST /migrate moves sender2 left->mid
#      while a feeder keeps injecting; post-move injects to the old home
#      must 307-redirect to the new one, and a second consumer checkpoint
#      must bound retention at the component's NEW home.
migration_phase() {
  echo "== live migration + checkpoint-bounded retention =="
  local dir
  dir="$(mktemp -d)"
  local ports=()
  local i
  for i in $(seq 0 8); do ports+=("$((20000 + RANDOM % 30000))"); done
  local left_http="127.0.0.1:${ports[6]}" mid_http="127.0.0.1:${ports[7]}"
  local right_http="127.0.0.1:${ports[8]}"
  cat > "$dir/deploy.conf" <<EOF
topology = wordcount
param senders = 2
partition left = 127.0.0.1:${ports[0]}
partition mid = 127.0.0.1:${ports[2]}
partition right = 127.0.0.1:${ports[4]}
http left = $left_http
http mid = $mid_http
http right = $right_http
place sender1 = left
place sender2 = left
place merger = right
EOF
  mkdir -p "$dir/left" "$dir/mid" "$dir/right"
  ./build/src/tools/tart-node "$dir/deploy.conf" left \
    --http="$left_http" --log-dir="$dir/left" > "$dir/left.out" 2>&1 &
  local left_pid=$!
  ./build/src/tools/tart-node "$dir/deploy.conf" mid \
    --http="$mid_http" --log-dir="$dir/mid" > "$dir/mid.out" 2>&1 &
  local mid_pid=$!
  ./build/src/tools/tart-node "$dir/deploy.conf" right \
    --http="$right_http" --log-dir="$dir/right" \
    > "$dir/right.out" 2>&1 &
  local right_pid=$!
  # shellcheck disable=SC2064
  trap "kill $left_pid $mid_pid $right_pid 2>/dev/null || true; rm -rf '$dir'" \
    RETURN

  wait_healthy "$left_http"
  wait_healthy "$mid_http"
  wait_healthy "$right_http"

  for i in $(seq 1 80); do
    curl -fsS -X POST --data "mig$((i % 9))" -H 'Content-Type: text/plain' \
      "http://$left_http/inject/sender$(((i % 2) + 1))" >/dev/null
  done
  wait_processed "$right_http" 80

  # Memory-flatness gate #1: the senders hold retained output until the
  # durable consumer's checkpoint cover arrives, then drop to zero.
  local ck
  ck="$(curl -fsS -X POST "http://$right_http/checkpoint")"
  grep -q '"ok":true' <<<"$ck" || {
    echo "ERROR: consumer checkpoint failed: $ck" >&2
    return 1
  }
  local retained=-1
  for i in $(seq 1 100); do
    retained="$(retained_sum "$left_http")"
    [[ "$retained" == "0" ]] && break
    sleep 0.1
  done
  echo "retention after consumer checkpoint: left=$retained"
  [[ "$retained" == "0" ]] || {
    echo "ERROR: sender retention not trimmed by kCoverUpdate" >&2
    return 1
  }

  # Live migration while traffic flows: sender2 moves left -> mid.
  (
    for i in $(seq 1 60); do
      curl -fsS -X POST --data "bg$((i % 5))" -H 'Content-Type: text/plain' \
        "http://$left_http/inject/sender1" >/dev/null || true
    done
  ) &
  local feeder_pid=$!
  local mig
  mig="$(curl -fsS -X POST \
    "http://$left_http/migrate?component=sender2&to=mid")"
  echo "migrate: $mig"
  grep -q '"ok":true' <<<"$mig" || {
    echo "ERROR: live migration failed: $mig" >&2
    return 1
  }
  wait "$feeder_pid" || true

  # The old home redirects: -L follows the 307 (method+body preserved) to
  # mid, which now owns sender2.
  for i in $(seq 1 20); do
    curl -fsS -L -X POST --data "post$((i % 3))" \
      -H 'Content-Type: text/plain' \
      "http://$left_http/inject/sender2" >/dev/null
  done
  wait_processed "$right_http" 160

  local completed adopted
  completed="$(curl -fsS "http://$left_http/metrics" \
    | awk '/^tart_mig_completed_total/ {print int($2)}')"
  adopted="$(curl -fsS "http://$mid_http/metrics" \
    | awk '/^tart_mig_adopted_total/ {print int($2)}')"
  echo "migration: completed=$completed adopted=$adopted"
  [[ -n "$completed" && "$completed" -ge 1 ]] || {
    echo "ERROR: source never counted the migration as completed" >&2
    return 1
  }
  [[ -n "$adopted" && "$adopted" -ge 1 ]] || {
    echo "ERROR: target never adopted the migrated component" >&2
    return 1
  }

  # Memory-flatness gate #2: the cover bound must follow the component to
  # its new home — mid's retention for sender2 trims on the next consumer
  # checkpoint, so migrated components cannot leak retained output.
  ck="$(curl -fsS -X POST "http://$right_http/checkpoint")"
  grep -q '"ok":true' <<<"$ck" || {
    echo "ERROR: second consumer checkpoint failed: $ck" >&2
    return 1
  }
  retained=-1
  for i in $(seq 1 100); do
    retained="$(retained_sum "$mid_http")"
    [[ "$retained" == "0" ]] && break
    sleep 0.1
  done
  echo "retention at the new home after checkpoint: mid=$retained"
  [[ "$retained" == "0" ]] || {
    echo "ERROR: migrated component's retention not trimmed at new home" >&2
    return 1
  }

  # SIGKILL the new owner. Its adoption is journaled, so the restarted
  # node must come back owning sender2 (boot re-adopt) and keep serving
  # redirected injects — the functional proof of single ownership.
  kill -9 "$mid_pid"
  wait "$mid_pid" 2>/dev/null || true
  ./build/src/tools/tart-node "$dir/deploy.conf" mid \
    --http="$mid_http" --log-dir="$dir/mid" > "$dir/mid2.out" 2>&1 &
  mid_pid=$!
  # shellcheck disable=SC2064
  trap "kill $left_pid $mid_pid $right_pid 2>/dev/null || true; rm -rf '$dir'" \
    RETURN
  wait_healthy "$mid_http"
  for i in $(seq 1 10); do
    curl -fsS -L -X POST --data "rez$((i % 3))" \
      -H 'Content-Type: text/plain' \
      "http://$left_http/inject/sender2" >/dev/null
  done
  wait_processed "$right_http" 170
  echo "new owner survived SIGKILL and kept serving sender2"

  curl -fsS -X POST "http://$left_http/shutdown" >/dev/null || true
  curl -fsS -X POST "http://$mid_http/shutdown" >/dev/null || true
  curl -fsS -X POST "http://$right_http/shutdown" >/dev/null || true
  wait "$left_pid" "$mid_pid" "$right_pid" 2>/dev/null || true
  trap - RETURN
  rm -rf "$dir"
  echo "== migration + retention clean =="
}

scrape_phase
checkpoint_phase
migration_phase

for i in $(seq 1 "$iters"); do
  echo "== soak iteration $i/$iters =="
  ./build/tests/net_loop_test --gtest_brief=1
  ./build/tests/net_process_test --gtest_brief=1
  ./build/tests/gateway_process_test --gtest_brief=1
done

echo "OK: $iters iterations clean"
