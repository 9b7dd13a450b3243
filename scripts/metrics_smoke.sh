#!/usr/bin/env bash
# Observability smoke (DESIGN.md §11), the CI gate for the obs layer:
#   1. a ~1k-zone survey with --metrics-json must emit the required counter
#      names, satisfy queries_sent >= responses_received, and keep the
#      report JSON byte-identical to a metrics-free run of the same seed;
#   2. --trace must produce non-empty JSONL;
#   3. a short-lived dnsboot-serve must answer GET /metrics with a clean
#      exposition (linted by check_prometheus.sh) and flush its final
#      registry dump on SIGTERM.
#
# Usage: scripts/metrics_smoke.sh [BUILD_DIR]
#   BUILD_DIR    cmake build tree holding tools/ (default: build)
# Environment: SCALE_DENOM (default 287600, ~1k zones), SEED (1),
#   PORT (5320, DNS base), METRICS_PORT (9309).
set -euo pipefail

build_dir=${1:-build}
scale_denom=${SCALE_DENOM:-287600}
seed=${SEED:-1}
port=${PORT:-5320}
metrics_port=${METRICS_PORT:-9309}
script_dir=$(cd "$(dirname "$0")" && pwd)

survey="$build_dir/tools/dnsboot-survey"
serve="$build_dir/tools/dnsboot-serve"
for tool in "$survey" "$serve"; do
  if [[ ! -x "$tool" ]]; then
    echo "metrics_smoke: missing $tool (build the tools target first)" >&2
    exit 1
  fi
done

workdir=$(mktemp -d)
serve_pid=
cleanup() {
  if [[ -n "$serve_pid" ]] && kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# Pull a plain (unlabeled) counter out of the one-line metrics JSON.
counter_value() {
  sed -n 's/.*"'"$1"'":\([0-9][0-9]*\).*/\1/p' "$2"
}

echo "metrics_smoke: survey with metrics + trace (seed $seed, 1/$scale_denom)"
"$survey" --scale-denom "$scale_denom" --seed "$seed" --quiet \
  --json "$workdir/plain.json"
"$survey" --scale-denom "$scale_denom" --seed "$seed" --quiet \
  --json "$workdir/report.json" --metrics-json "$workdir/metrics.json" \
  --trace "$workdir/trace.jsonl"

if ! diff -q "$workdir/plain.json" "$workdir/report.json" >/dev/null; then
  echo "metrics_smoke: FAIL — enabling metrics changed the survey report" >&2
  exit 1
fi

required="dnsboot_engine_queries dnsboot_engine_sends dnsboot_engine_responses
dnsboot_engine_timeouts dnsboot_scanner_zones_scanned
dnsboot_scanner_signal_probes dnsboot_net_datagrams_sent dnsboot_net_events"
for name in $required; do
  if ! grep -q "\"$name\"" "$workdir/metrics.json"; then
    echo "metrics_smoke: FAIL — $name missing from --metrics-json" >&2
    exit 1
  fi
done

sent=$(counter_value dnsboot_engine_sends "$workdir/metrics.json")
received=$(counter_value dnsboot_engine_responses "$workdir/metrics.json")
if [[ -z "$sent" || -z "$received" || "$sent" -lt "$received" ]]; then
  echo "metrics_smoke: FAIL — queries sent ($sent) < responses ($received)" >&2
  exit 1
fi
if [[ "$sent" -eq 0 ]]; then
  echo "metrics_smoke: FAIL — survey sent no queries" >&2
  exit 1
fi
echo "metrics_smoke: $sent sends >= $received responses"

if [[ ! -s "$workdir/trace.jsonl" ]]; then
  echo "metrics_smoke: FAIL — --trace wrote no spans" >&2
  exit 1
fi
if ! head -1 "$workdir/trace.jsonl" | grep -q '"kind":'; then
  echo "metrics_smoke: FAIL — trace line is not a span object" >&2
  exit 1
fi
echo "metrics_smoke: trace has $(wc -l < "$workdir/trace.jsonl") spans"

echo "metrics_smoke: starting dnsboot-serve with /metrics on :$metrics_port"
"$serve" --scale-denom "$scale_denom" --seed "$seed" \
  --listen "127.0.0.1:$port" --metrics-port "$metrics_port" \
  --metrics-json "$workdir/serve_metrics.json" --max-seconds 600 \
  >"$workdir/serve.log" 2>&1 &
serve_pid=$!

for _ in $(seq 1 100); do
  if grep -q '^dnsboot-serve: ready$' "$workdir/serve.log"; then
    break
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "metrics_smoke: dnsboot-serve exited early:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
  fi
  sleep 0.2
done

scrape() {
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "http://127.0.0.1:$metrics_port/metrics"
  else
    exec 3<>"/dev/tcp/127.0.0.1/$metrics_port"
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    sed '1,/^\r\{0,1\}$/d' <&3
    exec 3<&- 3>&-
  fi
}
scrape >"$workdir/exposition.txt"

for name in dnsboot_server_queries dnsboot_server_responses \
    dnsboot_server_answer_cache_hits dnsboot_server_answer_cache_misses \
    dnsboot_wire_datagrams_sent; do
  if ! grep -q "^# TYPE $name counter" "$workdir/exposition.txt"; then
    echo "metrics_smoke: FAIL — $name missing from /metrics" >&2
    cat "$workdir/exposition.txt" >&2
    exit 1
  fi
done
if ! grep -q "^# TYPE dnsboot_server_answer_cache_bytes gauge" \
    "$workdir/exposition.txt"; then
  echo "metrics_smoke: FAIL — dnsboot_server_answer_cache_bytes missing from /metrics" >&2
  cat "$workdir/exposition.txt" >&2
  exit 1
fi
"$script_dir/check_prometheus.sh" "$workdir/exposition.txt"

# SIGTERM must flush the final registry dump (the --metrics-json file).
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=
if [[ ! -s "$workdir/serve_metrics.json" ]]; then
  echo "metrics_smoke: FAIL — SIGTERM did not flush --metrics-json" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
if ! grep -q '"dnsboot_server_queries"' "$workdir/serve_metrics.json"; then
  echo "metrics_smoke: FAIL — serve metrics dump lacks server counters" >&2
  exit 1
fi
echo "metrics_smoke: OK — metrics JSON, trace, /metrics scrape and SIGTERM flush all pass"
