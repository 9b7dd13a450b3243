#!/usr/bin/env bash
# Loopback end-to-end smoke for the real-wire transport (DESIGN.md §10):
# run the survey once in the simulator, then serve the same seeded world
# with dnsboot-serve on real sockets and scan it with dnsboot-survey --wire.
# The two reports must be byte-identical — the wire path has no report-level
# degrees of freedom of its own. The wire scan runs twice against the same
# server, so the second one is answered from warm answer caches and must
# match as well. Before the scans start, dnsboot-serve must hold exactly one
# UDP socket and one TCP listener per worker, whatever the number of
# nameserver addresses it serves.
#
# Usage: scripts/wire_smoke.sh [BUILD_DIR]
#   BUILD_DIR    cmake build tree holding tools/ (default: build)
# Environment: SCALE_DENOM (default 1000000), SEED (7), PORT (5310),
#   QPS (400), WORKERS (1, dnsboot-serve --workers).
set -euo pipefail

build_dir=${1:-build}
scale_denom=${SCALE_DENOM:-1000000}
seed=${SEED:-7}
port=${PORT:-5310}
qps=${QPS:-400}
workers=${WORKERS:-1}

survey="$build_dir/tools/dnsboot-survey"
serve="$build_dir/tools/dnsboot-serve"
for tool in "$survey" "$serve"; do
  if [[ ! -x "$tool" ]]; then
    echo "wire_smoke: missing $tool (build the tools target first)" >&2
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

echo "wire_smoke: simulated reference run (seed $seed, 1/$scale_denom scale)"
"$survey" --scale-denom "$scale_denom" --seed "$seed" \
  --json "$workdir/sim.json" --csv "$workdir/sim.csv" --quiet

echo "wire_smoke: starting dnsboot-serve on 127.0.0.1:$port, $workers worker(s)"
"$serve" --scale-denom "$scale_denom" --seed "$seed" \
  --listen "127.0.0.1:$port" --workers "$workers" --max-seconds 600 \
  --metrics-json "$workdir/serve_metrics.json" >"$workdir/serve.log" 2>&1 &
serve_pid=$!

for _ in $(seq 1 100); do
  if grep -q '^dnsboot-serve: ready$' "$workdir/serve.log"; then
    break
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "wire_smoke: dnsboot-serve exited early:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
  fi
  sleep 0.2
done
if ! grep -q '^dnsboot-serve: ready$' "$workdir/serve.log"; then
  echo "wire_smoke: dnsboot-serve never became ready" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi

# One serving pair per worker: count the socket descriptors the server
# holds (its epoll and eventfd descriptors are not sockets).
sockets=$(find "/proc/$serve_pid/fd" -mindepth 1 -maxdepth 1 -lname 'socket:*' | wc -l)
echo "wire_smoke: dnsboot-serve holds $sockets socket(s)"
if [[ "$sockets" -ne $((2 * workers)) ]]; then
  echo "wire_smoke: FAIL — expected $((2 * workers)) sockets (one UDP socket and one TCP listener per worker)" >&2
  exit 1
fi

for scan in wire warm; do
  echo "wire_smoke: $scan scan via 127.0.0.1:$port"
  "$survey" --scale-denom "$scale_denom" --seed "$seed" \
    --wire "127.0.0.1:$port" --qps "$qps" \
    --json "$workdir/$scan.json" --csv "$workdir/$scan.csv" --quiet
done

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=

# The final registry dump (flushed on SIGTERM) carries the answer-cache
# counters summed over every server.
counter_value() {
  sed -n 's/.*"'"$1"'":\([0-9][0-9]*\).*/\1/p' "$workdir/serve_metrics.json"
}
hits=$(counter_value dnsboot_server_answer_cache_hits)
misses=$(counter_value dnsboot_server_answer_cache_misses)
echo "wire_smoke: answer cache over both scans: ${hits:-?} hits, ${misses:-?} misses"

failed=0
for scan in wire warm; do
  for kind in json csv; do
    if ! diff -u "$workdir/sim.$kind" "$workdir/$scan.$kind" >&2; then
      echo "wire_smoke: FAIL — $kind reports differ between sim and $scan scan" >&2
      failed=1
    fi
  done
done
if [[ -z "$hits" || "$hits" -eq 0 ]]; then
  echo "wire_smoke: FAIL — the warm scan hit no cached answer" >&2
  failed=1
fi
if [[ "$failed" -ne 0 ]]; then
  exit 1
fi
echo "wire_smoke: OK — sim, wire and warm-cache wire reports byte-identical (json + csv)"
