#!/usr/bin/env bash
# Longitudinal monitor smoke (DESIGN.md §15-16), the CI gate for the
# crash-recovery determinism contract and the KASP world motion it observes:
#   1. an uninterrupted seeded dnsboot-monitor run must write a final
#      snapshot and a journal tagged motion=kasp holding >= 3 distinct
#      transition kinds, clean ZSK pre-publication rollovers (phase
#      unchanged, DNSKEY RRset digest changed), clean KSK double-DS
#      rollovers (phase unchanged, DS digest changed) and broken-rollover
#      transitions in both directions (break + repair); its key_state
#      column must witness mid-rollover and broken-rollover zones;
#   2. the same run killed with SIGKILL mid-stream and restarted with the
#      same flags must converge to the byte-identical journal, snapshot and
#      adoption reports (which also proves two uninterrupted runs identical:
#      the restart re-simulates from t=0 and byte-verifies the full prefix);
#   3. that restart runs with --metrics-port and no --max-seconds, so it must
#      keep GET /metrics up after its "done" line until SIGTERM, then exit 0;
#      the exposition carries the dnsboot_monitor_* family plus the NamePool
#      gauges and passes check_prometheus.sh.
#
# Usage: scripts/monitor_smoke.sh [BUILD_DIR]
#   BUILD_DIR    cmake build tree holding tools/ (default: build)
# Environment: SCALE_DENOM (default 2000000, ~160 zones), SEED (7),
#   SIM_DAYS (90), METRICS_PORT (9311).
set -euo pipefail

build_dir=${1:-build}
scale_denom=${SCALE_DENOM:-2000000}
seed=${SEED:-7}
sim_days=${SIM_DAYS:-90}
metrics_port=${METRICS_PORT:-9311}
script_dir=$(cd "$(dirname "$0")" && pwd)

monitor="$build_dir/tools/dnsboot-monitor"
if [[ ! -x "$monitor" ]]; then
  echo "monitor_smoke: missing $monitor (build dnsboot-monitor first)" >&2
  exit 1
fi

workdir=$(mktemp -d)
monitor_pid=
cleanup() {
  if [[ -n "$monitor_pid" ]] && kill -0 "$monitor_pid" 2>/dev/null; then
    kill -9 "$monitor_pid" 2>/dev/null || true
    wait "$monitor_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

common=(--scale-denom "$scale_denom" --seed "$seed" --sim-days "$sim_days"
        --snapshot-every 2d)

echo "monitor_smoke: uninterrupted run (seed $seed, 1/$scale_denom, ${sim_days}d)"
mkdir -p "$workdir/full"
"$monitor" "${common[@]}" --quiet --state-dir "$workdir/full" \
  --json "$workdir/full.json" --csv "$workdir/full.csv"

journal="$workdir/full/journal.log"
for f in "$journal" "$workdir/full/snapshot.dnsboot"; do
  if [[ ! -s "$f" ]]; then
    echo "monitor_smoke: FAIL — $f missing or empty" >&2
    exit 1
  fi
done

if ! head -n 1 "$journal" | grep -q 'motion=kasp'; then
  echo "monitor_smoke: FAIL — journal world tag lacks motion=kasp:" >&2
  head -n 1 "$journal" >&2
  exit 1
fi

kinds=$(grep -o '"[a-z_]*->[a-z_]*"' "$workdir/full.json" | sort -u | wc -l)

# Journal record fields (journal v2, tab-separated):
#   1=T 2=seq 3=at 4=zone 5=from 6=to 7=cds 8=ds 9=dnskey 10=key_state 11=op
# Digest fields: "=" unchanged, "-" absent, else the new digest.
count() { awk -F'\t' "$1" "$journal" | wc -l; }

zsk_rolls=$(count '$1=="T" && $5==$6 && $9!="=" && $9!="-" && $8=="="')
ksk_rolls=$(count '$1=="T" && $5==$6 && $8!="=" && $8!="-"')
breaks=$(count '$1=="T" && $6=="broken_rollover"')
repairs=$(count '$1=="T" && $5=="broken_rollover"')
mid_states=$(count '$1=="T" && $10=="mid-rollover"')
broken_states=$(count '$1=="T" && $10=="broken-rollover"')

echo "monitor_smoke: kinds=$kinds zsk=$zsk_rolls ksk=$ksk_rolls" \
     "break=$breaks repair=$repairs key_state mid=$mid_states" \
     "broken=$broken_states"
fail=0
[[ "$kinds" -ge 3 ]] || { echo "monitor_smoke: FAIL — only $kinds distinct transition kinds (need >= 3)" >&2; fail=1; }
[[ "$zsk_rolls" -ge 1 ]] || { echo "monitor_smoke: FAIL — no clean ZSK rollover journaled (steady-phase DNSKEY change)" >&2; fail=1; }
[[ "$ksk_rolls" -ge 1 ]] || { echo "monitor_smoke: FAIL — no KSK double-DS rollover journaled (steady-phase DS change)" >&2; fail=1; }
[[ "$breaks" -ge 1 ]] || { echo "monitor_smoke: FAIL — no transition into broken_rollover journaled" >&2; fail=1; }
[[ "$repairs" -ge 1 ]] || { echo "monitor_smoke: FAIL — no repair out of broken_rollover journaled" >&2; fail=1; }
[[ "$mid_states" -ge 1 ]] || { echo "monitor_smoke: FAIL — key_state never reported mid-rollover" >&2; fail=1; }
[[ "$broken_states" -ge 1 ]] || { echo "monitor_smoke: FAIL — key_state never reported broken-rollover" >&2; fail=1; }
[[ "$fail" -eq 0 ]] || exit 1

echo "monitor_smoke: SIGKILL mid-run"
mkdir -p "$workdir/crash"
"$monitor" "${common[@]}" --quiet --state-dir "$workdir/crash" \
  --json "$workdir/crash_first.json" >"$workdir/crash.log" 2>&1 &
monitor_pid=$!
# Kill once the journal shows real progress (but before it can finish).
target=$(( $(wc -c < "$journal") / 4 ))
for _ in $(seq 1 600); do
  size=$(stat -c %s "$workdir/crash/journal.log" 2>/dev/null || echo 0)
  if [[ "$size" -ge "$target" ]]; then
    break
  fi
  if ! kill -0 "$monitor_pid" 2>/dev/null; then
    break  # finished before we could kill it; restart still verifies replay
  fi
  sleep 0.1
done
kill -9 "$monitor_pid" 2>/dev/null || true
wait "$monitor_pid" 2>/dev/null || true
monitor_pid=

echo "monitor_smoke: restart with the same flags, /metrics on :$metrics_port"
"$monitor" "${common[@]}" --state-dir "$workdir/crash" \
  --json "$workdir/crash.json" --csv "$workdir/crash.csv" \
  --metrics-port "$metrics_port" >"$workdir/restart.log" 2>&1 &
monitor_pid=$!
until grep -qs '^dnsboot-monitor: done' "$workdir/restart.log"; do
  if ! kill -0 "$monitor_pid" 2>/dev/null; then
    echo "monitor_smoke: FAIL — restarted monitor exited before finishing:" >&2
    cat "$workdir/restart.log" >&2
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
# The simulation is over; without --max-seconds the process must stay up,
# serving /metrics, until it is signalled.
sleep 1
if ! kill -0 "$monitor_pid" 2>/dev/null; then
  echo "monitor_smoke: FAIL — monitor exited after the simulation instead of serving /metrics until SIGTERM:" >&2
  cat "$workdir/restart.log" >&2
  exit 1
fi
if ! scrape >"$workdir/exposition.txt" 2>/dev/null; then
  echo "monitor_smoke: FAIL — /metrics did not answer after the simulation" >&2
  exit 1
fi
kill -TERM "$monitor_pid"
status=0
wait "$monitor_pid" || status=$?
monitor_pid=
if [[ "$status" -ne 0 ]]; then
  echo "monitor_smoke: FAIL — SIGTERM exit status $status (want 0):" >&2
  cat "$workdir/restart.log" >&2
  exit 1
fi

for name in dnsboot_monitor_probes_total dnsboot_monitor_batches_total \
    dnsboot_monitor_journal_appended_total dnsboot_monitor_zones_tracked \
    dnsboot_monitor_transitions_total dnsboot_namepool_names \
    dnsboot_namepool_bytes; do
  if ! grep -q "^$name\|^# TYPE $name " "$workdir/exposition.txt"; then
    echo "monitor_smoke: FAIL — $name missing from /metrics" >&2
    cat "$workdir/exposition.txt" >&2
    exit 1
  fi
done
"$script_dir/check_prometheus.sh" "$workdir/exposition.txt"

if ! cmp -s "$journal" "$workdir/crash/journal.log"; then
  echo "monitor_smoke: FAIL — restarted journal differs from uninterrupted run" >&2
  exit 1
fi
if ! cmp -s "$workdir/full.json" "$workdir/crash.json"; then
  echo "monitor_smoke: FAIL — restarted adoption report differs" >&2
  exit 1
fi
if ! cmp -s "$workdir/full.csv" "$workdir/crash.csv"; then
  echo "monitor_smoke: FAIL — restarted adoption curve CSV differs" >&2
  exit 1
fi
if ! cmp -s "$workdir/full/snapshot.dnsboot" "$workdir/crash/snapshot.dnsboot"; then
  echo "monitor_smoke: FAIL — restarted snapshot differs" >&2
  exit 1
fi
echo "monitor_smoke: kill-restart-resume converged byte-identically"

echo "monitor_smoke: OK — kinds, rollovers, key_state, kill-restart identity, /metrics all pass"
