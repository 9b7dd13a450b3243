#!/usr/bin/env bash
# Streaming-scale smoke (DESIGN.md §14): proves the sharded survey executor
# is memory-bounded by the shard *slice*, not the population, and that the
# streaming shard worlds still see the same Internet as one whole-world
# shard.
#
#   1. A ~1M-zone sharded survey (bench_throughput, Release build
#      recommended) runs under a hard address-space ulimit sized for shard
#      slices. The pre-streaming executor — one full world per worker —
#      cannot fit under the cap at this scale, so the run completing at all
#      is the streaming guarantee; --max-bytes-per-zone turns the footprint
#      into an explicit gate and the bench itself checks merged-report
#      byte-identity across thread counts.
#   2. An overlapping-slice diff against one shard: the same population
#      surveyed with --shards 1 (one world holding every zone, DESIGN.md
#      §9.2) and with many shards must agree zone-for-zone on every
#      network-independent column (truth, DNSSEC/CDS classification,
#      eligibility, AB adoption). Shard count legitimately changes packet
#      timing, so timing-dependent columns are excluded; with
#      --no-pathologies everything else is pure zone truth.
#
# Usage: scripts/scale_smoke.sh [BUILD_DIR]
#   BUILD_DIR        cmake build tree holding bench/ and tools/ (default:
#                    build/release — use a Release tree, the 1M rung takes
#                    ~20 min of simulation)
# Env:
#   SCALE            bench population scale (default 139 ~= 1M zones)
#   SHARDS           shard count for the big rung (default 64)
#   THREADS          worker threads for the big rung (default 4)
#   VMEM_CAP_KB      hard ulimit -v for the big rung (default 6291456 = 6 GiB)
#   MAX_BPZ          bytes-per-zone gate for the big rung (default 6144)
#   DIFF_SCALE_DENOM population denominator for the 1-shard diff (default
#                    40000 ~= 7.2k zones, small enough to build one whole
#                    world)
#   SEED             ecosystem seed (default 1)
set -euo pipefail

build_dir="${1:-build/release}"
bench="$build_dir/bench/bench_throughput"
survey="$build_dir/tools/dnsboot-survey"
scale="${SCALE:-139}"
shards="${SHARDS:-64}"
threads="${THREADS:-4}"
vmem_cap_kb="${VMEM_CAP_KB:-6291456}"
max_bpz="${MAX_BPZ:-6144}"
diff_denom="${DIFF_SCALE_DENOM:-40000}"
seed="${SEED:-1}"

fail() {
  echo "scale_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$bench" ] || fail "$bench not found (build the release preset first)"
[ -x "$survey" ] || fail "$survey not found (build the release preset first)"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# --- 1. big rung under a hard memory cap -----------------------------------
echo "scale_smoke: rung 1 — scale $scale, $shards shards, $threads thread(s)," \
  "ulimit -v ${vmem_cap_kb} KB, max ${max_bpz} B/zone"
bash -c "ulimit -v $vmem_cap_kb && exec '$bench' \
    --scale '$scale' --shards '$shards' --threads '$threads' --seed '$seed' \
    --max-bytes-per-zone '$max_bpz' --json '$workdir/ladder.json'" \
  || fail "capped run failed (OOM under the ulimit or footprint gate tripped)"
grep -q '"reports_identical": true' "$workdir/ladder.json" \
  || fail "merged reports not byte-identical across thread counts"
echo "scale_smoke: capped run passed, footprint within ${max_bpz} B/zone"

# --- 2. overlapping-slice diff vs one whole-world shard --------------------
# Network-independent CSV columns: zone..cds_rrsig_valid (1-12) and
# eligibility,signal_present,ab (14-16). cds_query_failed (13) and the
# runtime columns (17+) depend on per-shard packet timing by design.
echo "scale_smoke: rung 2 — 1-shard vs streaming($shards-shard) diff," \
  "1/$diff_denom population"
"$survey" --scale-denom "$diff_denom" --seed "$seed" --no-pathologies \
  --shards 1 --threads 1 --csv "$workdir/whole.csv" > "$workdir/whole.json" \
  || fail "1-shard survey failed"
"$survey" --scale-denom "$diff_denom" --seed "$seed" --no-pathologies \
  --shards "$shards" --threads "$threads" --csv "$workdir/streamed.csv" \
  > "$workdir/streamed.json" || fail "streaming sharded survey failed"

stable_view() {
  tail -n +2 "$1" | cut -d, -f1-12,14-16 | sort
}
stable_view "$workdir/whole.csv" > "$workdir/whole.stable"
stable_view "$workdir/streamed.csv" > "$workdir/streamed.stable"
cmp -s "$workdir/whole.stable" "$workdir/streamed.stable" \
  || { diff "$workdir/whole.stable" "$workdir/streamed.stable" | head -20 >&2
       fail "streaming shards diverge from the 1-shard survey"; }
rows=$(wc -l < "$workdir/whole.stable")
[ "$rows" -gt 0 ] || fail "no zones surveyed"
echo "scale_smoke: $rows zone rows identical across shard counts"
echo "scale_smoke: PASS"
