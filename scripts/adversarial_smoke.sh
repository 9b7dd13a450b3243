#!/usr/bin/env bash
# Adversarial wire-model smoke (DESIGN.md §13), the CI gate for the attack
# layer:
#   1. the same seeded survey runs clean and with --chaos adversarial; the
#      per-zone CSVs must be byte-identical once the under_attack provenance
#      column is dropped — crafted traffic may slow the scan but must never
#      change a measurement, key_state included;
#   2. the adversarial run must actually have been attacked (attack counters
#      nonzero) and must have rejected every forgery (accepted_forgeries 0);
#   3. the under_attack provenance must surface end to end: nonzero
#      zones_under_attack in the report JSON, servers marked in metrics.
#
# Usage: scripts/adversarial_smoke.sh [BUILD_DIR]
#   BUILD_DIR    cmake build tree holding tools/ (default: build)
# Environment: SCALE_DENOM (default 143800, ~2k zones), SEED (42).
set -euo pipefail

build_dir=${1:-build}
scale_denom=${SCALE_DENOM:-143800}
seed=${SEED:-42}

survey="$build_dir/tools/dnsboot-survey"
if [[ ! -x "$survey" ]]; then
  echo "adversarial_smoke: missing $survey (build the tools target first)" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Pull a plain (unlabeled) numeric field out of one-line JSON.
json_value() {
  sed -n 's/.*"'"$1"'":\([0-9][0-9]*\).*/\1/p' "$2"
}

# Print CSV file $2 without the column headed $1. The column is found by its
# header name and cut counting from the end of each row, so quoted commas in
# earlier fields (zone names, dnssec_reason) cannot shift it.
drop_column() {
  awk -F, -v name="$1" '
    BEGIN { after = -1 }
    NR == 1 {
      for (i = 1; i <= NF; ++i) if ($i == name) after = NF - i
      if (after < 0) {
        print "adversarial_smoke: no CSV column " name > "/dev/stderr"
        exit 1
      }
    }
    {
      out = ""; sep = ""
      for (i = 1; i <= NF; ++i) if (i != NF - after) { out = out sep $i; sep = "," }
      print out
    }' "$2"
}

echo "adversarial_smoke: clean run (seed $seed, 1/$scale_denom scale)"
"$survey" --scale-denom "$scale_denom" --seed "$seed" --quiet \
  --json "$workdir/clean.json" --csv "$workdir/clean.csv"

echo "adversarial_smoke: adversarial run (same seed)"
"$survey" --scale-denom "$scale_denom" --seed "$seed" --quiet \
  --chaos adversarial \
  --json "$workdir/adv.json" --csv "$workdir/adv.csv" \
  --metrics-json "$workdir/metrics.json"

# An unknown preset is a usage error, not a silent fallback to clean.
if "$survey" --scale-denom "$scale_denom" --chaos catastrophic \
    >/dev/null 2>&1; then
  echo "adversarial_smoke: FAIL — unknown --chaos preset was accepted" >&2
  exit 1
fi

# Only the under_attack provenance column may differ between the runs.
drop_column under_attack "$workdir/clean.csv" >"$workdir/clean.stripped"
drop_column under_attack "$workdir/adv.csv" >"$workdir/adv.stripped"
if ! diff -u "$workdir/clean.stripped" "$workdir/adv.stripped" >&2; then
  echo "adversarial_smoke: FAIL — adversarial run changed the report" >&2
  exit 1
fi
echo "adversarial_smoke: reports byte-identical modulo provenance column"

injected=0
for name in dnsboot_attack_spoofs_injected dnsboot_attack_floods_injected \
    dnsboot_attack_wrong_tuple_injected dnsboot_attack_malformed_injected; do
  v=$(json_value "$name" "$workdir/metrics.json")
  if [[ -z "$v" || "$v" -eq 0 ]]; then
    echo "adversarial_smoke: FAIL — $name is zero; nothing was attacked" >&2
    exit 1
  fi
  injected=$((injected + v))
done

rejected=$(json_value dnsboot_defense_forged_rejected "$workdir/metrics.json")
accepted=$(json_value dnsboot_defense_accepted_forgeries \
  "$workdir/metrics.json")
marked=$(json_value dnsboot_defense_servers_marked "$workdir/metrics.json")
if [[ -z "$rejected" || "$rejected" -eq 0 ]]; then
  echo "adversarial_smoke: FAIL — no forged responses were rejected" >&2
  exit 1
fi
if [[ -z "$accepted" || "$accepted" -ne 0 ]]; then
  echo "adversarial_smoke: FAIL — $accepted forged responses accepted" >&2
  exit 1
fi
if [[ -z "$marked" || "$marked" -eq 0 ]]; then
  echo "adversarial_smoke: FAIL — no endpoint was marked under attack" >&2
  exit 1
fi

attacked_zones=$(json_value zones_under_attack "$workdir/adv.json")
clean_attacked=$(json_value zones_under_attack "$workdir/clean.json")
if [[ -z "$attacked_zones" || "$attacked_zones" -eq 0 ]]; then
  echo "adversarial_smoke: FAIL — report JSON has no zones_under_attack" >&2
  exit 1
fi
if [[ -z "$clean_attacked" || "$clean_attacked" -ne 0 ]]; then
  echo "adversarial_smoke: FAIL — clean run flagged zones under attack" >&2
  exit 1
fi

echo "adversarial_smoke: OK — $injected crafted datagrams, $rejected" \
  "rejected, 0 accepted, $attacked_zones zones flagged"
