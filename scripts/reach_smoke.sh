#!/usr/bin/env bash
# Reachability gate: every out-of-line function the src/ libraries define
# must be reachable from a binary the project ships (a tool, bench, example
# or fuzz harness), or be listed in scripts/reach_allowlist.txt with a
# reason. Tests do not count: code only a test can reach is dead weight.
#
# Usage: scripts/reach_smoke.sh SRC_DIR BUILD_DIR
#   SRC_DIR      source tree to check (its scripts/reach_allowlist.txt is used)
#   BUILD_DIR    scratch build tree, configured here (reuse it to rebuild fast)
#
# How: SRC_DIR is configured at -O0 -fno-inline with -ffunction-sections
# -fdata-sections, linked with -Wl,--gc-sections and DNSBOOT_VERIFY=ON, so
# each binary keeps exactly the library functions its call graph reaches.
# The libraries and every tools/, bench/, examples/ and fuzz/ target are
# built; the tests are not. A strong (T) symbol of a libdnsboot_*.a that
# `nm -C --defined-only` finds in none of the binaries is unreached.
#
# Allowlist: one line per unreached function, "<symbol> # <reason>", the
# symbol exactly as this script prints it. The script exits 1 on any
# unreached function that is not listed, and on any listed function that is
# no longer unreached (now called, or deleted), so the list only shrinks.
#
# Limits:
#   - Weak symbols are out of its reach. Inline functions, templates and
#     header-only code are emitted as weak (W) copies in every object that
#     uses them, so one nobody uses leaves nothing to find.
#   - Optimized builds inline functions into their callers, and a reached
#     function that was inlined everywhere leaves no symbol behind. That is
#     why the build is -O0 -fno-inline.
#   - perfbench/ is a separate CMake project and is not built here.
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SRC_DIR BUILD_DIR" >&2
  exit 2
fi
src_dir=$(cd "$1" && pwd)
build_dir=$2
allowlist="$src_dir/scripts/reach_allowlist.txt"
cxx_flags="-O0 -fno-inline -ffunction-sections -fdata-sections"

cmake -S "$src_dir" -B "$build_dir" -G "Unix Makefiles" \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG="$cxx_flags" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  -DDNSBOOT_VERIFY=ON >/dev/null
for dir in src tools bench examples fuzz; do
  make -s -C "$build_dir/$dir" -j"$(nproc)" >/dev/null
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# symbols TYPE FILE...: demangled names of the symbols of nm type TYPE.
symbols() {
  local type=$1
  shift
  nm -C --defined-only "$@" | sed -n "s/^[0-9a-f]* $type //p" | sort -u
}
mapfile -t libs < <(find "$build_dir/src" -name 'libdnsboot_*.a' | sort)
mapfile -t bins < <(find "$build_dir/tools" "$build_dir/bench" \
  "$build_dir/examples" "$build_dir/fuzz" -maxdepth 1 -type f -perm -u+x | sort)
if [[ ${#libs[@]} -eq 0 || ${#bins[@]} -eq 0 ]]; then
  echo "reach_smoke: no libraries or binaries under $build_dir" >&2
  exit 1
fi
symbols T "${libs[@]}" >"$workdir/defined"
symbols '[A-Za-z]' "${bins[@]}" >"$workdir/linked"
comm -23 "$workdir/defined" "$workdir/linked" >"$workdir/unreached"

: >"$workdir/listed"
status=0
if [[ -f "$allowlist" ]]; then
  while IFS= read -r line; do
    if [[ "$line" != *" # "?* ]]; then
      echo "reach_smoke: allowlist line without a '# reason': $line" >&2
      status=1
    fi
    printf '%s\n' "${line%% # *}" >>"$workdir/listed"
  done <"$allowlist"
  sort -o "$workdir/listed" "$workdir/listed"
fi

unreached=$(wc -l <"$workdir/unreached")
echo "reach_smoke: $unreached of $(wc -l <"$workdir/defined") library" \
  "functions appear in no tool, bench, example or fuzz binary" \
  "(${#bins[@]} binaries):"
sed 's/^/  /' "$workdir/unreached"
while IFS= read -r sym; do
  echo "reach_smoke: FAIL: unreached and not allowlisted: $sym" >&2
  status=1
done < <(comm -23 "$workdir/unreached" "$workdir/listed")
while IFS= read -r sym; do
  echo "reach_smoke: FAIL: stale allowlist entry (reached or gone): $sym" >&2
  status=1
done < <(comm -13 "$workdir/unreached" "$workdir/listed")
if [[ $status -eq 0 ]]; then
  echo "reach_smoke: OK ($(wc -l <"$workdir/listed") allowlisted)"
fi
exit $status
