#!/usr/bin/env bash
# Line-coverage floor for the paper-core layers, computed with plain gcov.
#
# Usage: tools/check_coverage.sh [BUILD_DIR]
#
# BUILD_DIR must have been configured with -DQA_COVERAGE=ON and the test
# suite must have run (ctest) so the .gcda counters exist. The script
# aggregates gcov line coverage per layer and fails if src/market or
# src/allocation drops below its floor. Floors sit a few points under the
# measured baseline (below) so genuine regressions fail while unrelated
# refactors don't flap.
#
# Each source line counts once: it is executable if any object's gcov
# report lists it, and executed if any object ran it. A header's inline
# functions are compiled into every object that includes the header, and
# each object reports only the lines its own callers ran, so summing the
# reports per object would count such a line once per object and move a
# layer's figure whenever code moves between a .cc and its header.
set -eu

build_dir=${1:-build-cov}
repo_root=$(cd "$(dirname "$0")/.." && pwd)

# Measured baseline (full ctest pass, GCC 12, each line counted once):
# market 96.8%, allocation 98.5%, cluster_* 98.2%.
floor_market=85
floor_allocation=80

if [ ! -d "$repo_root/$build_dir" ] && [ ! -d "$build_dir" ]; then
  echo "error: build dir '$build_dir' not found" >&2
  exit 2
fi
case "$build_dir" in
  /*) : ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac

# coverage OBJ_DIR... -- PATTERN...: prints "<pct> <lines>" over the
# sources whose path contains one of the patterns, merged across every
# .gcda under the object directories ("0 0" when no line matches).
coverage() {
  local dirs=()
  while [ "$1" != "--" ]; do dirs+=("$1"); shift; done
  shift
  (cd "$build_dir" && find "${dirs[@]}" -name '*.gcda' \
      -exec gcov --json-format --stdout -o {} {} \; 2>/dev/null) \
    | python3 -c '
import json, sys
patterns = sys.argv[1:]
executed = {}  # (file, line) -> ran in some object
decoder = json.JSONDecoder()
text = sys.stdin.read()
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos == len(text):
        break
    report, pos = decoder.raw_decode(text, pos)
    for source in report["files"]:
        name = source["file"]
        if not any(p in name for p in patterns):
            continue
        for line in source["lines"]:
            key = (name, line["line_number"])
            executed[key] = executed.get(key, False) or line["count"] > 0
if not executed:
    print("0 0")
else:
    ran = sum(executed.values())
    print("%.1f %d" % (100.0 * ran / len(executed), len(executed)))
' "$@"
}

status=0
for layer in market allocation; do
  obj_dir="$build_dir/src/$layer/CMakeFiles"
  gcda_count=$(find "$obj_dir" -name '*.gcda' 2>/dev/null | wc -l)
  if [ "$gcda_count" -eq 0 ]; then
    echo "error: no .gcda files under $obj_dir — configure with" \
         "-DQA_COVERAGE=ON and run ctest first" >&2
    exit 2
  fi

  # Only this layer's own sources (not headers of other layers pulled in).
  summary=$(coverage "$obj_dir" -- "src/$layer/")
  pct=${summary% *}
  total=${summary#* }
  floor=$(eval echo "\$floor_$layer")
  if [ "$total" = "0" ]; then
    echo "error: gcov found no lines for src/$layer" >&2
    exit 2
  fi
  printf 'src/%-11s %6s%% of %5s lines (floor %s%%)\n' \
         "$layer" "$pct" "$total" "$floor"
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "FAIL: src/$layer line coverage $pct% is below the $floor% floor" >&2
    status=1
  fi
done

# The hierarchical-market sources (cluster_plan, cluster_market,
# cluster_supply) get their own aggregate floor: they are new enough that
# the per-layer averages above could mask an untested two-tier path.
floor_cluster=80
summary=$(coverage "$build_dir/src/market/CMakeFiles" \
                   "$build_dir/src/allocation/CMakeFiles" -- \
                   "src/market/cluster_" "src/allocation/cluster_")
pct=${summary% *}
total=${summary#* }
if [ "$total" = "0" ]; then
  echo "error: gcov found no lines for the cluster_* sources" >&2
  exit 2
fi
printf 'cluster_*       %6s%% of %5s lines (floor %s%%)\n' \
       "$pct" "$total" "$floor_cluster"
if awk -v p="$pct" -v f="$floor_cluster" 'BEGIN { exit !(p < f) }'; then
  echo "FAIL: cluster_* line coverage $pct% is below the" \
       "$floor_cluster% floor" >&2
  status=1
fi
exit $status
