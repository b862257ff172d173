#!/usr/bin/env bash
# Builds the benchmark (build-benchmark/, Release, the repo's own flags) and
# runs it.
#
#   benchmark/run.sh [--workload=NAME] [--seed=S] [--seconds=N]
#                    [--traced | --trace=0|1] [--smoke]
#
# Every flag also takes its value as the next argument (--seed 7). Without
# --workload every workload runs, one process each. The last line of each
# run is its JSON result; results/ under the build directory keeps one
# record per untraced run (<workload>.jsonl) and the last traced pass
# (<workload>.trace.json). Sanitizer, coverage and probe-disabled builds
# are refused: they do not measure the program users run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"

for name in QA_SANITIZE QA_COVERAGE $(compgen -v | grep -E '^QA_.*_DISABLED$' || true); do
  value="${!name:-}"
  if [[ -n "$value" && "$value" != "OFF" && "$value" != "0" ]]; then
    echo "run.sh: refusing to benchmark with $name=$value" >&2
    exit 2
  fi
done

workloads=()
args=()
while (($#)); do
  case "$1" in
    --workload=*) workloads=("${1#--workload=}") ;;
    --workload)
      if (($# < 2)); then echo "run.sh: --workload needs a value" >&2; exit 2; fi
      workloads=("$2")
      shift
      ;;
    *) args+=("$1") ;;
  esac
  shift
done
if ((${#workloads[@]} == 0)); then
  workloads=(paper100 fig4grid sharded10k hier1m surge10x minidb5)
fi

jobs="$(nproc)"
((jobs > 4)) && jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
if grep -Eq '^QA_(SANITIZE:STRING=.+|COVERAGE:BOOL=ON|[A-Z_]+_DISABLED:BOOL=ON)$' \
    "$build/CMakeCache.txt"; then
  echo "run.sh: $build is a sanitizer, coverage or probe-disabled build" >&2
  exit 2
fi
cmake --build "$build" --target qa_benchmark -j "$jobs" >&2

if [[ -e "$root/.git" ]]; then
  QA_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    QA_BENCH_DIRTY=yes
  else
    QA_BENCH_DIRTY=no
  fi
  export QA_BENCH_COMMIT QA_BENCH_DIRTY
fi

status=0
for workload in "${workloads[@]}"; do
  "$build/qa_benchmark" --workload "$workload" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
