#!/usr/bin/env bash
# Bit-for-bit gate on the benchmark's smoke runs: compares the sim_digest
# each workload prints under `benchmark/run.sh --smoke --seed=42` with the
# digests pinned in tests/golden/bench_smoke_digests.txt.
#
# Usage: tools/check_smoke_digests.sh SMOKE_OUTPUT
#
# SMOKE_OUTPUT is the stdout of `bash benchmark/run.sh --smoke --seed=42`
# over every workload. Exits 1 when a workload's digest differs, is
# missing or is new. A refactor keeps every digest; rewrite the file
# (QA_UPDATE_GOLDEN=1 tools/check_smoke_digests.sh SMOKE_OUTPUT) only for
# a declared modeled change, like the golden traces and fuzz digests.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: tools/check_smoke_digests.sh SMOKE_OUTPUT" >&2
  exit 2
fi

golden=$(cd "$(dirname "$0")/.." && pwd)/tests/golden/bench_smoke_digests.txt
fresh=$(awk '/^== /{workload=$2} /^sim_digest /{print workload, $2}' "$1")
if [ -z "$fresh" ]; then
  echo "check_smoke_digests: no sim_digest line in $1" >&2
  exit 1
fi

if [ "${QA_UPDATE_GOLDEN:-0}" = 1 ]; then
  { grep '^#' "$golden"; printf '%s\n' "$fresh"; } > "$golden.tmp"
  mv "$golden.tmp" "$golden"
  echo "check_smoke_digests: rewrote $golden"
  exit 0
fi

if ! diff <(grep -v '^#' "$golden") <(printf '%s\n' "$fresh"); then
  echo "check_smoke_digests: sim_digest differs from $golden" \
       "(< pinned, > this run)" >&2
  exit 1
fi
echo "check_smoke_digests: $(printf '%s\n' "$fresh" | wc -l) workloads match"
