#!/bin/sh
# Regenerates the six committed BENCH_*.json ledgers from one Release build.
#
#   bench/ledger.sh
#
# Configures its own Release tree, build-ledger/ (reconfigured on every run,
# so each report's "commit" stamp names the tree it measured), builds the six
# wall-clock-gated benches, and runs each from the repo root, where it writes
# its BENCH_<name>.json.  Every bench runs even when an earlier one fails;
# the script exits 1 if any bench failed a gate or an identity check.
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-ledger"
benches="bench_compiled_backend bench_engine_scaling bench_fault_overhead
bench_recover bench_fifo_fusion bench_serve"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null || exit 1
cmake --build "$build" -j "$(nproc)" --target $benches || exit 1

cd "$root" || exit 1
status=0
for b in $benches; do
  "$build/bench/$b" || { echo "ledger: $b FAILED" >&2; status=1; }
done
exit "$status"
