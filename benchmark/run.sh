#!/usr/bin/env bash
# Build the benchmark (Release, incremental) and run one workload.
#
#   benchmark/run.sh --workload <burst_d13|deep_d17|ler_d11|serve_d11> \
#       [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--self-test]
#
# Build output goes to stderr; the last line of stdout is the run's
# JSON result. Reports and trace files go to benchmark/out unless
# --out is given.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"

if [[ ! -f "$here/../CMakeLists.txt" || ! -d "$here/../src" ]]; then
    echo "run.sh: the library sources are not next to $here" >&2
    exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
{
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target qec_benchmark -j "$jobs"
} >&2

args=("$@")
have_out=0
for arg in "$@"; do
    [[ "$arg" == "--out" ]] && have_out=1
done
if [[ $have_out -eq 0 ]]; then
    args+=(--out "$here/out")
fi
exec "$build/qec_benchmark" "${args[@]}"
