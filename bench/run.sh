#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags. Everything the build and the run write stays in .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" -dir "$out" "$@"
