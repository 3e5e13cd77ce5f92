#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache under
# .bench_build/) and runs it from the checkout root. Everything after the
# script name is passed to the benchmark; see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
(cd "$here" && go build -o "$root/.bench_build/diagnet-bench" .)
cd "$root"
exec "$root/.bench_build/diagnet-bench" "$@"
