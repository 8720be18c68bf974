#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program. BENCHMARK.json's command is "bash bench/run.sh".
#
# The binary and (unless the caller exported GOCACHE) the Go build cache
# live in .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside the checkout. The first run in a checkout
# compiles the standard library too; later ones relink nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

export GOCACHE="${GOCACHE:-$build/gocache}"
# bench/ is its own module (go.mod replaces rfdump with the checkout root).
(cd "$here" && go build -o "$build/bench" .)

# The program's default -scratch (.bench_out) is relative: keep it at the
# checkout root, outside bench/.
cd "$root"
exec "$build/bench" "$@"
