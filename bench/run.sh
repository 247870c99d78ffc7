#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind (the binary, Go's build
# cache, its telemetry files) stays in .bench_build/ of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/dmbench" .) >&2
cd "$root"
exec "$build/dmbench" "$@"
