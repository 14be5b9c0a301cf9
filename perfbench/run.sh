#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload stm-bank --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span files) stays under .bench_build/ in the checkout root.
# The build fails, and the script exits non-zero without a result, when the
# repository sources beside perfbench/ are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
