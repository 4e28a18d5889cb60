#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload gid10_mapped --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binaries, each run's generated inputs
# (removed when the run ends) and the full reports.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/reports" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/spiderserved) >&2

work=$(mktemp -d "$out/run.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/bin/perfbench" gen --dir "$work/in" "$@" >&2
"$out/bin/perfbench" run --dir "$work/in" --work "$work/work" --reports "$out/reports" \
	--spiderserved "$out/bin/spiderserved" "$@"
