#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, temp
# files) stays under .bench_build/ in the current directory, which must
# be the root of a checkout: the driver measures the flashsim module in
# the parent of this script's directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
bin="$out/flashbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-modcacherw GOWORK=off GOTOOLCHAIN=local

# Rebuild when the binary is missing or any Go source of the repository
# is newer than it; a no-op otherwise, so a run pays no build time.
stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find "$here/.." -name .bench_build -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}
if stale; then
	(cd "$here" && go build -o "$bin" .)
fi
exec "$bin" "$@"
