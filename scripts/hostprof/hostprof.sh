#!/bin/sh
# Profile one command's host CPU time by layer, without perf or -pg.
#
#   scripts/hostprof/hostprof.sh [--top N] [--lines K] <command> [args...]
#
# Builds the SIGPROF sampler (sampler.cc) into a temporary directory,
# runs the command with it preloaded, and prints symbolize.py's
# self-time tables for each hostprof.<pid>.raw the run left in the
# working directory (the files are kept for re-symbolizing); --lines K
# also splits the K hottest symbols by source line. Profile
# the binary itself (e.g. hcbench), not a wrapper that also runs a
# build: every preloaded process writes its own file.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
top=25
lines=0
while [ $# -ge 2 ]; do
    case $1 in
    --top) top=$2 ;;
    --lines) lines=$2 ;;
    *) break ;;
    esac
    shift 2
done
if [ $# -eq 0 ]; then
    echo "usage: $0 [--top N] [--lines K] <command> [args...]" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
${CXX:-c++} -O2 -shared -fPIC -o "$tmp/hostprof.so" "$here/sampler.cc"

ls hostprof.*.raw > "$tmp/before" 2>/dev/null || true
status=0
LD_PRELOAD="$tmp/hostprof.so" "$@" || status=$?
for raw in hostprof.*.raw; do
    [ -f "$raw" ] || continue
    grep -qxF "$raw" "$tmp/before" && continue
    echo "== $raw"
    python3 "$here/symbolize.py" --top "$top" --lines "$lines" "$raw"
done
exit $status
