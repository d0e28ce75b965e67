#!/usr/bin/env bash
# Interleaved in-process A/B of one package's Go benchmarks: the working
# tree ("head") against a git revision ("base").
#
#   scripts/ab_bench.sh [-rounds N] [-base REV] PKG BENCH
#
# PKG is a package path as `go test` takes it (./internal/cpu), BENCH a
# -test.bench pattern. Both test binaries are built once: head from the
# working tree, base from REV (default HEAD) checked out in a git
# worktree under $TMPDIR, which is removed on exit. Each of N rounds
# (default 10) runs both binaries once at -test.cpu=1 from their own
# package directory, and the order alternates round by round, so host
# drift lands on both sides alike. For every benchmark and unit it
# prints base's and head's median with quartiles [q1 q3], the change of
# the median, and in how many rounds head read lower than base: a pair
# won, since every unit `go test` prints (ns/op, B/op, allocs/op and
# the suite's ns/instr, MB/op, ...) is better lower.
set -euo pipefail

usage() {
  echo "usage: $0 [-rounds N] [-base REV] PKG BENCH" >&2
  exit 2
}

rounds=10
base=HEAD
while [ $# -gt 0 ]; do
  case $1 in
    -rounds) [ $# -ge 2 ] || usage; rounds=$2; shift 2 ;;
    -base) [ $# -ge 2 ] || usage; base=$2; shift 2 ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -eq 2 ] || usage
case $rounds in '' | *[!0-9]* | 0) echo "-rounds wants a positive count, not '$rounds'" >&2; exit 2 ;; esac
pkg=$1
bench=$2

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$tmp/base" "$rev"
dir=$(cd "$root" && go list -f '{{.Dir}}' "$pkg")
rel=${dir#"$root"}
(cd "$root" && go test -c -o "$tmp/head.test" "$pkg")
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")

# run SIDE ROUND appends "ROUND SIDE NAME UNIT VALUE" per reported metric.
run() {
  local wd=$root$rel
  [ "$1" = base ] && wd=$tmp/base$rel
  (cd "$wd" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" -test.cpu 1 -test.benchmem) |
    awk -v side="$1" -v r="$2" '$1 ~ /^Benchmark/ { for (i = 3; i < NF; i += 2) print r, side, $1, $(i + 1), $i }' >>"$tmp/rows"
}

echo "base $base ($(git -C "$root" rev-parse --short "$rev")) vs head (working tree): $pkg $bench, $rounds rounds, -test.cpu 1"
for ((r = 1; r <= rounds; r++)); do
  if ((r % 2)); then
    run base "$r"
    run head "$r"
  else
    run head "$r"
    run base "$r"
  fi
done
[ -s "$tmp/rows" ] || { echo "no benchmark matched $bench in $pkg" >&2; exit 1; }

awk '
# sorted copies a[1..n] into s[1..n] in ascending order (insertion sort).
function sorted(a, n, s,   i, j, x) {
  for (i = 1; i <= n; i++) {
    x = a[i]
    for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
    s[j + 1] = x
  }
}
# quant is the p-quantile of sorted s[1..n], interpolated between ranks.
function quant(s, n, p,   h, lo) {
  h = 1 + (n - 1) * p
  lo = int(h)
  return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
function stats(a, n,   s) {
  sorted(a, n, s)
  return sprintf("%.4g [%.4g %.4g]", quant(s, n, 0.5), quant(s, n, 0.25), quant(s, n, 0.75))
}
function median(a, n,   s) {
  sorted(a, n, s)
  return quant(s, n, 0.5)
}
{
  key = $3 " " $4
  if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
  val[key, $2, $1] = $5
  if ($1 + 0 > rounds) rounds = $1 + 0
}
END {
  printf "%-40s %-10s %-34s %-34s %8s %6s\n", "benchmark", "unit", "base median [q1 q3]", "head median [q1 q3]", "change", "won"
  for (k = 1; k <= nk; k++) {
    key = order[k]
    n = 0; won = 0
    split("", b); split("", h)
    for (r = 1; r <= rounds; r++) {
      if (!((key, "base", r) in val) || !((key, "head", r) in val)) continue
      n++
      b[n] = val[key, "base", r] + 0; h[n] = val[key, "head", r] + 0
      if (h[n] < b[n]) won++
    }
    if (n == 0) continue
    split(key, kv, " ")
    mb = median(b, n); mh = median(h, n)
    change = mb == 0 ? "-" : sprintf("%+.1f%%", 100 * (mh - mb) / mb)
    printf "%-40s %-10s %-34s %-34s %8s %6s\n", kv[1], kv[2], stats(b, n), stats(h, n), change, won "/" n
  }
}' "$tmp/rows"
