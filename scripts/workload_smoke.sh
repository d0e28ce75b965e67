#!/usr/bin/env bash
# Registry-wide workload smoke: every workload the registry knows must
# execute end to end through `flashsim run` at quick scale, and a
# server-class generator must be servable as a flashd job by name with a parameter override. The workload list is
# read from -list-workloads, so a generator registered without riding
# through the execution paths fails CI here.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
pid=

go build -o "$workdir/flashsim" ./cmd/flashsim
go build -o "$workdir/flashd" ./cmd/flashd

# Unindented lines of the listing are the registered names.
names=$("$workdir/flashsim" run -list-workloads | grep -v '^ ')
[ -n "$names" ] || { echo "-list-workloads printed nothing" >&2; exit 1; }
count=$(echo "$names" | wc -l)
if [ "$count" -lt 9 ]; then
  echo "registry lists only $count workloads, want at least 9" >&2; exit 1
fi

for name in $names; do
  # The snbench calibration programs carry fixed thread counts; the
  # machine must match them exactly.
  procs=4
  case "$name" in
    snbench.dependent-loads) procs=4 ;;
    snbench.*) procs=1 ;;
  esac
  if ! "$workdir/flashsim" run -app "$name" -procs "$procs" -full=false \
      >"$workdir/$name.txt" 2>&1; then
    echo "flashsim run -app $name failed:" >&2; cat "$workdir/$name.txt" >&2; exit 1
  fi
  grep -q 'ms simulated' "$workdir/$name.txt" || {
    echo "flashsim run -app $name printed no report:" >&2
    cat "$workdir/$name.txt" >&2; exit 1
  }
  echo "flashsim OK: $name"
done

# An unknown name must fail and list what is registered.
if "$workdir/flashsim" run -app no-such-workload -full=false >"$workdir/bad.txt" 2>&1; then
  echo "flashsim accepted an unknown workload name" >&2; exit 1
fi
grep -q 'gups' "$workdir/bad.txt" || {
  echo "unknown-workload error does not list registered names:" >&2
  cat "$workdir/bad.txt" >&2; exit 1
}

# One served job: a new-generator spec with a parameter override must
# resolve through the same registry inside flashd.
"$workdir/flashd" -addr 127.0.0.1:0 -cache-dir "$workdir/cache" \
  >"$workdir/flashd.log" 2>&1 &
pid=$!
addr=""
for i in $(seq 1 100); do
  addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$workdir/flashd.log" | head -1)
  [ -n "$addr" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "flashd died during startup:" >&2; cat "$workdir/flashd.log" >&2; exit 1
  fi
  sleep 0.1
done
[ -n "$addr" ] || { echo "flashd never logged its address" >&2; cat "$workdir/flashd.log" >&2; exit 1; }

req='{"base":"simos-mipsy","procs":2,"workload":{"name":"gups","log_table":10,"updates":256,"hot_pct":50}}'
code=$(curl -sS -o "$workdir/job.json" -w '%{http_code}' -X POST "http://$addr/v1/runs?wait=true" \
  -H 'Content-Type: application/json' -d "$req")
[ "$code" = 200 ] || { echo "gups job: HTTP $code" >&2; cat "$workdir/job.json" >&2; exit 1; }
grep -q '"state": *"done"' "$workdir/job.json" || { echo "gups job not done" >&2; exit 1; }

# A typo'd parameter must be a 400, not a silently defaulted run.
badreq='{"base":"simos-mipsy","workload":{"name":"gups","logtable":10}}'
code=$(curl -sS -o "$workdir/badjob.json" -w '%{http_code}' -X POST "http://$addr/v1/runs?wait=true" \
  -H 'Content-Type: application/json' -d "$badreq")
[ "$code" = 400 ] || { echo "bad param: HTTP $code, want 400" >&2; cat "$workdir/badjob.json" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "flashd exited nonzero:" >&2; cat "$workdir/flashd.log" >&2; exit 1; }
pid=

echo "workload smoke OK: $count workloads simulated, gups served with overrides, bad names and params rejected"
