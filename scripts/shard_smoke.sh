#!/usr/bin/env bash
# End-to-end smoke of intra-run sharded execution: a sharded flashsim
# run must print the same simulation report as the serial run (only the
# wall-clock line may differ), and a flashd job carrying "shards": 4
# must produce a result the unsharded resubmission finds in the warm
# cache — shard count is an execution knob, never part of the memo key.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

# CLI leg: serial vs -shards 4, reports bit-identical modulo wall time.
go build -o "$workdir/flashsim" ./cmd/flashsim
"$workdir/flashsim" run -app fft -procs 4 -full=false | grep -v 'wall' >"$workdir/serial.txt"
"$workdir/flashsim" run -app fft -procs 4 -full=false -shards 4 | grep -v 'wall' >"$workdir/sharded.txt"
if ! diff -u "$workdir/serial.txt" "$workdir/sharded.txt"; then
  echo "sharded flashsim report diverged from serial" >&2; exit 1
fi
echo "flashsim run -shards 4 report identical to serial"

# Daemon leg: cold sharded job, then the serial resubmission must be a
# warm cache hit with the same counters. Port 0 avoids collisions with
# concurrent CI jobs; the resolved address comes from the daemon's log.
go build -o "$workdir/flashd" ./cmd/flashd
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
base="http://$addr"

for i in $(seq 1 50); do
  if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "flashd died during startup:" >&2; cat "$workdir/flashd.log" >&2; exit 1
  fi
  sleep 0.2
done

submit() {
  curl -sS -o "$1" -w '%{http_code}' -X POST "$base/v1/runs?wait=true" \
    -H 'Content-Type: application/json' -d "$2"
}

code=$(submit "$workdir/cold.json" \
  '{"base":"simos-mipsy","procs":4,"shards":4,"workload":{"name":"fft","logn":10}}')
[ "$code" = 200 ] || { echo "sharded submit: HTTP $code" >&2; cat "$workdir/cold.json" >&2; exit 1; }
grep -q '"state": "done"' "$workdir/cold.json" || { echo "sharded job not done" >&2; exit 1; }
grep -q '"cached": true' "$workdir/cold.json" && { echo "cold sharded run claims cached" >&2; exit 1; }

code=$(submit "$workdir/warm.json" \
  '{"base":"simos-mipsy","procs":4,"workload":{"name":"fft","logn":10}}')
[ "$code" = 200 ] || { echo "serial submit: HTTP $code" >&2; cat "$workdir/warm.json" >&2; exit 1; }
grep -q '"cached": true' "$workdir/warm.json" \
  || { echo "serial resubmission missed the sharded run's memo" >&2; exit 1; }

cold_exec=$(grep -m1 '"Exec":' "$workdir/cold.json" | tr -dc '0-9')
warm_exec=$(grep -m1 '"Exec":' "$workdir/warm.json" | tr -dc '0-9')
if [ -z "$cold_exec" ] || [ "$cold_exec" != "$warm_exec" ]; then
  echo "cached Exec ($warm_exec) != sharded Exec ($cold_exec)" >&2; exit 1
fi

kill -TERM "$pid"
wait "$pid" || { echo "flashd exited nonzero on SIGTERM" >&2; cat "$workdir/flashd.log" >&2; exit 1; }

echo "shard smoke OK: sharded CLI identical, sharded job cached for serial resubmission"
