#!/usr/bin/env bash
# End-to-end smoke of the serving loop: boot flashd, submit one snbench
# run over HTTP, resubmit it to hit the warm cache, have two unrunnable
# specs refused with 400, then SIGTERM the daemon and require a clean
# drain. A second leg boots two replicas on one shared -cache-dir: what
# A computes is a cached hit on B, and still is after A is SIGKILLed. CI
# runs this after the unit tests; it needs only curl and a Go toolchain.
set -euo pipefail

workdir=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/flashd" ./cmd/flashd

# boot NAME ARGS... starts a flashd logging to $workdir/NAME.log and sets
# $pid and $base once /healthz answers. Port 0 lets the kernel pick a
# free port; the daemon logs the resolved address, which we parse
# instead of hard-coding one (parallel CI jobs on one host must not
# collide).
boot() {
  local log="$workdir/$1.log"; shift
  "$workdir/flashd" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
  pid=$!
  pids+=("$pid")
  local addr=""
  for i in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "flashd died during startup:" >&2; cat "$log" >&2; exit 1
    fi
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "flashd never logged its address" >&2; cat "$log" >&2; exit 1; }
  base="http://$addr"
  for i in $(seq 1 50); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "flashd died during startup:" >&2; cat "$log" >&2; exit 1
    fi
    sleep 0.2
  done
  curl -fsS "$base/healthz" | grep -q '"ok"' || { echo "healthz not ok" >&2; exit 1; }
}

boot flashd -cache-dir "$workdir/cache" -cache-max-bytes 64MiB \
  -metrics-out "$workdir/metrics.json"

req='{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":256}}'
submit() { # out_file [base [body]]
  curl -sS -o "$1" -w '%{http_code}' -X POST "${2:-$base}/v1/runs?wait=true" \
    -H 'Content-Type: application/json' -d "${3:-$req}"
}
# Bodies are compact JSON, one line each: match a field and its value,
# never a whole line.
exec_of() { grep -o '"Exec": *[0-9]*' "$1" | head -n 1 | tr -dc '0-9'; }

code=$(submit "$workdir/cold.json")
[ "$code" = 200 ] || { echo "cold submit: HTTP $code" >&2; cat "$workdir/cold.json" >&2; exit 1; }
grep -q '"state": *"done"' "$workdir/cold.json" || { echo "cold job not done" >&2; exit 1; }
grep -q '"cached": *true' "$workdir/cold.json" && { echo "cold run claims cached" >&2; exit 1; }

code=$(submit "$workdir/warm.json")
[ "$code" = 200 ] || { echo "warm submit: HTTP $code" >&2; cat "$workdir/warm.json" >&2; exit 1; }
grep -q '"cached": *true' "$workdir/warm.json" || { echo "warm run missed the cache" >&2; exit 1; }

# A spec that could never run is refused at the door: 20000 processors
# used to take the daemon down with an out-of-memory fault nothing can
# recover, -1 came back as a 500 with a goroutine dump for a body. Both
# are 400s now, and the daemon is still there afterwards.
for procs in 20000 -1; do
  code=$(submit "$workdir/refused.json" "$base" \
    "{\"base\":\"simos-mipsy\",\"procs\":$procs,\"workload\":{\"name\":\"gups\",\"log_table\":10,\"updates\":64}}")
  [ "$code" = 400 ] || { echo "procs $procs: HTTP $code, want 400" >&2; cat "$workdir/refused.json" >&2; exit 1; }
  grep -q '"error": *"config: ' "$workdir/refused.json" || { echo "procs $procs: refusal does not name the config" >&2; exit 1; }
done
curl -fsS "$base/healthz" | grep -q '"ok"' || { echo "healthz not ok after the refusals" >&2; exit 1; }

# One pool execution: the cold run (the warm one is a memo hit).
curl -fsS -o "$workdir/metrics.prom" "$base/metrics"
grep -q '^flashsim_runner_runs_total 1$' "$workdir/metrics.prom" \
  || { echo "/metrics does not show exactly one execution" >&2; exit 1; }

kill -TERM "$pid"
if ! wait "$pid"; then
  echo "flashd exited nonzero on SIGTERM:" >&2; cat "$workdir/flashd.log" >&2; exit 1
fi
grep -q '"Ran": *1\b' "$workdir/metrics.json" || { echo "-metrics-out not flushed on drain" >&2; exit 1; }

# ---- Two replicas, one -cache-dir ----
boot a -cache-dir "$workdir/shared"; pid_a=$pid base_a=$base
boot b -cache-dir "$workdir/shared"; pid_b=$pid base_b=$base

# cold_on_a NAME BODY: A computes BODY (not cached). cached_on_b NAME
# BODY: B must answer 200, cached, with the result A got.
cold_on_a() {
  code=$(submit "$workdir/$1.a.json" "$base_a" "$2")
  [ "$code" = 200 ] || { echo "$1 on A: HTTP $code" >&2; cat "$workdir/$1.a.json" >&2; exit 1; }
  if grep -q '"cached": *true' "$workdir/$1.a.json"; then echo "$1 on A claims cached" >&2; exit 1; fi
}
cached_on_b() {
  code=$(submit "$workdir/$1.b.json" "$base_b" "$2")
  [ "$code" = 200 ] || { echo "$1 on B: HTTP $code" >&2; cat "$workdir/$1.b.json" >&2; exit 1; }
  grep -q '"cached": *true' "$workdir/$1.b.json" \
    || { echo "B recomputed $1, which A had put in the shared -cache-dir" >&2; exit 1; }
  a_exec=$(exec_of "$workdir/$1.a.json"); b_exec=$(exec_of "$workdir/$1.b.json")
  [ -n "$a_exec" ] && [ "$a_exec" = "$b_exec" ] \
    || { echo "$1: B's Exec ($b_exec) != A's ($a_exec)" >&2; exit 1; }
}
spec1='{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":200}}'
spec2='{"base":"simos-mipsy","workload":{"name":"snbench.restart","lines":320}}'
cold_on_a spec1 "$spec1"
cached_on_b spec1 "$spec1"

# A computes a second result and then crashes (not a drain). disown
# first so bash prints no asynchronous "Killed" notice. B has never seen
# spec2; the file A left behind is all there is.
cold_on_a spec2 "$spec2"
disown "$pid_a" 2>/dev/null || true
kill -KILL "$pid_a"
cached_on_b spec2 "$spec2"
cached_on_b spec1 "$spec1"

kill -TERM "$pid_b"
if ! wait "$pid_b"; then
  echo "replica B exited nonzero on SIGTERM:" >&2; cat "$workdir/b.log" >&2; exit 1
fi

echo "serve smoke OK: cold run simulated, warm run cached, unrunnable specs refused, drained cleanly; two replicas on one -cache-dir: cross-replica cached hit, identical result after SIGKILL of the computing replica"
