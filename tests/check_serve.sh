#!/usr/bin/env bash
# End-to-end checks for the sweep service, run by ctest (see CMakeLists.txt):
# a daemon on a Unix socket, concurrent sharded submissions whose merged
# reports reproduce a single-process sweep's tables exactly, warm-cache
# accounting across requests, and a graceful SIGTERM drain that unlinks the
# socket.  Usage: check_serve.sh <path-to-arl-binary>
set -u

cli="$1"
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

tmpdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
  rm -rf "$tmpdir"
}
trap cleanup EXIT

socket="$tmpdir/arl.sock"

# Usage errors (exit 2) before any server exists; a missing server is a
# runtime error (exit 1), not a usage error.
"$cli" serve >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve without --socket should exit 2"
"$cli" serve --socket="$socket" --queue=0 >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve --queue=0 should exit 2"
"$cli" submit >/dev/null 2>&1
[ $? -eq 2 ] || fail "submit without --socket should exit 2"
"$cli" submit --socket="$socket" --ping >/dev/null 2>&1
[ $? -eq 1 ] || fail "submit to a missing server should exit 1"
# Every submit flag is checked before connecting: a bad value is a usage
# error whether or not a server is reachable.
"$cli" submit --socket="$socket" --workload=bogus >/dev/null 2>&1
[ $? -eq 2 ] || fail "submit --workload=bogus should exit 2 without a server"

# Start the daemon and wait for its socket to appear.
"$cli" serve --socket="$socket" --queue=8 2>"$tmpdir/serve.log" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -S "$socket" ] && break
  sleep 0.05
done
[ -S "$socket" ] || fail "server did not create its socket"

out=$("$cli" submit --socket="$socket" --ping 2>&1)
[ $? -eq 0 ] || fail "ping should exit 0: $out"
case "$out" in
  *pong*) ;;
  *) fail "ping should answer pong: $out" ;;
esac

# Flag validation against a live server: a numeric cache capacity is a
# server-side knob, a usage error here.
"$cli" submit --socket="$socket" --cache=64 >/dev/null 2>&1
[ $? -eq 2 ] || fail "submit --cache=<N> (a server-side knob) should exit 2"

# A bad --out is refused before the server runs anything: both exit 2, and
# the server's accepted count does not move.
accepted() {
  "$cli" stats --socket="$socket" | sed -n 's/^requests: \([0-9]*\) accepted.*/\1/p'
}
accepted_before=$(accepted)
"$cli" submit --socket="$socket" --count=300 --n=64 --sigma=8 --out= >/dev/null 2>&1
[ $? -eq 2 ] || fail "submit --out= should exit 2"
"$cli" submit --socket="$socket" --count=300 --n=64 --sigma=8 \
  --out="$tmpdir/nonexistent/d/f" >/dev/null 2>"$tmpdir/bad-out.log"
[ $? -eq 2 ] || fail "submit --out=<unwritable path> should exit 2"
grep -q "cannot open $tmpdir/nonexistent/d/f for writing" "$tmpdir/bad-out.log" ||
  fail "the --out error should name the --out path: $(cat "$tmpdir/bad-out.log")"
accepted_after=$(accepted)
[ -n "$accepted_before" ] && [ "$accepted_after" = "$accepted_before" ] ||
  fail "a refused --out must not reach the server (accepted $accepted_before -> $accepted_after)"

# The path is taken: a second daemon must refuse to start, and must not
# disturb the first one's socket.
"$cli" serve --socket="$socket" >/dev/null 2>&1
[ $? -eq 1 ] || fail "serve on an occupied socket should exit 1"
[ -S "$socket" ] || fail "the refused daemon must leave the live socket alone"

# Four concurrent sharded submissions; their merged reports print exactly
# the single-process sweep's tables.  Wall time, throughput, worker counts
# and cache counters are execution circumstances, filtered as in
# check_cli.sh; whitespace is squeezed because column widths align to the
# widest cell.
sweep_flags="--count=12 --n=8 --protocol=canonical --protocol=classify --seed=5"
filter() {
  # cat -s squeezes the blank line orphaned by removing the cache block;
  # the trailing phase-timing block is all timings, dropped wholesale.
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads|schedule cache" |
    sed -E 's/ +/ /g; s/-+/-/g' | cat -s
}
"$cli" sweep $sweep_flags >"$tmpdir/single.txt" 2>&1 ||
  fail "single-process reference sweep should exit 0"
pids=""
for i in 0 1 2 3; do
  "$cli" submit --socket="$socket" $sweep_flags --shard=$i/4 \
    --out="$tmpdir/shard-$i.txt" >/dev/null 2>"$tmpdir/submit-$i.log" &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || fail "concurrent submit (pid $pid) should exit 0"
done
for i in 0 1 2 3; do
  head -1 "$tmpdir/shard-$i.txt" | grep -q "arl-shard-report" ||
    fail "submit --out should write a versioned shard report (shard $i)"
done
"$cli" merge "$tmpdir"/shard-[0-3].txt >"$tmpdir/merged.txt" 2>&1 ||
  fail "merge of the served shards should exit 0"
if ! diff <(filter "$tmpdir/merged.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "merged served shards should print exactly the single-process tables"
fi

# An unsharded submit prints those same tables directly.
"$cli" submit --socket="$socket" $sweep_flags >"$tmpdir/served.txt" 2>"$tmpdir/cold.log" ||
  fail "unsharded submit should exit 0"
if ! diff <(filter "$tmpdir/served.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "submit should print exactly the tables 'arl sweep' prints"
fi

# Warm re-submission: the shared cache answers every configuration the
# earlier requests compiled — nonzero hits, zero misses, zero builds.
"$cli" submit --socket="$socket" $sweep_flags >/dev/null 2>"$tmpdir/warm.log" ||
  fail "warm submit should exit 0"
warm=$(sed -n 's/^serve cache: \([0-9]*\) hits, \([0-9]*\) misses, \([0-9]*\) schedule builds.*/\1 \2 \3/p' "$tmpdir/warm.log")
set -- $warm
if [ $# -ne 3 ]; then
  fail "warm submit should report its cache use on stderr: $(cat "$tmpdir/warm.log")"
else
  [ "$1" -gt 0 ] || fail "warm submit should hit the shared cache (got $1 hits)"
  [ "$2" -eq 0 ] || fail "warm submit should miss nothing (got $2 misses)"
  [ "$3" -eq 0 ] || fail "warm submit should build no schedules (got $3 builds)"
fi

# Opting out of the cache leaves the shared counters untouched.
out=$("$cli" submit --socket="$socket" $sweep_flags --cache=off 2>&1 >/dev/null)
case "$out" in
  *"serve cache: 0 hits, 0 misses, 0 schedule builds"*) ;;
  *) fail "--cache=off should bypass the shared cache: $out" ;;
esac

# ---------------------------------------------------------------- arl stats

# Usage errors mirror submit's: no socket is misuse, a missing server is a
# runtime failure.
"$cli" stats >/dev/null 2>&1
[ $? -eq 2 ] || fail "stats without --socket should exit 2"
"$cli" stats --socket="$tmpdir/nowhere.sock" >/dev/null 2>&1
[ $? -eq 1 ] || fail "stats against a missing server should exit 1"
"$cli" stats --socket="$socket" --timeout=bogus >/dev/null 2>&1
[ $? -eq 2 ] || fail "stats --timeout=bogus should exit 2"

# A live query answers the full snapshot: uptime, gauges, request counters,
# cache/store totals, latency percentiles.
"$cli" stats --socket="$socket" > "$tmpdir/stats.txt" 2>&1 ||
  fail "stats against the live server should exit 0"
for token in "uptime" "requests:" "cache:" "store " "queue wait us:" "dispatch us:"; do
  grep -q "$token" "$tmpdir/stats.txt" ||
    fail "stats output should contain '$token': $(cat "$tmpdir/stats.txt")"
done
grep -q "queue 0 waiting" "$tmpdir/stats.txt" ||
  fail "an idle server should report an empty queue: $(cat "$tmpdir/stats.txt")"
queue_sampled=$(sed -n 's/^queue wait us: \([0-9]*\) sampled.*/\1/p' "$tmpdir/stats.txt")
[ -n "$queue_sampled" ] && [ "$queue_sampled" -gt 0 ] ||
  fail "the executed sweeps should have sampled queue-wait latencies: $(cat "$tmpdir/stats.txt")"

# Graceful drain: SIGTERM finishes in-flight work, prints a summary, exits
# 0 and unlinks the socket — no orphaned daemon, no leftover path.
kill -TERM "$server_pid"
wait "$server_pid"
status=$?
server_pid=""
[ "$status" -eq 0 ] || fail "SIGTERM drain should exit 0, got $status"
grep -q "drained" "$tmpdir/serve.log" ||
  fail "the drain should log a summary: $(cat "$tmpdir/serve.log")"
[ ! -e "$socket" ] || fail "the drain should unlink the socket"

# The drain summary and the earlier `arl stats` answer came from the same
# snapshot path and formatter, so every cumulative line (requests, cache,
# store, latency percentiles) must agree verbatim — nothing ran in between.
# Only the uptime/gauge line may differ (time passed, the stats session
# itself came and went).
cumulative() {
  grep -E "^(requests:|cache:|store |queue wait us:|dispatch us:)" "$1"
}
sed -n 's/^arl serve: //p' "$tmpdir/serve.log" > "$tmpdir/drain-stats.txt"
if ! diff <(cumulative "$tmpdir/stats.txt") <(cumulative "$tmpdir/drain-stats.txt") >/dev/null
then
  fail "arl stats and the drain summary disagree: $(diff "$tmpdir/stats.txt" \
    "$tmpdir/drain-stats.txt")"
fi
"$cli" submit --socket="$socket" --ping >/dev/null 2>&1
[ $? -eq 1 ] || fail "submit after the drain should exit 1"

# --------------------------------------------- hardening + artifact store

# Submit-side flag validation: a timeout outside [0, 86400] and a directory
# --store (a server-side knob) are usage errors.
for value in bogus -1 86401; do
  "$cli" submit --socket="$socket" --timeout=$value --ping >/dev/null 2>&1
  [ $? -eq 2 ] || fail "submit --timeout=$value should exit 2"
done
"$cli" submit --socket="$socket" --store="$tmpdir/dir" --ping >/dev/null 2>&1
[ $? -eq 2 ] || fail "submit --store=<DIR> (a server-side knob) should exit 2"

# A store without a cache is contradictory (the store is the cache's disk
# tier) — refused at flag parse time.
"$cli" serve --socket="$socket" --store="$tmpdir/store" --cache=off >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve --store with --cache=off should exit 2"

# A non-socket file at the path is refused and never unlinked.
echo "precious" > "$socket"
"$cli" serve --socket="$socket" >/dev/null 2>&1
[ $? -eq 1 ] || fail "serve on a non-socket path should exit 1"
[ "$(cat "$socket" 2>/dev/null)" = "precious" ] ||
  fail "the refused daemon must not unlink a non-socket file"
rm -f "$socket"

# A store-backed daemon: the socket is owner-only, submissions persist
# artifacts, and — after a SIGKILL that leaves a stale socket behind — a
# fresh daemon reclaims the path and preloads the store (zero compiles).
"$cli" serve --socket="$socket" --store="$tmpdir/store" 2>"$tmpdir/serve2.log" &
server_pid=$!
disown "$server_pid"  # keep bash from announcing the deliberate SIGKILL below
for _ in $(seq 1 100); do
  [ -S "$socket" ] && break
  sleep 0.05
done
[ -S "$socket" ] || fail "store-backed server did not create its socket"
mode=$(stat -c %a "$socket" 2>/dev/null || stat -f %Lp "$socket" 2>/dev/null)
[ "$mode" = "600" ] || fail "the socket should be chmod 0600, got $mode"
grep -q "store $tmpdir/store" "$tmpdir/serve2.log" ||
  fail "the startup line should name the store: $(cat "$tmpdir/serve2.log")"

"$cli" submit --socket="$socket" $sweep_flags >/dev/null 2>&1 ||
  fail "submit to the store-backed server should exit 0"
ls "$tmpdir/store"/*.arl >/dev/null 2>&1 ||
  fail "the served sweep should persist artifact entries"

# SIGKILL: the crash that leaves a stale socket file on disk.
kill -KILL "$server_pid"
while kill -0 "$server_pid" 2>/dev/null; do sleep 0.05; done
server_pid=""
[ -S "$socket" ] || fail "SIGKILL should leave the stale socket behind (test premise)"

"$cli" serve --socket="$socket" --store="$tmpdir/store" 2>"$tmpdir/serve3.log" &
server_pid=$!
started=0
for _ in $(seq 1 100); do
  if "$cli" submit --socket="$socket" --ping >/dev/null 2>&1; then
    started=1
    break
  fi
  sleep 0.05
done
[ "$started" -eq 1 ] || fail "a fresh daemon should reclaim the stale socket and serve"

# The same submission against the restarted daemon: identical tables, and
# the drain summary shows disk loads with zero saves (nothing recompiled).
"$cli" submit --socket="$socket" $sweep_flags >"$tmpdir/served-warm.txt" \
    2>"$tmpdir/warm2.log" ||
  fail "submit to the restarted server should exit 0"
if ! diff <(filter "$tmpdir/served-warm.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "the store-preloaded submit should print exactly the single-process tables"
fi
kill -TERM "$server_pid"
wait "$server_pid"
status=$?
server_pid=""
[ "$status" -eq 0 ] || fail "the restarted daemon's SIGTERM drain should exit 0, got $status"
store_line=$(sed -n 's/^arl serve: store \([0-9]*\) loads, .* \([0-9]*\) saves.*/\1 \2/p' \
  "$tmpdir/serve3.log")
set -- $store_line
if [ $# -ne 2 ]; then
  fail "the drain should log store counters: $(cat "$tmpdir/serve3.log")"
else
  [ "$1" -gt 0 ] || fail "the restarted daemon should load from the store (got $1 loads)"
  [ "$2" -eq 0 ] || fail "the restarted daemon should save nothing (got $2 saves)"
fi

if [ "$failures" -gt 0 ]; then
  exit 1
fi
echo "serve e2e ok"
