#!/usr/bin/env bash
# Flag-validation checks for the arl CLI, run by ctest (see CMakeLists.txt).
# Usage: check_cli.sh <path-to-arl-binary>
set -u

cli="$1"
case "$cli" in
  /*) ;;
  *) cli="$PWD/$cli" ;;  # the resume check re-runs emitted specs from a temp cwd
esac
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# The one table filter every comparison below diffs through: it drops the
# execution circumstances (wall time, throughput, worker count and the
# trailing phase-timing block, which is all timings) and squeezes
# whitespace, because column widths align to the widest cell, which may be
# a dropped row's digits.  An optional second argument, an extended regex,
# names more lines to drop.
filter() {
  sed '/^phase timings:/,$d' "$1" | sed '${/^$/d}' |
    grep -vE "wall time|per second|worker threads${2:+|$2}" | sed -E 's/ +/ /g; s/-+/-/g'
}

# Exit-code contract: help and no-args print the reference and exit 0;
# unknown commands and malformed flag values uniformly exit 2.
out=$("$cli" 2>&1)
[ $? -eq 0 ] || fail "no-args should print usage and exit 0"
case "$out" in
  *usage:*) ;;
  *) fail "no-args output should contain the usage reference" ;;
esac
"$cli" help >/dev/null 2>&1
[ $? -eq 0 ] || fail "'arl help' should exit 0"
"$cli" --help >/dev/null 2>&1
[ $? -eq 0 ] || fail "'arl --help' should exit 0"
"$cli" frobnicate >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown command should exit 2"

# Pathological --threads values are usage errors, not thread storms.
for value in -1 257 100000 lots; do
  out=$("$cli" sweep --threads=$value --count=1 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "--threads=$value: expected exit 2, got $status"
  case "$out" in
    *threads*) ;;
    *) fail "--threads=$value error should mention the flag: $out" ;;
  esac
done

# Unknown --protocol values exit 2 with an error listing the registry.
out=$("$cli" sweep --protocol=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown protocol: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-protocol error should echo the offending name: $out" ;;
esac
for name in canonical classify binary-search tree-split randomized; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-protocol error should list '$name': $out" ;;
  esac
done

# Malformed protocol parameters exit 2 as well.
"$cli" sweep --protocol=binary-search:nope --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "malformed protocol parameter should exit 2"
"$cli" sweep --protocol=canonical:3 --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "parameter on a parameterless protocol should exit 2"

# The legacy shorthand conflicts with the explicit flag instead of being
# silently ignored.
"$cli" sweep --classify-only --protocol=canonical --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--classify-only with --protocol should exit 2"

# A mixed-protocol cross-product sweep runs and prints one comparison row
# per protocol.  (Exit 0 when every job verifies, 1 otherwise — baselines
# legitimately fail on out-of-model configurations.)
out=$("$cli" sweep --count=6 --family=staggered \
      --protocol=canonical --protocol=binary-search --protocol=randomized 2>&1)
status=$?
[ "$status" -le 1 ] || fail "mixed-protocol sweep should run, got exit $status"
for name in canonical binary-search randomized; do
  case "$out" in
    *"$name"*) ;;
    *) fail "sweep output should contain a '$name' row: $out" ;;
  esac
done

# Unknown families still exit 2 (pre-existing contract, kept).
"$cli" sweep --family=bogus --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown family should exit 2"

# --------------------------------------------------------------- workloads

# The registry listing command exits 0 and names every workload kind.
out=$("$cli" workloads 2>&1)
[ $? -eq 0 ] || fail "'arl workloads' should exit 0"
for name in random exhaustive family-g family-h family-s staggered grid torus \
            hypercube tree single-hop mutations; do
  case "$out" in
    *"$name"*) ;;
    *) fail "workloads listing should contain '$name': $out" ;;
  esac
done

# Bad --workload values exit 2 with an error echoing the offending name and
# listing the registry (symmetric to the --protocol contract).
out=$("$cli" sweep --workload=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown workload: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-workload error should echo the offending name: $out" ;;
esac
for name in random grid torus hypercube tree single-hop mutations exhaustive; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-workload error should list '$name': $out" ;;
  esac
done

# Malformed workload parameters exit 2 as well — including single-node
# shapes whose positive sigma could never be realized (they must fail at
# parse time, not mid-batch inside a worker).
for value in "random:n=0" "random:p=2" "random:n=4,n=5" "random:rows=3" "grid:rows=0" \
             "torus:rows=2,cols=3" "hypercube:d=21" "exhaustive:n=9" "mutations:" \
             "mutations:bogus" "random:" "random:n=1" "tree:n=1" "single-hop:n=1" \
             "grid:rows=1,cols=1"; do
  "$cli" sweep --workload="$value" --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workload=$value should exit 2"
done
"$cli" sweep --workload=random:n=1,sigma=0 --count=1 >/dev/null 2>&1
[ $? -eq 0 ] || fail "a one-node workload with sigma=0 should run and exit 0"

# Contradictory flag combinations are rejected with exit 2: the explicit
# workload axis versus the legacy alias and execution flags (a bare flag
# would silently override the spec's own key), and an explicit --count on
# a workload that counts itself.
for flag in --family=random --n=8 --sigma=2 --p=0.5 --model=nocd --fast; do
  "$cli" sweep --workload=random $flag --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workload with $flag should exit 2"
done
"$cli" sweep --workload=exhaustive:n=3,tau=1 --count=5 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--count with a self-counting workload should exit 2"
"$cli" sweep --workload=exhaustive:n=3,tau=1 >/dev/null 2>&1
[ $? -eq 0 ] || fail "a self-counting workload without --count should run and exit 0"

# The legacy flags are aliases: byte-identical tables to the --workload
# spelling (execution circumstance rows filtered).
"$cli" sweep --count=8 --n=8 --sigma=2 --seed=3 > "$tmpdir/legacy.txt" 2>&1 ||
  fail "legacy random sweep should exit 0"
"$cli" sweep --count=8 --workload=random:n=8,p=0.3,sigma=2 --seed=3 > "$tmpdir/spec.txt" 2>&1 ||
  fail "workload random sweep should exit 0"
if ! diff <(filter "$tmpdir/legacy.txt") <(filter "$tmpdir/spec.txt") >/dev/null; then
  fail "--family=random tables should be byte-identical to --workload=random:..."
fi
"$cli" sweep --count=6 --family=staggered > "$tmpdir/legacy-stag.txt" 2>&1 ||
  fail "legacy staggered sweep should exit 0"
"$cli" sweep --count=6 --workload=staggered > "$tmpdir/spec-stag.txt" 2>&1 ||
  fail "workload staggered sweep should exit 0"
if ! diff <(filter "$tmpdir/legacy-stag.txt") <(filter "$tmpdir/spec-stag.txt") \
    >/dev/null; then
  fail "--family=staggered tables should be byte-identical to --workload=staggered"
fi

# A topology workload runs the whole distributed pipeline: shard reports
# carry its canonical name, and the merge is byte-identical to the
# unsharded tables.
wflags="--count=6 --workload=grid:rows=3,cols=3,sigma=2"
"$cli" sweep $wflags > "$tmpdir/wsingle.txt" 2>&1 ||
  fail "grid workload sweep should exit 0"
"$cli" sweep $wflags --shard=0/2 --out="$tmpdir/w0.txt" >/dev/null 2>&1 ||
  fail "grid workload shard 0/2 should exit 0"
"$cli" sweep $wflags --shard=1/2 --out="$tmpdir/w1.txt" >/dev/null 2>&1 ||
  fail "grid workload shard 1/2 should exit 0"
grep -q "sweep .* grid:rows=3,cols=3,sigma=2$" "$tmpdir/w0.txt" ||
  fail "shard report should carry the canonical workload name"
"$cli" merge "$tmpdir/w0.txt" "$tmpdir/w1.txt" > "$tmpdir/wmerged.txt" 2>&1 ||
  fail "grid workload merge should exit 0"
if ! diff <(filter "$tmpdir/wmerged.txt") <(filter "$tmpdir/wsingle.txt") >/dev/null; then
  fail "merged grid workload shards should print exactly the unsharded tables"
fi

# Bad --cache values exit 2 with a usage error.
for value in bogus -3 12cats 9999999999; do
  out=$("$cli" sweep --cache=$value --count=1 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "--cache=$value: expected exit 2, got $status"
  case "$out" in
    *cache*) ;;
    *) fail "--cache=$value error should mention the flag: $out" ;;
  esac
done

# The cache stats line appears exactly when the cache is enabled.
out=$("$cli" sweep --count=4 --n=6 --cache=on \
      --protocol=canonical --protocol=classify 2>&1)
[ $? -eq 0 ] || fail "cached sweep should verify and exit 0"
case "$out" in
  *"schedule cache:"*) ;;
  *) fail "--cache=on sweep should print the schedule cache stats line: $out" ;;
esac
out=$("$cli" sweep --count=4 --n=6 --cache=16 \
      --protocol=canonical --protocol=classify 2>&1)
[ $? -eq 0 ] || fail "capacity-cached sweep should verify and exit 0"
case "$out" in
  *"schedule cache:"*) ;;
  *) fail "--cache=16 sweep should print the schedule cache stats line: $out" ;;
esac
for flags in "" "--cache=off" "--cache=0"; do
  out=$("$cli" sweep --count=4 --n=6 $flags 2>&1)
  [ $? -eq 0 ] || fail "uncached sweep ($flags) should verify and exit 0"
  case "$out" in
    *"schedule cache:"*) fail "uncached sweep ($flags) must not print cache stats: $out" ;;
    *) ;;
  esac
done

# ------------------------------------------------------------ engine modes

# Bad --engine values exit 2 with a usage error naming the flag.
for value in bogus fast ""; do
  out=$("$cli" sweep --engine=$value --count=1 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "--engine=$value: expected exit 2, got $status"
  case "$out" in
    *engine*) ;;
    *) fail "--engine=$value error should mention the flag: $out" ;;
  esac
done

# The engines compute bit-identical results: scalar, wavefront and the
# default (auto) print the same tables once timing rows are filtered.
# (Exit <= 1: the randomized baseline legitimately fails verification on
# configurations outside its model, same as the mixed-protocol check.)
eflags="--count=8 --n=8 --sigma=2 --seed=5 --protocol=canonical --protocol=randomized"
"$cli" sweep $eflags --engine=scalar > "$tmpdir/escalar.txt" 2>&1
[ $? -le 1 ] || fail "--engine=scalar sweep should run"
"$cli" sweep $eflags --engine=wavefront > "$tmpdir/ewave.txt" 2>&1
[ $? -le 1 ] || fail "--engine=wavefront sweep should run"
"$cli" sweep $eflags > "$tmpdir/eauto.txt" 2>&1
[ $? -le 1 ] || fail "default-engine sweep should run"
if ! diff <(filter "$tmpdir/escalar.txt") <(filter "$tmpdir/ewave.txt") >/dev/null; then
  fail "--engine=scalar and --engine=wavefront tables should be byte-identical"
fi
if ! diff <(filter "$tmpdir/ewave.txt") <(filter "$tmpdir/eauto.txt") >/dev/null; then
  fail "default engine tables should match --engine=wavefront"
fi

# The sweep summary reports its own throughput (no bench run needed).
grep -q "node-rounds per second" "$tmpdir/eauto.txt" ||
  fail "sweep summary should print node-rounds per second"
grep -q "global rounds" "$tmpdir/eauto.txt" ||
  fail "sweep summary should print the global rounds total"

# ----------------------------------------------------------- sharded sweeps

# Malformed --shard values and conflicting distributed flags exit 2.
for value in bogus 2/2 0/0 1/ /2 1.5/2; do
  "$cli" sweep --shard=$value --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--shard=$value should exit 2"
done
"$cli" sweep --shard=0/2 --workers=2 --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--shard with --workers should exit 2"
"$cli" sweep --out="$tmpdir/x" --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--out without --shard should exit 2"
"$cli" sweep --shard=0/2 --out= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --out= should exit 2, not fall back to stdout"
for value in 0 257 bogus; do
  "$cli" sweep --workers=$value --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--workers=$value should exit 2"
done

# Shard emission + merge reassembles the exact unsharded report (wall time,
# worker count and throughput are execution circumstances, filtered out).
sweep_flags="--count=12 --n=8 --protocol=canonical --protocol=classify"
"$cli" sweep $sweep_flags > "$tmpdir/single.txt" 2>&1 ||
  fail "unsharded reference sweep should exit 0"
"$cli" sweep $sweep_flags --shard=0/2 --out="$tmpdir/s0.txt" >/dev/null 2>&1 ||
  fail "shard 0/2 should run and exit 0"
"$cli" sweep $sweep_flags --shard=1/2 --out="$tmpdir/s1.txt" >/dev/null 2>&1 ||
  fail "shard 1/2 should run and exit 0"
head -1 "$tmpdir/s0.txt" | grep -q "arl-shard-report" ||
  fail "shard output should be a versioned shard report"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/s1.txt" > "$tmpdir/merged.txt" 2>&1 ||
  fail "merge of both shards should exit 0"
if ! diff <(filter "$tmpdir/merged.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "merged shard report should print exactly the unsharded sweep tables"
fi

# A shard report also lands on stdout when --out is absent.
"$cli" sweep $sweep_flags --shard=0/2 2>/dev/null | head -1 | grep -q "arl-shard-report" ||
  fail "--shard without --out should write the report to stdout"

# The local worker driver is the same pipeline end-to-end.
"$cli" sweep $sweep_flags --workers=2 > "$tmpdir/workers.txt" 2>&1 ||
  fail "--workers=2 sweep should exit 0"
if ! diff <(filter "$tmpdir/workers.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "--workers sweep should print exactly the unsharded sweep tables"
fi

# Bad merges are usage errors: nothing, unreadable, gap, overlap, corruption.
"$cli" merge >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge without files should exit 2"
"$cli" merge "$tmpdir/does-not-exist" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of a missing file should exit 2"
"$cli" merge "$tmpdir/s0.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge with a gap (missing shard) should exit 2"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/s0.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge with overlapping shards should exit 2"
sed 's/^arl-shard-report [0-9]*$/arl-shard-report 99/' "$tmpdir/s0.txt" > "$tmpdir/bad-version.txt"
out=$("$cli" merge "$tmpdir/bad-version.txt" "$tmpdir/s1.txt" 2>&1)
[ $? -eq 2 ] || fail "merge of a version-mismatched report should exit 2"
case "$out" in
  *version*) ;;
  *) fail "version-mismatch error should say so: $out" ;;
esac
head -5 "$tmpdir/s0.txt" > "$tmpdir/truncated.txt"
"$cli" merge "$tmpdir/truncated.txt" "$tmpdir/s1.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of a truncated report should exit 2"
"$cli" sweep $sweep_flags --seed=2 --shard=1/2 --out="$tmpdir/other-seed.txt" >/dev/null 2>&1 ||
  fail "other-seed shard should run and exit 0"
"$cli" merge "$tmpdir/s0.txt" "$tmpdir/other-seed.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merge of shards from different seeds should exit 2"

# ----------------------------------------------------------- artifact store

# Bad --store values exit 2: an empty path, the server-side "off" spelling,
# and the contradictory store-without-cache combination.
"$cli" sweep --store= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --store= should exit 2"
"$cli" sweep --store=off --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--store=off should exit 2 for sweep (it takes a directory)"
"$cli" sweep --store="$tmpdir/store" --cache=off --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--store with --cache=off should exit 2"

# A store-backed sweep prints the artifact store stats line, persists
# entries, and a second (cold-process) run preloads them: zero saves, and
# tables byte-identical to the storeless run.  (Cache/store stats lines are
# execution circumstances, filtered like the timing rows, and so are the
# blank lines around them.)
store_lines='schedule cache:|artifact store:|^$'
store_flags="--count=6 --n=8 --sigma=2 --seed=11 --protocol=canonical --protocol=classify"
"$cli" sweep $store_flags > "$tmpdir/nostore.txt" 2>&1 ||
  fail "storeless reference sweep should exit 0"
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "store-backed sweep should exit 0"
case "$out" in
  *"artifact store:"*) ;;
  *) fail "--store sweep should print the artifact store stats line: $out" ;;
esac
ls "$tmpdir/store"/*.arl >/dev/null 2>&1 || fail "--store should leave entry files behind"
if ls "$tmpdir/store"/*.tmp* >/dev/null 2>&1; then
  fail "--store must not leave tmp residue after a completed sweep"
fi
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "warm store-backed sweep should exit 0"
case "$out" in
  *"artifact store:"*" 0 saves"*) ;;
  *) fail "a warm store-backed sweep should save nothing: $out" ;;
esac
echo "$out" > "$tmpdir/warmstore.txt"
if ! diff <(filter "$tmpdir/warmstore.txt" "$store_lines") \
    <(filter "$tmpdir/nostore.txt" "$store_lines") >/dev/null
then
  fail "store-backed sweep tables should be byte-identical to the storeless run"
fi

# A corrupted store degrades to misses, never to wrong results.
for entry in "$tmpdir/store"/*.arl; do
  printf 'arl-art' > "$entry"
done
out=$("$cli" sweep $store_flags --store="$tmpdir/store" 2>&1)
[ $? -eq 0 ] || fail "sweep over a corrupted store should still exit 0"
echo "$out" > "$tmpdir/corruptstore.txt"
if ! diff <(filter "$tmpdir/corruptstore.txt" "$store_lines") \
    <(filter "$tmpdir/nostore.txt" "$store_lines") \
    >/dev/null; then
  fail "sweep over a corrupted store should still print the storeless tables"
fi

# -------------------------------------------------------- resumable sweeps

# Malformed or out-of-range --shard=B-E values exit 2.
for value in 5-3 3-3 1-2-3 a-b 1- -2; do
  "$cli" sweep --shard=$value --count=6 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--shard=$value should exit 2"
done
"$cli" sweep $sweep_flags --shard=0-999 >/dev/null 2>&1
[ $? -eq 2 ] || fail "a --shard range beyond the sweep's jobs should exit 2"

# An explicit job range emits a shard report mergeable with its complement,
# reproducing the unsharded tables exactly (sweep_flags has 24 jobs).
"$cli" sweep $sweep_flags --shard=0-10 --out="$tmpdir/r0.txt" >/dev/null 2>&1 ||
  fail "--shard=0-10 should run and exit 0"
"$cli" sweep $sweep_flags --shard=10-24 --out="$tmpdir/r1.txt" >/dev/null 2>&1 ||
  fail "--shard=10-24 should run and exit 0"
"$cli" merge "$tmpdir/r0.txt" "$tmpdir/r1.txt" > "$tmpdir/rmerged.txt" 2>&1 ||
  fail "merge of the two job ranges should exit 0"
if ! diff <(filter "$tmpdir/rmerged.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "merged job-range shards should print exactly the unsharded tables"
fi

# merge --missing: a complete cover reports completeness (exit 0, nothing
# on stdout); a partial one emits one exact re-run spec per gap.
out=$("$cli" merge --missing "$tmpdir/r0.txt" "$tmpdir/r1.txt" 2>/dev/null)
[ $? -eq 0 ] || fail "merge --missing over a complete cover should exit 0"
[ -z "$out" ] || fail "a complete cover should emit no re-run specs: $out"
out=$("$cli" merge --missing "$tmpdir/r0.txt" 2>/dev/null)
[ $? -eq 0 ] || fail "merge --missing over a partial cover should exit 0"
case "$out" in
  "arl sweep "*"--shard=10-24"*"--out=resume-10-24.txt"*) ;;
  *) fail "merge --missing should emit the exact gap spec: $out" ;;
esac

# The emitted spec re-runs the gap, and survivors + resumed shard merge to
# the exact uninterrupted tables — the SIGKILL recovery path end to end.
spec="${out#arl }"
(cd "$tmpdir" && eval "'$cli' $spec" >/dev/null 2>&1) ||
  fail "the emitted resume spec should run and exit 0"
"$cli" merge "$tmpdir/r0.txt" "$tmpdir/resume-10-24.txt" > "$tmpdir/resumed.txt" 2>&1 ||
  fail "merge of survivor + resumed shard should exit 0"
if ! diff <(filter "$tmpdir/resumed.txt") <(filter "$tmpdir/single.txt") >/dev/null; then
  fail "resumed merge should print exactly the uninterrupted sweep tables"
fi

# Integer flags are digits only: a sign, a space or a base prefix is a
# usage error, not a number strtoll would have read.
for flag in count threads n; do
  for value in +3 " 3" "3 " 0x3; do
    out=$("$cli" sweep "--$flag=$value" --count=1 2>&1)  # the first spelling wins
    status=$?
    [ "$status" -eq 2 ] || fail "--$flag='$value': expected exit 2, got $status"
    case "$out" in
      *"--$flag"*) ;;
      *) fail "--$flag='$value' error should name the flag: $out" ;;
    esac
  done
done

# --seed takes the full u64 range and nothing else: the seed merge --missing
# prints back must rerun the same sweep, even above 2^63.
for value in -5 18446744073709551616 +5 " 5" 0x5 1e3 ""; do
  "$cli" sweep --count=1 "--seed=$value" >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--seed='$value' should exit 2"
done
big_seed=18446744073709551611
"$cli" sweep $sweep_flags --seed=$big_seed > "$tmpdir/big-single.txt" 2>&1 ||
  fail "a sweep at --seed=$big_seed should exit 0"
"$cli" sweep $sweep_flags --seed=$big_seed --shard=0-10 --out="$tmpdir/b0.txt" >/dev/null 2>&1 ||
  fail "a shard at --seed=$big_seed should exit 0"
out=$("$cli" merge --missing "$tmpdir/b0.txt" 2>/dev/null)
case "$out" in
  *"--seed=$big_seed "*) ;;
  *) fail "merge --missing should print the u64 seed back: $out" ;;
esac
(cd "$tmpdir" && eval "'$cli' ${out#arl }" >/dev/null 2>&1) ||
  fail "the emitted resume spec at --seed=$big_seed should run and exit 0"
"$cli" merge "$tmpdir/b0.txt" "$tmpdir/resume-10-24.txt" > "$tmpdir/big-resumed.txt" 2>&1 ||
  fail "survivor + resumed shard at --seed=$big_seed should merge"
if ! diff <(filter "$tmpdir/big-resumed.txt") <(filter "$tmpdir/big-single.txt") >/dev/null; then
  fail "the resumed merge at --seed=$big_seed should print the uninterrupted tables"
fi

# ------------------------------------------------------------------ faults

# The fault registry listing exits 0 and names every fault kind.
out=$("$cli" faults 2>&1)
[ $? -eq 0 ] || fail "'arl faults' should exit 0"
for name in none drop corrupt crash adversarial-wake; do
  case "$out" in
    *"$name"*) ;;
    *) fail "faults listing should contain '$name': $out" ;;
  esac
done

# Bad --fault values exit 2 with an error echoing the offending name and
# listing the registry (the uniform flag contract: same as --workload).
out=$("$cli" sweep --fault=bogus --count=1 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "unknown fault: expected exit 2, got $status"
case "$out" in
  *bogus*) ;;
  *) fail "unknown-fault error should echo the offending name: $out" ;;
esac
for name in drop corrupt crash adversarial-wake; do
  case "$out" in
    *"$name"*) ;;
    *) fail "unknown-fault error should list '$name': $out" ;;
  esac
done

# Malformed fault parameters exit 2 as well.
for value in "drop:" "drop:2" "drop:-0.1" "drop:abc" "drop:0.1,x" "corrupt:" \
             "crash:" "crash:x" "crash:1,0" "adversarial-wake:" "adversarial-wake:1.5" \
             "none:1" ""; do
  "$cli" sweep --fault="$value" --count=1 >/dev/null 2>&1
  [ $? -eq 2 ] || fail "--fault=$value should exit 2"
done

# --fault=none is the explicit spelling of the default: byte-identical
# output to the same sweep without the flag (nothing filtered but timings).
fault_ref_flags="--count=8 --n=8 --sigma=2 --seed=9 --protocol=canonical"
"$cli" sweep $fault_ref_flags > "$tmpdir/fault-none-a.txt" 2>&1 ||
  fail "fault-free reference sweep should exit 0"
"$cli" sweep $fault_ref_flags --fault=none > "$tmpdir/fault-none-b.txt" 2>&1 ||
  fail "--fault=none sweep should exit 0"
if ! diff <(filter "$tmpdir/fault-none-a.txt") <(filter "$tmpdir/fault-none-b.txt") \
    >/dev/null; then
  fail "--fault=none tables should be byte-identical to the flagless sweep"
fi

# A faulted sweep is deterministic across sharding and threading: shards
# merged print the unsharded tables, the report carries the canonical fault
# spelling, and `merge --missing` reproduces the --fault flag.
fault_flags="--count=12 --n=8 --seed=4 --protocol=canonical --fault=drop:0.1"
"$cli" sweep $fault_flags > "$tmpdir/fault-single.txt" 2>&1
[ $? -le 1 ] || fail "faulted sweep should run"
grep -q "^fault: drop:0.1" "$tmpdir/fault-single.txt" ||
  fail "a faulted sweep should print the fault summary line"
"$cli" sweep $fault_flags --threads=2 > "$tmpdir/fault-t2.txt" 2>&1
[ $? -le 1 ] || fail "faulted sweep at --threads=2 should run"
if ! diff <(filter "$tmpdir/fault-single.txt") <(filter "$tmpdir/fault-t2.txt") \
    >/dev/null; then
  fail "faulted sweep tables should be thread-count invariant"
fi
"$cli" sweep $fault_flags --shard=0/2 --out="$tmpdir/f0.txt" >/dev/null 2>&1
[ $? -le 1 ] || fail "faulted shard 0/2 should run"
"$cli" sweep $fault_flags --shard=1/2 --out="$tmpdir/f1.txt" >/dev/null 2>&1
[ $? -le 1 ] || fail "faulted shard 1/2 should run"
grep -q "^fault drop:0.1$" "$tmpdir/f0.txt" ||
  fail "faulted shard reports should carry the canonical fault line"
"$cli" merge "$tmpdir/f0.txt" "$tmpdir/f1.txt" > "$tmpdir/fault-merged.txt" 2>&1
[ $? -le 1 ] || fail "merge of faulted shards should run"
if ! diff <(filter "$tmpdir/fault-merged.txt") <(filter "$tmpdir/fault-single.txt") \
    >/dev/null; then
  fail "merged faulted shards should print exactly the unsharded tables"
fi
out=$("$cli" merge --missing "$tmpdir/f0.txt" 2>/dev/null)
case "$out" in
  *"--fault=drop:0.1"*) ;;
  *) fail "merge --missing should reproduce the --fault flag: $out" ;;
esac

# Faulted and unfaulted shards describe different sweeps: never merged.
"$cli" merge "$tmpdir/f0.txt" "$tmpdir/s1.txt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "merging faulted with unfaulted shards should exit 2"

# ------------------------------------------------------------ observability

# The plain sweep prints the phase-timing block; flag misuse exits 2.
grep -q "^phase timings:" "$tmpdir/single.txt" ||
  fail "a plain sweep should print the phase timings block"
"$cli" sweep --metrics-out= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --metrics-out= should exit 2"
"$cli" sweep --trace= --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "empty --trace= should exit 2"
"$cli" sweep --metrics-out="$tmpdir/m.json" --shard=0/2 --count=4 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--metrics-out with --shard should exit 2"
"$cli" sweep --trace="$tmpdir/t.jsonl" --workers=2 --count=4 >/dev/null 2>&1
[ $? -eq 2 ] || fail "--trace with --workers should exit 2"

# --metrics-out writes the fixed key set — every phase, every field, present
# whether or not the phase ran (bench_gate fails on asymmetric keys).
metrics_flags="--count=6 --n=8 --seed=7 --threads=1 --protocol=canonical --protocol=classify"
"$cli" sweep $metrics_flags --metrics-out="$tmpdir/metrics-a.json" >/dev/null 2>&1 ||
  fail "sweep --metrics-out should exit 0"
for key in schema jobs phase_classify_count phase_schedule_compile_count \
           phase_simulate_count phase_simulate_total_ms phase_simulate_p50_ms \
           phase_simulate_p90_ms phase_simulate_p99_ms phase_fault_inject_count \
           phase_cache_lookup_count \
           phase_cache_promote_count phase_store_load_count phase_store_save_count \
           phase_serve_queue_wait_count phase_serve_dispatch_count \
           injected_drops injected_corruptions injected_crashes delayed_wakeups; do
  grep -q "\"$key\"" "$tmpdir/metrics-a.json" ||
    fail "metrics snapshot should contain \"$key\": $(cat "$tmpdir/metrics-a.json")"
done

# Two identical single-threaded uncached runs gate cleanly against each
# other: the counts are exact-match fields, the timings informational.
"$cli" sweep $metrics_flags --metrics-out="$tmpdir/metrics-b.json" >/dev/null 2>&1 ||
  fail "second sweep --metrics-out should exit 0"
gate="$(dirname "$cli")/bench_gate"
if [ -x "$gate" ]; then
  "$gate" --committed="$tmpdir/metrics-a.json" --fresh="$tmpdir/metrics-b.json" >/dev/null 2>&1 ||
    fail "identical --threads=1 runs should bench_gate cleanly against each other"
fi

# --trace appends one JSON line per job, every line with the same key set.
"$cli" sweep --count=5 --n=8 --trace="$tmpdir/trace.jsonl" >/dev/null 2>&1 ||
  fail "sweep --trace should exit 0"
[ "$(wc -l < "$tmpdir/trace.jsonl")" -eq 5 ] ||
  fail "--trace should write one line per job, got $(wc -l < "$tmpdir/trace.jsonl")"
for key in '"job"' '"protocol"' '"config"' '"disposition"' '"simulate_ns"' \
           '"classify_ns"' '"schedule-compile_ns"'; do
  head -1 "$tmpdir/trace.jsonl" | grep -q "$key:" ||
    fail "trace lines should carry $key: $(head -1 "$tmpdir/trace.jsonl")"
done

# ------------------------------------------------------ configuration tools

# gen's integer flags and every --p read the workload registry's grammar and
# bounds: a value the registry would reject exits 2, instead of wrapping in
# a 32-bit cast or parsing as a hex float, and a sweep never writes a shard
# report that `arl merge` would refuse.
for flags in "--family=staggered --n=4294967299" "--family=random --sigma=4294967297" \
             "--family=single-hop --n=0" "--family=staggered --n=1000001" "--family=h --m=0" \
             "--family=random --p=-0" "--family=random --p=0x1p-2" "--family=random --p=1.5"; do
  "$cli" gen $flags >/dev/null 2>&1
  [ $? -eq 2 ] || fail "gen $flags should exit 2"
done
# single-hop builds K_n, so its n stops at 4096 in gen and in the workload
# registry alike: a larger n is refused before any edge is built.  Under
# `timeout`, a regression that builds the graph fails instead of hanging.
for flags in "--family=single-hop --n=4097" "--family=single-hop --n=1000000"; do
  timeout 20 "$cli" gen $flags >/dev/null 2>&1
  [ $? -eq 2 ] || fail "gen $flags should exit 2"
done
timeout 20 "$cli" sweep --workload=single-hop:n=1000000,sigma=3 --count=1 >/dev/null 2>&1
[ $? -eq 2 ] || fail "sweep --workload=single-hop:n=1000000,sigma=3 should exit 2"
for value in -0 0x1p-2 1.5 abc ""; do
  rm -f "$tmpdir/p.txt"
  "$cli" sweep --n=6 --count=2 "--p=$value" --shard=0/1 --out="$tmpdir/p.txt" >/dev/null 2>&1
  [ $? -eq 2 ] || fail "sweep --p='$value' should exit 2"
  [ ! -e "$tmpdir/p.txt" ] || fail "sweep --p='$value' must not write a shard report"
done
# Only the families that read --n range-check it, but a malformed --m or
# --n is a usage error in every family.
"$cli" gen --family=h --n=0 >/dev/null 2>&1 || fail "gen --family=h should not range-check --n"
for flags in "--family=h --n=bogus" "--family=random --m=-1"; do
  "$cli" gen $flags >/dev/null 2>&1
  [ $? -eq 2 ] || fail "gen $flags should exit 2"
done

# The published G(n,p) stream is pinned: the same flags print the same
# configuration, byte for byte.
expected_gen='nodes 10
tags 1 2 1 3 2 1 0 1 3 3
edges 12
0 3
0 7
1 2
1 8
1 9
2 3
2 9
3 8
4 5
4 8
5 9
6 8'
[ "$("$cli" gen --family=random --n=10 --seed=3)" = "$expected_gen" ] ||
  fail "gen --family=random --n=10 --seed=3 changed its output"

# Every configuration command on a feasible (H_3) and an infeasible (S_2)
# configuration: the exit code and the lines a script keys on.  classify and
# orbits exit 1 on an infeasible configuration; elect, trace, schedule, dot
# and validate report it and exit 0.
"$cli" gen --family=h --m=3 > "$tmpdir/h3.txt" || fail "gen --family=h --m=3 should exit 0"
"$cli" gen --family=s --m=2 > "$tmpdir/s2.txt" || fail "gen --family=s --m=2 should exit 0"
expect() {  # expect EXIT LINE-REGEX COMMAND ARGS...
  local code=$1 line=$2
  shift 2
  out=$("$cli" "$@" 2>&1)
  status=$?
  [ "$status" -eq "$code" ] || fail "arl $*: expected exit $code, got $status: $out"
  printf '%s\n' "$out" | grep -qE -- "$line" || fail "arl $* should print /$line/: $out"
}
expect 0 '^verdict: +feasible$' classify "$tmpdir/h3.txt"
expect 0 '^leader: +node 0 \(class 1\)$' classify --fast "$tmpdir/h3.txt"
expect 1 '^verdict: +infeasible$' classify "$tmpdir/s2.txt"
expect 0 '^disposition: +elected$' elect "$tmpdir/h3.txt"
expect 0 '^verified: +ok$' elect --model=nocd "$tmpdir/h3.txt"
expect 0 '^disposition: +no leader$' elect "$tmpdir/s2.txt"
expect 0 '^leader: node 0$' trace "$tmpdir/h3.txt"
expect 0 '^no unique leader$' trace "$tmpdir/s2.txt"
expect 0 '^feasible 1$' schedule "$tmpdir/h3.txt"
expect 0 '^feasible 0$' schedule "$tmpdir/s2.txt"
expect 0 '^  n0 -- n1;$' dot "$tmpdir/h3.txt"
expect 0 '^  n3 \[label="3:2"\];$' dot "$tmpdir/s2.txt"
expect 0 '^feasible: 4 orbit\(s\)' orbits "$tmpdir/h3.txt"
expect 1 '^infeasible: 2 orbit\(s\)' orbits "$tmpdir/s2.txt"
expect 0 '^execution valid \([0-9]+ checks\)$' validate "$tmpdir/h3.txt"
expect 0 '^execution valid \([0-9]+ checks\)$' validate "$tmpdir/s2.txt"
expect 2 'cannot open' classify "$tmpdir/missing.txt"
expect 2 'model' elect --model=bogus "$tmpdir/h3.txt"
# Without a file argument the configuration is read from stdin.
"$cli" elect < "$tmpdir/h3.txt" | grep -qE '^verified: +ok$' ||
  fail "elect should read its configuration from stdin"
# Malformed configurations are usage errors (exit 2), including counts the
# text declares but does not hold.
for text in 'nodes 4\ntags 0 1 2 3\nedges -1\n' 'nodes 4\ntags 0 1 2 3\nedges 99999999999\n' \
            'nodes 4294967295\ntags 0 1\nedges 0\n' 'nodes 2\ntags 0\nedges 0\n'; do
  printf "$text" | "$cli" elect >/dev/null 2>&1
  [ $? -eq 2 ] || fail "elect on '$text' should exit 2"
done

# ---------------------------------------------------------------- interrupts

# SIGINT during `sweep --shard --out` exits 130 and leaves neither the
# report nor its temp file.  The signal goes out once the temp file exists
# (the handler is installed before it is opened); the sweep runs for
# seconds, so it cannot finish first.
interrupt_flags="--count=40000 --n=128"
"$cli" sweep $interrupt_flags --shard=0/1 --out="$tmpdir/int.txt" >/dev/null 2>&1 &
pid=$!
for _ in $(seq 1 1000); do
  compgen -G "$tmpdir/int.txt.tmp.*" >/dev/null && break
  sleep 0.01
done
kill -INT "$pid"
wait "$pid"
status=$?
[ "$status" -eq 130 ] || fail "SIGINT during sweep --shard --out: expected exit 130, got $status"
[ ! -e "$tmpdir/int.txt" ] || fail "an interrupted sweep --shard must not leave its --out file"
if compgen -G "$tmpdir/int.txt.tmp.*" >/dev/null; then
  fail "an interrupted sweep --shard must remove its temp file"
fi

# SIGINT during `sweep --workers` exits 130, and the parent terminates and
# reaps every worker and removes their temp directory.  The signal goes out
# once both workers have opened their shard files (the parent's handler is
# installed before the first fork).
mkdir "$tmpdir/workers-tmp"
TMPDIR="$tmpdir/workers-tmp" "$cli" sweep $interrupt_flags --workers=2 >/dev/null 2>&1 &
pid=$!
for _ in $(seq 1 1000); do
  [ "$(compgen -G "$tmpdir/workers-tmp/arl-workers-*/shard-*.txt" | wc -l)" -eq 2 ] && break
  sleep 0.01
done
workers=$(pgrep -P "$pid")
kill -INT "$pid"
wait "$pid"
status=$?
[ "$status" -eq 130 ] || fail "SIGINT during sweep --workers: expected exit 130, got $status"
[ "$(echo $workers | wc -w)" -eq 2 ] || fail "the sweep should have run 2 workers: '$workers'"
for worker in $workers; do
  if kill -0 "$worker" 2>/dev/null; then
    fail "an interrupted sweep --workers left worker $worker running"
  fi
done
if compgen -G "$tmpdir/workers-tmp/arl-workers-*" >/dev/null; then
  fail "an interrupted sweep --workers must remove its temp directory"
fi

if [ "$failures" -gt 0 ]; then
  exit 1
fi
echo "cli flag validation ok"
