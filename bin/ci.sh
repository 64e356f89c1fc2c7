#!/bin/sh
# Minimal CI gate: full build (including benches and examples) + test suite,
# then a telemetry smoke run: CR_STATS/CR_TRACE must produce a summary and a
# well-formed, non-empty Chrome-trace JSON, and --stats must print verdict
# costs.  Finally the static-analysis gate: crcheck lint --all must report
# zero error-severity findings over every registry system at the default
# ring size, and its --json findings artifact must be well-formed JSON.
set -eu
cd "$(dirname "$0")/.."
dune build @all
dune runtest

# One graph representation: the checker kernels take CSR graphs only.
# No checker interface may mention an array-of-rows type or export a
# [_csr]-suffixed twin; Fair's action table is an [int array array]
# legitimately, so fair.mli gets only the suffix check.
if grep -nE 'int array array|^val [a-z_]+_csr' lib/checker/*.mli \
   || grep -nE '^val [a-z_]+_csr' lib/core/fair.mli; then
  echo "ci: a row-graph or _csr twin kernel is back in the checker API" >&2
  exit 1
fi

trace=$(mktemp /tmp/cr.trace.XXXXXX)
lintjson=$(mktemp /tmp/cr.lint.XXXXXX)
trap 'rm -f "$trace" "$lintjson"' EXIT

CR_STATS=1 CR_TRACE="$trace" dune exec bin/crcheck.exe -- verify dijkstra3 --stats
test -s "$trace" || { echo "ci: CR_TRACE produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- "$trace"

dune exec bin/crcheck.exe -- lint --all --json "$lintjson" > /dev/null
test -s "$lintjson" || { echo "ci: lint --json produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- --json-only "$lintjson"

# Abstract-interpretation gate: the flow audit must be error-clean over
# the whole registry, its definite verdicts must agree with exact
# enumeration at N = 3 (--check-exact), its --json artifact must be
# well-formed, and the journal stream must carry the flow.report events.
flowjson=$(mktemp /tmp/cr.flow.XXXXXX)
flowjournal=$(mktemp /tmp/cr.flowj.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal"' EXIT
: > "$flowjournal"
CR_JOURNAL="$flowjournal" dune exec bin/crcheck.exe -- flow --all -n 3 \
  --check-exact --json "$flowjson" > /dev/null
test -s "$flowjson" || { echo "ci: flow --json produced no output" >&2; exit 1; }
dune exec bin/trace_lint.exe -- --json-only "$flowjson"
dune exec bin/journal_lint.exe -- "$flowjournal" --expect flow.report

# Compile-cache smoke: verifying btr compiles the program and its spec,
# which are the same system, so the chunked+memoized compiler must report
# at least one cache hit in the CR_STATS summary.  btr itself is the
# fault-INtolerant abstract ring, so verify may exit 1 — only a crash or
# a usage error (exit > 1) fails the gate.
cachelog=$(mktemp /tmp/cr.cache.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog"' EXIT
rc=0
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- verify btr --stats \
  > /dev/null 2> "$cachelog" || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; cat "$cachelog" >&2; exit 1; }
hits=$(sed -n 's/^ *compile\.cache\.hits *\([0-9][0-9]*\)$/\1/p' "$cachelog")
[ -n "$hits" ] && [ "$hits" -ge 1 ] || {
  echo "ci: expected nonzero compile.cache.hits in CR_STATS summary" >&2
  cat "$cachelog" >&2
  exit 1
}

# Verdict-cache smoke: the experiment tables ask the same refinement /
# stabilization questions more than once, so the content-addressed
# verdict cache must report hits — and disabling every cache with
# CR_CACHE=0, or rechecking every hit with CR_CACHE=paranoid, must not
# change a single output byte.
expout=$(mktemp /tmp/cr.exp.XXXXXX)
expout0=$(mktemp /tmp/cr.exp0.XXXXXX)
explog=$(mktemp /tmp/cr.explog.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog"' EXIT
CR_JOBS=2 CR_STATS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > /dev/null 2> "$explog"
checkhits=$(sed -n 's/^ *check\.cache\.hits *\([0-9][0-9]*\)$/\1/p' "$explog")
[ -n "$checkhits" ] && [ "$checkhits" -ge 1 ] || {
  echo "ci: expected nonzero check.cache.hits in CR_STATS summary" >&2
  cat "$explog" >&2
  exit 1
}
# Byte-compare without CR_STATS: the stats cost appendix carries cache
# counters that legitimately differ between the runs.
CR_JOBS=2 dune exec bin/crcheck.exe -- experiments --max-n 3 \
  > "$expout" 2> /dev/null
for mode in 0 paranoid; do
  CR_JOBS=2 CR_CACHE=$mode dune exec bin/crcheck.exe -- experiments --max-n 3 \
    > "$expout0" 2> /dev/null
  cmp -s "$expout" "$expout0" || {
    echo "ci: output differs between the default and CR_CACHE=$mode runs" >&2
    diff "$expout" "$expout0" >&2 || true
    exit 1
  }
done

# Journal smoke: a CR_JOURNAL run must produce a lintable JSONL stream
# that records the compile-cache traffic and the stabilize verdict —
# and, under CR_JOBS=4, the persistent pool's spawn event.  CR_PAR_CAP
# lifts the busy-domain cap so the pool really spawns even on a
# single-core CI host.
journal=$(mktemp /tmp/cr.journal.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal"' EXIT
: > "$journal"
CR_JOBS=4 CR_PAR_CAP=4 CR_JOURNAL="$journal" dune exec bin/crcheck.exe -- verify dijkstra3 -n 3 > /dev/null
test -s "$journal" || { echo "ci: CR_JOURNAL produced no output" >&2; exit 1; }
dune exec bin/journal_lint.exe -- "$journal" \
  --expect compile.cache --expect stabilize.verdict --expect par.pool

# Pool-shutdown smoke: a CR_JOBS=4 run spawns the persistent worker pool;
# the at_exit hook must join every domain, so the process exits promptly
# (the timeout catches a lingering-domain hang) with the verify verdict
# (btr is fault-INtolerant, so exit 1 is the expected verdict; > 1 or a
# timeout kill means a crash or a stuck pool).
rc=0
timeout 120 env CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- verify btr > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: CR_JOBS=4 verify btr did not exit cleanly (rc=$rc)" >&2; exit 1; }

# Byte-identical checker output across job counts: the pool, the chunked
# sweeps and the shared oracle must not change a single output byte.
jout1=$(mktemp /tmp/cr.jobs1.XXXXXX)
jout4=$(mktemp /tmp/cr.jobs4.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4"' EXIT
CR_JOBS=1 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout1" 2> /dev/null
CR_JOBS=4 CR_PAR_CAP=4 dune exec bin/crcheck.exe -- experiments --max-n 3 > "$jout4" 2> /dev/null
cmp -s "$jout1" "$jout4" || {
  echo "ci: experiment output differs between CR_JOBS=1 and CR_JOBS=4" >&2
  diff "$jout1" "$jout4" >&2 || true
  exit 1
}

# Space-engine smoke: verify (a stabilization question) quantifies over
# ALL states, so it is dense by construction — forcing CR_SPACE=sparse
# must not change a single output byte.  btr is fault-INtolerant, so
# verify exits 1; only exit > 1 is a crash.
spdef=$(mktemp /tmp/cr.spdef.XXXXXX)
spsparse=$(mktemp /tmp/cr.spsparse.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4" "$spdef" "$spsparse"' EXIT
rc=0; dune exec bin/crcheck.exe -- verify btr > "$spdef" 2> /dev/null || rc=$?
[ "$rc" -le 1 ] || { echo "ci: verify btr crashed (rc=$rc)" >&2; exit 1; }
rc=0; CR_SPACE=sparse dune exec bin/crcheck.exe -- verify btr > "$spsparse" 2> /dev/null || rc=$?
[ "$rc" -le 1 ] || { echo "ci: CR_SPACE=sparse verify btr crashed (rc=$rc)" >&2; exit 1; }
cmp -s "$spdef" "$spsparse" || {
  echo "ci: verify output differs under CR_SPACE=sparse (verify must stay dense)" >&2
  diff "$spdef" "$spsparse" >&2 || true
  exit 1
}

# The sparse engine's reason to exist: an init-anchored query at a ring
# size whose dense space (3^20 states) cannot be materialized at all.
# Forced sparse, refine decides only ⊑_init (the whole-space relations
# are reported as not decided); only exit > 1 or a hang fails CI.
rc=0
timeout 120 env CR_SPACE=sparse dune exec bin/crcheck.exe -- refine rw-dijkstra3 -n 6 > /dev/null 2>&1 || rc=$?
[ "$rc" -le 1 ] || { echo "ci: sparse refine rw-dijkstra3 -n 6 failed (rc=$rc)" >&2; exit 1; }

# Engine agreement on a closure-initialised program: rw-dijkstra3's
# initial states are the reachability closure of its canonical
# configuration.  The dense engine reads that closure through the
# initial predicate over all of Sigma (3^11 states at N=3); the sparse
# engine seeds its BFS from the closure's sorted ranks.  The ⊑_init line
# (verdict and failure count) must be the same under both; exit 1 is
# the expected (failing) verdict, > 1 is a crash.
refout=$(mktemp /tmp/cr.refine.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4" "$spdef" "$spsparse" "$refout"' EXIT
init_sparse=
for sp in sparse dense; do
  rc=0
  CR_SPACE=$sp dune exec bin/crcheck.exe -- refine rw-dijkstra3 --ring 3 \
    > "$refout" 2> /dev/null || rc=$?
  [ "$rc" -le 1 ] || { echo "ci: CR_SPACE=$sp refine rw-dijkstra3 -n 3 crashed (rc=$rc)" >&2; exit 1; }
  line=$(grep '^init ' "$refout") || {
    echo "ci: CR_SPACE=$sp refine rw-dijkstra3 -n 3 printed no ⊑_init line" >&2
    exit 1
  }
  if [ "$sp" = sparse ]; then init_sparse=$line; fi
done
[ "$init_sparse" = "$line" ] || {
  echo "ci: ⊑_init of rw-dijkstra3 -n 3 differs between the engines:" >&2
  printf 'sparse: %s\ndense:  %s\n' "$init_sparse" "$line" >&2
  exit 1
}

# Heap gate on the compression-heavy refinement: c1 vs BTR at N = 8
# answers 94,208 compression queries from 337 distinct source images
# per classify.  Batched per-source BFS keeps every reported
# gc.top_heap_words peak under 16 M words (one distance row per chunk);
# memoizing a 65,536-word row per source peaks above 50 M.  Heap peaks
# depend on the job count, not on host speed, so CR_JOBS is pinned.
# ⊑ fails there, so exit 1 is a verdict; only exit > 1 is a crash.
heaplog=$(mktemp /tmp/cr.heap.XXXXXX)
trap 'rm -f "$trace" "$lintjson" "$flowjson" "$flowjournal" "$cachelog" "$expout" "$expout0" "$explog" "$journal" "$jout1" "$jout4" "$spdef" "$spsparse" "$refout" "$heaplog"' EXIT
rc=0
CR_JOBS=1 dune exec bin/crcheck.exe -- refine c1 --ring 8 --space dense --stats \
  > "$heaplog" 2> /dev/null || rc=$?
[ "$rc" -le 1 ] || { echo "ci: refine c1 --ring 8 --stats crashed (rc=$rc)" >&2; exit 1; }
peak=$(sed -n 's/^ *gc\.top_heap_words *\([0-9][0-9]*\)$/\1/p' "$heaplog" | sort -n | tail -n 1)
[ -n "$peak" ] && [ "$peak" -le 16000000 ] || {
  echo "ci: refine c1 --ring 8 heap peak ${peak:-missing} words exceeds 16000000" >&2
  grep 'top_heap_words' "$heaplog" >&2 || true
  exit 1
}

# The committed benchmark artifacts must stay well-formed JSON.
dune exec bin/trace_lint.exe -- --json-only BENCH_PR4.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR6.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR7.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR8.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR9.json
dune exec bin/trace_lint.exe -- --json-only BENCH_PR10.json

# The PR 10 artifact must carry the space-engine head-to-head rows (the
# PR 9 jobs-scaling matrix rides along in the same sweep).
for row in space-dense-compile-rw-n3 space-sparse-compile-rw-n3 \
           space-dense-refine-rw-n3 space-sparse-refine-rw-n3 \
           classify-seq-dijkstra3-n6 compile-seq-dijkstra3-n7 \
           stabilize-sweep-seq-dijkstra3-n6; do
  grep -q "\"$row\"" BENCH_PR10.json || {
    echo "ci: BENCH_PR10.json is missing row $row" >&2
    exit 1
  }
done

# Perf-regression gate: the committed baseline must self-diff cleanly
# (exit 0, no regressions), the PR 10 artifact must stay within the
# generous cross-machine gate of the PR 9 baseline, and a fresh artifact
# from this machine must stay within it too.  Low-r^2 rows are never
# gated and sub-microsecond rows get 4x slack, so this catches
# order-of-magnitude regressions without flaking on scheduler noise.
dune exec bin/perfdiff.exe -- BENCH_PR9.json BENCH_PR9.json > /dev/null
dune exec bin/perfdiff.exe -- --gate 100 BENCH_PR9.json BENCH_PR10.json > /dev/null
if [ "${CI_BENCH:-0}" = "1" ]; then
  dune exec bench/main.exe -- --json BENCH_PR10.json > /dev/null
  dune exec bin/trace_lint.exe -- --json-only BENCH_PR10.json
  dune exec bin/perfdiff.exe -- --gate 100 BENCH_PR9.json BENCH_PR10.json
fi

# End-to-end benchmark reference check: every workload's verdicts must
# match the hand-written references (last stdout line "correct": true),
# and a traced registry-mix run must repeat its exact counts (run.py
# exits 4 otherwise).
for w in refine-sparse refine-dense registry-mix; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "ci: perfbench $w verdicts do not match the references" >&2
       echo "$last" >&2
       exit 1 ;;
  esac
done
python3 perfbench/run.py --workload registry-mix --seed 1 --seconds 2 --trace 1 > /dev/null

echo "ci: OK"
