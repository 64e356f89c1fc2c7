#!/usr/bin/env python3
"""End-to-end checker benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/executor.exe from source
with dune (into .bench_build), generates the workload's query stream,
runs it in a closed loop with one client, checks every verdict against
the hand-written references in references.py, and prints a summary
followed, as the last line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the executor twice with the same seed, checks that the exact counts agree,
and reports the per-layer metrics. See README.md for the definitions.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import references  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXECUTOR = os.path.join(BUILD_DIR, "default", "perfbench", "executor.exe")

WORKLOADS = ["refine-sparse", "refine-dense", "registry-mix"]
MIX_SESSIONS = 400  # the executor wraps around if a run gets through them all
MIX_REPEATS = 2  # each pool triple appears this often in every session
SETUP_REPS = 4  # set-up-only processes, besides the measured one
DEADLINE_S = 170  # whole run, build excluded


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def env_guard():
    # Each CR_* variable selects a different program (cache bypass, space
    # engine, stats collection, job count, ...), so none may be set.
    bad = sorted(k for k in os.environ if k.startswith("CR_"))
    if bad:
        die("refusing to run: %s set in the environment; unset it, the benchmark "
            "measures the program's defaults" % ", ".join(bad))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD_DIR, "xdg-cache"))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "--build-dir", BUILD_DIR, "./perfbench/executor.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 1)
    if r.returncode != 0 or not os.path.exists(EXECUTOR):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed", 1)


def make_stream(workload, seed):
    """The query stream text. Only registry-mix depends on the seed."""
    lines = []
    if workload in references.COLD:
        query, expected, _ = references.COLD[workload]
        if "closure" in expected:
            lines.append("closure %s %d" % (query[1], query[2]))
        lines.append("session\n%s %s %d %s" % query)  # the executor repeats it
    else:
        # Every session holds the same multiset of queries, each pool triple
        # MIX_REPEATS times, in an order drawn from the seed: the seed
        # moves which query hits a cache, not how many do, so runs of
        # different seeds measure the same mix.
        rng = random.Random(seed)
        session = sorted(references.POOL) * MIX_REPEATS
        for _ in range(MIX_SESSIONS):
            rng.shuffle(session)
            lines.append("session")
            for rel, sys_name, n in session:
                lines.append("%s %s %d %s" % (rel, sys_name, n, "dense" if rel == "stab" else "sparse"))
    return "\n".join(lines) + "\n"


def run_executor(args, stream, deadline):
    timeout = max(1.0, deadline - time.time())
    try:
        r = subprocess.run([EXECUTOR, "--spawned-at", repr(time.time())] + args,
                           input=stream, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("executor exceeded the run's deadline", 3)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("executor exited with %d" % r.returncode, 3)
    return [json.loads(line) for line in r.stdout.splitlines()]


def parse_query(text):
    rel, sys_name, n, engine = text.split()
    return (rel, sys_name, int(n), engine)


def check_answers(recs, closures):
    """(attempted, failed, first few mismatch descriptions)."""
    attempted = failed = 0
    notes = []
    for q in recs:
        attempted += 1
        bad = references.check(parse_query(q["query"]), q["answer"], closures)
        if bad:
            failed += 1
            if len(notes) < 5:
                notes.append("%s: %s" % (q["query"], "; ".join(bad)))
    return attempted, failed, notes


def print_verdicts(queries):
    """The first query's four relations, referenced or not (refine4)."""
    answer = queries[0]["answer"]
    if "init" not in answer:
        return
    for rel in ("init", "everywhere", "convergence", "ee"):
        r = answer[rel]
        print("verdict %-12s %s (%d failures, %d edges)"
              % (rel, "HOLDS" if r["holds"] else "FAILS", r["failures"], r["edges"]))


def session_typical(sessions):
    """A session's median query time: the fast decile (lower 10th
    percentile) over sessions of many short queries, the median over
    sessions of one long query. The host is shared and its speed drifts
    by a third over seconds; interference only ever adds time, so the
    fast decile of registry-mix's 150 to 300 sessions of 0.09 to 0.16 s
    each shows the program's speed in the host's quiet moments. A cold
    workload's query takes 0.4 to 2.3 s, so each already averages the
    host over seconds, and a decile of its 10 to 60 queries would be its
    fastest few, which swing with the luckiest ones."""
    medians = [statistics.median(w) for w in sessions]
    if max(map(len, sessions)) == 1:
        return statistics.median(medians)
    return sorted(medians)[(len(medians) - 1) // 10]


def p90(walls):
    """The 90th percentile, nearest rank. The tail percentile with ten
    samples beyond it would be p99.93 in registry-mix and the maximum in
    the cold workloads; on a shared host that reports whether a burst of
    the neighbours' load fell into the run, not the program."""
    return sorted(walls)[math.ceil(0.9 * len(walls)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------- end-to-end (--trace 0) ----------

def end_to_end(workload, seed, seconds, deadline):
    setup = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.time()
        stream = make_stream(workload, seed)
        gen_s = time.time() - t0
        if rep < SETUP_REPS:
            header = run_executor(["--setup-only"], stream, deadline)[0]
            setup.append(gen_s + header["setup_s"])
    recs = run_executor(["--seconds", str(seconds)], stream, deadline)
    header, end = recs[0], recs[-1]
    setup.append(gen_s + header["setup_s"])
    queries = [r for r in recs if "wall" in r]
    # Timings come from whole sessions only, so every run times the same
    # mix of queries; the answers of a cut-off session are still checked.
    whole = {r["round_end"] for r in recs if "round_end" in r}
    sessions = {}
    for q in queries:
        if q["round"] in whole:
            sessions.setdefault(q["round"], []).append(q["wall"])
    walls = list(sessions.values())
    attempted, failed, notes = check_answers(queries, header["closures"])
    print_verdicts(queries)
    m = {
        "query_s": metric(session_typical(walls), "s"),
        "query_tail_s": metric(p90([x for w in walls for x in w]), "s"),
        "queries_per_s": metric(sum(map(len, walls)) / sum(map(sum, walls)), "1/s"),
        "peak_heap_mb": metric(end["top_heap_words"] * 8 / 2 ** 20, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print("%d queries in %d whole sessions" % (sum(len(w) for w in walls), len(walls)))
    print("query_s        %.6g s  (a session's median query, %s over the sessions)"
          % (m["query_s"]["value"], "median" if max(map(len, walls)) == 1 else "fast decile"))
    print("query_tail_s   %.6g s  (p90 of the queries)" % m["query_tail_s"]["value"])
    print("queries_per_s  %.6g" % m["queries_per_s"]["value"])
    print("peak_heap_mb   %.6g MB (top of the major heap)" % m["peak_heap_mb"]["value"])
    print("error_rate     %.6g  (%d of %d queries; carried as failed/attempted)"
          % (failed / attempted, failed, attempted))
    print("setup_s        %.6g s  (median of %d set-ups)" % (m["setup_s"]["value"], len(setup)))
    for note in notes:
        print("MISMATCH " + note)
    return header, attempted, failed, m


# ---------- per-layer (--trace 1) ----------

def round_counts(recs):
    """Exact counts per completed session: phase u -> minor words,
    phase t -> compiled states, refine edges, cache hits and misses."""
    by_round = {}
    for r in recs:
        if "wall" in r:
            by_round.setdefault((r["phase"], r["round"]), []).append(r)
    out = {}
    for r in recs:
        if "round_end" not in r:
            continue
        key = (r["phase"], r["round_end"])
        qs = by_round[key]
        names = tuple(q["query"] for q in qs)
        if key[0] == "u":
            out[key] = (names, {"gc.minor_words": int(sum(q["minor"] for q in qs))})
        else:
            def c(name):
                return sum(q["counters"].get(name, 0) for q in qs)
            out[key] = (names, {
                "guarded.to_explicit.states": sum(k["states"] for q in qs for k in q["calls"]
                                                  if k["layer"] == "to_explicit" and not k["hit"]),
                "core.refine.edges": sum(c("refine.edges." + k)
                                         for k in ("exact", "stutter", "compression", "unmatched")),
                "compile.cache.hits": c("compile.cache.hits"),
                "compile.cache.misses": c("compile.cache.misses"),
                "check.cache.hits": c("check.cache.hits"),
                "check.cache.misses": c("check.cache.misses"),
            })
    return out


def self_check(runs):
    """Exact counts must repeat: across the two processes for each common
    session, and within a process for sessions with the same queries."""
    a, b = (round_counts(r) for r in runs)
    faults = []
    for key in sorted(set(a) & set(b)):
        if a[key] != b[key]:
            faults.append("session %s/%d differs between two runs of the seed: %s vs %s"
                          % (key[0], key[1], a[key][1], b[key][1]))
    for counts in (a, b):
        first = {}
        for key in sorted(counts):
            sig = (key[0], counts[key][0])
            if sig in first and counts[first[sig]][1] != counts[key][1]:
                faults.append("sessions %s/%d and %s/%d run the same queries but count %s vs %s"
                              % (key[0], first[sig][1], key[0], key[1],
                                 counts[first[sig]][1], counts[key][1]))
            first.setdefault(sig, key)
    common = len(set(a) & set(b))
    return faults, common


def per_layer(runs):
    u = [r for recs in runs for r in recs if r.get("phase") == "u" and "wall" in r]
    t = [r for recs in runs for r in recs if r.get("phase") == "t" and "wall" in r]
    nu, nt = len(u), len(t)

    def calls(recs, layer, engine=None):
        return [c for q in recs for c in q["calls"]
                if c["layer"] == layer and (engine is None or c["engine"] == engine)]

    def secs_per_query(layer, engine=None):
        return sum(c["secs"] for c in calls(u, layer, engine)) / nu

    def span_s(name):
        return sum(q["spans_us"].get(name, 0.0) for q in t) / 1e6 / nt

    def counter(name):
        return sum(q["counters"].get(name, 0) for q in t)

    def ratio(x, y):
        return x / y if y else 0.0

    def median_or_0(xs):
        return statistics.median(xs) if xs else 0.0

    compiled = [c for c in calls(t, "to_explicit") if not c["hit"]]
    sparse = [c for c in compiled if c["engine"] == "sparse"]
    verdict_hits = [c["secs"] for q in t for c in q["calls"] if c["layer"] != "to_explicit" and c.get("hit")]
    walls_u = [q["wall"] for q in u]
    walls_t = [q["wall"] for q in t]
    m = {
        "guarded.to_explicit.dense_s": (secs_per_query("to_explicit", "dense"), "s"),
        "guarded.to_explicit.sparse_s": (secs_per_query("to_explicit", "sparse"), "s"),
        "guarded.to_explicit.minor_words_per_state":
            (ratio(sum(c["minor"] for c in compiled), sum(c["states"] for c in compiled)), "words/state"),
        "guarded.to_explicit.states": (sum(c["states"] for c in compiled) / nt, "count"),
        "guarded.to_explicit.hit_s": (median_or_0([c["secs"] for c in calls(t, "to_explicit") if c["hit"]]), "s"),
        "semantics.compile_cache.hit_ratio":
            (ratio(counter("compile.cache.hits"), counter("compile.cache.hits") + counter("compile.cache.misses")), "ratio"),
        "semantics.reachable_ratio":
            (ratio(sum(c["states"] for c in sparse), sum(c["full"] for c in sparse)), "ratio"),
        "semantics.of_rows_s": (span_s("explicit.of_rows"), "s"),
        "semantics.tabulate_s": (secs_per_query("tabulate"), "s"),
        "core.stabilizing_to_s": (secs_per_query("stabilizing_to"), "s"),
        "core.refine.init_s": (secs_per_query("refine.init"), "s"),
        "core.refine.everywhere_s": (secs_per_query("refine.everywhere"), "s"),
        "core.refine.convergence_s": (secs_per_query("refine.convergence"), "s"),
        "core.refine.ee_s": (secs_per_query("refine.ee"), "s"),
        "core.refine.classify_s": (span_s("refine.classify"), "s"),
        "core.refine.edges":
            (sum(counter("refine.edges." + k) for k in ("exact", "stutter", "compression", "unmatched")) / nt, "count"),
        "core.check_cache.hit_ratio":
            (ratio(counter("check.cache.hits"), counter("check.cache.hits") + counter("check.cache.misses")), "ratio"),
        "core.check_cache.hit_s": (median_or_0(verdict_hits), "s"),
        "checker.scc_s": (span_s("scc.compute"), "s"),
        "checker.paths_s": (span_s("paths.longest_within"), "s"),
        "checker.paths_oracle.hit_ratio":
            (ratio(counter("paths.oracle.hits"), counter("paths.oracle.hits") + counter("paths.oracle.misses")), "ratio"),
        "gc.minor_mwords_per_query": (sum(q["minor"] for q in u) / nu / 1e6, "Mwords/query"),
        "gc.major_collections_per_query": (sum(q["majors"] for q in u) / nu, "count/query"),
        "bench.unattributed_s":
            (statistics.median(q["wall"] - sum(c["secs"] for c in q["calls"]) for q in u), "s"),
        "obs.overhead_frac": (statistics.median(walls_t) / statistics.median(walls_u) - 1, "ratio"),
    }
    # Layer split of the untraced query time, outermost calls only.
    total = sum(walls_u)
    split = {}
    for q in u:
        for c in q["calls"]:
            key = "/".join(x for x in (c["layer"], c["engine"], c["role"]) if x)
            split[key] = split.get(key, 0.0) + c["secs"]
    split["unattributed"] = total - sum(split.values())
    return m, split, nu, nt


def traced(workload, seed, seconds, deadline):
    stream = make_stream(workload, seed)
    # two processes share the budget, so a traced run costs about as much
    # as an untraced one
    runs = [run_executor(["--seconds", str(seconds / 2), "--trace"], stream, deadline) for _ in range(2)]
    faults, common = self_check(runs)
    if faults:
        for f in faults[:10]:
            print("FAULT " + f, file=sys.stderr)
        die("benchmark fault: exact counts did not repeat (%d mismatches)" % len(faults), 4)
    header = runs[0][0]
    queries = [r for recs in runs for r in recs if "wall" in r]
    attempted, failed, notes = check_answers(queries, header["closures"])
    m, split, nu, nt = per_layer(runs)
    total = sum(split.values())
    print("exact counts repeat on %d sessions of two runs of seed %d" % (common, seed))
    print("untraced split of query time (%d queries):" % nu)
    for key, v in sorted(split.items(), key=lambda kv: -kv[1]):
        print("  %-28s %6.1f%%" % (key, 100 * v / total))
    print("per-layer metrics (%d traced queries):" % nt)
    for name, (v, unit) in m.items():
        print("  %-44s %.6g %s" % (name, v, unit))
    print("error_rate     %.6g  (%d of %d queries)" % (failed / attempted, failed, attempted))
    for note in notes:
        print("MISMATCH " + note)
    return header, attempted, failed, {k: metric(v, unit) for k, (v, unit) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    env_guard()
    build()
    deadline = time.time() + DEADLINE_S
    seed_note = "" if args.workload == "registry-mix" else " (deterministic: the seed is ignored)"
    print("workload %s  seed %d%s" % (args.workload, args.seed, seed_note))
    run = traced if args.trace else end_to_end
    header, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, deadline)
    print("CR_JOBS (program default) = %d" % header["jobs"])
    if args.workload in references.COLD:
        print("reference: " + references.COLD[args.workload][2])
    else:
        print("pool: %d (relation, system, N) triples, each %d times in every session; left out: %s"
              % (len(references.POOL), MIX_REPEATS, " | ".join(references.EXCLUDED)))
    for key, count in header["closures"].items():
        print("reachable_from closure of %s: %d states" % (key, count))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
