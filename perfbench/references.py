"""Hand-written reference answers for the benchmark's queries.

Every answer cites where it comes from: the paper (Demirbas & Arora,
"Convergence Refinement", ICDCS 2002) or a table of the repository's
EXPERIMENTS.md. None of them is produced by running the checker under
test. A query's verdict that disagrees with its reference counts as an
error of the program; the reference is never adjusted to match.

A reference maps a query (relation, system, N) to the fields it pins:
  stab    -> holds, states (|Sigma|), legitimate (|L|), worst (recovery)
  init    -> holds
  refine4 -> per relation: holds; plus states / one_token / closure
"""

# Stabilization of registry systems to their specification, under the
# unconstrained (unfair) daemon, N = 2..5 unless the table says less.
_DIJKSTRA3 = "EXPERIMENTS E8 / Theorem 11: Dijkstra-3 stabilizes to BTR, worst-case 3/12/24/41 at N=2..5; |Sigma| = 3^(N+1) (N+1 counters mod 3, Section 5)"
_DIJKSTRA4 = "EXPERIMENTS E6 / Theorem 8: Dijkstra-4 stabilizes to BTR, |Sigma| = 4^N, |L| = 2N, worst-case 2/7/13/21 at N=2..5"
_C1_STAB = "EXPERIMENTS E6 / Theorem 8: C1 stabilizes to BTR, |Sigma| = 4^N, |L| = 2N, worst-case 2/6/12/20 at N=2..5"
_BTR_WRAPPED = "EXPERIMENTS E4 / Theorem 6: (BTR [] W1 [] W2) is NOT stabilizing under the unfair daemon, |Sigma| = 16/64/256/1024 at N=2..5"
_C2_WRAPPED = "EXPERIMENTS E8 / Theorem 11: the composition C2[]W1''[]W2' is NOT stabilizing unfairly for N>=3"
_NEW3 = "EXPERIMENTS E9 / Theorem 13: (C3 [] W1'' [] W2') is NOT stabilizing unfairly at N=2..4"
_KSTATE = "EXPERIMENTS E11: K-state with K=N+1 stabilizes to UTR (K >= N), worst-case 2/13/24/38 at N=2..5"
_RW = "EXPERIMENTS E17: the read/write ring (N=2, 6561 states) is NOT stabilizing to BTR under the unconstrained daemon"
_C1_INIT = "Lemma 7 / EXPERIMENTS E5: [C1 ⪯ BTR] holds at N=2..5, which includes [C1 ⊑_init BTR]"

# (relation, system, N) -> (expected fields, citation).  This is the
# registry-mix pool: only triples whose answer is stated above.
POOL = {}
for n, worst in zip(range(2, 6), (3, 12, 24, 41)):
    POOL[("stab", "dijkstra3", n)] = ({"holds": True, "states": 3 ** (n + 1), "worst": worst}, _DIJKSTRA3)
for n, worst in zip(range(2, 6), (2, 7, 13, 21)):
    POOL[("stab", "dijkstra4", n)] = ({"holds": True, "states": 4 ** n, "legitimate": 2 * n, "worst": worst}, _DIJKSTRA4)
for n, worst in zip(range(2, 6), (2, 6, 12, 20)):
    POOL[("stab", "c1", n)] = ({"holds": True, "states": 4 ** n, "legitimate": 2 * n, "worst": worst}, _C1_STAB)
for n in range(2, 6):
    POOL[("stab", "btr-wrapped", n)] = ({"holds": False, "states": 4 ** n}, _BTR_WRAPPED)
for n in range(3, 6):
    POOL[("stab", "c2-wrapped", n)] = ({"holds": False}, _C2_WRAPPED)
for n in range(2, 5):
    POOL[("stab", "new3", n)] = ({"holds": False}, _NEW3)
for n, worst in zip(range(2, 6), (2, 13, 24, 38)):
    POOL[("stab", "kstate", n)] = ({"holds": True, "worst": worst}, _KSTATE)
POOL[("stab", "rw-dijkstra3", 2)] = ({"holds": False, "states": 6561}, _RW)
for n in range(2, 6):
    POOL[("init", "c1", n)] = ({"holds": True}, _C1_INIT)

# Deliberately left out of the pool:
EXCLUDED = [
    "rw-dijkstra3 init refinement at any N: ROADMAP item 3 (stutter policy) disputes the verdict; "
    "refine-sparse prints it and its failure count instead",
    "rw-dijkstra3 stabilization at N>=3: no table states it (E17 covers N=2 only), and its dense "
    "space of 3^(3N+2) states (4.8 million at N=4) has no admission budget yet (ROADMAP item 3)",
]

# The two cold workloads: one fixed query each.
COLD = {
    "refine-dense": (
        ("refine4", "c1", 8, "dense"),
        {"init": True, "convergence": True, "ee": True, "states": 4 ** 8},
        "Lemma 7 / EXPERIMENTS E5: [C1 ⊑_init BTR] and [C1 ⪯ BTR]; ⊑_ee follows from ⪯ "
        "(EXPERIMENTS E15 relation chain); |Sigma| = 4^N (E6)",
    ),
    "refine-sparse": (
        ("refine4", "rw-dijkstra3", 8, "sparse"),
        {"states": 26496, "closure": True, "one_token": True},
        "EXPERIMENTS 'Sparse reachable-only compilation': 26496 states at N=8; the discovered count "
        "equals the Program.reachable_from closure of the canonical configuration; E17: the "
        "fault-free orbit keeps a unique token",
    ),
}


def check(query, answer, closures):
    """Mismatches of one answer against its reference, as strings."""
    rel, sys_name, n, _engine = query
    if "error" in answer:
        return ["raised: " + answer["error"]]
    bad = []
    if rel == "refine4":
        _, expected, _ = next(v for v in COLD.values() if v[0] == query)
        for key, want in expected.items():
            if key == "closure":
                got = closures.get("%s %d" % (sys_name, n))
                if got != answer["states"]:
                    bad.append("states %s != reachable_from closure %s" % (answer["states"], got))
            elif key in ("states", "one_token"):
                if answer[key] != want:
                    bad.append("%s: got %s, want %s" % (key, answer[key], want))
            elif answer[key]["holds"] != want:
                bad.append("%s holds: got %s, want %s" % (key, answer[key]["holds"], want))
        return bad
    expected = POOL[(rel, sys_name, n)][0]
    for key, want in expected.items():
        if answer.get(key) != want:
            bad.append("%s: got %s, want %s" % (key, answer.get(key), want))
    return bad
