"""Seeded query generators for the four benchmark workloads.

Everything here is standard library only, so the generator can be tested
and re-run by the gate without importing the code under test.  A query is
a plain tuple:

* ("witness", factors, elements): library call exists_witness(C)
* ("supplement", factors, elements): library call maximal_supplement_witness(C)
* ("tmin", factors): library call compute_tmin(G)
* ("scan", factors, trials, scan_seed): library call scan_threshold(G, ...)
* ("cli", argv, check): in-process cli.main(argv); check says what the
  envelope must contain (see gate.py)

Elements are dense indices (first coordinate fastest).  A workload is an
endless sequence of blocks; block b of seed s is always the same list of
queries, and every block has the same composition (groups, sizes, query
kinds), so per-run shares and latency quantiles depend on the seed only
through the random sets themselves.
"""

from __future__ import annotations

import random

WORKLOADS = ("tmin-small", "witness-mid", "witness-large", "supplement-small")

# tmin-small: compute_tmin on small cyclic and product groups, then the
# density scan on the two order-16 groups.
TMIN_GROUPS = ((12,), (2, 6), (14,), (2, 2, 4))
SCAN_GROUPS = ((16,), (2, 8))
SCAN_TRIALS = 10

# witness-mid: same-order cyclic/product pairs where the scan never fits.
MID_GROUPS = ((24,), (2, 12), (40,), (2, 2, 10), (64,), (8, 8), (100,), (4, 25))
MID_DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6)
MID_REPEATS = 2

# supplement-small: orders 8-14, where the exhaustive route (n <= 16) can
# settle anything, and a slice at 17-32 where only solidity and the
# difference-set walk can decide.  Orders 15 and 16 are left out: there a
# single exhaustive "no" costs up to 2 s, so how many a seed draws would
# swing a whole run.
SUPP_SMALL = ((8,), (2, 4), (2, 2, 2), (9,), (10,), (12,), (2, 6), (14,))
SUPP_LARGE = ((17,), (20,), (24,), (2, 12), (27,), (32,), (4, 8))
SUPP_FRACTIONS = (0.2, 0.3, 0.4, 0.5)
SUPP_REPEATS = 4

# witness-large: README-scale CLI calls.  Each entry is (group spec, |C|)
# for one random set; the order-10^4 slot is where the random-build gate
# shows as "unknown" without the json.dumps crash (which starts near
# n = 14,300) masking it.
LARGE_WITNESS_SLOTS = (
    ("10000", 3),
    ("100000", 5),
    ("1000000", 7),
    ("4000000", 9),
    ("1000x1000", 4),
    ("10000000", 6),
    ("16777216", 3),
    ("16777216", 8),
    ("4096x4096", 5),
    ("4096x4096", 7),
)
README_WITNESS = ("1000000", (0, 11, 5225, 90125, 443211, 800017))
# lift-z --mode safe inputs from the defect ledger: the first two raise
# RuntimeError on this code base, the third succeeds.
LIFT_SAFE_INTS = ((0, 1, 4, 6, 10, 11, 13), (0, 2, 3, 9), (5, 6, 7))


def parse_spec(spec: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in spec.split("x"))


def group_order(factors) -> int:
    n = 1
    for d in factors:
        n *= d
    return n


def coords_of(factors, e: int) -> tuple[int, ...]:
    out = []
    for d in factors:
        e, a = divmod(e, d)
        out.append(a)
    return tuple(out)


def set_literal(factors, elements) -> str:
    """Brace literal as a user would type it: indices, or tuples for products."""
    if len(factors) == 1:
        return "{" + ",".join(str(e) for e in sorted(elements)) + "}"
    parts = ["(" + ",".join(str(a) for a in coords_of(factors, e)) + ")"
             for e in sorted(elements)]
    return "{" + ",".join(parts) + "}"


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"addcomp-bench:{workload}:{seed}:{block}")


def _random_set(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """0 plus k-1 distinct non-zero elements, ascending."""
    return tuple(sorted((0,) + tuple(rng.sample(range(1, n), k - 1))))


def _tmin_block(rng: random.Random) -> list:
    queries = [("tmin", f) for f in TMIN_GROUPS]
    for f in SCAN_GROUPS:
        queries.append(("scan", f, SCAN_TRIALS, rng.randrange(1 << 32)))
    return queries


def _mid_block(rng: random.Random) -> list:
    queries = []
    for _ in range(MID_REPEATS):
        for f in MID_GROUPS:
            n = group_order(f)
            for p in MID_DENSITIES:
                k = max(1, round(p * n))
                queries.append(("witness", f, _random_set(rng, n, k)))
    rng.shuffle(queries)
    return queries


def _supp_block(rng: random.Random) -> list:
    queries = []
    for _ in range(SUPP_REPEATS):
        for f in SUPP_SMALL + SUPP_LARGE:
            n = group_order(f)
            for frac in SUPP_FRACTIONS:
                k = max(2, round(frac * n))
                queries.append(("supplement", f, _random_set(rng, n, k)))
    rng.shuffle(queries)
    return queries


def _cli_witness(spec: str, elements) -> tuple:
    factors = parse_spec(spec)
    argv = ("witness", "--group", spec, "--c", set_literal(factors, elements))
    return ("cli", argv, {"cmd": "witness", "factors": factors,
                          "elements": tuple(elements)})


def _large_block(rng: random.Random) -> list:
    queries = []
    for spec, k in LARGE_WITNESS_SLOTS:
        n = group_order(parse_spec(spec))
        queries.append(_cli_witness(spec, _random_set(rng, n, k)))
    queries.append(_cli_witness(*README_WITNESS))
    for ints in LIFT_SAFE_INTS:
        argv = ("lift-z", "--ints", ",".join(str(x) for x in ints), "--mode", "safe")
        queries.append(("cli", argv, {"cmd": "lift-z", "ints": ints}))
    rng.shuffle(queries)
    return queries


_BLOCKS = {
    "tmin-small": _tmin_block,
    "witness-mid": _mid_block,
    "witness-large": _large_block,
    "supplement-small": _supp_block,
}


# Blocks are kept short (well under a second for the per-query
# workloads) so that a run holds many of them.  SHARE_BLOCKS is how many leading blocks
# every run completes and counts for the shares.  MAX_BLOCKS bounds a run,
# so that a much faster program cannot make the gate (which re-checks
# every query afterwards) outgrow the time limit.
SHARE_BLOCKS = {"tmin-small": 1, "witness-mid": 8, "witness-large": 1,
                "supplement-small": 8}
MAX_BLOCKS = {"tmin-small": 40, "witness-mid": 600, "witness-large": 10,
              "supplement-small": 600}

# COLD_BLOCKS workloads run every block in a fresh worker process: their
# blocks repeat the same batch calls, which a user makes once per group, so
# nothing a process keeps from one block may answer the next.
COLD_BLOCKS = ("tmin-small",)


def block(workload: str, seed: int, index: int) -> list:
    """The index-th block of queries for (workload, seed)."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BLOCKS[workload](_rng(workload, seed, index))
