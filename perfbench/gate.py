"""Correctness gate: judge every recorded query outside the timed region.

Each query ends as exactly one Outcome:

* decided: a yes whose witness re-checks, or a no whose cited obstruction
  re-checks (and, where an independent exhaustive answer fits, whose
  verdict matches it);
* unknown: the program said unknown (exit code 2 for CLI calls);
* unchecked: a no that nothing here can re-check (an exhaustive no above
  the orders the reference search covers, or a method this gate does not
  know).  It is not an error, but it earns no credit either: the compared
  metrics count only verdicts that pass the gate;
* failed: it raised, printed no JSON envelope, returned an exit code the
  README does not give for that result, or failed a check.  A failed
  check (wrong witness, cited obstruction that does not hold, yes/no
  flipped against the reference, wrong report) also marks the outcome
  `wrong`, which makes the run incorrect.

Witnesses are re-checked with the naive oracle (addcomp.oracle) while its
n x n addition table fits, and above that with the numpy coverage count
in this file.  Certificate.verify() is never used: it is part of the code
under test.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import coords_of, group_order

# Largest order for which the oracle's n x n addition table is used.
ORACLE_TABLE_LIMIT = 1024
# Largest orders for which every decided verdict is compared with an
# exhaustive answer: the oracle's own search for complements, and for
# supplements the numpy search in this file (the tests check it against
# the oracle's, which is too slow for the thousands of distinct sets a
# run draws).
ORACLE_COMPLEMENT_VERDICT_LIMIT = 12
SUPPLEMENT_VERDICT_LIMIT = 16

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    kind: str              # "decided" | "unknown" | "unchecked" | "failed"
    reason: str = ""
    wrong: bool = False
    verdicts: int = 1      # decided verdicts this query contributes


def _failed(reason: str, wrong: bool = False) -> Outcome:
    return Outcome("failed", reason, wrong, 0)


def _unchecked(reason: str) -> Outcome:
    return Outcome("unchecked", reason, verdicts=0)


def _mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _elements(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# -- independent checks ---------------------------------------------------

def _bits(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def numpy_is_minimal_complement(factors, w_mask: int, c_elements) -> bool:
    """W + C = G and every c in C covers some point no other c covers.

    Counts representations by rolling the 0/1 array of W over each c,
    with one array axis per cyclic factor (last factor first, matching
    the index encoding where the first coordinate varies fastest).
    """
    factors = tuple(factors)
    n = group_order(factors)
    if w_mask <= 0 or w_mask >> n or not c_elements:
        return False
    grid = _bits(w_mask, n).reshape(tuple(reversed(factors)) or (1,))
    axes = tuple(range(grid.ndim))
    dtype = np.uint8 if len(c_elements) < 255 else np.uint32
    shifts = [tuple(reversed(coords_of(factors, c))) for c in c_elements]
    counts = np.zeros(grid.shape, dtype=dtype)
    for s in shifts:
        counts += np.roll(grid, s, axis=axes)
    if counts.min() == 0:
        return False
    once = counts == 1
    return all(bool((np.roll(grid, s, axis=axes).astype(bool) & once).any())
               for s in shifts)


def _translate_masks(masks: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Each mask of `masks` translated by t, where row[j] = j + t."""
    out = np.zeros_like(masks)
    for j, k in enumerate(row):
        out |= ((masks >> j) & 1) << k
    return out


class SupplementSearch:
    """Exhaustive maximal-supplement search for one small group.

    W is a maximal supplement of C when (C - C) and (W - W) meet only in 0
    and C + (W - W) = G.  Both depend on W only up to translation, so the
    search covers every W containing 0: all 2^(n-1) masks at once, as a
    numpy array, with W - W computed for each.
    """

    def __init__(self, table: np.ndarray, neg: np.ndarray):
        """table[a, b] = a + b and neg[a] = -a, as element indices."""
        n = len(neg)
        self.table, self.neg = table, neg
        self.full = (1 << n) - 1
        w = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
        diff = np.zeros_like(w)
        for x in range(n):
            has_x = ((w >> x) & 1).astype(bool)
            diff |= np.where(has_x, _translate_masks(w, table[neg[x]]), 0)
        self.w_diff = diff

    def exists(self, c_elements) -> bool:
        c_diff = 0
        for a in c_elements:
            for b in c_elements:
                c_diff |= 1 << int(self.table[a, self.neg[b]])
        ok = self.w_diff[(self.w_diff & c_diff) == 1]
        cover = np.zeros_like(ok)
        for c in c_elements:
            cover |= _translate_masks(ok, self.table[c])
        return bool((cover == self.full).any())


def subgroup_order(factors, vectors) -> int:
    """Order of the subgroup of Z_d1 x ... x Z_dk the coordinate vectors
    generate: n / det(L), where L is the lattice they span together with
    d_i e_i, triangularised by integer row operations."""
    k = len(factors)
    rows = [list(v) for v in vectors]
    rows += [[d if j == i else 0 for j in range(k)] for i, d in enumerate(factors)]
    det = 1
    for col in range(k):
        while True:
            nonzero = [r for r in rows if r[col]]
            if len(nonzero) == 1:
                break
            pivot = min(nonzero, key=lambda r: abs(r[col]))
            for r in nonzero:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    for j in range(col, k):
                        r[j] -= q * pivot[j]
        det *= abs(nonzero[0][col])
        rows = [r for r in rows if r is not nonzero[0]]
    return group_order(factors) // det


class Judge:
    """Holds the oracle and the reference table; caches oracle verdicts."""

    def __init__(self):
        from addcomp import oracle
        from addcomp.groups import Group
        from addcomp.sumset import GroupSet
        self.oracle, self.Group, self.GroupSet = oracle, Group, GroupSet
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)
        self._groups = {}
        self._verdicts = {}
        self._supplement_searches = {}

    def group(self, factors):
        g = self._groups.get(factors)
        if g is None:
            g = self._groups[factors] = self.Group(factors)
        return g

    def gs(self, factors, mask):
        return self.GroupSet(self.group(tuple(factors)), mask)

    def is_minimal_complement(self, factors, w_mask, c_elements) -> bool:
        if group_order(factors) <= ORACLE_TABLE_LIMIT:
            return self.oracle.oracle_is_minimal_complement_for(
                self.gs(factors, w_mask), self.gs(factors, _mask(c_elements)))
        return numpy_is_minimal_complement(factors, w_mask, c_elements)

    def _cached(self, key, compute):
        if key not in self._verdicts:
            self._verdicts[key] = compute()
        return self._verdicts[key]

    def oracle_complement_exists(self, factors, c_mask) -> bool:
        return self._cached(("c", factors, c_mask), lambda: self.oracle.oracle_exists_witness(
            self.gs(factors, c_mask)) is not None)

    def supplement_exists(self, factors, elements) -> bool:
        """Whether C has a maximal supplement, by exhaustive search."""
        search = self._supplement_searches.get(factors)
        if search is None:
            grp = self.group(factors)
            search = self._supplement_searches[factors] = SupplementSearch(
                self.oracle._add_table(grp), self.oracle._neg_vector(grp))
        return self._cached(("s", factors, _mask(elements)), lambda: search.exists(elements))

    # -- per-kind judges ----------------------------------------------------

    def judge(self, query, rec: dict, load_envelope: Callable[[str], str]) -> Outcome:
        kind = query[0]
        if "raised" in rec:
            name = query[2]["cmd"] if kind == "cli" else kind
            return _failed(f"{name}: raised {rec['raised'].split(':')[0]}")
        if kind in ("witness", "supplement"):
            # Small groups repeat the same C often; judge each answer once.
            key = (query, rec["verdict"], rec["method"], rec["witness"],
                   rec["detail"].get("violator"))
            judge = self._judge_witness if kind == "witness" else self._judge_supplement
            return self._cached(key, lambda: judge(query[1], query[2], rec))
        if kind == "tmin":
            return self._judge_tmin(query[1], rec)
        if kind == "scan":
            return self._judge_scan(query, rec)
        return self._judge_cli(query, rec, load_envelope)

    def _judge_witness(self, factors, elements, rec) -> Outcome:
        n, k = group_order(factors), len(elements)
        verdict, method = rec["verdict"], rec["method"]
        if verdict == "unknown":
            return Outcome("unknown", f"witness: unknown via {method}", verdicts=0)
        if verdict == "yes":
            if not self.is_minimal_complement(factors, int(rec["witness"], 16), elements):
                return _failed("witness: yes with a witness that fails the check", True)
        elif method == "bound-size-gap":
            if not 3 * k > 2 * n:
                return _failed("witness: size-gap no without the size bound", True)
        elif method == "bound-subgroup-gap":
            c0 = coords_of(factors, elements[0])
            m = subgroup_order(factors, [[a - b for a, b in zip(coords_of(factors, e), c0)]
                                         for e in elements])
            if not (k < m and 2 * n * m < k * (m + 2 * n)):
                return _failed("witness: subgroup-gap no without the subgroup bound", True)
        elif n > ORACLE_COMPLEMENT_VERDICT_LIMIT:
            return _unchecked(f"witness: no via {method} not re-checkable")
        if n <= ORACLE_COMPLEMENT_VERDICT_LIMIT:
            if self.oracle_complement_exists(factors, _mask(elements)) != (verdict == "yes"):
                return _failed("witness: verdict differs from the oracle", True)
        return Outcome("decided")

    def _judge_supplement(self, factors, elements, rec) -> Outcome:
        n = group_order(factors)
        verdict, method = rec["verdict"], rec["method"]
        c_mask = _mask(elements)
        if verdict == "unknown":
            return Outcome("unknown", f"supplement: unknown via {method}", verdicts=0)
        if verdict == "yes":
            w = self.gs(factors, int(rec["witness"], 16))
            if not self.oracle.oracle_is_maximal_supplement_for(w, self.gs(factors, c_mask)):
                return _failed("supplement: yes with a witness that fails the check", True)
        elif method == "bound-solidity":
            x = rec["detail"].get("violator")
            nd = self.oracle.naive_difference_set
            if (x is None or c_mask >> x & 1
                    or nd(self.gs(factors, c_mask | 1 << x)) != nd(self.gs(factors, c_mask))):
                return _failed("supplement: solidity no without an extension point", True)
        elif n > SUPPLEMENT_VERDICT_LIMIT:
            return _unchecked(f"supplement: no via {method} not re-checkable")
        if n <= SUPPLEMENT_VERDICT_LIMIT:
            if self.supplement_exists(factors, elements) != (verdict == "yes"):
                return _failed("supplement: verdict differs from the exhaustive search", True)
        return Outcome("decided")

    def _judge_tmin(self, factors, rec) -> Outcome:
        spec = "x".join(str(d) for d in factors)
        ref = self.reference["tmin"][spec]
        if not rec["exact"]:
            return Outcome("unknown", "tmin: not exact", verdicts=0)
        if rec["value"] != ref["value"] or rec["first_failing"] != ref["first_failing"]:
            return _failed("tmin: T(G) differs from the oracle reference", True)
        if rec["subsets_checked"] != _tmin_subsets_checked(factors, ref):
            return _failed("tmin: subsets_checked differs from the enumeration", True)
        return Outcome("decided", verdicts=rec["subsets_checked"])

    def _judge_scan(self, query, rec) -> Outcome:
        _, factors, trials, seed = query
        spec = "x".join(str(d) for d in factors)
        n = group_order(factors)
        t_ref = self.reference["tmin"][spec]["value"]
        draws = _scan_draws(n, trials, seed)
        if len(rec["rows"]) != len(draws):
            return _failed("scan: wrong number of rows", True)
        decided = unknown = 0
        for (p, row_trials, skipped, yes, no, unk), sizes in zip(rec["rows"], draws):
            # |C| <= T(G) always has a witness; 2n < 3|C| < 3n never does
            # (C = G is the trivial yes).
            must_yes = sum(1 for s in sizes if 0 < s <= t_ref)
            must_no = sum(1 for s in sizes if 2 * n < 3 * s < 3 * n)
            # An unknown is never a flip, so it may stand in for either.
            if (row_trials != trials or skipped != sizes.count(0)
                    or skipped + yes + no + unk != trials
                    or yes + unk < must_yes or no + unk < must_no):
                return _failed("scan: row counts contradict the drawn sets", True)
            decided += yes + no
            unknown += unk
        if unknown:
            return Outcome("unknown", "scan: unknown rows", verdicts=0)
        return Outcome("decided", verdicts=decided)

    def _judge_cli(self, query, rec, load_envelope) -> Outcome:
        check = query[2]
        cmd = check["cmd"]
        code = rec["exit"]
        if "envelope" not in rec:
            return _failed(f"{cmd}: exit {code}, no envelope")
        try:
            env = json.loads(load_envelope(rec["envelope"]))
            result = env["result"]
        except (ValueError, KeyError, TypeError):
            return _failed(f"{cmd}: envelope is not the documented JSON")
        if env.get("command") != cmd:
            return _failed(f"{cmd}: envelope names another command", True)
        if cmd == "witness":
            factors, elements = tuple(check["factors"]), check["elements"]
            if env["inputs"].get("c") != hex(_mask(elements)):
                return _failed("witness: parsed set differs from the input", True)
            cert = result["certificate"]
            verdict = cert["verdict"]
            if code != (2 if verdict == "unknown" else 0):
                return _failed(f"witness: exit {code} for verdict {verdict}")
            return self._judge_witness(factors, elements, cert)
        # lift-z
        if code == 2:
            return Outcome("unknown", "lift-z: no result", verdicts=0)
        if code != 0:
            return _failed(f"lift-z: exit {code}")
        modulus = result["modulus"]
        ints = check["ints"]
        residues = sorted({x % modulus for x in ints})
        if int(result["residues"], 16) != _mask(residues) or modulus <= 2 * (max(ints) - min(ints)):
            return _failed("lift-z: residues or modulus wrong", True)
        if not self.is_minimal_complement((modulus,), int(result["witness"], 16), residues):
            return _failed("lift-z: witness fails the check", True)
        return Outcome("decided")


def _tmin_subsets_checked(factors, ref) -> int:
    """How many subsets compute_tmin's enumeration visits to reach the
    reference's first failing set (or all of them)."""
    n = group_order(factors)
    if ref["first_failing"] is None:
        return sum(math.comb(n - 1, s - 1) for s in range(1, n + 1))
    size = ref["value"] + 1
    before = sum(math.comb(n - 1, s - 1) for s in range(1, size))
    target = tuple(_elements(int(ref["first_failing"], 16))[1:])
    for pos, rest in enumerate(itertools.combinations(range(1, n), size - 1), start=1):
        if rest == target:
            return before + pos
    raise ValueError("reference first_failing is not in the enumeration")


def _scan_draws(n: int, trials: int, seed: int) -> list[list[int]]:
    """Sizes of the sets scan_threshold draws, per density row.

    Reproduces its documented sampling (each element kept independently,
    one SplitMix64 stream per (density, trial) coordinate) to bound the
    row counts from the drawn sizes alone.
    """
    from addcomp.experiments import DEFAULT_GRID
    from addcomp.rng import SplitMix64, derive_seed
    rows = []
    for pi, p in enumerate(DEFAULT_GRID):
        threshold = min(int(p * 2.0 ** 64), 1 << 64)
        sizes = []
        for t in range(trials):
            rng = SplitMix64(derive_seed(seed, pi, t))
            sizes.append(sum(1 for _ in range(n) if rng.chance(threshold)))
        rows.append(sizes)
    return rows
