"""Complement membership, essential elements, and witness existence.

The central question answered here: given a non-empty set C in a finite
abelian group, is there a W such that C is a minimal additive complement
for W?  exists_witness() routes through cheap certificates first (size
cap, subgroup trap, arithmetic-progression and two-element builders, a
randomized builder whenever the exhaustive search does not fit the
budget) and only then falls back to the exhaustive search, which is the
sole source of "no" answers beyond the two counting bounds.

The exhaustive search, scan_for_witness, looks only at co-minimal pairs.
If C is minimal for W and W' is a part of W with W' + C = G still, then C
is minimal for W' too: a private point of c is outside W' + (C - {c})
and covered by W' + C, so it lies in W' + c.  Hence W may be taken
inclusion-minimal, so that every w has a point only w + C covers, and
through 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Callable, Optional

from . import builders
from .decision import MINIMAL_COMPLEMENT, NO, UNKNOWN, DecisionCertificate, SearchBudget
from .groups import (Group, Subgroup, abelian_groups_of_order, all_subgroups,
                     automorphism_generators, cyclic_subgroups, generated_order,
                     unit_multipliers)
# perfbench/tracing.py times subgroup_generated through this module's name.
from .groups import subgroup_generated  # noqa: F401
from .rng import derive_seed
from .sumset import (GroupSet, _same_group, bits_of, doubling_reaches, negated_mask,
                     private_points, sumset, translate_mask)

PAIR_SCAN_LIMIT = 1 << 16


def is_complement(w: GroupSet, c: GroupSet) -> bool:
    """True when W + C covers the whole group."""
    return sumset(w, c).mask == w.group.full_mask


def is_minimal_complement_for(w: GroupSet, c: GroupSet) -> bool:
    """True when W + C = G and dropping any element of C breaks coverage.

    C's points and W's holes are read from the tuples the sets keep,
    where they keep them (see GroupSet), in place of a pass over a mask:
    a listed C and a W listed by its holes are checked without a mask.
    """
    _same_group(w, c)
    ec = c.elements()
    if not ec:
        return False
    pts = private_points(w, ec)
    return not pts.uncovered and None not in pts.least


@dataclass(frozen=True)
class EssentialityReport:
    """Which elements of C cannot be dropped, with one witness point each.

    unique_witness maps each essential c to the least x whose only
    representation x = w + c' uses c' = c.
    """

    w: GroupSet
    c: GroupSet
    essential: GroupSet
    unique_witness: dict[int, int] = field(default_factory=dict)

    def is_minimal(self) -> bool:
        return self.essential == self.c


def essentiality(w: GroupSet, c: GroupSet) -> EssentialityReport:
    _same_group(w, c)
    ec = c.elements()
    pts = private_points(w, ec)
    if pts.uncovered:
        raise ValueError("essentiality is defined for complements only")
    witness = {e: x for e, x in zip(ec, pts.least) if x is not None}
    return EssentialityReport(w, c, GroupSet.from_elements(w.group, witness), witness)


def prune_to_minimal(w: GroupSet, c: GroupSet) -> GroupSet:
    """Repeatedly drop the least-index non-essential element of C.

    The result is a minimal complement for W contained in C.
    """
    _same_group(w, c)
    cur = c
    ec = cur.elements()
    pts = private_points(w, ec)
    if pts.uncovered:
        raise ValueError("cannot prune a non-complement")
    while None in pts.least:
        cur = cur.without_element(ec[pts.least.index(None)])
        ec = cur.elements()
        pts = private_points(w, ec)
    return cur


def scan_for_witness(group: Group, c: GroupSet,
                     max_candidates: Optional[int] = None) -> tuple[Optional[GroupSet], int, bool]:
    """Search every inclusion-minimal W through 0 for one that c is minimal for.

    A node holds W, the points still allowed into W, and the points that
    at least one translate w + C covers (once) and at least two (twice).
    A point covered once is covered by a single pair (w, c), so it is
    private to that w and to that c alike.  A node is cut when some w has
    no private point left, since growing W only takes them away, or when
    some c has none and no allowed w + c reaches an uncovered point, the
    only place a new one can appear.  At full coverage every c has a
    private point, so W is a witness.  Otherwise the uncovered point p
    with the fewest allowed candidates in p - C is branched on, and each
    candidate is banned in the later siblings, so every node is a distinct
    W and a complete search sees at most 2^(n-1) of them.  Candidates that
    cover more uncovered points go first, which reaches a yes sooner.

    A node walks its masks (W, the c without a private point, the
    uncovered points, the branch set) by lowest set bit, and orders the
    candidates by sorting the ints (n - covered) * n + x, which sort as
    (-covered, x).

    Returns (witness, candidates, complete): candidates counts the nodes
    examined, at most max_candidates, and complete is False when the cap
    stopped the search first.  None with complete=True proves absence.
    """
    if not c:
        raise ValueError("empty C has no witness")
    n = group.order
    full = group.full_mask
    plus = [translate_mask(group, c.mask, x) for x in range(n)]  # x + C
    neg_c = negated_mask(group, c.mask)
    minus = [translate_mask(group, neg_c, p) for p in range(n)]  # p - C
    neg = group.negator()
    stack = [(1, full & ~1, c.mask, 0)]  # W, allowed, once, twice
    candidates = 0
    while stack:
        if candidates == max_candidates:
            return None, candidates, False
        w, allowed, once, twice = stack.pop()
        candidates += 1
        private = once & ~twice
        uncovered = full & ~once
        owned = 0  # the c with a private point: ((x + C) & private) - x over x in W
        rest = w
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            mine = plus[x] & private
            if not mine:
                break  # this w has no private point left
            owned |= translate_mask(group, mine, neg(x))
            rest ^= low
        else:
            rest = c.mask & ~owned  # the c with no private point
            while rest:
                low = rest & -rest
                if not translate_mask(group, allowed, low.bit_length() - 1) & uncovered:
                    break  # this c has no private point and cannot get one
                rest ^= low
            else:
                if not uncovered:
                    return GroupSet(group, w), candidates, True
                branch, fewest, rest = 0, n + 1, uncovered
                while rest:  # the first uncovered p with the fewest candidates
                    low = rest & -rest
                    near = minus[low.bit_length() - 1] & allowed
                    count = near.bit_count()
                    if count < fewest:
                        branch, fewest = near, count
                    rest ^= low
                keys = []  # (n - covered) * n + x, so x = key % n
                while branch:
                    low = branch & -branch
                    x = low.bit_length() - 1
                    keys.append((n - (plus[x] & uncovered).bit_count()) * n + x)
                    branch ^= low
                keys.sort()
                children = []
                for key in keys:
                    x = key % n
                    allowed &= ~(1 << x)
                    t = plus[x]
                    children.append((w | 1 << x, allowed, once | t, twice | once & t))
                children.reverse()
                stack += children
    return None, candidates, True


def _containing_subgroup_order(group: Group, c: GroupSet) -> int:
    """Order of the smallest subgroup containing a translate of C."""
    ec = c.elements()
    c0 = ec[0]
    return generated_order(group, [group.sub(e, c0) for e in ec[1:]])


def _trap_window(n: int, k: int) -> range:
    """The subgroup orders m at which the subgroup trap fires for |C| = k.

    The trap needs k < m and 2nm < k(m + 2n), that is m(2n - k) < 2nk.
    For k <= n the factor 2n - k is positive, so the integers m below
    2nk / (2n - k) are those with m(2n - k) <= 2nk - 1.  This is the one
    place the inequality is written: exists_witness, ap_decide_and_build
    and subgroup_gap_family all read it from here.
    """
    return range(k + 1, (2 * n * k - 1) // (2 * n - k) + 1)


def _search_fits(n: int, budget: SearchBudget) -> bool:
    """True when the exhaustive search's worst case fits the budget.

    A complete search sees at most 2^(n-1) nodes (scan_for_witness), so
    where 2^(n-1) <= budget.max_candidates it always completes: it is the
    gate of exists_witness's search stage, and where it holds no stage of
    exists_witness answers unknown.
    """
    # 1 << (n - 1) <= max_candidates, without building the power
    return n <= budget.max_candidates.bit_length()


def exists_witness(c: GroupSet, budget: Optional[SearchBudget] = None) -> DecisionCertificate:
    """Decide whether any W makes c a minimal complement.

    Yes-certificates always carry a re-verified witness.  No-certificates
    come from the size cap, the subgroup trap, or a completed exhaustive
    search, which runs only when its worst case of 2^(n-1) nodes fits
    budget.max_candidates.  Anything else is unknown (method "budget").

    The subgroup trap fires when the smallest subgroup H holding a
    translate c0 + H of C has an order m in _trap_window(n, |C|).  The
    subgroup is computed only when some divisor of n lies in that window,
    since m divides n, and |C + C| is not shown to reach the window's
    end (sumset.doubling_reaches), since C + C lies in 2c0 + H, so
    |C + C| <= m.
    """
    group = c.group
    n = group.order
    if not c:
        raise ValueError("empty C")
    if budget is None:
        budget = SearchBudget()
    problem = MINIMAL_COMPLEMENT
    yes = DecisionCertificate.verified_yes
    c = c.listed()  # a wide mask is walked here once, for every stage below
    k = len(c)

    if k == n:
        return yes(problem, "trivial", GroupSet(group, 1), c)
    if 3 * k > 2 * n:
        return DecisionCertificate(problem, NO, "bound-size-gap", c, detail={
            "size": k, "cap": (2 * n) // 3})
    window = _trap_window(n, k)
    if (any(n % m == 0 for m in window)
            and not doubling_reaches(group, c.mask, window.stop)):
        m = _containing_subgroup_order(group, c)
        if m in window:
            return DecisionCertificate(problem, NO, "bound-subgroup-gap", c, detail={
                "size": k, "subgroup_order": m})

    ap = builders.detect_ap(c)
    if ap is not None:
        # C - min C generates <step>: the trap above already gave its "no"
        return builders.ap_decide_and_build(ap)
    if n <= PAIR_SCAN_LIMIT:
        a = builders.pair_witness_search(c)
        if a is not None:
            w = GroupSet.from_elements(group, [0, a])
            return yes(problem, "construction-pair", w, c, offset=a)
    if _search_fits(n, budget):
        w, checked, complete = scan_for_witness(group, c, budget.max_candidates)
        if w is not None:
            return yes(problem, "exhaustive", w, c, candidates=checked)
        if complete:
            return DecisionCertificate(problem, NO, "exhaustive", c, detail={
                "candidates": checked})
    else:
        s = max(1, math.ceil(1.5 * math.log(n)))
        # feasibility needs its first term s^2 k^3 / n below 1 (the others are >= 0)
        if s * s * k ** 3 < n and builders.check_feasibility(n, k, s).feasible:
            # the low 64 bits of C's mask, from its points below 64
            low = sum(1 << e for e in takewhile(lambda e: e < 64, c))
            seed = derive_seed(0x57A97E55, n, k, low)
            trace = builders.random_witness(c, s, seed=seed)
            if trace.result is not None:
                return yes(problem, "random-build", trace.result, c,
                           s=s, retries=trace.retries_used)
    return DecisionCertificate(problem, UNKNOWN, "budget", c, detail={
        "candidates_needed_log2": n - 1})


def orbit_verdicts(group: Group, memo: dict[int, str],
                   budget: Optional[SearchBudget] = None) -> Callable[[GroupSet], str]:
    """exists_witness's verdict, decided once per Aut(G) orbit, filed in memo.

    The verdict does not change under C -> phi(C) + t, phi an automorphism
    of G: if C is a minimal complement of W, then phi(C) + t is one of
    phi(W), since phi carries W + C onto G and a point private to c onto
    one private to phi(c).  The returned function looks C up in memo as
    C - min(C) and, after exists_witness decided it, files the verdict in
    memo under the mask of every through-0 member of its orbit under
    translations and all of Aut(G): C is closed by a depth-first search
    over the tables of automorphism_generators(group), and every through-0
    translate of each member is filed.  memo is the caller's dict, so a
    caller whose sets hold 0 reads it under their own masks before it
    calls: compute_tmin does, since its walk meets every member of an
    orbit and filing whole orbits pays there, and a filed set costs it
    one lookup.  A scan of a few random draws meets few, and
    unit_orbit_verdicts looks its unit orbit-mates up on a miss in place
    of filing them.

    Answers are filed wherever the search fits the budget (_search_fits):
    there every stage's answer is exact and none is unknown, so a hit
    repeats what exists_witness would return for that very set.  Past that
    gate an orbit-mate may end unknown where C did not, so nothing is
    filed, nothing is looked up and no table is built.
    """
    fits = _search_fits(group.order, budget or SearchBudget())
    moves: Optional[list[list[int]]] = None  # x -> 1 << phi(x) per table, built on the first filing
    neg = group.negator()

    def verdict(c: GroupSet) -> str:
        nonlocal moves
        mask = c.mask
        if memo:
            hit = memo.get(translate_mask(group, mask, neg((mask & -mask).bit_length() - 1)))
            if hit is not None:
                return hit
        cert = exists_witness(c, budget)
        if fits and cert.verdict != UNKNOWN:
            if moves is None:
                moves = [[1 << x for x in table] for table in automorphism_generators(group)]
            closed, frontier = {mask}, [mask]
            while frontier:  # depth-first closure over the tables
                m = frontier.pop()
                ec = list(bits_of(m))
                for move in moves:
                    image = sum(map(move.__getitem__, ec))
                    if image not in closed:
                        closed.add(image)
                        frontier.append(image)
                if m not in memo:  # else filed with the member it is a translate of
                    for x in ec:
                        memo[translate_mask(group, m, neg(x))] = cert.verdict
        return cert.verdict

    return verdict


def unit_orbit_verdicts(group: Group, budget: Optional[SearchBudget] = None) -> Callable[[GroupSet], str]:
    """exists_witness's verdict, decided once per unit orbit, for one call's use.

    The verdict does not change under C -> u*C + t, u prime to the
    exponent, since x -> u*x is an automorphism (see orbit_verdicts).  A
    decided C is filed only under its through-0 translates; a set q is
    looked up as q0 = q - min(q) and, when that misses, as u*q0 for every
    unit u != 1 (groups.unit_multipliers), a through-0 translate of u*q,
    so no translate is made per unit.  q = u*d + t for a filed d exactly
    when some u^-1 * q is a translate of d, so a set is answered from the
    memo exactly when an orbit-mate was decided, as if each orbit were
    filed whole, and a scan of a few random draws, which meets few
    orbit-mates, files nothing it does not meet.  A set found through a
    unit multiple is filed under q0 as well, since a scan draws small
    sets again and again.

    Answers are filed where the search fits the budget, as in
    orbit_verdicts; past that gate the memo stays empty, so nothing is
    looked up and the unit tables, built on the first miss that finds the
    memo non-empty, are never built.
    """
    fits = _search_fits(group.order, budget or SearchBudget())
    moves: Optional[list[list[int]]] = None  # x -> 1 << u*x per unit u != 1
    neg = group.negator()
    memo: dict[int, str] = {}

    def verdict(c: GroupSet) -> str:
        nonlocal moves
        mask = c.mask
        if memo:
            q0 = translate_mask(group, mask, neg((mask & -mask).bit_length() - 1))
            hit = memo.get(q0)
            if hit is None:
                if moves is None:
                    moves = [[1 << group.scale(x, u) for x in range(group.order)]
                             for u in unit_multipliers(group)[1:]]
                ec = list(bits_of(q0))
                for move in moves:
                    hit = memo.get(sum(map(move.__getitem__, ec)))
                    if hit is not None:
                        memo[q0] = hit  # a repeat of q is found by the first lookup
                        break
            if hit is not None:
                return hit
        cert = exists_witness(c, budget)
        if fits and cert.verdict != UNKNOWN:
            for x in bits_of(mask):
                memo[translate_mask(group, mask, neg(x))] = cert.verdict
        return cert.verdict

    return verdict


@dataclass(frozen=True)
class TminReport:
    """Largest size threshold below which every subset has a witness.

    value = T(G): every non-empty C with |C| <= value has a witness, and
    some C of size value+1 does not (first_failing), unless value = |G|.
    exact is False when the search hit an undecided subset first.
    """

    group: Group
    value: int
    exact: bool
    first_failing: Optional[GroupSet]
    unknown_at: Optional[GroupSet]
    subsets_checked: int


def compute_tmin(group: Group, budget: Optional[SearchBudget] = None) -> TminReport:
    """T(G) by walking every C through 0, by size, then lexicographically.

    C and phi(C) + t, phi in Aut(G), have the same verdict: phi carries a
    W that C is minimal for to one that phi(C) + t is minimal for.  So
    where the search fits the budget, each orbit under C -> phi(C) + t is
    decided at most once per call (orbit_verdicts), by whichever stage
    answers it; past that gate every C is decided on its own.  A full walk
    meets every member of an orbit, so filing the whole Aut(G) orbit at
    once pays off here; a sampled scan (experiments.scan_threshold) meets
    few, and looks a draw's unit orbit-mates up only when it misses
    (unit_orbit_verdicts).  A walked C holds 0, so the walk looks its mask
    up in the orbit memo first, and builds a GroupSet only for a miss,
    which goes to orbit_verdicts, and for first_failing and unknown_at;
    exists_witness is asked the sets it would be asked if every C went
    through orbit_verdicts.  The walk order, first_failing, unknown_at and
    subsets_checked, which counts every subset walked, are as if each
    were decided on its own.
    """
    import itertools

    n = group.order
    memo: dict[int, str] = {}
    verdict_of = orbit_verdicts(group, memo, budget)
    filed = memo.get
    bits = [1 << e for e in range(n)]
    checked = 0
    for size in range(1, n + 1):
        unknown_here: Optional[GroupSet] = None
        for rest in itertools.combinations(bits[1:], size - 1):
            mask = sum(rest, 1)
            verdict = filed(mask)  # C holds 0, so it is filed under its own mask
            if verdict is None:
                verdict = verdict_of(GroupSet(group, mask))
            checked += 1
            if verdict == NO:
                return TminReport(group, size - 1, True, GroupSet(group, mask), None, checked)
            if verdict == UNKNOWN and unknown_here is None:
                unknown_here = GroupSet(group, mask)
        if unknown_here is not None:
            return TminReport(group, size - 1, False, None, unknown_here, checked)
    return TminReport(group, n, True, None, None, checked)


def tmin_of_order(n: int, budget: Optional[SearchBudget] = None) -> tuple[int, bool, list[TminReport]]:
    """Minimum of compute_tmin over every abelian group of order n.

    Returns (value, exact, reports).  An inexact report's value is only
    a lower bound for its group, so the minimum is exact iff an exact
    report attains it.
    """
    reports = [compute_tmin(g, budget) for g in abelian_groups_of_order(n)]
    value = min(rep.value for rep in reports)
    return value, any(rep.exact and rep.value == value for rep in reports), reports


@dataclass(frozen=True)
class GapEntry:
    """Subgroup H and the integer size range it blocks.

    No subset of H with low <= |C| <= high is a minimal complement for
    anything in the ambient group.
    """

    subgroup: Subgroup
    low: int
    high: int

    def sizes(self) -> range:
        return range(self.low, self.high + 1)


def subgroup_gap_family(group: Group) -> list[GapEntry]:
    """One GapEntry per subgroup H whose order bars some size, in the
    order (|H|, mask of H).

    Every subgroup of a cyclic group is cyclic, so there cyclic_subgroups
    lists them all, at any order, closing each once.  Any other group
    needs all_subgroups, which refuses orders above 64 with ValueError:
    the cyclic subgroups alone would miss rows, such as the index-2
    subgroups of 2^7.
    """
    n = group.order
    if len(group.invariant_factors()) <= 1:
        subs = cyclic_subgroups(group)
    else:
        subs = all_subgroups(group)
    out = []
    for h in subs:
        m = h.order
        sizes = [k for k in range(1, m) if m in _trap_window(n, k)]
        if sizes:
            out.append(GapEntry(h, sizes[0], sizes[-1]))
    return out
