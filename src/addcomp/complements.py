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
from typing import Callable, Optional

from .decision import (MINIMAL_COMPLEMENT, NO, UNKNOWN, YES, DecisionCertificate,
                       SearchBudget)
from .groups import (Group, Subgroup, abelian_groups_of_order, all_subgroups,
                     cyclic_subgroups, generated_order, unit_multipliers)
# perfbench/tracing.py times subgroup_generated through this module's name.
from .groups import subgroup_generated  # noqa: F401
from .rng import derive_seed
from .sumset import (GroupSet, bits_of, negated_mask, private_points, sumset,
                     translate_mask)

PAIR_SCAN_LIMIT = 1 << 16


def is_complement(w: GroupSet, c: GroupSet) -> bool:
    """True when W + C covers the whole group."""
    return sumset(w, c).mask == w.group.full_mask


def is_minimal_complement_for(w: GroupSet, c: GroupSet) -> bool:
    """True when W + C = G and dropping any element of C breaks coverage."""
    group = w.group
    if group != c.group:
        raise ValueError("sets belong to different groups")
    ec = c.elements()
    if not ec:
        return False
    covered, private = private_points(group, w.mask, ec)
    if covered != group.full_mask:
        return False
    return all(translate_mask(group, w.mask, e) & private for e in ec)


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
    group = w.group
    if not is_complement(w, c):
        raise ValueError("essentiality is defined for complements only")
    ec = c.elements()
    _, private = private_points(group, w.mask, ec)
    ess = 0
    witness: dict[int, int] = {}
    for e in ec:
        hit = translate_mask(group, w.mask, e) & private
        if hit:
            ess |= 1 << e
            witness[e] = (hit & -hit).bit_length() - 1
    return EssentialityReport(w, c, GroupSet(group, ess), witness)


def prune_to_minimal(w: GroupSet, c: GroupSet) -> GroupSet:
    """Repeatedly drop the least-index non-essential element of C.

    The result is a minimal complement for W contained in C.
    """
    if not is_complement(w, c):
        raise ValueError("cannot prune a non-complement")
    group = w.group
    cur = c
    while True:
        ec = cur.elements()
        _, private = private_points(group, w.mask, ec)
        for e in ec:
            if translate_mask(group, w.mask, e) & private == 0:
                cur = cur.without_element(e)
                break
        else:
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

    Returns (witness, candidates, complete): candidates counts the nodes
    examined, at most max_candidates, and complete is False when the cap
    stopped the search first.  None with complete=True proves absence.
    """
    if not c:
        raise ValueError("empty C has no witness")
    ec = c.elements()
    full = group.full_mask
    plus = [translate_mask(group, c.mask, x) for x in range(group.order)]  # x + C
    neg_c = negated_mask(group, c.mask)
    minus = [translate_mask(group, neg_c, p) for p in range(group.order)]  # p - C
    stack = [(1, full & ~1, c.mask, 0)]  # W, allowed, once, twice
    candidates = 0
    while stack:
        if candidates == max_candidates:
            return None, candidates, False
        w, allowed, once, twice = stack.pop()
        candidates += 1
        private = once & ~twice
        uncovered = full & ~once
        if not all(plus[x] & private for x in bits_of(w)):
            continue
        if not all(translate_mask(group, w, e) & private
                   or translate_mask(group, allowed, e) & uncovered for e in ec):
            continue
        if not uncovered:
            return GroupSet(group, w), candidates, True
        branch = min((minus[p] & allowed for p in bits_of(uncovered)), key=int.bit_count)
        children = []
        for x in sorted(bits_of(branch), key=lambda x: -(plus[x] & uncovered).bit_count()):
            allowed &= ~(1 << x)
            t = plus[x]
            children.append((w | 1 << x, allowed, once | t, twice | once & t))
        stack.extend(reversed(children))
    return None, candidates, True


def _containing_subgroup_order(group: Group, c: GroupSet) -> int:
    """Order of the smallest subgroup containing a translate of C."""
    ec = c.elements()
    c0 = ec[0]
    return generated_order(group, [group.sub(e, c0) for e in ec[1:]])


def exists_witness(c: GroupSet, budget: Optional[SearchBudget] = None,
                   fast_paths: bool = True) -> DecisionCertificate:
    """Decide whether any W makes c a minimal complement.

    Yes-certificates always carry a re-verified witness.  No-certificates
    come from the size cap, the subgroup trap, or a completed exhaustive
    search, which runs only when its worst case of 2^(n-1) nodes fits
    budget.max_candidates.  Anything else is unknown (method "budget").
    """
    group = c.group
    n = group.order
    if not c:
        raise ValueError("empty C")
    if budget is None:
        budget = SearchBudget()
    problem = MINIMAL_COMPLEMENT
    yes = DecisionCertificate.verified_yes
    k = len(c)
    # 1 << (n - 1) <= max_candidates, without building the power
    search_fits = n <= budget.max_candidates.bit_length()

    if c.mask == group.full_mask:
        return yes(problem, "trivial", GroupSet(group, 1), c)

    if fast_paths:
        if 3 * k > 2 * n:
            return DecisionCertificate(problem, NO, "bound-size-gap", detail={
                "base": c, "size": k, "cap": (2 * n) // 3})
        m = _containing_subgroup_order(group, c)
        if k < m and 2 * n * m < k * (m + 2 * n):
            return DecisionCertificate(problem, NO, "bound-subgroup-gap", detail={
                "base": c, "size": k, "subgroup_order": m})

        from . import builders

        ap = builders.detect_ap(c)
        if ap is not None:
            cert = builders.ap_decide_and_build(ap)
            if cert.verdict == YES:
                return cert
        if n <= PAIR_SCAN_LIMIT:
            a = builders.pair_witness_search(c)
            if a is not None:
                w = GroupSet.from_elements(group, [0, a])
                return yes(problem, "construction-pair", w, c, offset=a)
        if not search_fits:
            s = max(1, math.ceil(1.5 * math.log(n)))
            if builders.check_feasibility(n, k, s).feasible:
                seed = derive_seed(0x57A97E55, n, k, c.mask % (1 << 64))
                trace = builders.random_witness(c, s, max_retries=10, seed=seed)
                if trace.result is not None:
                    return yes(problem, "random-build", trace.result, c,
                               s=s, retries=trace.retries_used)

    if search_fits:
        w, checked, complete = scan_for_witness(group, c, budget.max_candidates)
        if w is not None:
            return yes(problem, "exhaustive", w, c, candidates=checked)
        if complete:
            return DecisionCertificate(problem, NO, "exhaustive", detail={
                "base": c, "candidates": checked})
    return DecisionCertificate(problem, UNKNOWN, "budget", detail={
        "base": c, "candidates_needed_log2": n - 1})


def orbit_verdicts(group: Group, budget: Optional[SearchBudget] = None
                   ) -> Callable[[GroupSet], str]:
    """exists_witness's verdict, searched once per orbit, for one call's use.

    The verdict does not change under C -> u*C + t, u a unit multiplier:
    if C is a minimal complement of W, then u*C + t is one of u*W.  The
    returned function looks C up as C - min(C) and, after an exhaustive
    search decided it, files the verdict under every through-0 member
    u*C - x (x in u*C) of its orbit.  Only search answers are filed: the
    bounds and builders cost less than filing |units| x |C| keys, and the
    search runs only where 2^(n-1) fits the budget, so on larger groups
    nothing is filed and nothing is looked up.  Where the search fits it
    always completes, and no stage answers unknown, so a hit repeats what
    exists_witness would return for that very set.
    """
    n = group.order
    images: list[list[int]] = []  # built on the first filing
    neg: list[int] = []
    memo: dict[int, str] = {}

    def verdict(c: GroupSet) -> str:
        mask = c.mask
        if memo:
            hit = memo.get(translate_mask(group, mask, neg[(mask & -mask).bit_length() - 1]))
            if hit is not None:
                return hit
        cert = exists_witness(c, budget)
        if cert.method == "exhaustive":
            if not images:
                images.extend([1 << group.scale(e, u) for e in range(n)]
                              for u in unit_multipliers(group))
                neg.extend(group.neg(x) for x in range(n))
            ec = list(bits_of(mask))
            for m in {sum(image[e] for e in ec) for image in images}:
                for x in bits_of(m):
                    memo[translate_mask(group, m, neg[x])] = cert.verdict
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

    Each orbit under translation x unit multipliers is searched at most
    once per call (orbit_verdicts); the walk order, first_failing,
    unknown_at and subsets_checked, which counts every subset walked, are
    as if each were decided on its own.
    """
    import itertools

    n = group.order
    verdict_of = orbit_verdicts(group, budget)
    checked = 0
    for size in range(1, n + 1):
        unknown_here: Optional[GroupSet] = None
        for rest in itertools.combinations(range(1, n), size - 1):
            c = GroupSet.from_elements(group, (0,) + rest)
            verdict = verdict_of(c)
            checked += 1
            if verdict == NO:
                return TminReport(group, size - 1, True, c, None, checked)
            if verdict == UNKNOWN and unknown_here is None:
                unknown_here = c
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
    n = group.order
    subs = all_subgroups(group) if n <= 64 else cyclic_subgroups(group)
    out = []
    for h in subs:
        m = h.order
        low = (2 * n * m) // (m + 2 * n) + 1
        high = m - 1
        if low <= high:
            out.append(GapEntry(h, low, high))
    return out
