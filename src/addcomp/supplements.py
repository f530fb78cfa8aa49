"""Supplements, maximal supplements, solidity, and difference-set search.

C is a supplement for W when the W-translates by distinct elements of C
never overlap, which is the same as (C-C) and (W-W) meeting only at 0.
Maximality on top means C + (W - W) covers the group: no further element
can be added to C without breaking disjointness.

Both searches here look for a set W through 0 whose differences avoid a
forbidden set, that is an independent set in a Cayley graph, such that
base + (W - W) holds a target set; growing W only grows W - W.
independent_search enumerates the maximal such sets with Bron-Kerbosch
and Tomita pivoting on int masks.  It serves maximal_supplement_witness,
where the allowed differences are the complement of C - C plus 0, base
is C and the target is G, after a non-solid C is rejected outright
(adding its extension point keeps every pairwise difference, so no W can
be maximal for it).  It also serves diffset_representation, where the
allowed differences are v, base is {0} and the target is v, so that
W - W = v.  budget.max_candidates caps the nodes of either search.
Every yes is re-verified by DecisionCertificate.verified_yes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decision import (MAXIMAL_SUPPLEMENT, NO, UNKNOWN, DecisionCertificate,
                       SearchBudget)
from .groups import Group
from .sumset import (GroupSet, _same_group, add_to_planes, bits_of, difference_set,
                     lowest_extreme, negated_mask, sumset, translate_mask)


def _supplement_differences(w: GroupSet, c: GroupSet) -> Optional[GroupSet]:
    """W - W when c is a supplement for w, that is when C - C and W - W
    meet only at 0, else None."""
    _same_group(w, c)
    if not w or not c:
        raise ValueError("supplement check needs non-empty sets")
    cc, ww = difference_set(c), difference_set(w)
    return ww if cc.mask & ww.mask == 1 else None


def supplement_status(w: GroupSet, c: GroupSet) -> tuple[bool, bool]:
    """(is c a supplement for w, is it a maximal one), from one C - C and one W - W."""
    ww = _supplement_differences(w, c)
    if ww is None:
        return False, False
    return True, sumset(c, ww).mask == c.group.full_mask


def is_supplement(w: GroupSet, c: GroupSet) -> bool:
    """Do the W-translates by elements of c stay pairwise disjoint?"""
    return _supplement_differences(w, c) is not None


def is_maximal_supplement_for(w: GroupSet, c: GroupSet) -> bool:
    """Supplement, and no proper superset of c still is one for w."""
    _same_group(w, c)
    return bool(w) and bool(c) and supplement_status(w, c)[1]


@dataclass(frozen=True, init=False)
class SolidityReport:
    """Whether c admits an extension point preserving its difference set.

    violator is the least x outside c with x - c contained in c - c;
    solid means there is none.  __init__ fills the instance dict in one
    step, as DecisionCertificate's does, where a frozen dataclass's own
    makes one object.__setattr__ call per field.
    """

    c: GroupSet
    solid: bool
    violator: Optional[int] = None

    def __init__(self, c: GroupSet, solid: bool, violator: Optional[int] = None):
        self.__dict__.update(c=c, solid=solid, violator=violator)


def is_solid(c: GroupSet, difference: Optional[int] = None) -> SolidityReport:
    """The least x outside c with x - c inside c - c, if there is one.

    difference, when given, is the mask of c - c, so a caller holding it
    does not compute it twice.  The candidates start as the points
    outside c and keep those inside every translate (c - c) + e, e in c,
    and the walk stops when none is left; each translate holds c, so
    only the points outside c can run out.  When c - c = G every
    translate of it is G, so every point outside c extends c and the
    translates are not intersected.  The extension point found is
    rechecked either way.
    """
    group = c.group
    if not c:
        raise ValueError("solidity is about non-empty sets")
    full = group.full_mask
    d = difference_set(c).mask if difference is None else difference
    candidates = full & ~c.mask
    if d != full:
        rest = c.mask
        while rest:
            low = rest & -rest
            candidates &= translate_mask(group, d, low.bit_length() - 1)
            if not candidates:
                break
            rest ^= low
    if candidates == 0:
        return SolidityReport(c, True)
    x = (candidates & -candidates).bit_length() - 1
    if difference_set(c.with_element(x)).mask != d:
        raise RuntimeError("extension point failed the difference-set recheck")
    return SolidityReport(c, False, x)


@dataclass(frozen=True)
class DiffsetInstance:
    """Outcome of searching for A with A - A equal to a target set.

    status is "found" (a holds a realizer containing 0), "none" (the
    complete search ran dry), or "unknown" (candidate cap hit first).
    nodes counts the search nodes examined.
    """

    v: GroupSet
    a: Optional[GroupSet]
    status: str
    nodes: int


def independent_search(group: Group, allowed: int, base: int, target: int,
                       max_candidates: int) -> tuple[Optional[int], int, bool]:
    """Search the sets W through 0 with differences in allowed and base + (W - W) ⊇ target.

    allowed is a symmetric mask containing 0: x and y may share W when
    y - x is in allowed, so the points compatible with x are allowed + x
    without x.  base + (W - W) only grows with W, so some W qualifies
    exactly when some maximal one does.  The search is Bron-Kerbosch with
    Tomita pivoting: a node holds R (pairwise compatible, through 0), the
    points P compatible with all of R still to try and the points X
    already tried, and carries base + R, base - R and cover = base +
    (R - R).  A child R + v takes (base + R) | (base + v), (base - R) |
    (base - v) and cover | ((base + R) - v) | ((base - R) + v), which is
    base + (R' - R') since the new differences are (R - v) and (v - R):
    four translates per child.  It returns the first R whose cover holds
    target.

    The caller must have base + allowed ⊇ target.  A g outside C + ((G
    minus (C - C)) | {0}) is outside C with g - C inside C - C, the point
    is_solid looks for, so the supplement search (solid C, target G)
    meets it; the diffset search has {0} + v = v.

    Bound.  Every W below the node lies inside S = R | P, so a node is cut
    when base + ((S - S) & allowed) misses a point of target.  When
    2|S| > n, S - S = G (see difference_set), and the test is base +
    allowed ⊇ target, which holds; so does it at the root, where S =
    allowed, and there it is skipped.  Otherwise S - S is the union of
    the S - y, y in S, OR-ed until it is G, and base + ((S - S) &
    allowed) is OR-ed from translates of the larger of the two operands
    by the points of the smaller until it holds target.  The union does not
    depend on the order of the y, only how soon it is G does, and the y
    are taken from P before R.  R's points all differ by allowed
    differences, so the translates S - r repeat much of one another: for
    C = {0, 1, 5} in Z_4000, ascending y reach G after about 670
    translates at a typical node, P first after 5 (the median over the
    search's 335 walks; 33 in 64x64).

    Pivot.  Tomita's pivot is the first u of P | X, ascending, with the
    most points of P compatible with it; _pivot reads it off bit planes
    in min(|A|, n - |A|) translates of P, A = allowed minus 0, instead
    of one translate per point of P | X.

    Returns (R mask or None, candidates, complete): candidates counts the
    nodes examined, at most max_candidates, and complete is False when
    the cap stopped the search first.  None with complete=True proves
    that no W qualifies.
    """
    n = group.order
    neg = group.negator()
    side, largest = _pivot_side(group, allowed)
    full = group.full_mask

    def spans(reach: int) -> bool:
        # base + (reach & allowed) ⊇ target
        big, small = base, reach & allowed
        if big.bit_count() < small.bit_count():
            big, small = small, big
        acc = 0
        for y in bits_of(small):
            acc |= translate_mask(group, big, y)
            if acc & target == target:
                return True
        return False

    # a child is kept as (v, its parent's R, base + R, base - R, cover, and
    # P and X as they stood at v's turn) and built when it is popped, so
    # the children left behind by a yes cost no translate; the root is v = 0
    stack = [(0, 1, base, base, base, allowed & ~1, 0)]
    candidates = 0
    while stack:
        if candidates == max_candidates:
            return None, candidates, False
        v, r, plus, minus, cover, p, x = stack.pop()
        if v:
            nv = neg(v)
            near = translate_mask(group, allowed, v) & ~(1 << v)
            cover |= translate_mask(group, plus, nv) | translate_mask(group, minus, v)
            r |= 1 << v
            plus |= translate_mask(group, base, v)
            minus |= translate_mask(group, base, nv)
            p &= near
            x &= near
        candidates += 1
        if cover & target == target:
            return r, candidates, True
        if not p:
            continue
        s = r | p
        # at the root S = allowed, and where 2|S| > n, S - S = G: either way
        # the bound is base + allowed ⊇ target, which holds
        if v and 2 * s.bit_count() <= n:
            reach = 0
            for rest in (p, r):
                while rest and reach != full:
                    low = rest & -rest
                    reach |= translate_mask(group, s, neg(low.bit_length() - 1))
                    rest ^= low
            if reach != full and not spans(reach):
                continue
        u = _pivot(group, side, largest, p, x)
        pivot = translate_mask(group, allowed, u) & ~(1 << u)
        children = []
        rest = p & ~pivot
        while rest:
            low = rest & -rest
            children.append((low.bit_length() - 1, r, plus, minus, cover, p, x))
            p ^= low
            x |= low
            rest ^= low
        stack.extend(reversed(children))
    return None, candidates, True


def _pivot_side(group: Group, allowed: int) -> tuple[list, bool]:
    """The translates of P that _pivot counts over, and whether it wants their largest count.

    With A = allowed minus 0, the points of P compatible with u number
    |(A + u) ∩ P| = Σ_{a in A} [u ∈ P - a] = Σ_{a in A} [u ∈ P + a], since
    A = -A.  Each u lies in P + d for exactly |P| elements d of G (d = u - p,
    one per point p of P), so that count is also |P| minus Σ_{d not in A}
    [u ∈ P + d], where d = 0 is among the d not in A.  The side returned
    is the smaller of A and G minus A: with A the largest sum is wanted,
    with G minus A the least.
    """
    if 2 * (allowed.bit_count() - 1) <= group.order:
        return list(bits_of(allowed & ~1)), True
    return list(bits_of(group.full_mask & ~allowed | 1)), False


def _pivot(group: Group, side: list, largest: bool, p: int, x: int) -> int:
    """Tomita's pivot: the lowest u of P | X with the most points of P compatible with it.

    The translates P + d, d in side, are added into bit planes
    (sumset.add_to_planes), and the lowest point of P | X with the
    extreme sum is read off them (sumset.lowest_extreme); by _pivot_side
    that is the u whose compatible points in P are most, the first
    maximum over ascending u.
    """
    planes: list[int] = []
    for d in side:
        add_to_planes(planes, translate_mask(group, p, d))
    return lowest_extreme(planes, p | x, largest)


def diffset_representation(v: GroupSet,
                           budget: Optional[SearchBudget] = None) -> DiffsetInstance:
    """Search for A whose difference set is exactly v.

    Any realizer translates to one containing 0, and A - A is symmetric,
    so v must contain 0 and equal -v.  Then A is a set through 0 whose
    differences all lie in v and reach all of v: independent_search with
    allowed = v, base {0} and target v.
    """
    group = v.group
    if budget is None:
        budget = SearchBudget()
    target = v.mask
    if 1 & ~target or negated_mask(group, target) != target:
        return DiffsetInstance(v, None, "none", 0)
    found, nodes, complete = independent_search(group, target, 1, target,
                                                budget.max_candidates)
    if found is not None:
        a = GroupSet(group, found)
        if difference_set(a).mask != target:
            raise RuntimeError("realizer failed the difference-set recheck")
        return DiffsetInstance(v, a, "found", nodes)
    return DiffsetInstance(v, None, "none" if complete else "unknown", nodes)


def maximal_supplement_witness(c: GroupSet,
                               budget: Optional[SearchBudget] = None) -> DecisionCertificate:
    """Find W such that c is a maximal supplement for it, or rule it out.

    A non-solid c has no W.  Otherwise W is a set through 0 with no
    difference in (C - C) other than 0, and c + (W - W) must be the whole
    group; independent_search decides that within budget.max_candidates
    nodes.  Its yes and no both cite "exhaustive" with the node count in
    candidates; a search cut short answers unknown ("budget"), never no.

    Cost.  On the sparse sets below the search visits up to about n/4
    nodes, each a few dozen translates of n bits, so its time grows about
    as n^2.  A product costs more per node than a cyclic group of the
    same order: its translate is one rotation per factor, and the
    bound's walk over S - y (independent_search) needs about a/2
    translates to reach G (the median over a search), against about 5
    on Z_n.  CPU seconds of one supplement call on C = {0, 1, 5} in Z_n
    and on {(0,0), (1,0), (1,1)} in a x a, every answer a yes, on a
    2-core x86 host (the rows above 16,384 were measured before the
    search walked its masks inline, and were not run again):

        n        Z_n: s   nodes    a x a                s      nodes
        1,000    0.003      251    32 x 32 = 1,024      0.006    247
        2,000    0.008      501    45 x 45 = 2,025      0.004    239
        4,000    0.022    1,001    64 x 64 = 4,096      0.051  1,006
        8,000    0.080    2,001    90 x 90 = 8,100      0.33   1,997
        16,000   0.22     4,001    128 x 128 = 16,384   1.2    4,055
        32,000   0.78     8,001    180 x 180 = 32,400   4.6    8,042
        64,000   3.3     16,001    256 x 256 = 65,536   21.6  16,302
    """
    group = c.group
    if not c:
        raise ValueError("empty C")

    problem = MAXIMAL_SUPPLEMENT
    full = group.full_mask
    if c.mask == full:
        return DecisionCertificate.verified_yes(problem, "trivial", GroupSet(group, 1), c)

    diff = difference_set(c).mask
    rep = is_solid(c, diff)
    if not rep.solid:
        return DecisionCertificate(problem, NO, "bound-solidity", c, detail={
            "violator": rep.violator})

    allowed = (full & ~diff) | 1
    if budget is None:
        budget = SearchBudget()
    w, checked, complete = independent_search(group, allowed, c.mask, full,
                                              budget.max_candidates)
    if w is not None:
        return DecisionCertificate.verified_yes(problem, "exhaustive", GroupSet(group, w), c,
                                                candidates=checked)
    verdict, method = (NO, "exhaustive") if complete else (UNKNOWN, "budget")
    return DecisionCertificate(problem, verdict, method, c, detail={"candidates": checked})
