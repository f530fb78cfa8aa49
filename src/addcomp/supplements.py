"""Supplements, maximal supplements, solidity, and difference-set search.

C is a supplement for W when the W-translates by distinct elements of C
never overlap, which is the same as (C-C) and (W-W) meeting only at 0.
Maximality on top means C + (W - W) covers the group: no further element
can be added to C without breaking disjointness.

Both searches here look for a set W through 0 whose differences avoid a
forbidden set, that is an independent set in a Cayley graph, and growing
W only grows W - W.  independent_search enumerates the maximal such sets
with Bron-Kerbosch and Tomita pivoting on int masks.  It serves
maximal_supplement_witness, where the allowed differences are the
complement of C - C plus 0 and the goal is C + (W - W) = G, after a
non-solid C is rejected outright (adding its extension point keeps every
pairwise difference, so no W can be maximal for it).  It also serves
diffset_representation, where the allowed differences are v and the goal
is W - W = v.  budget.max_candidates caps the nodes of either search.
Every yes is re-verified by DecisionCertificate.verified_yes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .decision import (MAXIMAL_SUPPLEMENT, NO, UNKNOWN, DecisionCertificate,
                       SearchBudget)
from .groups import Group
from .sumset import (GroupSet, _same_group, bits_of, difference_set, negated_mask,
                     sumset, translate_mask)


def is_supplement(w: GroupSet, c: GroupSet) -> bool:
    """Do the W-translates by elements of c stay pairwise disjoint?"""
    _same_group(w, c)
    if not w or not c:
        raise ValueError("supplement check needs non-empty sets")
    cc = difference_set(c)
    ww = difference_set(w)
    return (cc.mask & ww.mask) == 1


def is_maximal_supplement_for(w: GroupSet, c: GroupSet) -> bool:
    """Supplement, and no proper superset of c still is one for w."""
    _same_group(w, c)
    if not w or not c:
        return False
    cc = difference_set(c)
    ww = difference_set(w)
    if (cc.mask & ww.mask) != 1:
        return False
    return sumset(c, ww).mask == c.group.full_mask


@dataclass(frozen=True)
class SolidityReport:
    """Whether c admits an extension point preserving its difference set.

    violator is the least x outside c with x - c contained in c - c;
    solid means there is none.
    """

    c: GroupSet
    solid: bool
    violator: Optional[int] = None


def is_solid(c: GroupSet, difference: Optional[int] = None) -> SolidityReport:
    """The least x outside c with x - c inside c - c, if there is one.

    difference, when given, is the mask of c - c, so a caller holding it
    does not compute it twice.  When c - c = G every translate of it is
    G, so every point outside c extends c and the translates are not
    intersected.  The extension point found is rechecked either way.
    """
    group = c.group
    if not c:
        raise ValueError("solidity is about non-empty sets")
    d = difference_set(c).mask if difference is None else difference
    inter = group.full_mask
    if d != inter:
        for e in c.elements():
            inter &= translate_mask(group, d, e)
            if inter == 0:
                break
    candidates = inter & ~c.mask
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


def independent_search(group: Group, allowed: int, goal: Callable[[int], bool],
                       max_candidates: int) -> tuple[Optional[int], int, bool]:
    """Search the sets W containing 0 whose differences all lie in allowed.

    allowed is a symmetric mask containing 0: x and y may share W when
    y - x is in allowed, so the points compatible with x are allowed + x
    without x.  goal tests a difference set and must be monotone (if it
    holds for D it holds for every superset of D), so some W qualifies
    exactly when some maximal one does.  The search is Bron-Kerbosch with
    Tomita pivoting: a node holds R (pairwise compatible, through 0) with
    R - R, the points P compatible with all of R still to try, and the
    points X already tried.  It returns the first R whose R - R meets
    goal, and cuts a node when (R | P) - (R | P) fails goal, because every
    W below the node lies inside R | P.

    Returns (R mask or None, candidates, complete): candidates counts the
    nodes examined, at most max_candidates, and complete is False when
    the cap stopped the search first.  None with complete=True proves
    that no W meets goal.
    """
    def compatible(x: int) -> int:
        return translate_mask(group, allowed, x) & ~(1 << x)

    neg = group.neg
    stack = [(1, 1, 1, allowed & ~1, 0)]  # R, -R, R - R, P, X
    candidates = 0
    while stack:
        if candidates == max_candidates:
            return None, candidates, False
        r, neg_r, diff, p, x = stack.pop()
        candidates += 1
        if goal(diff):
            return r, candidates, True
        if not p:
            continue
        if not goal(difference_set(GroupSet(group, r | p)).mask & allowed):
            continue
        pivot = max((compatible(u) & p for u in bits_of(p | x)), key=int.bit_count)
        children = []
        for v in bits_of(p & ~pivot):
            nv = neg(v)
            near = compatible(v)
            children.append((r | 1 << v, neg_r | 1 << nv,
                             diff | translate_mask(group, r, nv) | translate_mask(group, neg_r, v),
                             p & near, x & near))
            p &= ~(1 << v)
            x |= 1 << v
        stack.extend(reversed(children))
    return None, candidates, True


def diffset_representation(v: GroupSet,
                           budget: Optional[SearchBudget] = None) -> DiffsetInstance:
    """Search for A whose difference set is exactly v.

    Any realizer translates to one containing 0, and A - A is symmetric,
    so v must contain 0 and equal -v.  Then A is a set through 0 whose
    differences all lie in v and reach all of v: independent_search with
    allowed = v and the goal D covering v.
    """
    group = v.group
    if budget is None:
        budget = SearchBudget()
    target = v.mask
    if 1 & ~target or negated_mask(group, target) != target:
        return DiffsetInstance(v, None, "none", 0)
    found, nodes, complete = independent_search(
        group, target, lambda d: d & target == target, budget.max_candidates)
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
    """
    group = c.group
    if not c:
        raise ValueError("empty C")
    if budget is None:
        budget = SearchBudget()

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
    w, checked, complete = independent_search(
        group, allowed, lambda d: sumset(c, GroupSet(group, d)).mask == full,
        budget.max_candidates)
    if w is not None:
        return DecisionCertificate.verified_yes(problem, "exhaustive", GroupSet(group, w), c,
                                                candidates=checked)
    verdict, method = (NO, "exhaustive") if complete else (UNKNOWN, "budget")
    return DecisionCertificate(problem, verdict, method, c, detail={"candidates": checked})
