"""Supplements, maximal supplements, solidity, and the completion route.

C is a supplement for W when the W-translates by distinct elements of C
never overlap, which is the same as (C-C) and (W-W) meeting only at 0.
Maximality on top means C + (W - W) covers the group: no further element
can be added to C without breaking disjointness.

maximal_supplement_witness layers three methods: a non-solid C is
rejected outright (adding its extension point keeps every pairwise
difference, so no W can be maximal for it); a solid C first tries the
completion route, searching for W whose difference set is exactly the
complement of C-C plus 0, which is sufficient; and when that search
proves empty or gives up, the batched scan in search.py, which the
complement problem shares, settles orders up to EXHAUSTIVE_LIMIT when
the budget's max_candidates covers every W.  The completion search is
capped by max_nodes and works on masks throughout.  Every yes, whichever
route found it, is re-verified by DecisionCertificate.verified_yes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decision import (MAXIMAL_SUPPLEMENT, NO, UNKNOWN, DecisionCertificate,
                       SearchBudget)
from .search import scan_for_supplement
from .sumset import GroupSet, difference_set, sumset, negated_mask, translate_mask

EXHAUSTIVE_LIMIT = 16


def is_supplement(w: GroupSet, c: GroupSet) -> bool:
    """Do the W-translates by elements of c stay pairwise disjoint?"""
    if w.group != c.group:
        raise ValueError("sets belong to different groups")
    if not w or not c:
        raise ValueError("supplement check needs non-empty sets")
    cc = difference_set(c)
    ww = difference_set(w)
    return (cc.mask & ww.mask) == 1


def is_maximal_supplement_for(w: GroupSet, c: GroupSet) -> bool:
    """Supplement, and no proper superset of c still is one for w."""
    if w.group != c.group:
        raise ValueError("sets belong to different groups")
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


def is_solid(c: GroupSet) -> SolidityReport:
    group = c.group
    if not c:
        raise ValueError("solidity is about non-empty sets")
    d = difference_set(c).mask
    inter = group.full_mask
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
    complete search ran dry), or "unknown" (node budget hit first).
    """

    v: GroupSet
    a: Optional[GroupSet]
    status: str
    nodes: int


def diffset_representation(v: GroupSet,
                           budget: Optional[SearchBudget] = None) -> DiffsetInstance:
    """Search for A whose difference set is exactly v.

    Any realizer translates to one containing 0, and then A is forced
    inside v itself, so the search runs over subsets of v with a
    depth-first include/exclude walk.  Including x must keep all new
    differences inside v; a branch dies when even using every remaining
    candidate cannot cover what is still missing.  The walk carries A,
    -A and A - A as masks: x - A is a translate of -A, and since v is
    symmetric it lies in v exactly when A - x does.
    """
    group = v.group
    if budget is None:
        budget = SearchBudget()
    if 1 & ~v.mask or negated_mask(group, v.mask) != v.mask:
        return DiffsetInstance(v, None, "none", 0)
    if v.mask == 1:
        return DiffsetInstance(v, GroupSet(group, 1), "found", 1)

    target = v.mask
    outside = group.full_mask & ~target
    max_nodes = budget.max_nodes
    nodes = 0
    exhausted = False

    def walk(amask: int, neg_a: int, diff: int, rest: list[int]):
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > max_nodes:
            exhausted = True
            return None
        if diff == target:
            return amask
        if not rest:
            return None
        # A - A stays inside pool - pool on every branch below this node.
        pool = amask
        for x in rest:
            pool |= 1 << x
        if difference_set(GroupSet(group, pool)).mask & target != target:
            return None
        uncovered = target & ~diff
        best = None
        best_gain = -1
        best_new = 0
        for x in rest:
            new = translate_mask(group, neg_a, x)
            if new & outside:
                continue
            new |= translate_mask(group, amask, group.neg(x))
            gain = bin(new & uncovered).count("1")
            if gain > best_gain:
                best, best_gain, best_new = x, gain, new
        if best is None:
            return None
        sub_rest = [x for x in rest if x != best]
        got = walk(amask | (1 << best), neg_a | (1 << group.neg(best)),
                   diff | best_new, sub_rest)
        if got is not None or exhausted:
            return got
        feasible = [x for x in sub_rest
                    if not translate_mask(group, neg_a, x) & outside]
        return walk(amask, neg_a, diff, feasible)

    found = walk(1, 1, 1, v.elements()[1:])
    if found is not None:
        a = GroupSet(group, found)
        if difference_set(a).mask != target:
            raise RuntimeError("realizer failed the difference-set recheck")
        return DiffsetInstance(v, a, "found", nodes)
    if exhausted:
        return DiffsetInstance(v, None, "unknown", nodes)
    return DiffsetInstance(v, None, "none", nodes)


def maximal_supplement_witness(c: GroupSet,
                               budget: Optional[SearchBudget] = None) -> DecisionCertificate:
    """Find W such that c is a maximal supplement for it, or rule it out.

    Yes-certificates are re-verified.  No-certificates come from a
    failed solidity check or, for orders up to 16, an exhaustive scan
    over normalized W that budget.max_candidates let finish.
    """
    group = c.group
    n = group.order
    if not c:
        raise ValueError("empty C")
    if budget is None:
        budget = SearchBudget()

    problem = MAXIMAL_SUPPLEMENT
    yes = DecisionCertificate.verified_yes
    if c.mask == group.full_mask:
        return yes(problem, "trivial", GroupSet(group, 1), c)

    rep = is_solid(c)
    if not rep.solid:
        return DecisionCertificate(problem, NO, "bound-solidity", detail={
            "base": c, "violator": rep.violator})

    v = GroupSet(group, (~difference_set(c).mask & group.full_mask) | 1)
    inst = diffset_representation(v, budget)
    if inst.status == "found":
        return yes(problem, "completion-diffset", inst.a, c, nodes=inst.nodes)

    if n <= EXHAUSTIVE_LIMIT:
        w, _, complete = scan_for_supplement(group, c, budget.max_candidates)
        if w is not None:
            return yes(problem, "exhaustive", w, c)
        if complete:
            return DecisionCertificate(problem, NO, "exhaustive", detail={"base": c})
    return DecisionCertificate(problem, UNKNOWN, "budget", detail={
        "base": c, "diffset_status": inst.status})
