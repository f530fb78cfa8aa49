"""Naive reference implementations used by tests.

Everything here recomputes from the definitions with plain loops over an
addition table, kept deliberately separate from the production bitmask
kernels so the two can check each other.  The only shortcut any oracle
takes is translation normalization of the searched-for W (0 in W), and
the unnormalized variant exists so tests can validate that too.  The
oracles count on numpy addition tables, so they need numpy from the
`test` extra; no other module of the package imports numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .groups import Group
from .sumset import GroupSet

_table_cache: dict[tuple[int, ...], np.ndarray] = {}
_neg_cache: dict[tuple[int, ...], np.ndarray] = {}


def _add_table(group: Group) -> np.ndarray:
    key = group.factors
    cached = _table_cache.get(key)
    if cached is not None:
        return cached
    n = group.order
    idx = np.arange(n)
    table = np.zeros((n, n), dtype=np.int64)
    stride = 1
    for d in group.factors:
        a = (idx // stride) % d
        table += ((a[:, None] + a[None, :]) % d) * stride
        stride *= d
    _table_cache[key] = table
    return table


def _neg_vector(group: Group) -> np.ndarray:
    key = group.factors
    cached = _neg_cache.get(key)
    if cached is not None:
        return cached
    n = group.order
    idx = np.arange(n)
    neg = np.zeros(n, dtype=np.int64)
    stride = 1
    for d in group.factors:
        a = (idx // stride) % d
        neg += ((d - a) % d) * stride
        stride *= d
    _neg_cache[key] = neg
    return neg


def _mask_of(group: Group, elements) -> GroupSet:
    mask = 0
    for e in elements:
        mask |= 1 << int(e)
    return GroupSet(group, mask)


def naive_sumset(a: GroupSet, b: GroupSet) -> GroupSet:
    group = a.group
    if group != b.group:
        raise ValueError("sets belong to different groups")
    ea, eb = a.elements(), b.elements()
    if not ea or not eb:
        return GroupSet.empty(group)
    table = _add_table(group)
    sums = table[np.ix_(ea, eb)].ravel()
    return _mask_of(group, np.unique(sums))


def naive_difference_set(a: GroupSet) -> GroupSet:
    group = a.group
    ea = a.elements()
    if not ea:
        return GroupSet.empty(group)
    neg = _neg_vector(group)
    table = _add_table(group)
    diffs = table[np.ix_(ea, neg[ea])].ravel()
    return _mask_of(group, np.unique(diffs))


def naive_coverage(w: GroupSet, c: GroupSet) -> np.ndarray:
    group = w.group
    if group != c.group:
        raise ValueError("sets belong to different groups")
    n = group.order
    ew, ec = w.elements(), c.elements()
    if not ew or not ec:
        return np.zeros(n, dtype=np.int64)
    table = _add_table(group)
    return np.bincount(table[np.ix_(ew, ec)].ravel(), minlength=n)


def oracle_is_complement(w: GroupSet, c: GroupSet) -> bool:
    counts = naive_coverage(w, c)
    return bool(counts.size and counts.min() > 0)


def oracle_is_minimal_complement_for(w: GroupSet, c: GroupSet) -> bool:
    if not oracle_is_complement(w, c):
        return False
    for e in c.elements():
        if oracle_is_complement(w, c.without_element(e)):
            return False
    return True


def _witness_scan(c: GroupSet, masks) -> Optional[GroupSet]:
    group = c.group
    n = group.order
    table = _add_table(group)
    ec = c.elements()
    k = len(ec)
    if k == 0:
        return None
    for wmask in masks:
        w = GroupSet(group, wmask)
        ew = w.elements()
        if len(ew) * k < n:
            continue
        counts = np.bincount(table[np.ix_(ew, ec)].ravel(), minlength=n)
        if counts.min() == 0:
            continue
        minimal = True
        for drop in range(k):
            rest = ec[:drop] + ec[drop + 1:]
            sub = np.bincount(table[np.ix_(ew, rest)].ravel(), minlength=n)
            if sub.min() > 0:
                minimal = False
                break
        if minimal:
            return w
    return None


def oracle_exists_witness(c: GroupSet) -> Optional[GroupSet]:
    """First W containing 0, in ascending mask order, that c is minimal for."""
    n = c.group.order
    if n == 1:
        return _witness_scan(c, [1])
    return _witness_scan(c, range(1, 1 << n, 2))


def oracle_exists_witness_unnormalized(c: GroupSet) -> Optional[GroupSet]:
    """Same scan without the 0-in-W normalization; used to validate it."""
    n = c.group.order
    return _witness_scan(c, range(1, 1 << n))


def oracle_is_supplement(w: GroupSet, c: GroupSet) -> bool:
    if not w or not c:
        raise ValueError("supplement check needs non-empty sets")
    cc = set(naive_difference_set(c).elements())
    ww = set(naive_difference_set(w).elements())
    return cc & ww == {0}


def oracle_is_maximal_supplement_for(w: GroupSet, c: GroupSet) -> bool:
    if not w or not c:
        return False
    if not oracle_is_supplement(w, c):
        return False
    reach = naive_sumset(c, naive_difference_set(w))
    return len(reach) == c.group.order


def oracle_maximal_supplement(c: GroupSet) -> Optional[GroupSet]:
    """First non-empty W, in ascending mask order, that c maximally supplements."""
    group = c.group
    if not c:
        return None
    cc = set(naive_difference_set(c).elements())
    for wmask in range(1, 1 << group.order):
        w = GroupSet(group, wmask)
        ww = naive_difference_set(w)
        if cc & set(ww.elements()) != {0}:
            continue
        if len(naive_sumset(c, ww)) == group.order:
            return w
    return None


def oracle_solid(c: GroupSet) -> tuple[bool, Optional[GroupSet]]:
    """Full-definition solidity: enumerate every proper superset D of c.

    Returns (solid, first D with D-D = c-c), scanning supersets in
    ascending order of the added-element mask.
    """
    group = c.group
    if not c:
        raise ValueError("solidity is about non-empty sets")
    target = naive_difference_set(c).mask
    others = [g for g in group.elements() if g not in c]
    for extra in range(1, 1 << len(others)):
        d = c
        m = extra
        while m:
            low = m & -m
            d = d.with_element(others[low.bit_length() - 1])
            m ^= low
        if naive_difference_set(d).mask == target:
            return False, d
    return True, None


def oracle_diffset_table(group: Group) -> dict[int, int]:
    """Map from every realizable difference-set mask to its first realizer.

    Scans all non-empty subsets A in ascending mask order and records
    A-A for each; "first" is the least A mask realizing that value.
    """
    out: dict[int, int] = {}
    for amask in range(1, 1 << group.order):
        v = naive_difference_set(GroupSet(group, amask)).mask
        if v not in out:
            out[v] = amask
    return out
