"""The batched exhaustive scan over all W containing 0, shared by both problems.

Candidate masks for a group of order n are w = 2j+1 for j in
[0, 2^(n-1)): forcing bit 0 is the usual translation normalization of W,
and ascending j is ascending mask order, so "first hit" here agrees with
the naive oracles' scan order.  Batches of candidates go through a
per-problem test as uint64 arrays (n <= 63); they start at FIRST_BATCH
and grow up to CHUNK, so an early witness costs no full chunk.  Both
tests are the private_points cover count over the translates of W.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .groups import Group
from .sumset import GroupSet, private_points, translate_mask

FIRST_BATCH = 1 << 6
BATCH_GROWTH = 8
CHUNK = 1 << 20


def scan(group: Group, test: Callable[[np.ndarray], np.ndarray],
         max_candidates: Optional[int] = None) -> tuple[Optional[GroupSet], int, bool]:
    """Walk the odd masks in ascending order until test accepts one.

    test maps a uint64 array of masks to a bool array.  Returns (first
    accepted W or None, candidates checked, complete), where complete
    tells whether the whole space fit inside max_candidates.
    """
    n = group.order
    if n > 63:
        return None, 0, False
    total = 1 << (n - 1)
    limit = total if max_candidates is None else min(total, max_candidates)
    complete = limit >= total
    base = 0
    size = FIRST_BATCH
    while base < limit:
        count = min(size, limit - base)
        w = (np.arange(base, base + count, dtype=np.uint64) << 1) | 1
        hits = np.flatnonzero(test(w))
        if hits.size:
            hit = int(hits[0])
            return GroupSet(group, int(w[hit])), base + hit + 1, complete
        base += count
        size = min(size * BATCH_GROWTH, CHUNK)
    return None, base, complete


def _each_translate_meets(group: Group, w: np.ndarray, elements,
                          target: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Narrow alive to the masks whose translate by every element meets target."""
    for e in elements:
        if not alive.any():
            break
        alive &= (translate_mask(group, w, e) & target) != 0
    return alive


def scan_for_witness(group: Group, c: GroupSet,
                     max_candidates: Optional[int] = None) -> tuple[Optional[GroupSet], int, bool]:
    """Scan every normalized W for one that c is a minimal complement for.

    Returns (witness, candidates_checked, complete).  The witness is the
    first in mask order; None with complete=True is a proof of absence.
    """
    ec = c.elements()
    if not ec:
        raise ValueError("empty C has no witness")

    def test(w):
        covered, private = private_points(group, w, ec)
        return _each_translate_meets(group, w, ec, private, covered == group.full_mask)

    return scan(group, test, max_candidates)


def scan_for_supplement(group: Group, c: GroupSet,
                        max_candidates: Optional[int] = None) -> tuple[Optional[GroupSet], int, bool]:
    """Scan every normalized W for one that c is a maximal supplement for.

    Same arguments and return shape as scan_for_witness.
    """
    ec = c.elements()
    outside = GroupSet(group, group.full_mask & ~c.mask).elements()

    def test(w):
        covered, private = private_points(group, w, ec)
        return _each_translate_meets(group, w, outside, covered, covered == private)

    return scan(group, test, max_candidates)
