"""The batched exhaustive scan over all W containing 0 for the complement problem.

Candidate masks for a group of order n are w = 2j+1 for j in
[0, 2^(n-1)): forcing bit 0 is the usual translation normalization of W,
and ascending j is ascending mask order, so "first hit" here agrees with
the naive oracles' scan order.  Batches of candidates go through a
test as uint64 arrays (n <= 63); they start at FIRST_BATCH and grow up
to CHUNK, so an early witness costs no full chunk.  scan_for_witness's
test is the private_points cover count over the translates of W.
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
        alive = covered == group.full_mask
        for e in ec:
            if not alive.any():
                break
            alive &= (translate_mask(group, w, e) & private) != 0
        return alive

    return scan(group, test, max_candidates)

