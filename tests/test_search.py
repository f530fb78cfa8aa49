"""The exhaustive routes of both problems against the naive oracles on non-cyclic groups."""

import pytest

from addcomp.complements import exists_witness
from addcomp.decision import NO, YES
from addcomp.groups import Group
from addcomp.oracle import (oracle_exists_witness, oracle_is_maximal_supplement_for,
                            oracle_maximal_supplement)
from addcomp.search import scan, scan_for_witness
from addcomp.sumset import GroupSet
from addcomp.supplements import maximal_supplement_witness


@pytest.mark.parametrize("factors", [[2, 2], [2, 4], [2, 2, 2], [3, 3]])
def test_exhaustive_routes_match_oracles(factors):
    g = Group(factors)
    n = g.order
    for cmask in range(1, 1 << n):
        c = GroupSet(g, cmask)

        cert = exists_witness(c, fast_paths=False)
        expect = oracle_exists_witness(c)
        assert cert.verdict == (YES if expect is not None else NO)
        if cert.method == "exhaustive" and cert.verdict == YES:
            assert cert.witness == expect

        cert = maximal_supplement_witness(c)
        exists = oracle_maximal_supplement(c) is not None
        assert cert.verdict == (YES if exists else NO)
        if cert.verdict == YES:
            assert oracle_is_maximal_supplement_for(cert.witness, c)


def test_scan_counts_and_budget():
    g = Group([2, 4])
    w, checked, complete = scan(g, lambda masks: masks == 0b1011)
    assert (w, checked, complete) == (GroupSet(g, 0b1011), 6, True)
    w, checked, complete = scan(g, lambda masks: masks != masks)
    assert (w, checked, complete) == (None, 1 << 7, True)
    w, checked, complete = scan(g, lambda masks: masks == 0b1011, max_candidates=5)
    assert (w, checked, complete) == (None, 5, False)


def test_scan_batches_keep_mask_order():
    # the hit sits past several batch boundaries and must still be the first
    g = Group([16])
    target = GroupSet.from_elements(g, [0, 1, 2, 3, 5, 6, 7, 11, 13])
    w, checked, complete = scan(g, lambda masks: (masks & target.mask) == target.mask)
    assert w == target and checked == (target.mask >> 1) + 1 and complete


def test_scan_for_witness_trivial_group():
    g = Group([])
    w, checked, complete = scan_for_witness(g, GroupSet(g, 1))
    assert w == GroupSet(g, 1) and checked == 1 and complete
