"""The exhaustive routes of both problems against the naive oracles on non-cyclic groups."""

import random

import pytest

from addcomp.complements import exists_witness, scan_for_witness
from addcomp.decision import NO, UNKNOWN, YES, SearchBudget
from addcomp.groups import Group
from addcomp.oracle import (oracle_exists_witness, oracle_is_maximal_supplement_for,
                            oracle_is_minimal_complement_for, oracle_maximal_supplement)
from addcomp.sumset import GroupSet
from addcomp.supplements import maximal_supplement_witness


@pytest.mark.parametrize("factors", [[2, 2], [2, 4], [2, 2, 2], [3, 3]])
def test_exhaustive_routes_match_oracles(factors):
    g = Group(factors)
    n = g.order
    for cmask in range(1, 1 << n):
        c = GroupSet(g, cmask)

        w, _, complete = scan_for_witness(g, c)
        assert complete and (w is None) == (oracle_exists_witness(c) is None)
        if w is not None:
            assert oracle_is_minimal_complement_for(w, c)

        cert = maximal_supplement_witness(c)
        exists = oracle_maximal_supplement(c) is not None
        assert cert.verdict == (YES if exists else NO)
        if cert.verdict == YES:
            assert oracle_is_maximal_supplement_for(cert.witness, c)


@pytest.mark.parametrize("factors", [[2, 6], [2, 2, 3]])
def test_complement_search_matches_oracle_on_order_12_products(factors):
    # a seeded sample: the full pass over all 2^11 sets through 0 takes minutes
    g = Group(factors)
    rng = random.Random(12)
    for _ in range(50):
        c = GroupSet(g, 1 | rng.getrandbits(12) & ~1)
        w, _, complete = scan_for_witness(g, c)
        assert complete and (w is None) == (oracle_exists_witness(c) is None), c
        if w is not None:
            assert oracle_is_minimal_complement_for(w, c)


def test_candidate_cap_stops_the_search_at_exactly_k():
    g = Group([12])
    c = GroupSet.from_elements(g, [0, 2, 4, 6, 8])
    w, nodes, complete = scan_for_witness(g, c)
    assert w is None and complete and nodes <= 1 << 11
    for k in range(nodes):
        assert scan_for_witness(g, c, k) == (None, k, False)
    assert scan_for_witness(g, c, nodes) == (None, nodes, True)


def test_search_runs_only_where_its_worst_case_fits_the_cap():
    # 2^11 sets contain 0 in Z12; one fewer and the search must not start.
    # No bound or construction decides {0, 1, 3}, so only the search can.
    g = Group([12])
    c = GroupSet.from_elements(g, [0, 1, 3])
    cert = exists_witness(c, SearchBudget(max_candidates=1 << 11))
    assert (cert.verdict, cert.method) == (YES, "exhaustive")
    cert = exists_witness(c, SearchBudget(max_candidates=(1 << 11) - 1))
    assert (cert.verdict, cert.method) == (UNKNOWN, "budget")
    assert cert.detail["candidates_needed_log2"] == 11


def test_search_decides_a_no_in_far_fewer_nodes_than_masks():
    # every node is a distinct W through 0, but the cuts leave few of the 2^21
    g = Group([22])
    c = GroupSet.from_elements(g, [0, 1, 2, 9, 11, 12, 13, 14, 15, 18])
    w, nodes, complete = scan_for_witness(g, c)
    assert w is None and complete and nodes < 1 << 12


def test_scan_for_witness_trivial_group():
    g = Group([])
    w, checked, complete = scan_for_witness(g, GroupSet(g, 1))
    assert w == GroupSet(g, 1) and checked == 1 and complete
