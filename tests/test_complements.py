import dataclasses
import itertools
import random

import pytest

from addcomp import complements
from addcomp.complements import (EssentialityReport, compute_tmin, essentiality,
                                 exists_witness, is_complement,
                                 is_minimal_complement_for, prune_to_minimal,
                                 subgroup_gap_family, tmin_of_order)
from addcomp.decision import (MINIMAL_COMPLEMENT, NO, UNKNOWN, YES, DecisionCertificate,
                              SearchBudget)
from addcomp.groups import Group, abelian_groups_of_order, unit_multipliers
from addcomp.oracle import oracle_exists_witness
from addcomp.sumset import GroupSet, translate


def _gs(g, elems):
    return GroupSet.from_elements(g, elems)


def test_complement_and_minimality():
    g = Group([6])
    w = _gs(g, [0, 3])
    c = _gs(g, [0, 1, 2])
    assert is_complement(w, c)
    assert is_minimal_complement_for(w, c)
    assert not is_minimal_complement_for(w, _gs(g, [0, 1, 2, 3]))
    assert not is_complement(w, _gs(g, [0, 1]))
    assert not is_minimal_complement_for(w, _gs(g, [0, 1]))


def test_essentiality_report():
    g = Group([6])
    w = _gs(g, [0, 3])
    c = _gs(g, [0, 1, 2, 3])
    rep = essentiality(w, c)
    assert rep.essential == _gs(g, [1, 2])
    assert rep.unique_witness == {1: 1, 2: 2}
    assert not rep.is_minimal()
    minimal = essentiality(w, _gs(g, [0, 1, 2]))
    assert minimal.is_minimal()
    assert minimal.essential == _gs(g, [0, 1, 2])
    with pytest.raises(ValueError):
        essentiality(w, _gs(g, [0, 1]))


def test_prune_to_minimal():
    g = Group([6])
    w = _gs(g, [0, 3])
    pruned = prune_to_minimal(w, _gs(g, [0, 1, 2, 3]))
    assert pruned == _gs(g, [1, 2, 3])
    assert is_minimal_complement_for(w, pruned)
    # pruning a set that is already minimal returns it unchanged
    assert prune_to_minimal(w, pruned) == pruned
    # the all-of-G extreme: lowest-index removals leave the last element
    full = GroupSet.full(g)
    assert prune_to_minimal(full, full) == _gs(g, [5])
    with pytest.raises(ValueError):
        prune_to_minimal(w, _gs(g, [0, 1]))


def test_exists_witness_ap_route():
    g = Group([6])
    cert = exists_witness(_gs(g, [0, 1, 2]))
    assert cert.verdict == YES
    assert cert.method == "construction-ap"
    assert cert.witness == _gs(g, [0, 3])
    assert cert.verify()

    g10 = Group([10])
    cert10 = exists_witness(_gs(g10, range(5)))
    assert cert10.verdict == YES
    assert cert10.witness == _gs(g10, [0, 5])
    assert cert10.verify()


def test_exists_witness_size_gap():
    g = Group([9])
    cert = exists_witness(_gs(g, range(7)))
    assert cert.verdict == NO
    assert cert.method == "bound-size-gap"


def test_exists_witness_trivial_cases():
    g = Group([6])
    cert = exists_witness(GroupSet.full(g))
    assert cert.verdict == YES and cert.method == "trivial"
    assert cert.witness == _gs(g, [0])

    t = Group([])
    cert1 = exists_witness(GroupSet.full(t))
    assert cert1.verdict == YES
    with pytest.raises(ValueError):
        exists_witness(GroupSet.empty(g))


def test_exists_witness_subgroup_gap_vs_exhaustion():
    g = Group([12])
    c = _gs(g, [0, 2, 4, 6, 8])
    fast = exists_witness(c)
    assert fast.verdict == NO
    assert fast.method == "bound-subgroup-gap"
    slow = exists_witness(c, fast_paths=False)
    assert slow.verdict == NO
    assert slow.method == "exhaustive"


def test_subgroup_trap_fires_on_products_above_order_65536():
    # Index 2j is the element (0, j): C fills 32001 of the 40000 elements
    # of the subgroup 0 x Z40000, too many for any witness.
    g = Group((2, 40000))
    c = GroupSet.from_elements(g, [2 * j for j in range(32001)])
    cert = exists_witness(c)
    assert cert.verdict == NO
    assert cert.method == "bound-subgroup-gap"
    assert cert.detail["subgroup_order"] == 40000


def test_exists_witness_unknown_on_budget():
    g = Group([67])
    c = _gs(g, [0, 1, 3])
    cert = exists_witness(c, SearchBudget(max_candidates=4))
    assert cert.verdict == UNKNOWN
    assert cert.method == "budget"


def test_exists_witness_builds_when_scan_does_not_fit():
    # the randomized builder opens whenever the exhaustive scan is out of reach
    g = Group([10 ** 6])
    c = _gs(g, [0, 11, 5225, 90125, 443211, 800017])
    cert = exists_witness(c)
    assert cert.verdict == YES and cert.method == "random-build"
    assert cert.verify()


def test_unknown_reports_scan_size_as_log2():
    g = Group([100000])
    cert = exists_witness(_gs(g, [0, 1, 3, 7, 20, 50, 90, 200, 300]))
    assert cert.verdict == UNKNOWN
    assert cert.detail["candidates_needed_log2"] == 99999


def test_yes_witnesses_respect_size_bound():
    # a yes is impossible in the barred band 2n/3 < |C| < n
    for n in (6, 7, 8):
        g = Group([n])
        for cmask in range(1, 1 << n):
            c = GroupSet(g, cmask)
            cert = exists_witness(c)
            if cert.verdict == YES:
                k = len(c)
                assert k == n or 3 * k <= 2 * n
                assert cert.verify()


def test_verdict_translation_invariant():
    g = Group([6])
    for cmask in range(1, 1 << 6):
        c = GroupSet(g, cmask)
        base = exists_witness(c).verdict
        for t in range(1, 6):
            assert exists_witness(translate(c, t)).verdict == base


def test_verdict_invariance_sampled():
    # every unit multiplier and every translate of seeded samples, on
    # cyclic groups and on products
    rnd = random.Random(11)
    for factors in ((8,), (9,), (10,), (2, 6), (2, 2, 4), (4, 4), (3, 3)):
        g = Group(factors)
        n = g.order
        for _ in range(12):
            c = _gs(g, rnd.sample(range(n), rnd.randint(1, n)))
            base = exists_witness(c).verdict
            for u in unit_multipliers(g):
                cu = _gs(g, [g.scale(x, u) for x in c])
                for t in range(n):
                    assert exists_witness(translate(cu, t)).verdict == base


def _orbit_key(g, c):
    """Least mask over the orbit of c under translation x unit multipliers."""
    return min(translate(_gs(g, [g.scale(x, u) for x in c]), t).mask
               for u in unit_multipliers(g) for t in range(g.order))


def _reference_tmin(group, budget=None):
    """compute_tmin's walk with exists_witness on every subset, no orbits."""
    n = group.order
    checked = 0
    for size in range(1, n + 1):
        unknown_here = None
        for rest in itertools.combinations(range(1, n), size - 1):
            c = GroupSet.from_elements(group, (0,) + rest)
            verdict = exists_witness(c, budget).verdict
            checked += 1
            if verdict == NO:
                return size - 1, True, c, None, checked
            if verdict == UNKNOWN and unknown_here is None:
                unknown_here = c
        if unknown_here is not None:
            return size - 1, False, None, unknown_here, checked
    return n, True, None, None, checked


def _fields(rep):
    return rep.value, rep.exact, rep.first_failing, rep.unknown_at, rep.subsets_checked


@pytest.mark.parametrize("factors", [(12,), (2, 6), (14,), (2, 2, 4)])
def test_compute_tmin_matches_orbit_free_walk(factors):
    g = Group(factors)
    assert _fields(compute_tmin(g)) == _reference_tmin(g)


@pytest.mark.parametrize("cap", [1, 16, 256])
@pytest.mark.parametrize("n", [8, 12])
def test_compute_tmin_matches_orbit_free_walk_capped(n, cap):
    budget = SearchBudget(max_candidates=cap)
    for g in abelian_groups_of_order(n):
        assert _fields(compute_tmin(g, budget)) == _reference_tmin(g, budget)


def test_compute_tmin_searches_once_per_orbit(monkeypatch):
    g = Group([14])
    searched = []
    search = complements.scan_for_witness

    def counted(group, c, max_candidates=None):
        searched.append(c)
        return search(group, c, max_candidates)

    monkeypatch.setattr(complements, "scan_for_witness", counted)
    _reference_tmin(g)
    every = list(searched)
    searched.clear()
    rep = compute_tmin(g)
    # each orbit the walk has to search is searched once
    orbits = {_orbit_key(g, c) for c in every}
    assert len(searched) == len(orbits) < len(every)
    assert len({_orbit_key(g, c) for c in searched}) == len(searched)
    # the memo lives for one call: a second call searches as much again
    first = len(searched)
    assert compute_tmin(g) == rep
    assert len(searched) == 2 * first


def test_orbit_verdicts_files_only_search_answers(monkeypatch):
    g = Group([10])
    c, mate = _gs(g, [0, 1, 3]), _gs(g, [1, 2, 5])  # mate = 3*c + 2
    calls = []
    base = exists_witness(c)
    for method, filed in (("exhaustive", True), ("construction-pair", False),
                          ("random-build", False)):
        cert = dataclasses.replace(base, method=method)
        calls.clear()
        monkeypatch.setattr(complements, "exists_witness",
                            lambda c, budget=None, cert=cert: calls.append(c) or cert)
        verdict = complements.orbit_verdicts(g)
        assert verdict(c) == verdict(mate) == YES
        assert calls == ([c] if filed else [c, mate])
    unknown = DecisionCertificate(MINIMAL_COMPLEMENT, UNKNOWN, "budget")
    calls.clear()
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: calls.append(c) or unknown)
    verdict = complements.orbit_verdicts(g)
    assert verdict(c) == verdict(mate) == UNKNOWN and calls == [c, mate]


def test_orbit_verdicts_files_nothing_past_the_search_gate(monkeypatch):
    # order 101 is past the default cap, so no answer is a search answer
    # and the orbit maps, built on the first filing, are never built
    from addcomp.experiments import scan_threshold

    def unused(group):
        raise AssertionError("orbit maps built")

    monkeypatch.setattr(complements, "unit_multipliers", unused)
    rep = scan_threshold(Group([101]), p_values=(0.05, 0.3, 0.7, 0.9), trials=5)
    assert sum(row.yes + row.no for row in rep.rows) > 0


def test_compute_tmin_small():
    rep = compute_tmin(Group([2]))
    assert rep.value == 2 and rep.exact and rep.first_failing is None
    rep1 = compute_tmin(Group([]))
    assert rep1.value == 1 and rep1.exact


def test_compute_tmin_z12():
    rep = compute_tmin(Group([12]))
    assert rep.value == 4
    assert rep.exact
    g = Group([12])
    assert rep.first_failing == _gs(g, [0, 1, 2, 6, 8])
    # the failing subset really has no witness, by the naive scan
    assert oracle_exists_witness(rep.first_failing) is None


def test_tmin_of_order():
    best, exact, reports = tmin_of_order(4)
    assert best == 2 and exact
    assert sorted(rep.value for rep in reports) == [2, 2]
    assert len(reports) == 2
    # a capped run is exact only where an exact report attains the minimum
    best, exact, reports = tmin_of_order(12, SearchBudget(max_candidates=1))
    assert (best, exact) == (2, False)
    assert all(not rep.exact for rep in reports if rep.value == best)


def test_gap_family_z12():
    g = Group([12])
    fam = subgroup_gap_family(g)
    by_order = {e.subgroup.order: e for e in fam}
    assert set(by_order) == {6, 12}
    assert list(by_order[6].sizes()) == [5]
    assert list(by_order[12].sizes()) == [9, 10, 11]


def test_gap_family_blocks_k_plus_one_subgroups():
    # orders where a subgroup of order k+1 bars size-k subsets
    for k, n in ((5, 12), (7, 24), (9, 40)):
        fam = subgroup_gap_family(Group([n]))
        entries = [e for e in fam if e.subgroup.order == k + 1]
        assert len(entries) == 1
        assert k in entries[0].sizes()


def test_gap_family_members_really_fail():
    # every size in a gap row is a real obstruction for subsets of H
    g = Group([12])
    fam = subgroup_gap_family(g)
    h6 = next(e for e in fam if e.subgroup.order == 6)
    members = h6.subgroup.members.elements()
    rnd = random.Random(3)
    for _ in range(4):
        chosen = rnd.sample(members, 5)
        cert = exists_witness(GroupSet.from_elements(g, chosen))
        assert cert.verdict == NO
