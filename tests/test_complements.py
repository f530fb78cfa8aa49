import dataclasses
import hashlib
import importlib
import itertools
import random
import sys

import numpy as np
import pytest

from addcomp import builders, cli, complements, experiments, groups, supplements
from addcomp.builders import APDescriptor, ap_decide_and_build
from addcomp.complements import (EssentialityReport, compute_tmin, essentiality,
                                 exists_witness, is_complement,
                                 is_minimal_complement_for, prune_to_minimal,
                                 scan_for_witness, subgroup_gap_family, tmin_of_order)
from addcomp.decision import (MINIMAL_COMPLEMENT, NO, UNKNOWN, YES, DecisionCertificate,
                              SearchBudget)
from addcomp.groups import Group, abelian_groups_of_order, unit_multipliers
from addcomp.literals import parse_group, parse_set
from addcomp.oracle import oracle_exists_witness
from addcomp.sumset import GroupSet, bits_of, sumset, translate

# The package re-exports the function sumset, which shadows the module name.
sumset_module = importlib.import_module("addcomp.sumset")


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
    cert = exists_witness(c)
    assert cert.verdict == NO
    assert cert.method == "bound-subgroup-gap"
    w, _, complete = scan_for_witness(g, c)
    assert w is None and complete


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


# The benchmark's tmin groups, then groups whose automorphisms are more
# than their unit multipliers, which the walk's orbits use.
ORBIT_GROUPS = [(12,), (2, 6), (14,), (2, 2, 4), (4, 4), (2, 8), (2, 2, 2, 2), (3, 3),
                (2, 2, 2)]


@pytest.mark.parametrize("factors", ORBIT_GROUPS)
def test_compute_tmin_matches_orbit_free_walk(factors):
    g = Group(factors)
    assert _fields(compute_tmin(g)) == _reference_tmin(g)


@pytest.mark.parametrize("factors", ORBIT_GROUPS)
def test_compute_tmin_asks_for_a_subsequence_of_the_orbit_free_walk(factors, monkeypatch):
    # the memo only skips certificates: each one compute_tmin asks for is
    # the one the orbit-free walk gets for that set, in the same order
    g = Group(factors)
    real = complements.exists_witness

    def recording(rows):
        def decide(c, budget=None):
            cert = real(c, budget)
            rows.append((c.mask, cert.verdict, cert.method, cert.witness,
                         sorted(cert.detail.items())))
            return cert
        return decide

    asked, every = [], []
    monkeypatch.setattr(complements, "exists_witness", recording(asked))
    rep = compute_tmin(g)
    monkeypatch.setattr(sys.modules[__name__], "exists_witness", recording(every))
    assert _fields(rep) == _reference_tmin(g)
    rest = iter(every)
    assert all(row in rest for row in asked)
    assert 0 < len(asked) < len(every)


@pytest.mark.parametrize("cap", [1, 16, 256])
@pytest.mark.parametrize("n", [8, 12])
def test_compute_tmin_matches_orbit_free_walk_capped(n, cap):
    budget = SearchBudget(max_candidates=cap)
    for g in abelian_groups_of_order(n):
        assert _fields(compute_tmin(g, budget)) == _reference_tmin(g, budget)


def _count_translates(monkeypatch):
    """Record the mask of every translate_mask call, wherever it is made."""
    masks = []
    real = sumset_module.translate_mask

    def counted(group, mask, g):
        masks.append(mask)
        return real(group, mask, g)

    for module in (sumset_module, complements, builders, groups, supplements):
        monkeypatch.setattr(module, "translate_mask", counted)
    return masks


def test_random_build_witness_checked_through_its_holes(monkeypatch):
    # The builder's W misses at most k^2 points, so building it and both
    # checks of it (in random_witness and in verified_yes) walk those
    # points: no 2^24-bit translate of W, nor of anything else.
    g = Group([1 << 24])
    c = _gs(g, [0, 8839392, 9786826])
    masks = _count_translates(monkeypatch)
    cert = exists_witness(c)
    assert cert.method == "random-build"
    assert masks == []
    assert is_minimal_complement_for(cert.witness, c)
    assert masks == []


def test_random_build_walks_a_listed_c_never_and_a_hex_c_once(monkeypatch, capsys):
    # A brace literal or from_elements keeps C's points, and the builder's
    # W keeps its holes, so neither exists_witness nor verified_yes's
    # recheck (nor the CLI's print) passes over any mask wider than
    # BITS_CHUNK bits.  A hex literal keeps nothing: exists_witness lists
    # C by one walk of its mask, and every later reader reads that list.
    points = [0, 8839392, 9786826]
    mask = sum(1 << p for p in points)
    walks, verified = [], []
    real_bits, real_verify = sumset_module.bits_of, DecisionCertificate.verify

    def walked(m):
        if m.bit_length() > sumset_module.BITS_CHUNK:
            walks.append(m)
        return real_bits(m)

    for module in (sumset_module, builders, complements, supplements):
        monkeypatch.setattr(module, "bits_of", walked)
    monkeypatch.setattr(DecisionCertificate, "verify",
                        lambda cert: verified.append(cert.method) or real_verify(cert))
    cert = exists_witness(_gs(Group([1 << 24]), reversed(points)))
    assert cert.method == "random-build" and verified == ["random-build"]
    assert walks == []
    for literal, c_walks in (("{0,8839392,9786826}", []), (hex(mask), [mask])) * 2:
        walks.clear()
        verified.clear()
        assert cli.main(["witness", "--group", "16777216", "--c", literal]) == 0
        assert '"random-build"' in capsys.readouterr().out
        assert verified == ["random-build"]
        assert walks == c_walks


def test_small_groups_check_witnesses_by_translates(monkeypatch):
    # At tmin sizes the kernel keeps the translate path: 2k translates of
    # W per check, even for W = G, which misses no point at all.
    g = Group([2, 2, 4])
    masks = _count_translates(monkeypatch)
    for elems in ([0, 1], [0, 1, 6], [0, 3, 5, 10]):
        c = _gs(g, elems)
        cert = exists_witness(c)
        assert cert.verdict == YES
        for w in (cert.witness, GroupSet.full(g)):
            masks.clear()
            assert is_minimal_complement_for(w, c) == (w == cert.witness)
            assert masks.count(w.mask) == 2 * len(c)


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


def _automorphisms(g):
    """Every automorphism of g as an index table, by brute force: each
    choice of images y_i of orders dividing d_i gives the additive map
    x -> sum of x_i*y_i, kept when it is a bijection."""
    choices = [[y for y in g.elements() if g.scale(y, d) == 0] for d in g.factors]
    out = []
    for ys in itertools.product(*choices):
        table = []
        for e in g.elements():
            x = 0
            for a, y in zip(g.coords_of(e), ys):
                x = g.add(x, g.scale(y, a))
            table.append(x)
        if len(set(table)) == g.order:
            out.append(table)
    return out


@pytest.mark.parametrize("factors", [(2, 2, 4), (4, 4)])
def test_compute_tmin_decides_once_per_automorphism_orbit(factors, monkeypatch):
    # the orbits of C -> phi(C) + t, phi any automorphism: each set the
    # walk meets lies in the orbit of exactly one set it decided
    g = Group(factors)
    auts = _automorphisms(g)
    asked = []
    real = complements.exists_witness
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: asked.append(c.mask) or real(c, budget))
    rep = compute_tmin(g)
    orbit_of = {}
    for i, mask in enumerate(asked):
        for phi in auts:
            image = _gs(g, [phi[e] for e in bits_of(mask)])
            for t in range(g.order):
                assert orbit_of.setdefault(translate(image, t).mask, i) == i
    walked = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations(range(1, g.order), k - 1) for k in range(1, g.order + 1)),
        rep.subsets_checked)
    assert {orbit_of[_gs(g, (0,) + rest).mask] for rest in walked} == set(range(len(asked)))
    assert len(auts) > len(unit_multipliers(g))


def test_orbit_verdicts_files_every_answer_where_the_search_fits(monkeypatch):
    # Z10 is inside the search gate, so whichever stage decided c, its
    # orbit-mate is answered from the memo; an unknown is never filed
    g = Group([10])
    c, mate = _gs(g, [0, 1, 3]), _gs(g, [1, 2, 5])  # mate = 3*c + 2
    calls = []
    base = exists_witness(c)
    for method in ("exhaustive", "construction-pair", "random-build"):
        cert = dataclasses.replace(base, method=method)
        calls.clear()
        monkeypatch.setattr(complements, "exists_witness",
                            lambda c, budget=None, cert=cert: calls.append(c) or cert)
        verdict = complements.orbit_verdicts(g, {})
        assert verdict(c) == verdict(mate) == YES
        assert calls == [c]
    unknown = DecisionCertificate(MINIMAL_COMPLEMENT, UNKNOWN, "budget", c)
    calls.clear()
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: calls.append(c) or unknown)
    verdict = complements.orbit_verdicts(g, {})
    assert verdict(c) == verdict(mate) == UNKNOWN and calls == [c, mate]


def _unit_mate(g, c, u, t):
    return translate(_gs(g, [g.scale(x, u) for x in c]), t)


UNIT_MATES = [((10,), [0, 1, 3], 3, 2),  # {1, 2, 5}
              ((2, 8), [0, 1, 11], 3, 10)]


@pytest.mark.parametrize("factors, elems, u, t", UNIT_MATES)
def test_unit_orbit_verdicts_looks_a_unit_multiple_up(monkeypatch, factors, elems, u, t):
    # the mate is no translate of c, so only the lookup of its unit
    # multiples finds c's answer; one decision answers both
    g = Group(factors)
    c = _gs(g, elems)
    mate = _unit_mate(g, c, u, t)
    assert mate.mask not in {translate(c, s).mask for s in range(g.order)}
    real = complements.exists_witness
    calls = []
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: calls.append(c) or real(c, budget))
    verdict = complements.unit_orbit_verdicts(g)
    assert verdict(c) == verdict(mate) == verdict(translate(c, 1)) == real(c).verdict
    assert calls == [c]


def test_unit_orbit_verdicts_never_files_an_unknown(monkeypatch):
    g = Group([10])
    c = _gs(g, [0, 1, 3])
    mate = _unit_mate(g, c, 3, 2)
    unknown = DecisionCertificate(MINIMAL_COMPLEMENT, UNKNOWN, "budget", c)
    calls = []
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: calls.append(c) or unknown)
    verdict = complements.unit_orbit_verdicts(g)
    assert verdict(c) == verdict(mate) == verdict(c) == UNKNOWN
    assert calls == [c, mate, c]


@pytest.mark.parametrize("factors", [(16,), (2, 8), (12,)])
def test_unit_orbit_verdicts_asks_what_eager_filing_asks(monkeypatch, factors):
    # the reference files each decided set's whole orbit under translation
    # x unit multipliers, by its least mask; the lazy memo asks
    # exists_witness for the same sets in the same order
    g = Group(factors)
    real = complements.exists_witness
    asked = []
    monkeypatch.setattr(complements, "exists_witness",
                        lambda c, budget=None: asked.append(c.mask) or real(c, budget))

    def eager(group, budget=None):
        memo = {}

        def verdict(c):
            key = _orbit_key(group, c)
            if key not in memo:
                memo[key] = complements.exists_witness(c, budget).verdict
            return memo[key]
        return verdict

    lazy = experiments.scan_threshold(g, trials=40, seed=5)
    lazy_asked = list(asked)
    asked.clear()
    monkeypatch.setattr(experiments, "unit_orbit_verdicts", eager)
    assert experiments.scan_threshold(g, trials=40, seed=5) == lazy
    assert asked == lazy_asked and len(asked) < 21 * 40


def test_orbit_verdicts_files_nothing_past_the_search_gate(monkeypatch):
    # order 101 is past the default cap, so no answer is a search answer,
    # nothing is filed and the unit tables, built on the first miss that
    # finds the memo non-empty, are never built
    from addcomp.experiments import scan_threshold

    def unused(*args):
        raise AssertionError("orbit maps built")

    monkeypatch.setattr(complements, "unit_multipliers", unused)
    monkeypatch.setattr(complements, "automorphism_generators", unused)
    rep = scan_threshold(Group([101]), p_values=(0.05, 0.3, 0.7, 0.9), trials=5)
    assert sum(row.yes + row.no for row in rep.rows) > 0
    # 2x4 is past a cap of 64 candidates: compute_tmin builds no tables either
    rep = compute_tmin(Group([2, 4]), SearchBudget(64))
    assert rep.subsets_checked > 0


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


def test_gap_family_is_the_closed_form():
    # each subgroup of order m bars the sizes 2nm/(m + 2n) < k < m
    for n in range(1, 65):
        for g in abelian_groups_of_order(n):
            fam = subgroup_gap_family(g)
            expect = [(h, (2 * n * h.order) // (h.order + 2 * n) + 1, h.order - 1)
                      for h in groups.all_subgroups(g)]
            assert [(e.subgroup, e.low, e.high) for e in fam] == [
                row for row in expect if row[1] <= row[2]], g


def test_gap_family_lists_every_subgroup_or_refuses():
    # Above order 64 only a cyclic group's subgroups can be listed; a family
    # of cyclic subgroups alone would drop rows of a non-cyclic group, such
    # as every row of 2^7 and (24, 21-23) of Z2 x Z18 in 2x36.
    for factors in ([2] * 7, [2, 36]):
        with pytest.raises(ValueError):
            subgroup_gap_family(Group(factors))
    for factors in ([100], [4, 25]):
        fam = subgroup_gap_family(Group(factors))
        assert [(e.subgroup.order, e.low, e.high) for e in fam] == [
            (20, 19, 19), (25, 23, 24), (50, 41, 49), (100, 67, 99)]


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


def test_trap_window_is_the_trap_inequality():
    # the window holds exactly the integers m with k < m and
    # 2nm < k(m + 2n), for every size up to n: the size cap lets 3k <= 2n
    # through, and ap_decide_and_build asks with any k <= m <= n
    m = np.arange(1, 801)
    for n in range(1, 401):
        for k in range(1, n + 1):
            fires = m[(k < m) & (2 * n * m < k * (m + 2 * n))]
            window = complements._trap_window(n, k)
            assert list(window) == fires.tolist(), (n, k)


def test_trap_window_ends_fire():
    # The 8x8 CI set fills 15 of the 16 points of Z8 x {0, 4}: m = 16
    # is the top of the window for n = 64, k = 15 (and its bottom).
    g = Group([8, 8])
    c = parse_set(g, "{(0,0),(1,0),(2,0),(3,0),(4,0),(5,0),(6,0),(7,0),"
                     "(0,4),(1,4),(2,4),(3,4),(4,4),(5,4),(6,4)}")
    assert list(complements._trap_window(64, 15)) == [16]
    cert = exists_witness(c)
    assert (cert.verdict, cert.method, cert.detail["subgroup_order"]) == (
        NO, "bound-subgroup-gap", 16)
    # 49 of the 50 points of the index-2 subgroup: m = 50 is the bottom
    # of the window 50..64 for n = 100, k = 49.
    assert list(complements._trap_window(100, 49)) == list(range(50, 65))
    for g in (Group([100]), Group([4, 25])):
        c = GroupSet.from_elements(g, [2 * j for j in range(49)])
        cert = exists_witness(c)
        assert (cert.verdict, cert.method, cert.detail["subgroup_order"]) == (
            NO, "bound-subgroup-gap", 50)


def test_subgroup_trap_computed_only_with_a_divisor_in_the_window(monkeypatch):
    # ... and only when |C + C| stays below the window's end: C + C lies
    # in a coset of the subgroup, so a larger C + C proves m too large.
    calls = []
    real = complements._containing_subgroup_order

    def counting(group, c):
        calls.append(len(c))
        return real(group, c)

    monkeypatch.setattr(complements, "_containing_subgroup_order", counting)
    rnd = random.Random(13)
    for factors in ((8, 8), (64,), (4, 25), (2, 2, 10)):
        g = Group(factors)
        n = g.order
        for k in range(1, 2 * n // 3 + 1):
            calls.clear()
            c = GroupSet.from_elements(g, rnd.sample(range(n), k))
            cert = exists_witness(c)
            window = [m for m in range(k + 1, n + 1) if 2 * n * m < k * (m + 2 * n)]
            has_divisor = any(n % m == 0 for m in window)
            computed = has_divisor and len(sumset(c, c)) <= window[-1]
            assert calls == ([k] if computed else []), (factors, k)
            assert cert.method != "bound-subgroup-gap" or computed


def _cert_record(cert):
    # the decided set was the detail key "base" when these digests were recorded
    detail = sorted([("base", cert.base.hex_mask()), *cert.detail.items()])
    witness = None if cert.witness is None else cert.witness.hex_mask()
    return (cert.verdict, cert.method, witness, detail)


def test_certificates_pinned_on_mid_groups():
    # Digest recorded before the subgroup trap, the progression finder and
    # the pair search got their arithmetic pre-checks: skipping work that
    # cannot decide must not move any verdict, method, witness or detail.
    rnd = random.Random(20261018)
    digest = hashlib.sha256()
    for factors in ((24,), (2, 12), (40,), (2, 2, 10), (64,), (8, 8), (100,), (4, 25)):
        g = Group(factors)
        for p in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
            k = max(1, round(p * g.order))
            for _ in range(4):
                c = GroupSet.from_elements(g, rnd.sample(range(g.order), k))
                digest.update(repr(_cert_record(exists_witness(c))).encode())
    assert digest.hexdigest() == (
        "761fccf1fa2720808ec99ec96f4c4803c62ceb08da6abef224fca8cff1fe3160")


def _mid_sets(seed):
    rnd = random.Random(seed)
    for factors in ((24,), (2, 12), (40,), (2, 2, 10), (64,), (8, 8), (100,), (4, 25)):
        g = Group(factors)
        for p in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
            k = max(1, round(p * g.order))
            for _ in range(8):
                yield GroupSet.from_elements(g, rnd.sample(range(g.order), k))


def test_doubling_filter_moves_no_certificate(monkeypatch):
    # With the kernel answering "not shown", as before it existed, the
    # trap and the progression finder run in full; every certificate must
    # come out the same, and the filter must fire on each family.
    families = {
        "order <= 12": [GroupSet(g, mask) for n in range(1, 13)
                        for g in abelian_groups_of_order(n) for mask in range(1, 1 << n)],
        "witness-mid": list(_mid_sets(16)),
    }
    real = sumset_module.doubling_reaches
    shown = []

    def recording(group, mask, bound):
        shown.append(real(group, mask, bound))
        return shown[-1]

    def records(sets, kernel):
        monkeypatch.setattr(complements, "doubling_reaches", kernel)
        monkeypatch.setattr(builders, "doubling_reaches", kernel)
        return [_cert_record(exists_witness(c)) for c in sets]

    for name, sets in families.items():
        shown.clear()
        assert records(sets, recording) == records(sets, lambda group, mask, bound: False), name
        assert any(shown), name


def test_certificates_pinned_on_every_subset_up_to_order_12():
    # Same provenance as above, over every non-empty subset of every
    # abelian group of order at most 12, where every method answers.
    digest = hashlib.sha256()
    for n in range(1, 13):
        for g in abelian_groups_of_order(n):
            for mask in range(1, 1 << n):
                cert = exists_witness(GroupSet(g, mask))
                digest.update(repr(_cert_record(cert)).encode())
    assert digest.hexdigest() == (
        "c54a967b027bdd511aa4d5eb13e516c154c719dffaee9ca3d74b4c614d0a4b50")


def test_ap_certificates_pinned_on_every_progression_up_to_order_16():
    # Digest recorded from the loop-per-coset construction: building the
    # witness from whole masks must not move any verdict, method, witness
    # or detail.  Every start, step and length up to ord(step).
    digest = hashlib.sha256()
    for n in range(1, 17):
        for g in abelian_groups_of_order(n):
            for d in g.elements():
                for length in range(1, g.element_order(d) + 1):
                    for start in g.elements():
                        pts = [g.add(start, g.scale(d, j)) for j in range(length)]
                        ap = APDescriptor(_gs(g, pts), start, d if length > 1 else 0, length)
                        digest.update(repr(_cert_record(ap_decide_and_build(ap))).encode())
    assert digest.hexdigest() == (
        "2de1daa7cf80c3f3627d4bd877ede946cfcec2fcee7b65c214dfc8cce5b58e5d")


@pytest.mark.parametrize("spec, literal, case", [
    ("16777216", "{0,1,2}", "sparse"),
    ("16777216", "{0,4194304,8388608}", "dense"),
    ("4096x4096", "{(0,0),(1,0),(2,0)}", "sparse"),
    ("1000x1000", "{(0,0),(0,1),(0,2),(0,3)}", "sparse"),
    ("1000000", "{0,1000,2000}", "sparse"),
    ("1000000", "{0,250000,500000}", "dense"),
])
def test_progression_witness_takes_few_translates(monkeypatch, spec, literal, case):
    # The transversal is a box and W a progression sum: a bounded number of
    # translates, whatever the number of cosets.
    masks = _count_translates(monkeypatch)
    cert = exists_witness(parse_set(parse_group(spec), literal))
    assert cert.method == "construction-ap" and cert.detail["case"] == case
    assert len(masks) <= 100


@pytest.mark.parametrize("factors, sample", [((2, 4), None), ((2, 2, 2), None),
                                             ((3, 3), None), ((2, 6), 40)])
def test_exists_witness_matches_oracle_on_products(factors, sample):
    # every C through 0 (or a seeded sample of them): a yes exactly where
    # the naive oracle finds a witness, and never an unknown
    g = Group(factors)
    masks = range(1, 1 << g.order, 2)
    if sample is not None:
        masks = random.Random(sum(factors)).sample(masks, sample)
    for mask in masks:
        c = GroupSet(g, mask)
        cert = exists_witness(c)
        assert cert.verdict != UNKNOWN
        assert (cert.verdict == YES) == (oracle_exists_witness(c) is not None), c.elements()
        assert cert.verify()
