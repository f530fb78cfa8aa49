import dataclasses
import pickle
import random

import pytest

from addcomp import supplements
from addcomp.decision import NO, UNKNOWN, YES, SearchBudget
from addcomp.groups import Group, abelian_groups_of_order
from addcomp.oracle import oracle_diffset_table, oracle_solid
from addcomp.sumset import (GroupSet, bits_of, difference_set, negated_mask, sumset,
                            translate_mask)
from addcomp.supplements import (_pivot, _pivot_side, diffset_representation,
                                 independent_search, is_maximal_supplement_for,
                                 SolidityReport, is_solid, is_supplement,
                                 maximal_supplement_witness)


def _gs(g, elems):
    return GroupSet.from_elements(g, elems)


def test_is_supplement():
    g = Group([8])
    c = _gs(g, [0, 1])
    assert is_supplement(_gs(g, [0, 2, 4]), c)
    assert is_supplement(_gs(g, [0, 2]), c)
    assert is_supplement(_gs(g, [3]), c)
    assert not is_supplement(_gs(g, [0, 1]), c)
    assert is_supplement(_gs(g, [0]), GroupSet.full(g))
    # disjointness reads the same from either side
    for wm, cm in ((5, 9), (3, 17), (33, 9)):
        assert is_supplement(GroupSet(g, wm), GroupSet(g, cm)) == \
            is_supplement(GroupSet(g, cm), GroupSet(g, wm))
    with pytest.raises(ValueError):
        is_supplement(GroupSet.empty(g), c)


def test_is_supplement_builds_no_sumset(monkeypatch):
    # disjointness is read off C - C and W - W alone; only maximality needs
    # C + (W - W)
    g = Group([8])
    calls = []
    real = supplements.sumset
    monkeypatch.setattr(supplements, "sumset", lambda a, b: calls.append(1) or real(a, b))
    for w, c in (([0, 2], [0, 1]), ([0, 2, 4], [0, 1]), ([0, 1], [0, 1])):
        is_supplement(_gs(g, w), _gs(g, c))
    assert calls == []
    assert supplements.supplement_status(_gs(g, [0, 2]), _gs(g, [0, 1])) == (True, False)
    assert calls == [1]


def test_is_maximal_supplement_for():
    g = Group([8])
    c = _gs(g, [0, 1])
    assert is_maximal_supplement_for(_gs(g, [0, 2, 4]), c)
    assert not is_maximal_supplement_for(_gs(g, [0, 2]), c)
    assert is_maximal_supplement_for(_gs(g, [0]), GroupSet.full(g))
    assert not is_maximal_supplement_for(GroupSet.empty(g), c)
    # a lone point is stuck once the witness differences reach everything
    g2 = Group([2])
    assert is_maximal_supplement_for(GroupSet.full(g2), _gs(g2, [0]))
    # but not when they reach nothing beyond 0
    assert not is_maximal_supplement_for(_gs(g, [0]), _gs(g, [0]))


def test_maximality_matches_single_extension_z6():
    # maximal means supplement with no strict supplement superset
    g = Group([6])
    for cmask in range(1, 1 << 6):
        c = GroupSet(g, cmask)
        for wmask in range(1, 1 << 6):
            w = GroupSet(g, wmask)
            if not is_supplement(w, c):
                continue
            extendable = any(
                is_supplement(w, c.with_element(x))
                for x in g.elements() if x not in c
            )
            assert is_maximal_supplement_for(w, c) == (not extendable)


def test_is_solid():
    g3 = Group([3])
    rep = is_solid(_gs(g3, [0, 1]))
    assert not rep.solid
    assert rep.violator == 2

    g8 = Group([8])
    assert is_solid(_gs(g8, [0, 1])).solid
    assert is_solid(_gs(g8, [5])).solid
    assert is_solid(GroupSet.full(g8)).solid
    with pytest.raises(ValueError):
        is_solid(GroupSet.empty(g8))


@pytest.mark.parametrize("factors", [[8], [2, 4], [2, 2, 2], [9], [10]])
def test_is_solid_same_with_passed_difference_set(factors):
    # maximal_supplement_witness passes C - C it already holds; when C - C
    # is the whole group is_solid skips its intersection loop
    g = Group(factors)
    for cmask in range(1, 1 << g.order):
        c = GroupSet(g, cmask)
        assert is_solid(c, difference_set(c).mask) == is_solid(c)


@pytest.mark.parametrize("factors", [[8], [2, 4], [2, 2, 2], [9], [3, 3], [10], [12], [2, 6]],
                         ids=str)
def test_solid_exactly_when_allowed_differences_reach_the_group(factors):
    # independent_search needs base + allowed to hold the target; for the
    # supplement search that is C + ((G minus (C - C)) | {0}) = G, which
    # holds exactly for the solid C that maximal_supplement_witness passes
    g = Group(factors)
    for cmask in range(1, 1 << g.order):
        c = GroupSet(g, cmask)
        allowed = GroupSet(g, (g.full_mask & ~difference_set(c).mask) | 1)
        assert is_solid(c).solid == (sumset(c, allowed) == GroupSet.full(g))


def _solidity_by_every_translate(c):
    """is_solid's report from the intersection of all |C| translates (C - C) + e."""
    g = c.group
    d = difference_set(c).mask
    inter = g.full_mask
    for e in c.elements():
        inter &= translate_mask(g, d, e)
    candidates = inter & ~c.mask
    if not candidates:
        return SolidityReport(c, True)
    return SolidityReport(c, False, (candidates & -candidates).bit_length() - 1)


def test_is_solid_matches_the_intersection_of_every_translate():
    # the walk that stops once no candidate is left reports what the full
    # intersection reports, on every subset of every group of order <= 10
    for n in range(1, 11):
        for g in abelian_groups_of_order(n):
            for cmask in range(1, 1 << n):
                c = GroupSet(g, cmask)
                assert is_solid(c) == _solidity_by_every_translate(c), (g.factors, cmask)


@pytest.mark.parametrize("factors, elems, translates", [([8], [0, 1, 4, 5], 2),
                                                        ([2, 6], [0, 1, 6, 7], 1)], ids=str)
def test_is_solid_stops_when_no_candidate_is_left(monkeypatch, factors, elems, translates):
    # each (C - C) + e holds C, so only starting from the points outside C
    # lets the walk stop before the last of C's four translates
    g = Group(factors)
    c = _gs(g, elems)
    d = difference_set(c).mask
    assert d != g.full_mask
    calls = []
    real = supplements.translate_mask
    monkeypatch.setattr(supplements, "translate_mask",
                        lambda group, mask, e: calls.append(e) or real(group, mask, e))
    assert is_solid(c, d) == SolidityReport(c, True)
    assert len(calls) == translates


def test_solidity_report_is_a_frozen_value():
    g = Group([3])
    c = _gs(g, [0, 1])
    rep = is_solid(c)
    assert rep == SolidityReport(c, False, 2) == SolidityReport(c=c, solid=False, violator=2)
    assert rep != SolidityReport(c, True) and SolidityReport(c, True).violator is None
    assert hash(rep) == hash(SolidityReport(_gs(Group([3]), [1, 0]), False, 2))
    assert repr(rep) == "SolidityReport(c=GroupSet(3, {0, 1}), solid=False, violator=2)"
    assert repr(SolidityReport(c, True)) == (
        "SolidityReport(c=GroupSet(3, {0, 1}), solid=True, violator=None)")
    for name in ("c", "solid", "violator"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rep.solid
    assert pickle.loads(pickle.dumps(rep)) == rep
    assert dataclasses.replace(rep, solid=True, violator=None) == SolidityReport(c, True)
    assert [f.name for f in dataclasses.fields(SolidityReport)] == ["c", "solid", "violator"]


def test_is_solid_matches_oracle():
    for n in (4, 5, 6, 7):
        g = Group([n])
        for cmask in range(1, 1 << n):
            c = GroupSet(g, cmask)
            assert is_solid(c).solid == oracle_solid(c)[0]


def test_diffset_representation_found():
    g = Group([5])
    inst = diffset_representation(_gs(g, [0, 1, 4]))
    assert inst.status == "found"
    assert inst.a == _gs(g, [0, 1])
    one = diffset_representation(_gs(g, [0]))
    assert one.status == "found" and one.a == _gs(g, [0])


def test_diffset_representation_none():
    g = Group([8])
    inst = diffset_representation(_gs(g, [0, 1, 4, 7]))
    assert inst.status == "none"
    assert inst.a is None
    assert inst.nodes == 4
    # the pivot leaves one branch per point the pivot is incompatible with
    pruned = diffset_representation(_gs(g, [0, 2, 3, 4, 5, 6]))
    assert pruned.status == "none" and pruned.nodes == 5

    asym = diffset_representation(_gs(g, [0, 1]))
    assert asym.status == "none" and asym.nodes == 0
    missing_zero = diffset_representation(_gs(g, [1, 7]))
    assert missing_zero.status == "none" and missing_zero.nodes == 0


@pytest.mark.parametrize("factors", [[8], [2, 4], [2, 2, 2], [9], [3, 3], [2, 6]])
def test_diffset_representation_matches_oracle_table(factors):
    # every symmetric v containing 0: found exactly when some A has A - A = v
    g = Group(factors)
    table = oracle_diffset_table(g)
    symmetric = 0
    for vmask in range(1, 1 << g.order, 2):
        v = GroupSet(g, vmask)
        if GroupSet.from_elements(g, [g.neg(e) for e in v]) != v:
            continue
        symmetric += 1
        inst = diffset_representation(v)
        assert (inst.status == "found") == (vmask in table), (factors, vmask)
        if inst.status == "found":
            assert 0 in inst.a
            assert difference_set(inst.a) == v
        else:
            assert inst.status == "none" and inst.a is None
    assert symmetric > 8


def test_diffset_representation_budget():
    g = Group([12])
    v = _gs(g, [0, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    inst = diffset_representation(v, SearchBudget(max_candidates=1))
    assert inst.status == "unknown" and inst.nodes == 1
    assert diffset_representation(v).status == "found"


def test_candidate_cap_stops_both_searches_at_exactly_k():
    # Both instances are "no" when the search completes; a search the cap
    # stops first must answer unknown after exactly k candidates.
    g8 = Group([8])
    v = _gs(g8, [0, 2, 3, 4, 5, 6])
    assert diffset_representation(v).nodes == 5
    for k in range(1, 5):
        inst = diffset_representation(v, SearchBudget(max_candidates=k))
        assert (inst.status, inst.nodes, inst.a) == ("unknown", k, None)
    assert diffset_representation(v, SearchBudget(max_candidates=5)).status == "none"

    c = _gs(Group([12]), [0, 1, 5, 6])
    assert maximal_supplement_witness(c).detail["candidates"] == 5
    for k in range(1, 5):
        cert = maximal_supplement_witness(c, SearchBudget(max_candidates=k))
        assert (cert.verdict, cert.method) == (UNKNOWN, "budget")
        assert cert.detail["candidates"] == k
    cert = maximal_supplement_witness(c, SearchBudget(max_candidates=5))
    assert (cert.verdict, cert.method) == (NO, "exhaustive")


def test_witness_trivial_and_bound():
    g = Group([6])
    cert = maximal_supplement_witness(GroupSet.full(g))
    assert cert.verdict == YES and cert.method == "trivial"
    assert cert.witness == _gs(g, [0])

    g3 = Group([3])
    no = maximal_supplement_witness(_gs(g3, [0, 1]))
    assert no.verdict == NO and no.method == "bound-solidity"


def test_witness_completion_route():
    # W with W - W = G \ (C - C) plus 0 is one of the sets the search reaches
    g = Group([4])
    cert = maximal_supplement_witness(_gs(g, [0, 1]))
    assert cert.verdict == YES and cert.method == "exhaustive"
    assert cert.witness == _gs(g, [0, 2])
    assert cert.verify()
    # the search decides groups of any order, not only up to 16
    g20 = Group([20])
    big = maximal_supplement_witness(_gs(g20, [0, 1]))
    assert big.verdict == YES and big.method == "exhaustive"
    assert big.witness == _gs(g20, [0, 2, 4, 6, 8, 10])
    assert big.verify()


def test_witness_exhaustive_route():
    g = Group([8])
    cert = maximal_supplement_witness(_gs(g, [0, 1]))
    assert cert.verdict == YES and cert.method == "exhaustive"
    assert is_maximal_supplement_for(cert.witness, _gs(g, [0, 1]))
    assert 0 in cert.witness and cert.detail["candidates"] >= 1
    no = maximal_supplement_witness(_gs(Group([12]), [0, 1, 5, 6]))
    assert no.verdict == NO and no.method == "exhaustive"


def test_witness_unknown_past_scan_limit():
    g = Group([20])
    cert = maximal_supplement_witness(_gs(g, [0, 1]),
                                      SearchBudget(max_candidates=1))
    assert cert.verdict == UNKNOWN and cert.method == "budget"


def test_sparse_set_in_z100_is_a_quick_yes():
    g = Group([100])
    c = _gs(g, [0, 1, 3, 7, 30])
    cert = maximal_supplement_witness(c, SearchBudget(max_candidates=64))
    assert cert.verdict == YES and cert.method == "exhaustive"
    assert cert.detail["candidates"] <= 64
    assert is_maximal_supplement_for(cert.witness, c)


def test_found_realizers_are_maximal_supplements():
    # every yes carries a witness c supplements maximally, every no is solid
    for n in (5, 7, 9, 11):
        g = Group([n])
        for cmask in range(1, 1 << n):
            c = GroupSet(g, cmask)
            cert = maximal_supplement_witness(c)
            assert cert.verdict in (YES, NO)
            if cert.verdict == YES:
                assert is_maximal_supplement_for(cert.witness, c)
            elif cert.method == "exhaustive":
                assert is_solid(c).solid


def _reference_search(group, allowed, goal, max_candidates):
    """Reference for independent_search: a goal callable on R - R, the bound
    from difference_set(R | P) and Tomita's pivot scored one point of P | X
    at a time, with no masks carried but R, -R and R - R."""
    def compatible(x):
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


_SEARCH_GROUPS = [[8], [2, 4], [2, 2, 2, 2], [12], [3, 5], [16], [4, 4], [2, 2, 6],
                  [27], [32], [2, 16], [5, 7], [48], [64], [8, 8], [4, 4, 4]]


def _search_instances(group, rnd):
    """(allowed, base, target, goal) for random supplement and diffset searches.

    Like maximal_supplement_witness, the supplement searches skip a C that
    is not solid, since independent_search needs base + allowed ⊇ target."""
    n = group.order
    full = group.full_mask
    for k in (2, 2, 3, 3, 4, 5, n // 6, n // 4):
        c = GroupSet.from_elements(group, rnd.sample(range(n), max(k, 2)))
        if not is_solid(c).solid:
            continue
        allowed = (full & ~difference_set(c).mask) | 1
        yield allowed, c.mask, full, lambda d, c=c: sumset(c, GroupSet(group, d)).mask == full
    for density in (0.2, 0.35, 0.5, 0.5, 0.65, 0.8):
        half = GroupSet.from_elements(group, (e for e in range(n) if rnd.random() < density / 2))
        v = half.mask | negated_mask(group, half.mask) | 1
        yield v, 1, v, lambda d, v=v: d & v == v


@pytest.mark.parametrize("factors", _SEARCH_GROUPS, ids=str)
def test_search_matches_reference_node_for_node(factors):
    # same (R, nodes, complete) as the reference on both callers' instances
    g = Group(factors)
    rnd = random.Random(str(factors))
    for allowed, base, target, goal in _search_instances(g, rnd):
        for cap in (1, 5, 50, SearchBudget().max_candidates):
            got = independent_search(g, allowed, base, target, cap)
            assert got == _reference_search(g, allowed, goal, cap), (factors, allowed, base, cap)


@pytest.mark.parametrize("factors", [[7], [10], [2, 5], [2, 2, 2, 2], [3, 9], [64], [8, 8]], ids=str)
def test_more_than_half_the_group_has_every_difference(factors):
    # the search's bound: 2|S| > n forces S - S = G
    g = Group(factors)
    n = g.order
    rnd = random.Random(n)
    for _ in range(50):
        s = GroupSet.from_elements(g, rnd.sample(range(n), rnd.randint(n // 2 + 1, n)))
        assert difference_set(s).mask == g.full_mask


@pytest.mark.parametrize("factors", [[10], [2, 4], [2, 2, 2, 2], [64]], ids=str)
def test_half_the_group_can_miss_differences(factors):
    # an index-2 subgroup has 2|S| = n and S - S = S, so the bound needs 2|S| > n
    g = Group(factors)
    s = GroupSet.from_elements(g, [e for e in g.elements() if e % 2 == 0])
    assert 2 * len(s) == g.order
    assert difference_set(s) == s != GroupSet.full(g)


@pytest.mark.parametrize("factors", [[9], [2, 6], [2, 2, 2, 2], [20], [4, 5], [64], [8, 8]],
                         ids=str)
def test_pivot_is_the_lowest_argmax(factors):
    # the bit-plane pivot against counting each u of P | X by its own translate
    g = Group(factors)
    n = g.order
    rnd = random.Random(n * 7)
    sides = set()
    for _ in range(80):
        half = rnd.getrandbits(n) & (rnd.getrandbits(n) if rnd.random() < 0.5 else g.full_mask)
        allowed = half | negated_mask(g, half) | 1
        p = rnd.getrandbits(n) & ~1
        if not p:
            continue
        x = rnd.getrandbits(n) & ~p
        side, largest = _pivot_side(g, allowed)
        sides.add(largest)
        counts = {u: (translate_mask(g, allowed, u) & ~(1 << u) & p).bit_count()
                  for u in bits_of(p | x)}
        best = max(counts.values())
        assert _pivot(g, side, largest, p, x) == min(u for u, m in counts.items() if m == best)
    assert sides == {True, False}
