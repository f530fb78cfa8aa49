"""End-to-end acceptance battery.

Each test prints one ACCEPTANCE line so a -s run gives a scoreboard.
The checks here deliberately re-derive everything through the naive
oracles or through from-scratch verification, never through the code
paths they are judging.
"""

import itertools
from contextlib import contextmanager

from addcomp.builders import (check_feasibility, lift_integer_window,
                              lift_via_quotient, lift_via_subgroup,
                              random_witness)
from addcomp.complements import (exists_witness, is_minimal_complement_for,
                                 scan_for_witness, subgroup_gap_family)
from addcomp.decision import NO, YES
from addcomp.experiments import report_to_json, scan_threshold
from addcomp.groups import (Group, Homomorphism, Subgroup, quotient_map,
                            subgroup_generated)
from addcomp.oracle import (naive_coverage, naive_difference_set, naive_sumset,
                            oracle_exists_witness, oracle_maximal_supplement)
from addcomp.rng import SplitMix64, derive_seed
from addcomp.sumset import GroupSet, coverage, difference_set, sumset
from addcomp.supplements import (is_maximal_supplement_for, is_solid,
                                 is_supplement, maximal_supplement_witness)


@contextmanager
def scored(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL ({label})")
        raise
    print(f"ACCEPTANCE {num}: PASS ({label})")


def test_criterion_1_verdicts_match_naive_scan():
    with scored(1, "witness verdicts agree with the naive scan, n = 2..10"):
        for n in range(2, 11):
            g = Group([n])
            for cmask in range(1, 1 << n):
                c = GroupSet(g, cmask)
                cert = exists_witness(c)
                found = oracle_exists_witness(c)
                assert cert.verdict in (YES, NO)
                assert (cert.verdict == YES) == (found is not None)
                if cert.verdict == YES:
                    assert cert.verify()


def test_criterion_2_size_bands():
    with scored(2, "initial segments: built below 2n/3, barred above, n = 3..15"):
        for n in range(3, 16):
            g = Group([n])
            cap = (2 * n) // 3
            for k in range(1, n + 1):
                c = GroupSet.from_elements(g, range(k))
                cert = exists_witness(c)
                if k <= cap or k == n:
                    assert cert.verdict == YES, (n, k)
                    assert cert.verify()
                else:
                    assert cert.verdict == NO, (n, k)


def test_criterion_3_subgroup_trap():
    with scored(3, "size-5 subsets of the evens mod 12 fail by trap and by scan"):
        g = Group([12])
        evens = [0, 2, 4, 6, 8, 10]
        for chosen in itertools.combinations(evens, 5):
            c = GroupSet.from_elements(g, chosen)
            cert = exists_witness(c)
            assert cert.verdict == NO
            assert cert.method == "bound-subgroup-gap"
            w, nodes, complete = scan_for_witness(g, c)
            assert w is None and complete and nodes <= 1 << 11
        for k, n in ((5, 12), (7, 24), (9, 40)):
            fam = subgroup_gap_family(Group([n]))
            rows = [e for e in fam if e.subgroup.order == k + 1]
            assert len(rows) == 1 and k in rows[0].sizes()


def test_criterion_4_million_point_randomized_builds():
    with scored(4, "100 seeded builds in a million-point group, all verified"):
        n = 10 ** 6
        rep = check_feasibility(n, 6, 21)
        assert rep.feasible
        assert 0.09 <= rep.term1 <= 0.10
        g = Group([n])
        for seed in range(1, 101):
            rnd = SplitMix64(derive_seed(seed, 7))
            elems = set()
            while len(elems) < 6:
                elems.add(rnd.below(n))
            c = GroupSet.from_elements(g, sorted(elems))
            trace = random_witness(c, 21, max_retries=10, seed=seed)
            assert trace.result is not None, seed
            assert is_minimal_complement_for(trace.result, c)


def test_criterion_5_pair_check_matches_oracle():
    with scored(5, "two-point checks equal naive minimality, n = 3..10"):
        from addcomp.builders import pair_witness_check
        from addcomp.oracle import oracle_is_minimal_complement_for
        for n in range(3, 11):
            g = Group([n])
            for cmask in range(1, 1 << n):
                c = GroupSet(g, cmask)
                for a in range(1, n):
                    w = GroupSet.from_elements(g, [0, a])
                    assert pair_witness_check(c, a) == \
                        oracle_is_minimal_complement_for(w, c)


def test_criterion_6_supplement_laws_and_verdicts():
    with scored(6, "maximality forces solidity, equals non-extendability, "
                   "verdicts match the naive scan"):
        for n in range(2, 9):
            g = Group([n])
            for cmask in range(1, 1 << n):
                c = GroupSet(g, cmask)
                solid = is_solid(c).solid
                for wmask in range(1, 1 << n):
                    w = GroupSet(g, wmask)
                    if not is_supplement(w, c):
                        assert not is_maximal_supplement_for(w, c)
                        continue
                    extendable = any(
                        is_supplement(w, c.with_element(x))
                        for x in g.elements() if x not in c)
                    maximal = is_maximal_supplement_for(w, c)
                    assert maximal == (not extendable)
                    if maximal:
                        assert solid
        for n in range(2, 11):
            g = Group([n])
            for cmask in range(1, 1 << n):
                c = GroupSet(g, cmask)
                cert = maximal_supplement_witness(c)
                found = oracle_maximal_supplement(c)
                assert cert.verdict in (YES, NO)
                assert (cert.verdict == YES) == (found is not None)
                if cert.verdict == YES:
                    assert cert.verify()


def test_criterion_6_supplement_verdicts_on_product_groups():
    with scored(6, "supplement verdicts match the naive scan on 2x2, 2x4, 2x2x2, 3x3"):
        for factors in ([2, 2], [2, 4], [2, 2, 2], [3, 3]):
            g = Group(factors)
            for cmask in range(1, 1 << g.order):
                c = GroupSet(g, cmask)
                cert = maximal_supplement_witness(c)
                found = oracle_maximal_supplement(c)
                assert cert.verdict in (YES, NO)
                assert (cert.verdict == YES) == (found is not None), (factors, cmask)
                if cert.verdict == YES:
                    assert cert.verify()


_LIFT_SHAPES = [(2,), (3,), (4,), (5,), (6,), (8,), (9,), (12,),
                (2, 2), (2, 4), (3, 3), (2, 6)]


def _witnessed_subset(group, rnd):
    for _ in range(200):
        c = GroupSet(group, rnd.below((1 << group.order) - 1) + 1)
        cert = exists_witness(c)
        if cert.verdict == YES:
            return c, cert.witness
    return GroupSet.full(group), GroupSet.singleton(group, 0)


def test_criterion_7_randomized_lifts():
    with scored(7, "500 subgroup lifts + 500 quotient lifts, all verified"):
        for i in range(500):
            rnd = SplitMix64(derive_seed(1801, i))
            shape = _LIFT_SHAPES[rnd.below(len(_LIFT_SHAPES))]
            hg = Group(list(shape))
            e = 2 + rnd.below(48 // hg.order - 1)
            c_small, w_small = _witnessed_subset(hg, rnd)
            g = Group(list(shape) + [e])
            images = []
            for j in range(len(shape)):
                coords = [0] * (len(shape) + 1)
                coords[j] = 1
                images.append(g.index_of(coords))
            emb = Homomorphism(hg, g, images)
            c = emb.image_set(c_small)
            wh = emb.image_set(w_small)
            h = Subgroup(g, emb.image_set(GroupSet.full(hg)))
            w = lift_via_subgroup(wh, c, h)
            assert is_minimal_complement_for(w, c)

        for i in range(500):
            rnd = SplitMix64(derive_seed(1802, i))
            shape = _LIFT_SHAPES[rnd.below(len(_LIFT_SHAPES))]
            base_order = 1
            for d in shape:
                base_order *= d
            e = 2 + rnd.below(48 // base_order - 1)
            g = Group(list(shape) + [e])
            gen_last = g.index_of([0] * len(shape) + [1])
            h = subgroup_generated(GroupSet.singleton(g, gen_last))
            q, pi = quotient_map(g, h)
            cq, wq = _witnessed_subset(q, rnd)
            section = []
            for y in cq:
                fiber = pi.preimage(GroupSet.singleton(q, y)).elements()
                section.append(fiber[rnd.below(len(fiber))])
            c = GroupSet.from_elements(g, section)
            w = lift_via_quotient(wq, c, pi)
            assert is_minimal_complement_for(w, c)

        lift = lift_integer_window([0, 1, 2])
        assert lift.modulus <= 12
        assert is_minimal_complement_for(lift.witness, lift.residues)


_KERNEL_GROUPS = [[6], [10], [16], [24], [33], [48], [64],
                  [2, 4], [3, 9], [2, 2, 12], [8, 8], [2, 32], [7, 7]]


def test_criterion_8_kernel_matches_naive_tables():
    with scored(8, "bitmask kernel bit-exact against naive tables, "
                   "10^4 pairs per group"):
        for gi, factors in enumerate(_KERNEL_GROUPS):
            g = Group(factors)
            rnd = SplitMix64(derive_seed(2077, gi))
            span = 1 << g.order
            for _ in range(10 ** 4):
                a = GroupSet(g, rnd.below(span))
                b = GroupSet(g, rnd.below(span))
                assert sumset(a, b) == naive_sumset(a, b)
                assert difference_set(a) == naive_difference_set(a)
                assert list(coverage(a, b).counts) == \
                    list(naive_coverage(a, b))


def test_criterion_9_scan_reproducibility():
    with scored(9, "density scan: byte-identical reruns, certainty at p = 1"):
        g = Group([16])
        a = scan_threshold(g, trials=200, seed=0)
        b = scan_threshold(g, trials=200, seed=0)
        assert report_to_json(a) == report_to_json(b)
        last = a.rows[-1]
        assert last.p == 1.0
        assert last.freq_yes == 1.0
        first = a.rows[0]
        assert first.p == 0.0 and first.skipped == 200
