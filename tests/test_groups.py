import hashlib
import itertools
import pickle
import random
from collections import Counter

import pytest

from addcomp import groups
from addcomp.groups import (Group, Homomorphism, Subgroup, abelian_groups_of_order,
                            all_subgroups, coset_representatives, cyclic_subgroups,
                            generated_order, quotient_map, subgroup_generated,
                            unit_multipliers)
from addcomp.sumset import GroupSet, mask_of, translate_mask


def test_cyclic_arithmetic():
    g = Group([6])
    assert g.add(4, 5) == 3
    assert g.neg(2) == 4
    assert g.neg(0) == 0
    assert g.sub(1, 4) == 3


def test_product_arithmetic():
    g = Group([2, 4])
    # (1,3) + (1,2) = (0,1)
    a = g.index_of([1, 3])
    b = g.index_of([1, 2])
    assert g.coords_of(g.add(a, b)) == (0, 1)
    # -(1,3) = (1,1)
    assert g.coords_of(g.neg(a)) == (1, 1)


def test_translate_plans_unseen_by_equality_hashing_and_pickling():
    # The cyclic-subgroup table is kept the same way.
    used, fresh = Group([2, 8]), Group([2, 8])
    for t in range(used.order):
        translate_mask(used, 0b1011, t)
        used.cyclic_subgroup(t)
    assert used._plans and not fresh._plans
    assert used._cyclic and fresh._cyclic is None
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and not copy._plans and copy._cyclic is None
    assert copy.translate_plan(5) == used.translate_plan(5)
    assert copy.cyclic_subgroup(5) == used.cyclic_subgroup(5)


@pytest.mark.parametrize("factors", ((4097,), (1 << 24,), (4096, 4096)))
def test_wide_group_builds_its_full_mask_on_first_read(factors):
    # Above order 4096 the full mask is built on its first read and kept
    # in Group's own slot; equality, hashing and pickling see the factors
    # only, before and after.
    g, same = Group(factors), Group(list(factors))
    assert isinstance(g, Group) and groups._FULL_MASK.__get__(g) is None
    for _ in range(2):
        assert g == same and hash(g) == hash(same) and {same: 1}[g] == 1
        assert pickle.dumps(g) == pickle.dumps(same) == pickle.dumps(Group(factors))
        assert b"_WideGroup" not in pickle.dumps(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and type(copy) is type(g)
        assert groups._FULL_MASK.__get__(copy) is None
        assert g.full_mask == (1 << g.order) - 1
        assert groups._FULL_MASK.__get__(g) is g.full_mask
    assert repr(g) == f"Group({g.spec_string()})"


def test_small_group_keeps_its_full_mask_from_creation():
    for factors in ([], [2], [4096], [64, 64], [2, 2, 1024]):
        g = Group(factors)
        assert type(g) is Group
        assert groups._FULL_MASK.__get__(g) == g.full_mask == (1 << g.order) - 1


@pytest.mark.parametrize("factors", ([], [12], [2, 6], [2, 2, 4], [64, 64], [4097], [3, 2000]))
def test_negator_is_neg(factors):
    # A table kept after the first call up to order 4096, neg above it.
    g = Group(factors)
    neg = g.negator()
    assert [neg(a) for a in g.elements()] == [g.neg(a) for a in g.elements()]
    if g.order <= 4096:
        assert g._negs == tuple(map(g.neg, g.elements()))
        assert g.negator().__self__ is g._negs
    else:
        assert g._negs is None and neg == g.neg


def test_index_coord_roundtrip():
    g = Group([3, 4, 5])
    for e in g.elements():
        assert g.index_of(g.coords_of(e)) == e


def test_group_axioms_sampled():
    import random
    rnd = random.Random(0)
    for factors in ([5], [2, 4], [2, 3, 4]):
        g = Group(factors)
        for _ in range(300):
            a, b, c = (rnd.randrange(g.order) for _ in range(3))
            assert g.add(a, b) == g.add(b, a)
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
            assert g.add(a, g.neg(a)) == 0
            assert g.add(a, 0) == a


SMALL_PRODUCTS = ([2, 4], [2, 2, 2], [3, 3], [2, 6], [2, 2, 3])


def _codec_ops(g, a, b, k):
    """add, sub, neg and scale taken through coordinate tuples."""
    ca, cb = g.coords_of(a), g.coords_of(b)
    return (g.index_of([x + y for x, y in zip(ca, cb)]),
            g.index_of([x - y for x, y in zip(ca, cb)]),
            g.index_of([-x for x in ca]),
            g.index_of([x * k for x in ca]))


def _index_ops(g, a, b, k):
    return g.add(a, b), g.sub(a, b), g.neg(a), g.scale(a, k)


@pytest.mark.parametrize("factors", SMALL_PRODUCTS)
def test_index_arithmetic_matches_codec_on_every_pair(factors):
    g = Group(factors)
    for a, b in itertools.product(g.elements(), repeat=2):
        for k in (-7, -1, 0, 2, 5):
            assert _index_ops(g, a, b, k) == _codec_ops(g, a, b, k), (a, b, k)


@pytest.mark.parametrize("factors", ([8, 8], [4, 25]))
def test_index_arithmetic_matches_codec_sampled(factors):
    g = Group(factors)
    rnd = random.Random(20260301)
    for _ in range(2000):
        a, b = rnd.randrange(g.order), rnd.randrange(g.order)
        k = rnd.randrange(-3 * g.order, 3 * g.order)
        assert _index_ops(g, a, b, k) == _codec_ops(g, a, b, k), (a, b, k)


@pytest.mark.parametrize("factors", ([6], [2, 4], [2, 2, 3]))
def test_arithmetic_rejects_out_of_range(factors):
    g = Group(factors)
    for bad in (-1, g.order):
        for call in (lambda: g.add(bad, 0), lambda: g.add(0, bad),
                     lambda: g.sub(bad, 0), lambda: g.sub(0, bad),
                     lambda: g.neg(bad), lambda: g.scale(bad, 3)):
            with pytest.raises(ValueError):
                call()


def _closure_oracle(g, gens):
    """Closure of {0} under adding each generator, through coordinates."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for e in gens:
            y = _codec_ops(g, x, e, 1)[0]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return GroupSet.from_elements(g, seen)


@pytest.mark.parametrize("factors", SMALL_PRODUCTS)
def test_subgroup_generated_matches_closure_and_smith_order(factors):
    g = Group(factors)
    gen_sets = [(a,) for a in g.elements()]
    gen_sets += list(itertools.combinations(g.elements(), 2))
    for gens in gen_sets:
        h = subgroup_generated(GroupSet.from_elements(g, gens))
        assert h.members == _closure_oracle(g, gens), gens
        assert generated_order(g, list(gens)) == h.order, gens


def test_smith_order_on_larger_products():
    rnd = random.Random(7)
    for factors in ([8, 8], [4, 25], [2, 2, 10], [6, 10, 4], [2, 2, 2, 2],
                    [3, 9, 27], [12, 18], [6, 6, 6]):
        g = Group(factors)
        for size in (0, 1, 2, 3, 5):
            gens = [rnd.randrange(g.order) for _ in range(size)]
            h = subgroup_generated(GroupSet.from_elements(g, gens + [0]))
            assert generated_order(g, gens) == h.order, (factors, gens)


@pytest.mark.parametrize("factors", ([2, 4], [2, 2, 4], [3, 5, 7], [8, 8], [4, 25],
                                     [2, 40000], [1000, 1000], [4096, 4096]))
def test_block_reps_match_division(factors):
    g = Group(factors)
    full = (1 << g.order) - 1
    assert g.block_reps == tuple(full // ((1 << (d * s)) - 1)
                                 for d, s in zip(g.factors, g.strides))


@pytest.mark.parametrize("factors", ([], [12], [1 << 24], [2, 6], [2, 2, 4], [3, 5, 7],
                                     [4096, 4096], [2, 50000], [2, 2, 10],
                                     [10, 10, 10000]))
def test_sums_match_add_pair_by_pair(factors):
    # Group.sums is the x-major list of x + y, the same as one add per pair.
    g = Group(factors)
    n = g.order
    rnd = random.Random(n)
    points = list(range(n)) if n <= 105 else [0, n - 1] + rnd.sample(range(n), 40)
    for xs, ys in ((points, points[:7]), (points[:3], points), ([], points), (points, []),
                   ([], []), ([n - 1], [n - 1])):
        assert g.sums(xs, ys) == [g.add(x, y) for x in xs for y in ys]
    for bad in ([n], [-1]):
        with pytest.raises(ValueError):
            g.sums(bad, [0])
        with pytest.raises(ValueError):
            g.sums([0], bad)


def test_element_order():
    g = Group([12])
    assert g.element_order(0) == 1
    assert g.element_order(2) == 6
    assert g.element_order(5) == 12
    h = Group([2, 4])
    assert h.element_order(h.index_of([1, 2])) == 2
    assert h.element_order(h.index_of([0, 1])) == 4


def test_invariant_factors():
    assert Group([12]).invariant_factors() == (12,)
    assert Group([2, 4]).invariant_factors() == (2, 4)
    assert Group([4, 2]).invariant_factors() == (2, 4)
    assert Group([2, 3]).invariant_factors() == (6,)
    assert Group([6, 4]).invariant_factors() == (2, 12)
    assert Group([]).invariant_factors() == ()
    for k in range(4):
        for factors in itertools.product((2, 3, 4, 6, 8, 9), repeat=k):
            g = Group(factors)
            inv = g.invariant_factors()
            assert all(b % a == 0 for a, b in zip(inv, inv[1:])), factors
            assert _order_histogram(Group(inv)) == _order_histogram(g), factors


def _order_histogram(g):
    return Counter(g.element_order(e) for e in g.elements())


def test_trivial_group():
    g = Group([])
    assert g.order == 1
    assert g.is_trivial()
    assert g.add(0, 0) == 0
    assert g.spec_string() == "1"


def test_bad_factor_rejected():
    with pytest.raises(ValueError):
        Group([1, 4])
    with pytest.raises(ValueError):
        Group([0])


def test_subgroup_generated_cyclic():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 2))
    assert h.order == 6
    assert h.members.elements() == [0, 2, 4, 6, 8, 10]
    full = subgroup_generated(GroupSet.from_elements(g, [0, 1, 2]))
    assert full.order == 12


def test_subgroup_generated_product():
    g = Group([2, 4])
    e = g.index_of([0, 2])
    h = subgroup_generated(GroupSet.singleton(g, e))
    assert h.order == 2
    assert 0 in h and e in h


def test_subgroup_rejects_non_closed():
    g = Group([6])
    with pytest.raises(ValueError):
        Subgroup(g, GroupSet.from_elements(g, [0, 1]))
    with pytest.raises(ValueError):
        Subgroup(g, GroupSet.from_elements(g, [1, 3, 5]))


def test_subgroup_closure_checks_every_member():
    # 128 members of Z8192: the multiples of 128 and their translates by 1.
    # Every multiple of 128 maps the set to itself; 1 + 1 = 2 is missing.
    g = Group([8192])
    members = [128 * j for j in range(64)] + [1 + 128 * j for j in range(64)]
    with pytest.raises(ValueError):
        Subgroup(g, GroupSet.from_elements(g, members))
    h = Subgroup(g, GroupSet.from_elements(g, [128 * j for j in range(64)]))
    assert h.order == 64


def test_coset_representatives_partition():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 2))
    reps = coset_representatives(h)
    assert reps.elements() == [0, 1]
    g6 = Group([6])
    h3 = subgroup_generated(GroupSet.singleton(g6, 3))
    assert coset_representatives(h3).elements() == [0, 1, 2]
    # every element is rep + member in exactly one way
    for grp, sub in ((g, h), (g6, h3)):
        reps = coset_representatives(sub)
        seen = set()
        for r in reps:
            for m in sub.members:
                x = grp.add(r, m)
                assert x not in seen
                seen.add(x)
        assert len(seen) == grp.order


def test_coset_representatives_are_least_in_each_coset():
    for n in range(1, 33):
        for g in abelian_groups_of_order(n):
            for h in all_subgroups(g):
                least = {min(g.add(x, u) for u in h.members) for x in g.elements()}
                assert coset_representatives(h) == GroupSet.from_elements(g, least), h


def test_coset_representatives_of_a_row_are_a_column():
    # <(1, 0)> in 4096x4096: the least of each coset is (0, y)
    g = Group([4096, 4096])
    h = subgroup_generated(GroupSet.singleton(g, g.index_of((1, 0))))
    column = GroupSet(g, mask_of(g.order, range(0, g.order, 4096)))
    assert coset_representatives(h) == column


def _groups_up_to(order):
    extra = [Group(f) for f in ((2, 6), (6, 2), (4, 2), (2, 12), (4, 8), (2, 2, 2, 2))]
    return [g for n in range(1, order + 1) for g in abelian_groups_of_order(n)] + [
        g for g in extra if g.order <= order]


def test_cyclic_subgroup_table_matches_closure_and_box():
    # Every element of every group of order <= 32: the kept pair is <g> and
    # its coset box, and elements generating the same subgroup share one
    # entry object.
    for g in _groups_up_to(32):
        entries = [g.cyclic_subgroup(x) for x in g.elements()]
        assert len(g._cyclic) == g.order and None not in g._cyclic
        for x, (h, reps) in zip(g.elements(), entries):
            closed = subgroup_generated(GroupSet.singleton(g, x))
            assert h == closed and h.order == closed.order, (g, x)
            assert reps == coset_representatives(closed).mask, (g, x)
            assert g.cyclic_subgroup(x) is entries[x]
        for x, y in itertools.combinations(g.elements(), 2):
            assert (entries[x] is entries[y]) == (entries[x][0] == entries[y][0]), (g, x, y)
    with pytest.raises(ValueError):
        Group([6]).cyclic_subgroup(6)
    with pytest.raises(ValueError):
        Group([6]).cyclic_subgroup(-1)


@pytest.mark.parametrize("factors", ((5000,), (2, 2500)))
def test_no_cyclic_table_above_4096(factors):
    from addcomp.builders import ap_decide_and_build, detect_ap
    g = Group(factors)
    step = g.index_of([1] * len(factors))
    c = GroupSet.from_elements(g, [0, step, g.scale(step, 2)])
    cert = ap_decide_and_build(detect_ap(c))
    assert cert.method == "construction-ap"
    assert cert.detail["subgroup_order"] == g.element_order(step)
    h, reps = g.cyclic_subgroup(step)
    assert h == subgroup_generated(GroupSet.singleton(g, step))
    assert reps == coset_representatives(h).mask
    assert g._cyclic is None


def test_cyclic_subgroups_match_naive():
    # The distinct <g>, each listed as its multiples, sorted by (order, mask).
    def naive(g):
        found = set()
        for x in g.elements():
            found.add(mask_of(g.order, {g.scale(x, j) for j in range(g.order)}))
        return sorted(found, key=lambda m: (m.bit_count(), m))

    for g in _groups_up_to(64):
        subs = cyclic_subgroups(g)
        assert [h.members.mask for h in subs] == naive(g), g
        assert all(h.order == h.members.mask.bit_count() for h in subs)
    # above order 4096, with nothing kept: Z_n has one subgroup <n/m> per m | n
    wide = Group([4100])
    assert [h.members.mask for h in cyclic_subgroups(wide)] == [
        mask_of(4100, range(0, 4100, 4100 // m)) for m in range(1, 4101) if 4100 % m == 0]
    assert wide._cyclic is None


def test_cyclic_subgroups_close_once_per_subgroup(monkeypatch):
    calls = []
    real = groups.subgroup_generated

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(groups, "subgroup_generated", counting)
    subs = cyclic_subgroups(Group([30000]))
    assert len(subs) == 50  # one per divisor of 30000 = 2^4 * 3 * 5^4
    assert len(calls) <= 60


def test_quotient_map_cyclic():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 4))
    q, pi = quotient_map(g, h)
    assert q.factors == (4,)
    for x in g.elements():
        assert pi.apply(x) == x % 4
    assert pi.kernel() == h


def test_quotient_map_general():
    g = Group([2, 4])
    h = subgroup_generated(GroupSet.singleton(g, g.index_of([0, 2])))
    q, pi = quotient_map(g, h)
    assert q.order == 4
    assert q.invariant_factors() == (2, 2)
    # additive and surjective with kernel h
    for a in g.elements():
        for b in g.elements():
            assert pi.apply(g.add(a, b)) == q.add(pi.apply(a), pi.apply(b))
    assert len({pi.apply(x) for x in g.elements()}) == q.order
    assert pi.kernel() == h


QUOTIENT_GROUPS = [[2, 4], [2, 2, 4], [4, 4], [2, 6], [3, 9], [6, 6],
                   [2, 4, 4], []] + [[n] for n in range(2, 40)]


@pytest.mark.parametrize("factors", QUOTIENT_GROUPS)
def test_quotient_map_on_every_subgroup(factors):
    g = Group(factors)
    for h in all_subgroups(g):
        q, pi = quotient_map(g, h)
        img = [pi.apply(x) for x in g.elements()]
        for a, b in itertools.product(g.elements(), repeat=2):
            assert img[g.add(a, b)] == q.add(img[a], img[b]), (h, a, b)
        assert sorted(set(img)) == list(q.elements()), h
        assert GroupSet.from_elements(g, [x for x in g.elements() if img[x] == 0]) == h.members
        assert q.order * h.order == g.order
        assert all(d > 1 for d in q.factors), h
        assert all(b % a == 0 for a, b in zip(q.factors, q.factors[1:])), h
        coset_orders = Counter()
        for rep in coset_representatives(h):
            k = 1
            while g.scale(rep, k) not in h:
                k += 1
            coset_orders[k] += 1
        assert _order_histogram(q) == coset_orders, h


def test_quotient_map_images_are_pinned():
    # (q.factors, images) of every subgroup above, as computed when the
    # relations were all of h's members rather than its lowest ones
    digest = hashlib.sha256()
    for factors in QUOTIENT_GROUPS:
        g = Group(factors)
        for h in all_subgroups(g):
            q, pi = quotient_map(g, h)
            digest.update(repr((factors, h.members.mask, q.factors, pi.images)).encode())
    assert digest.hexdigest() == (
        "b74dfd8353a47d58aec5310c4962243369b8b3eeee7d46690835ce61b3640649")


def test_quotient_by_full_and_trivial():
    g = Group([6])
    q, pi = quotient_map(g, Subgroup.full(g))
    assert q.order == 1
    q2, pi2 = quotient_map(g, Subgroup.trivial(g))
    assert q2.order == 6
    assert len({pi2.apply(x) for x in g.elements()}) == 6


def test_homomorphism_validates_images():
    g = Group([4])
    h = Group([8])
    with pytest.raises(ValueError):
        Homomorphism(g, h, [1])  # 1 has order 8, must divide 4
    ok = Homomorphism(g, h, [2])
    assert ok.apply(3) == 6


def test_preimage_and_image():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 4))
    q, pi = quotient_map(g, h)
    w = pi.preimage(GroupSet.from_elements(q, [0, 2]))
    assert w.elements() == [0, 2, 4, 6, 8, 10]
    back = pi.image_set(w)
    assert back.elements() == [0, 2]


def test_all_subgroups_counts():
    assert len(all_subgroups(Group([12]))) == 6
    assert len(all_subgroups(Group([2, 2]))) == 5
    assert len(cyclic_subgroups(Group([2, 2]))) == 4
    with pytest.raises(ValueError):
        all_subgroups(Group([100]))


def test_abelian_groups_of_order():
    assert [g.factors for g in abelian_groups_of_order(1)] == [()]
    assert len(abelian_groups_of_order(4)) == 2
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(12)) == 2
    assert len(abelian_groups_of_order(36)) == 4
    for g in abelian_groups_of_order(36):
        assert g.order == 36


def test_unit_multipliers():
    g = Group([12])
    units = unit_multipliers(g)
    assert units == [1, 5, 7, 11]
