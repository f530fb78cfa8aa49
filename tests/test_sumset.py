import importlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.builders import random_witness
from addcomp.complements import exists_witness, is_minimal_complement_for
from addcomp.groups import Group, Homomorphism, abelian_groups_of_order, subgroup_generated
from addcomp.literals import format_element, parse_set
from addcomp.oracle import (naive_coverage, naive_difference_set, naive_sumset,
                            oracle_is_minimal_complement_for)
from addcomp.sumset import (GroupSet, ListedSet, bits_of, coverage, difference_set,
                            mask_of, negated, private_points, progression_sum, sumset,
                            translate, translate_mask)

# The package re-exports the function sumset, which shadows the module name.
sumset_module = importlib.import_module("addcomp.sumset")


def test_sumset_covers_z6():
    g = Group([6])
    w = GroupSet.from_elements(g, [0, 3])
    c = GroupSet.from_elements(g, [0, 1, 2])
    assert sumset(w, c) == GroupSet.full(g)


def test_sumset_identities():
    g = Group([8])
    a = GroupSet.from_elements(g, [1, 5])
    assert sumset(a, GroupSet.empty(g)) == GroupSet.empty(g)
    assert sumset(a, GroupSet.singleton(g, 0)) == a
    assert sumset(a, GroupSet.singleton(g, 3)) == translate(a, 3)


def test_difference_set_z8():
    g = Group([8])
    a = GroupSet.from_elements(g, [0, 1])
    assert difference_set(a).elements() == [0, 1, 7]


def test_negated_product_group():
    g = Group([2, 4])
    a = GroupSet.from_elements(g, [g.index_of([1, 3])])
    assert negated(a).elements() == [g.index_of([1, 1])]


def test_coverage_profile():
    g = Group([6])
    w = GroupSet.from_elements(g, [0, 3])
    c = GroupSet.from_elements(g, [0, 1, 2, 3])
    prof = coverage(w, c)
    assert list(prof.counts) == [2, 1, 1, 2, 1, 1]
    assert prof.covered_mask() == g.full_mask
    assert prof.unique_mask() == GroupSet.from_elements(g, [1, 2, 4, 5]).mask
    assert prof.total() == 8


def test_matches_naive_on_samples():
    import random
    rnd = random.Random(1)
    for factors in ([7], [2, 4], [3, 3]):
        g = Group(factors)
        for _ in range(40):
            a = GroupSet(g, rnd.randrange(1 << g.order))
            b = GroupSet(g, rnd.randrange(1 << g.order))
            assert sumset(a, b) == naive_sumset(a, b)
            assert difference_set(a) == naive_difference_set(a)
            assert list(coverage(a, b).counts) == list(naive_coverage(a, b))


def test_difference_set_matches_naive_on_every_subset():
    # more than half the group has every difference, and the shortcut that
    # returns G there agrees with A - A computed pair by pair
    groups = [g for n in range(1, 11) for g in abelian_groups_of_order(n)]
    for g in groups + [Group([2, 6]), Group([3, 4])]:
        for amask in range(1 << g.order):
            a = GroupSet(g, amask)
            assert difference_set(a) == naive_difference_set(a), (g.factors, amask)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1),
       st.integers(0, 9))
def test_sumset_algebra(am, bm, t):
    g = Group([10])
    a, b = GroupSet(g, am), GroupSet(g, bm)
    assert sumset(a, b) == sumset(b, a)
    assert sumset(translate(a, t), b) == translate(sumset(a, b), t)
    assert negated(negated(a)) == a
    d = difference_set(a)
    assert d == negated(d)
    if a.mask:
        assert 0 in d


def test_groupset_ops():
    g = Group([6])
    a = GroupSet.from_elements(g, [0, 1])
    b = GroupSet.from_elements(g, [1, 2])
    assert (a | b).elements() == [0, 1, 2]
    assert (a & b).elements() == [1]
    assert (a - b).elements() == [0]
    assert a.complement().elements() == [2, 3, 4, 5]
    assert a.with_element(4).elements() == [0, 1, 4]
    assert a.without_element(0).elements() == [1]
    assert a.is_subset(a | b)
    assert len(a) == 2 and bool(a)
    assert 1 in a and 3 not in a


G4X25 = Group([4, 25])

# Each entry builds one value twice from separate inputs (call 0 and 1),
# names a field, and says whether equality is by value or by identity.
VALUE_TYPES = {
    "Group": (lambda i: Group([4, 25] if i else (4, 25)), "factors", True),
    "GroupSet": (lambda i: GroupSet(G4X25, 5) if i
                 else GroupSet.from_elements(G4X25, [2, 0]), "mask", True),
    "Subgroup": (lambda i: subgroup_generated(GroupSet.singleton(G4X25, 4 + 4 * i)),
                 "members", True),
    "Homomorphism": (lambda i: Homomorphism(G4X25, Group([25]), [0, 1]),
                     "images", False),
    "CoverageProfile": (lambda i: coverage(GroupSet.full(G4X25), GroupSet(G4X25, 1)),
                        "counts", False),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_types_are_immutable(name):
    make, field, by_value = VALUE_TYPES[name]
    a, b = make(0), make(1)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    if by_value:
        assert a is not b and a == b and hash(a) == hash(b)
    else:
        assert a == a and a != b


def test_value_type_reprs():
    assert repr(G4X25) == "Group(4x25)"
    assert repr(GroupSet.from_elements(G4X25, [0, 2])) == "GroupSet(4x25, {0, 2})"
    assert (repr(subgroup_generated(GroupSet.singleton(G4X25, 1)))
            == "Subgroup(order 4 of 4x25)")
    assert (repr(Homomorphism(G4X25, Group([25]), [0, 1]))
            == "Homomorphism(4x25 -> 25, images=[0, 1])")


def test_groupset_rejects_out_of_range_mask():
    g = Group([4])
    with pytest.raises(ValueError):
        GroupSet(g, 1 << 4)
    with pytest.raises(ValueError):
        GroupSet.from_elements(g, [4])


def test_cross_group_mix_rejected():
    a = GroupSet.full(Group([4]))
    b = GroupSet.full(Group([5]))
    with pytest.raises(ValueError):
        sumset(a, b)


@pytest.mark.parametrize("factors", [[], [30], [2, 3, 5], [4, 6]])
def test_coverage_in_blocks_matches_naive(factors):
    g = Group(factors)
    rnd = random.Random(3)
    for _ in range(30):
        a = GroupSet(g, rnd.randrange(1, 1 << g.order))
        b = GroupSet(g, rnd.randrange(1, 1 << g.order))
        prof = coverage(a, b)
        counts = list(naive_coverage(a, b))
        assert list(prof.counts) == counts
        assert prof.total() == sum(counts)
        assert prof.covered_mask() == sum(1 << x for x, m in enumerate(counts) if m)
        assert prof.unique_mask() == sum(1 << x for x, m in enumerate(counts) if m == 1)


def test_mask_of_on_both_sides_of_the_or_rule():
    rnd = random.Random(8)
    for n in (1, 9, 64, 5000, 1 << 20):
        for k in range(min(n, sumset_module.MASK_OR_POINTS + 3) + 1):
            points = rnd.sample(range(n), k)
            want = sum(1 << x for x in points)
            assert sumset_module.mask_of(n, points) == want
            assert sumset_module.mask_of(n, points + points[:1]) == want


def test_coverage_counts_past_16_bits():
    g = Group([70000])
    a = GroupSet.full(g)
    prof = coverage(a, a)
    assert prof.counts == (70000,) * 70000
    assert prof.total() == 70000 ** 2
    assert prof.covered_mask() == g.full_mask and prof.unique_mask() == 0


def _translate_by_definition(g, mask, t):
    out = 0
    for a, bit in enumerate(reversed(bin(mask)[2:])):
        if bit == "1":
            out |= 1 << g.add(a, t)
    return out


@pytest.mark.parametrize("factors", [[2, 12], [3, 5, 7], [4, 25], [64, 64, 4],
                                     [1000, 1000]])
def test_translate_mask_matches_definition(factors):
    g = Group(factors)
    rnd = random.Random(g.order)
    if g.order <= 1000:
        masks = [rnd.randrange(1 << g.order) for _ in range(4)]
        shifts = range(g.order)
    else:
        shifts = [rnd.randrange(g.order) for _ in range(6)]
        if g.order < 10 ** 5:
            masks = [rnd.randrange(1 << g.order) for _ in range(2)]
        else:  # sparse: the definition walks every element
            masks = [sum(1 << e for e in rnd.sample(range(g.order), 50))
                     for _ in range(2)]
    for mask in masks + [0, 1]:
        for t in shifts:
            assert translate_mask(g, mask, t) == _translate_by_definition(g, mask, t)
    for t in shifts:
        assert translate_mask(g, g.full_mask, t) == g.full_mask


def _translate_by_coordinates(g, mask, t):
    """The translate from coords_of and index_of alone, no kernel."""
    shift = g.coords_of(t)
    out = 0
    for a, bit in enumerate(reversed(bin(mask)[2:])):
        if bit == "1":
            out |= 1 << g.index_of([x + y for x, y in zip(g.coords_of(a), shift)])
    return out


@pytest.mark.parametrize("factors", [[2, 6], [2, 2, 4], [2, 8], [4, 4], [3, 3, 3],
                                     [2, 2, 2, 2]])
def test_translate_plans_match_coordinates(factors):
    g = Group(factors)
    rnd = random.Random(g.order)
    masks = [0, 1, g.full_mask] + [rnd.getrandbits(g.order) for _ in range(3)]
    for _ in range(2):  # the second pass reads every plan from the cache
        for t in range(g.order):
            for mask in masks:
                assert translate_mask(g, mask, t) == _translate_by_coordinates(g, mask, t)


@pytest.mark.parametrize("factors", [[64, 64], [2, 2049]])
def test_translate_plans_kept_up_to_bits_chunk_only(factors):
    # order 4096 keeps a plan per element and a step per (factor, digit);
    # order 4098 keeps nothing, however many translates it makes
    g = Group(factors)
    n = g.order
    rnd = random.Random(n)
    sparse = sum(1 << e for e in rnd.sample(range(n), 8))
    dense = rnd.getrandbits(n)
    for _ in range(2):
        for t in range(n):
            assert translate_mask(g, sparse, t) == _translate_by_coordinates(g, sparse, t)
        for t in rnd.sample(range(n), 16):
            assert translate_mask(g, dense, t) == _translate_by_coordinates(g, dense, t)
    if n <= sumset_module.BITS_CHUNK:
        assert len(g._plans) == n - 1  # translating by 0 needs no plan
        assert len(g._steps) == sum(d - 1 for d in factors)
    else:
        assert g._plans == {} and g._steps == {}


@pytest.mark.parametrize("factors", [[12], [16], [2, 6], [4, 4], [2, 3, 4]])
def test_progression_sum_matches_union_of_translates(factors):
    # lengths past 2*ord(step) wrap the progression; step 0 stays on A
    g = Group(factors)
    rnd = random.Random(g.order)
    for mask in (1, rnd.randrange(1 << g.order)):
        for step in g.elements():
            for length in range(2 * g.element_order(step) + 2):
                naive = 0
                for j in range(length):
                    naive |= translate_mask(g, mask, g.scale(step, j))
                assert progression_sum(g, mask, step, length) == naive, (mask, step, length)


@pytest.mark.parametrize("factors", [[], [7], [12], [2, 6], [4, 4], [3, 3, 3], [64, 64]])
def test_doubling_reaches_matches_sumset_size(factors):
    g = Group(factors)
    n = g.order
    rnd = random.Random(n)
    masks = [0, 1, g.full_mask, (1 << (n // 2)) - 1]
    masks += [GroupSet.from_elements(g, rnd.sample(range(n), rnd.randint(1, min(n, 12)))).mask
              for _ in range(20)]
    for mask in masks:
        a = GroupSet(g, mask)
        size = len(sumset(a, a))
        for bound in sorted({1, 2, size, size + 1, 2 * len(a), n, n + 1} - {0}):
            assert sumset_module.doubling_reaches(g, mask, bound) == (size >= bound), (mask, bound)


def test_doubling_reaches_makes_no_translate_past_bits_chunk(monkeypatch):
    # Above BITS_CHUNK one n-bit translate costs more than the element
    # loops a True would skip, so the kernel answers "not shown" at once.
    chunk = sumset_module.BITS_CHUNK
    calls = []
    real = sumset_module.translate_mask

    def counted(group, mask, g):
        calls.append(group.order)
        return real(group, mask, g)

    monkeypatch.setattr(sumset_module, "translate_mask", counted)
    for factors in ([chunk], [chunk // 64, 64]):
        assert sumset_module.doubling_reaches(Group(factors), 0b1011, 4)
    assert calls and set(calls) == {chunk}
    calls.clear()
    for factors in ([chunk + 1], [2, chunk], [1 << 24], [chunk, chunk]):
        assert not sumset_module.doubling_reaches(Group(factors), 0b1011, 4)
    assert calls == []


def _wide_masks():
    chunk = sumset_module.BITS_CHUNK
    rnd = random.Random(chunk)
    width = 5 * chunk + 123  # the top chunk is partial
    borders = 0
    for b in range(chunk, width, chunk):
        borders |= 3 << (b - 1)  # last bit of one chunk, first of the next
    yield borders | 1 | 1 << (width - 1)
    yield 1 | 1 << (width - 1)  # every chunk between the two is zero
    yield sum(1 << e for e in rnd.sample(range(width), 7)) | 1 << (width - 1)
    yield rnd.getrandbits(width) | 1 << (width - 1)  # dense
    yield (1 << width) - 1
    yield 1  # bit 0 alone


def test_bits_of_wide_masks_match_naive_scan():
    g = Group([3 * sumset_module.BITS_CHUNK, 2])
    for mask in _wide_masks():
        naive = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert list(bits_of(mask)) == naive
        assert GroupSet(g, mask).elements() == naive


def test_repr_shows_ten_elements_of_a_large_set():
    g = Group([100000])
    assert repr(GroupSet.full(g)) == (
        "GroupSet(100000, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ... (100000 elements)})")
    assert repr(GroupSet.from_elements(g, range(0, 120, 10))) == (
        "GroupSet(100000, {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110})")
    assert repr(GroupSet.empty(Group([2, 3]))) == "GroupSet(2x3, {})"


def _answer_from_counts(w, c):
    """(uncovered, least) of W + C, read off coverage() counts."""
    g = w.group
    prof = coverage(w, c)
    private = list(bits_of(prof.unique_mask()))
    least = [next((x for x in private if g.sub(x, e) in w), None)
             for e in c.elements()]
    return g.full_mask ^ prof.covered_mask(), least


def _with_holes(g, holes):
    return GroupSet(g, g.full_mask & ~GroupSet.from_elements(g, holes).mask)


def _kernel_cases():
    """(W, C) on cyclic and product groups: random pairs, k = 1, W = G, W
    missing one point, W that does not cover, and W with few holes in
    groups where the kernel's rule picks either path."""
    rnd = random.Random(4)
    for factors in ([2, 6], [12], [3, 3, 4], [64], [8, 8]):
        g = Group(factors)
        n = g.order
        c = GroupSet.from_elements(g, rnd.sample(range(n), 3))
        for _ in range(20):
            yield (GroupSet(g, rnd.randrange(1, 1 << n)),
                   GroupSet(g, rnd.randrange(1, 1 << n)))
        yield GroupSet.full(g), c
        yield GroupSet.full(g), GroupSet.singleton(g, rnd.randrange(n))
        yield _with_holes(g, [rnd.randrange(n)]), c
        yield GroupSet.singleton(g, 0), c
    for factors in ([1024], [32, 32], [40000], [200, 200], [4, 64, 64], [1 << 18]):
        g = Group(factors)
        n = g.order
        for k in (1, 2, 3, 5, 8):
            c = GroupSet.from_elements(g, rnd.sample(range(n), k))
            for holes in (0, 1, k, k * k, 3 * k * k):
                yield _with_holes(g, rnd.sample(range(n), holes)), c


def test_private_points_match_coverage_counts(monkeypatch):
    # Both paths of the kernel against each other, against coverage()
    # counts and, up to order 1024, against the oracle's minimality.  The
    # kernel sends only k >= 2 to the complement path, so only those are
    # put to it directly.
    paths = {name: getattr(sumset_module, name) for name in
             ("_private_points_by_translates", "_private_points_by_complement")}
    ran = []
    for name, path in paths.items():
        monkeypatch.setattr(sumset_module, name,
                            lambda *a, name=name, path=path: ran.append(name) or path(*a))
    picked = set()
    for w, c in _kernel_cases():
        g, ec = w.group, c.elements()
        holes = list(bits_of(g.full_mask & ~w.mask))
        want = paths["_private_points_by_translates"](g, w.mask, ec)
        if len(ec) >= 2:
            assert paths["_private_points_by_complement"](g, holes, ec) == want
        assert tuple(want) == _answer_from_counts(w, c)
        ran.clear()
        assert private_points(w, ec) == want
        picked.add(ran[0])
        if g.order <= 1024:
            assert (is_minimal_complement_for(w, c)
                    == oracle_is_minimal_complement_for(w, c))
    assert picked == set(paths)


def _parent_rule(n, k, holes):
    """The path rule as first written: by W's popcount, not by a walk."""
    return k >= 2 and 8192 * (len(holes) + 1) * k < (k - 1) * n


@pytest.mark.parametrize("factors", ([40001], [9, 7, 401], [128, 256]))
def test_private_points_path_at_the_bound(monkeypatch, factors):
    # The walk over the points W misses stops past the rule's bound, so
    # |Z| at the bound and one past it must take the paths the rule names.
    # Orders 40001 and 25263 leave pad bits in the top byte, which must
    # not count as holes; the holes sit low, at the top and at random.
    paths = {name: getattr(sumset_module, name) for name in
             ("_private_points_by_translates", "_private_points_by_complement")}
    ran = []
    for name, path in paths.items():
        monkeypatch.setattr(sumset_module, name,
                            lambda *a, name=name, path=path: ran.append(name) or path(*a))
    g = Group(factors)
    n = g.order
    rnd = random.Random(n)
    seen = set()
    for k in (1, 2, 3, 8):
        c = GroupSet.from_elements(g, rnd.sample(range(n), k))
        ec = c.elements()
        most = 0  # the largest |Z| the rule sends to the complement path, if any
        while _parent_rule(n, k, range(most + 1)):
            most += 1
        for size in sorted({0, most, most + 1}):
            for holes in (range(size), range(n - size, n), rnd.sample(range(n), size)):
                w = _with_holes(g, holes)
                ran.clear()
                got = private_points(w, ec)
                rule = _parent_rule(n, k, holes)
                assert ran == [("_private_points_by_complement" if rule
                                else "_private_points_by_translates")]
                seen.add(rule)
                want = _answer_from_counts(w, c)
                assert tuple(got) == want
                assert tuple(paths["_private_points_by_translates"](g, w.mask, ec)) == want
                if k >= 2:
                    assert tuple(paths["_private_points_by_complement"](
                        g, sorted(holes), ec)) == want
                # a W that keeps its holes hands them in: the same path,
                # and its mask is never read
                listed = ListedSet(g, tuple(sorted(holes)), holes=True)
                ran.clear()
                assert private_points(listed, ec) == got
                assert (sumset_module._MASK.__get__(listed) is None) == rule
                assert ran == [("_private_points_by_complement" if rule
                                else "_private_points_by_translates")]
    assert seen == {True, False}


def test_private_points_follow_one_more_hole():
    # Mutation check: taking y out of W takes one representation from each
    # point of y + C.  The cover must move exactly when one of them was
    # covered once (it becomes uncovered), and the least private points
    # can move only when one was covered once or twice (it becomes private).
    translates = sumset_module._private_points_by_translates
    rnd = random.Random(9)
    moved = []
    for factors in ([12], [2, 2, 6], [1 << 20], [1024, 1024]):
        g = Group(factors)
        n = g.order
        for k in (1, 2, 3, 6):
            c = GroupSet.from_elements(g, rnd.sample(range(n), k))
            ec = c.elements()
            holes = rnd.sample(range(n), rnd.randint(0, min(k * k, n // 2)))
            w = _with_holes(g, holes)
            before = private_points(w, ec)
            for y in rnd.sample(range(n), 4):
                if y in holes:
                    continue
                counts = [sum(g.sub(g.add(y, e), f) in w for f in ec) for e in ec]
                fewer = w.without_element(y)
                after = private_points(fewer, ec)
                assert after == translates(g, fewer.mask, ec)
                assert (after.uncovered != before.uncovered) == (min(counts) == 1)
                if min(counts) > 2:
                    assert after == before
                moved.append(after != before)
    assert any(moved) and not all(moved)


@settings(max_examples=150, deadline=None)
@given(st.integers(900, 2600), st.integers(0, 3), st.booleans(), st.data())
def test_listed_sets_match_eager_sets(quads, r, product, data):
    # Listed sets against GroupSets built from their masks, on orders on
    # both sides of BITS_CHUNK, of every residue mod 4, cyclic and not:
    # from_elements of unsorted points with repeats (some in the top
    # digit, which the complement's top digit then misses), complement
    # once and twice, and translates of both.
    chunk = sumset_module.BITS_CHUNK
    g = Group([3, 4 * quads + r] if product else [4 * quads + r])
    n = g.order
    points = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=9))
    points += data.draw(st.lists(st.integers(n - 5, n - 1), max_size=4))
    points += points[:2]
    shift = data.draw(st.integers(0, n - 1))
    made = GroupSet.from_elements(g, points)
    mask = sum(1 << p for p in set(points))
    moved = sum(1 << g.add(p, shift) for p in set(points))
    cases = [(made, mask), (made.complement(), g.full_mask ^ mask),
             (made.complement().complement(), mask), (translate(made, shift), moved),
             (translate(made.complement(), shift), g.full_mask ^ moved),
             (GroupSet.full(g), g.full_mask), (GroupSet.empty(g), 0)]
    # listed when the mask is wider than chunk and the tuple, without
    # repeats, takes no more memory than the mask
    width, bits = max(points) + 1, sumset_module.KEPT_POINT_BITS
    assert isinstance(made, ListedSet) == (width > chunk and bits * len(set(points)) <= width)
    # read through the tuples first (translate by 0 returns made itself),
    # then the mask they build
    for s, want in cases:
        listed = isinstance(s, ListedSet)
        assert not listed or n > chunk
        assert len(s) == want.bit_count() and bool(s) == bool(want)
        assert s.hex_mask() == hex(want)
        if listed and s.kept_holes() is None:
            assert s.elements() == list(s) == [x for x in range(n) if want >> x & 1]
        if listed:  # full() builds no mask either
            assert sumset_module._MASK.__get__(s) is None
    for s, want in cases:
        listed = isinstance(s, ListedSet)
        assert s.elements() == list(s) == [x for x in range(n) if want >> x & 1]
        eager = GroupSet(g, want)
        assert s == eager and eager == s and not (s != eager or eager != s)
        assert hash(s) == hash(eager) and {eager: 1}[s] == 1 and {s: 1}[eager] == 1
        assert s.mask == want == sumset_module.mask_of(n, list(eager))
        copy = pickle.loads(pickle.dumps(s))
        assert type(copy) is GroupSet and copy == s and copy.mask == want
        with pytest.raises(AttributeError):
            s.mask = 0
        if listed:
            with pytest.raises(AttributeError):
                s._points = None


def _kept(s):
    """The tuples s keeps, (points, holes), None where a slot is unset."""
    return getattr(s, "_points", None), getattr(s, "_holes", None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1024, 6000), st.integers(0, 3), st.data())
def test_hex_mask_from_kept_lists_is_hex(quads, r, data):
    # Widths n of every residue mod 4, so the leading digit is partial or
    # whole; C holds one point past BITS_CHUNK (so it keeps its points and
    # its complement W its holes), maybe some of the top bits (which W's
    # leading digits lose, down to stripped zeros) and up to 7 others.
    chunk = sumset_module.BITS_CHUNK
    n = 4 * quads + r
    g = Group([n])
    high = data.draw(st.integers(min(chunk, n - 1), n - 1))
    top = data.draw(st.lists(st.integers(max(0, n - 9), n - 1), max_size=4))
    rest = data.draw(st.lists(st.integers(0, n - 1), max_size=7))
    points = [high, *top, *rest]
    c = GroupSet.from_elements(g, points)
    w = c.complement()
    wide = n > chunk
    assert _kept(c) == ((tuple(sorted(set(points))) if wide else None), None)
    assert _kept(w)[1] == (_kept(c)[0] if w.mask.bit_length() > chunk else None)
    for s in (c, w, w.complement(), GroupSet.full(g), GroupSet.empty(g)):
        assert s.hex_mask() == hex(s.mask)


def test_hex_mask_of_long_kept_lists():
    # Lists of the largest length kept, on a cyclic group and a product.
    rnd = random.Random(5)
    for factors in ([(1 << 16) + 3], [7, 4099]):
        g = Group(factors)
        n = g.order
        points = rnd.sample(range(n - 1), n // 320 - 1) + [n - 1]
        c = GroupSet.from_elements(g, points)
        assert _kept(c)[0] is not None and _kept(c.complement())[1] is not None
        assert c.hex_mask() == hex(c.mask)
        assert c.complement().hex_mask() == hex(c.complement().mask)
        other = next(e for e in range(n) if e not in c)
        assert _kept(GroupSet.from_elements(g, points + [other])) == (None, None)


def _wide_sets():
    """(how it was made, set) for each way a set wider than BITS_CHUNK is made."""
    chunk = sumset_module.BITS_CHUNK
    for g in (Group([5 * chunk + 3]), Group([5, chunk + 1])):
        n = g.order
        points = [n - 1, 5, 5, chunk + 1, 0, n - 1, 3 * chunk]
        made = GroupSet.from_elements(g, points)
        yield "from_elements", made
        text = "{" + ", ".join(format_element(g, e) for e in points) + "}"
        yield "brace", parse_set(g, text)
        hexed = parse_set(g, hex(made.mask))
        assert _kept(hexed) == (None, None)
        yield "listed", hexed.listed()
        yield "complement", made.complement()
        yield "complement twice", made.complement().complement()
        yield "full", GroupSet.full(g)
    c = GroupSet.from_elements(Group([10 ** 6]), [0, 11, 5225, 90125])
    yield "random_witness", random_witness(c, 21, seed=1).result


def test_kept_lists_list_the_mask():
    for how, s in _wide_sets():
        points, holes = _kept(s)
        assert (points is None) == (how in ("complement", "full", "random_witness")), how
        assert (holes is None) == (how not in ("complement", "full", "random_witness")), how
        full = s.group.full_mask
        if points is not None:
            assert list(points) == list(bits_of(s.mask)) == s.elements() == list(s), how
        else:
            assert list(holes) == list(bits_of(full ^ s.mask)), how
            assert s.complement().elements() == list(holes), how
        assert len(s) == s.mask.bit_count(), how
        assert s.hex_mask() == hex(s.mask), how
        assert repr(s) == repr(GroupSet(s.group, s.mask)), how


def test_kept_lists_unseen_by_equality_hashing_and_pickling():
    for how, s in _wide_sets():
        bare = GroupSet(s.group, s.mask)
        assert _kept(bare) == (None, None) and _kept(s) != (None, None)
        assert s == bare and hash(s) == hash(bare) and {bare: how}[s] == how
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and _kept(copy) == (None, None)


def test_kept_points_cannot_be_changed_through_elements():
    for how, s in _wide_sets():
        if _kept(s)[0] is None:
            continue
        before = (s.elements(), s.hex_mask(), len(s))
        listed = s.elements()
        listed.append(1)
        listed[0] = 7
        listed.sort(reverse=True)
        assert (s.elements(), s.hex_mask(), len(s)) == before


def _by_rule(g, kept, holes):
    """The listing rule, read off a plain int: the mask of the points kept,
    or of the group without them, is wider than BITS_CHUNK bits, and
    KEPT_POINT_BITS * len(kept) is at most its width."""
    mask = sum(1 << x for x in kept)
    if holes:
        mask ^= (1 << g.order) - 1
    width = mask.bit_length()
    return (width > sumset_module.BITS_CHUNK
            and sumset_module.KEPT_POINT_BITS * len(kept) <= width)


def test_every_constructor_lists_by_one_rule():
    # from_elements, listed(), full(), and complement() and translate() of
    # what they make: a set is listed exactly when the rule holds for the
    # tuple at hand, and a set with no tuple (a plain set's complement or
    # translate) is never listed.  Widths sit on both sides of BITS_CHUNK,
    # and sizes on both sides of width // KEPT_POINT_BITS.
    chunk, bits = sumset_module.BITS_CHUNK, sumset_module.KEPT_POINT_BITS
    rnd = random.Random(31)
    seen = set()
    for g in (Group([5 * chunk + 3]), Group([5, chunk + 1]), Group([chunk]), Group([12])):
        n = g.order
        shift = n // 3 + 1
        made = [(GroupSet.full(g), (), True)]
        for width in sorted({min(n, w) for w in (1, chunk, chunk + 1, 3 * chunk, n)}):
            for size in sorted({1, 2, width // bits, width // bits + 1}):
                size = min(max(size, 1), width)
                points = sorted(rnd.sample(range(width - 1), size - 1) + [width - 1])
                made.append((GroupSet.from_elements(g, points + points[:2]), points, False))
                made.append((GroupSet(g, mask_of(n, points)).listed(), points, False))
        for s, kept, holes in made:
            derived = [(s, kept, holes, True), (s.complement(), kept, not holes, False),
                       (translate(s, shift), sorted(g.add(x, shift) for x in kept), holes,
                        False)]
            for t, t_kept, t_holes, made_here in derived:
                listed = isinstance(t, ListedSet)
                from_tuple = made_here or isinstance(s, ListedSet)
                assert listed == (from_tuple and _by_rule(g, t_kept, t_holes))
                if listed:
                    assert _kept(t) == ((None, tuple(t_kept)) if t_holes
                                        else (tuple(t_kept), None))
                seen.add((listed, from_tuple))
    assert seen == {(True, True), (False, True), (False, False)}


def test_bounded_walk_stops_past_most(monkeypatch):
    # The walk yields at most most + 1 points, and a mask whose lowest
    # BITS_CHUNK bits alone hold more than most points is refused before
    # the wide walk starts.
    chunk = sumset_module.BITS_CHUNK
    real_bits, real_wide = sumset_module.bits_of, sumset_module._wide_bits_of
    yields, wide = [], []

    def counted(mask):
        for x in real_bits(mask):
            yields.append(x)
            yield x

    monkeypatch.setattr(sumset_module, "bits_of", counted)
    monkeypatch.setattr(sumset_module, "_wide_bits_of",
                        lambda mask: wide.append(mask) or real_wide(mask))
    rnd = random.Random(4)
    points = sorted(rnd.sample(range(chunk), 10) + rnd.sample(range(chunk, 8 * chunk), 90))
    mask = mask_of(8 * chunk, points)
    for most in (0, 9, 10, 50, 99, 100, 250):
        yields.clear()
        wide.clear()
        got = sumset_module._points_within(mask, most)
        if most < 10:
            assert got is None and yields == [] and wide == []
        elif most < 100:
            assert got is None and yields == points[:most + 1] and wide == [mask]
        else:
            assert got == tuple(points) and yields == points and wide == [mask]
    # listed() refuses the same mask by its low chunk: 8 * chunk bits keep at
    # most 8 * chunk // 320 = 102 points, and 103 low ones are too many
    crowded = GroupSet(Group([8 * chunk]), mask | mask_of(8 * chunk, range(103)))
    yields.clear()
    wide.clear()
    assert crowded.listed() is crowded and yields == [] and wide == []


def test_no_list_kept_at_order_bits_chunk_or_below():
    rnd = random.Random(8)
    for factors in ([sumset_module.BITS_CHUNK], [64, 64], [12], [2, 2, 4]):
        g = Group(factors)
        n = g.order
        points = rnd.sample(range(n), 3) + [n - 1]
        made = GroupSet.from_elements(g, points)
        hexed = parse_set(g, hex(made.mask))
        sets = [made, made.complement(), made.complement().complement(), hexed.listed(),
                parse_set(g, "{" + ",".join(format_element(g, e) for e in points) + "}"),
                GroupSet.full(g), GroupSet.singleton(g, n - 1)]
        trace = random_witness(made, 13, seed=2)
        cert = exists_witness(made)
        sets += [x for x in (trace.result, cert.witness) if x is not None]
        for s in sets:
            s.elements()
            assert _kept(s) == (None, None)
