"""The mask kernels of the supplement decisions against their definitions on
plain Python sets: difference_mask against {a - b : a, b in A},
solidity_violator against the least x outside C with x - C inside C - C, and
supplement_status against disjointness of the translates W + c, c in C, plus
cover of G by C + (W - W).  The cyclic groups run the doubled-mask walks, the
products translate_mask.  Needs no numpy, so it runs with the other numpy-free
tests on every supported Python."""

import random

import pytest

from addcomp.groups import Group, abelian_groups_of_order
from addcomp.sumset import GroupSet, bits_of, difference_mask
from addcomp.supplements import solidity_violator, supplement_status


def _mask(points):
    mask = 0
    for x in points:
        mask |= 1 << x
    return mask


def _differences(group, points):
    return {group.sub(a, b) for a in points for b in points}


def _least_violator(group, points):
    cc = _differences(group, points)
    for x in range(group.order):
        if x not in points and all(group.sub(x, e) in cc for e in points):
            return x
    return None


def _supplement(group, w, c):
    sums = [group.add(x, e) for x in w for e in c]
    disjoint = len(set(sums)) == len(sums)
    ww = _differences(group, w)
    cover = {group.add(e, d) for e in c for d in ww}
    return disjoint, disjoint and len(cover) == group.order


def _grown_supplement(rng, group, c):
    """A W through 0 grown by random points whose differences with W avoid
    C - C, except 0: a supplement for C, maximal or not."""
    cc = _differences(group, c)
    w = [0]
    for x in rng.sample(range(1, group.order), group.order - 1):
        if all(group.sub(x, y) not in cc for y in w):
            w.append(x)
    return w


def _check_set(group, cmask):
    points = set(bits_of(cmask))
    d = difference_mask(group, cmask)
    assert d == _mask(_differences(group, points)), (group.factors, cmask)
    assert solidity_violator(group, cmask, d) == _least_violator(group, points), (
        group.factors, cmask)


def _check_pair(group, w, c):
    got = supplement_status(GroupSet.from_elements(group, w), GroupSet.from_elements(group, c))
    assert got == _supplement(group, w, c), (group.factors, w, c)
    return got


@pytest.mark.parametrize("n", range(1, 13))
def test_kernels_on_every_group_of_order_at_most_12(n):
    # every set up to order 10, then seeded random sets; per set a random W
    # through 0 and a grown supplement, and the grown one with points dropped
    rng = random.Random(f"mask-kernels:{n}")
    seen = set()
    for group in abelian_groups_of_order(n):
        if n <= 10:
            masks = range(1, 1 << n)
        else:
            masks = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(300)]
        for cmask in masks:
            _check_set(group, cmask)
            c = list(bits_of(cmask))
            grown = _grown_supplement(rng, group, c)
            for w in (grown, [0] + [x for x in grown[1:] if rng.random() < 0.5],
                      [0] + rng.sample(range(1, n), rng.randint(0, n - 1))):
                seen.add(_check_pair(group, w, c))
    if n >= 3:
        assert seen == {(False, False), (True, False), (True, True)}, seen


def _index(group, coords):
    return group.index_of(list(coords))


def _large_cases(factors):
    """(sets, pairs (W, C, expected)) on a README-scale group: sparse
    random sets, subgroups, boxes, a box with a point taken out, and a
    box C with lattices W - W that tile G with it, or only half of it."""
    group = Group(list(factors))
    n = group.order
    rng = random.Random(f"mask-kernels:{factors}")
    sets = [rng.sample(range(n), k) for k in (1, 2, 3, 5, 8) for _ in range(2)]
    if len(factors) == 1:
        side = 64 if n == 4096 else 100
        box = list(range(side))
        lattice = list(range(0, n, side))
        half = list(range(0, n, 2 * side))
        sets += [box, list(range(0, n, n // 64)), [0, 1, 5], [0, 1, 3]]
    else:
        a = factors[0]
        side = 8
        box = [_index(group, (i, j)) for i in range(side) for j in range(side)]
        lattice = [_index(group, (i, j)) for i in range(0, a, side) for j in range(0, a, side)]
        half = [_index(group, (i, j)) for i in range(0, a, 2 * side) for j in range(0, a, side)]
        line = [_index(group, (i, 0)) for i in range(a)]
        sets += [box, line] + [[_index(group, p) for p in points] for points in
                                (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 0), (3, 0)))]
    # a box without an inner point keeps the box's differences, so that
    # point is its least violator
    sets.append([x for x in box if x != box[len(box) // 2 + 1]])
    pairs = [(lattice, box, (True, True)), (half, box, (True, False)),
             ([0, 1], box, (False, False))]
    pairs += [(rng.sample(range(n), 4), s, None) for s in sets[:10]]
    return group, sets, pairs


@pytest.mark.parametrize("factors", [(4096,), (16000,), (64, 64), (128, 128)], ids=str)
def test_kernels_at_readme_scale(factors):
    group, sets, pairs = _large_cases(factors)
    for points in sets:
        _check_set(group, _mask(points))
    for w, c, expected in pairs:
        got = _check_pair(group, w, c)
        assert expected is None or got == expected
