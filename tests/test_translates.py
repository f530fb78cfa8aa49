"""translates, the one-pass table of every translate of a mask, against
translate_mask one element at a time.  Needs no numpy, so it runs with the
other numpy-free tests on every supported Python."""

import pickle
import random

import pytest

from addcomp.groups import Group, abelian_groups_of_order
from addcomp.sumset import translate_mask, translates


def _masks(group, seed):
    rnd = random.Random(seed)
    n = group.order
    return [0, group.full_mask, 1, 1 << (n - 1)] + [rnd.getrandbits(n) for _ in range(3)]


def _check(group, mask):
    assert translates(group, mask) == [translate_mask(group, mask, x) for x in range(group.order)]


@pytest.mark.parametrize("n", range(1, 33))
def test_translates_on_every_small_group(n):
    for group in abelian_groups_of_order(n):
        for mask in _masks(group, n):
            _check(group, mask)


@pytest.mark.parametrize("factors", [(4096,), (64, 64), (2, 2048)])
def test_translates_at_order_4096(factors):
    group = Group(factors)
    for mask in _masks(group, 4096):
        _check(group, mask)


def test_translates_on_a_product_above_the_chunk():
    # order 8192 > BITS_CHUNK: the translate plans are not kept
    group = Group((2, 4096))
    _check(group, random.Random(5).getrandbits(group.order))


def test_cyclic_flag_is_one_factor_and_outside_equality():
    assert Group((12,)).cyclic and Group((8192,)).cyclic
    assert not Group(()).cyclic and not Group((2, 6)).cyclic
    for group in (Group((12,)), Group((2, 6))):
        copy = pickle.loads(pickle.dumps(group))
        assert copy == group and hash(copy) == hash(group)
        assert copy.cyclic == group.cyclic
