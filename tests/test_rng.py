import pytest

from addcomp.rng import SplitMix64, derive_seed


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_first_output():
    # golden value for seed 0, pinned so a silent algorithm change shows up
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_below_stays_in_range():
    rng = SplitMix64(7)
    for bound in (1, 2, 3, 10, 1000, 10**6):
        for _ in range(200):
            v = rng.below(bound)
            assert 0 <= v < bound


def test_below_hits_every_residue():
    rng = SplitMix64(42)
    seen = set(rng.below(7) for _ in range(500))
    assert seen == set(range(7))


def test_chance_edges():
    rng = SplitMix64(3)
    assert not any(rng.chance(0) for _ in range(100))
    assert all(rng.chance(1 << 64) for _ in range(100))


def test_derive_seed_separates_labels():
    seeds = {derive_seed(5, i, j) for i in range(20) for j in range(20)}
    assert len(seeds) == 400
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) == derive_seed(5, 1)


def _below_by_definition(rng, n):
    """below(n) as documented: the first u64 under the largest multiple of
    n at most 2^64, reduced mod n, and no draw at all for n = 1."""
    if n == 1:
        return 0
    limit = (1 << 64) - (1 << 64) % n
    while True:
        v = rng.next_u64()
        if v < limit:
            return v % n


@pytest.mark.parametrize("n", [1, 2, 7, 1 << 24, 10 ** 6, 1 << 64, (1 << 63) + 1])
def test_draws_are_successive_belows(n):
    # About half of all u64 are rejected for n = 2^63 + 1, none for 2^k.
    for count in (0, 1, 5, 200):
        bulk, single, defined = SplitMix64(n + count), SplitMix64(n + count), SplitMix64(n + count)
        got = bulk.draws(n, count)
        assert got == [single.below(n) for _ in range(count)]
        assert got == [_below_by_definition(defined, n) for _ in range(count)]
        assert bulk.next_u64() == single.next_u64() == defined.next_u64()


@pytest.mark.parametrize("threshold", [0, 1, 1 << 63, 1 << 64])
def test_chances_are_successive_chances(threshold):
    for count in (0, 1, 16, 200):
        bulk, single = SplitMix64(threshold + count), SplitMix64(threshold + count)
        got = bulk.chances(threshold, count)
        assert got == sum(single.chance(threshold) << i for i in range(count))
        assert bulk.next_u64() == single.next_u64()


def test_draws_reject_about_half_above_2_to_63():
    n = (1 << 63) + 1
    rng, count = SplitMix64(5), 400
    rng.draws(n, count)
    used = 0
    probe = SplitMix64(5)
    while probe._state != rng._state:
        probe.next_u64()
        used += 1
    assert 1.6 * count < used < 2.4 * count


def test_draws_reject_a_bad_bound():
    for n in (0, -3):
        with pytest.raises(ValueError):
            SplitMix64(1).draws(n, 3)
        with pytest.raises(ValueError):
            SplitMix64(1).below(n)
