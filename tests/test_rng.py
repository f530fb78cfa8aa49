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


def _chance_by_definition(rng, threshold):
    """chance(threshold) as documented: the next u64 is below threshold."""
    return rng.next_u64() < threshold


# Runs of up to 1024 outputs are mixed in lanes, so the counts straddle a
# run's edges.
COUNTS = (0, 1, 2, 16, 1023, 1024, 1025, 3 * 1024 + 5)


@pytest.mark.parametrize("n", [1, 2, 7, 1 << 24, 10 ** 6, 1 << 64, (1 << 63) + 1])
def test_draws_are_successive_belows(n):
    # About half of all u64 are rejected for n = 2^63 + 1, none for 2^k.
    # below(n) is checked here too, with where it leaves the stream: for
    # n = 1 it draws nothing.
    for count in COUNTS:
        bulk, single, defined = SplitMix64(n + count), SplitMix64(n + count), SplitMix64(n + count)
        got = bulk.draws(n, count)
        assert got == [single.below(n) for _ in range(count)]
        assert got == [_below_by_definition(defined, n) for _ in range(count)]
        assert bulk.next_u64() == single.next_u64() == defined.next_u64()


def test_draws_with_some_runs_rejected():
    # One u64 in 2000 is rejected for this n: with seed 1 the second and
    # third of four runs hold a rejected output and the first and last do
    # not, so both the lane path and the fallback are taken in one call.
    n = (1 << 64) - (1 << 64) // 2000
    limit = (1 << 64) - (1 << 64) % n
    count = 3 * 1024 + 5
    probe, rejected_runs, accepted = SplitMix64(1), set(), 0
    while accepted < count:
        if probe.next_u64() < limit:
            accepted += 1
        else:
            rejected_runs.add(accepted // 1024)
    assert rejected_runs == {1, 2}
    bulk, defined = SplitMix64(1), SplitMix64(1)
    assert bulk.draws(n, count) == [_below_by_definition(defined, n) for _ in range(count)]
    assert bulk.next_u64() == defined.next_u64() == probe.next_u64()


def test_draws_with_some_lanes_rejected():
    # A quarter of all u64 are rejected for n = 3 * 2^62: 16 draws from
    # seed 2 read 18 outputs, so one run of lanes holds two rejected ones.
    n, count = 3 << 62, 16
    bulk, defined = SplitMix64(2), SplitMix64(2)
    assert bulk.draws(n, count) == [_below_by_definition(defined, n) for _ in range(count)]
    used, probe = 0, SplitMix64(2)
    while probe._state != defined._state:
        probe.next_u64()
        used += 1
    assert used == count + 2
    assert bulk.next_u64() == defined.next_u64()


@pytest.mark.parametrize("threshold", [-1, 0, 1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 65])
def test_chances_are_successive_chances(threshold):
    for count in COUNTS:
        seed = threshold + count
        bulk, single, defined = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        got = bulk.chances(threshold, count)
        assert got == sum(single.chance(threshold) << i for i in range(count))
        assert got == sum(_chance_by_definition(defined, threshold) << i for i in range(count))
        assert bulk.next_u64() == single.next_u64() == defined.next_u64()


def test_bulk_draws_reject_a_negative_count():
    for n in (1, 7):
        with pytest.raises(ValueError):
            SplitMix64(1).draws(n, -1)
    for threshold in (0, 1 << 63, 1 << 64):
        with pytest.raises(ValueError):
            SplitMix64(1).chances(threshold, -3)


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
    for n in (0, -3, (1 << 64) + 1):
        with pytest.raises(ValueError):
            SplitMix64(1).draws(n, 3)
        with pytest.raises(ValueError):
            SplitMix64(1).below(n)
