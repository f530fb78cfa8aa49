"""Deterministic 64-bit random number generation.

All randomized searches in this package draw from SplitMix64 (Steele, Lea
and Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014),
a counter-based generator: the state advances by a fixed odd constant and
each output is a finalizing mix of the new state.  It has a full 2**64
period, and the same seed always reproduces the same stream on every
platform, which is what the reproducibility contracts here need.  Uniform
integers below a bound are produced by rejection sampling, so there is no
modulo bias.

The single draws (next_u64, below, chance) mix one state at a time.  The
bulk draws (draws, chances) mix up to _LANES successive states at once,
each in its own 128-bit lane of one Python int, and return exactly what
the same number of successive single draws would.
"""

from __future__ import annotations

import sys

__all__ = ["SplitMix64", "derive_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANES = 1024  # states mixed at once, so one lane int is at most 16 KB
# every second 64-bit word of the lanes' bytes is a lane's low half: the
# first of each pair on a little-endian host, the second (read backwards)
# on a big-endian one
_WORD_STEP = 2 if sys.byteorder == "little" else -2
_BELOW = bytes.maketrans(b"\x00\x01", b"10")  # bit 64 clear: the lane is below


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


# the lane constants of _LANES lanes of 128 bits: a 1 at the bottom of every
# lane, (i + 1) * _GOLDEN in lane i, and the low 64 bits of every lane set;
# a shorter run uses their low lanes
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_STEPS = int.from_bytes(b"".join((i * _GOLDEN).to_bytes(16, "little")
                                 for i in range(1, _LANES + 1)), "little")
_LOW = _ONES * _MASK64


def _mix_lanes(state: int, count: int) -> int:
    """_mix of the count states after state, lane-wise: lane i (bits
    128i to 128i + 63) holds _mix(state + (i + 1) * _GOLDEN mod 2**64).

    A lane's 64 bits times a 64-bit constant fit in its 128, so one
    multiply of the whole int multiplies every lane, and each shift or
    product is masked back to the low 64 bits of every lane.
    """
    keep = (1 << 128 * count) - 1
    low = _LOW & keep
    z = (state * (_ONES & keep) + (_STEPS & keep)) & low
    z = (z ^ z >> 30) & low
    z = z * 0xBF58476D1CE4E5B9 & low
    z = (z ^ z >> 27) & low
    z = z * 0x94D049BB133111EB & low
    return (z ^ z >> 31) & low


def _check_bound(n: int) -> None:
    # above 2**64 no output is below the largest multiple of n, so
    # rejection would never end
    if not 0 < n <= 1 << 64:
        raise ValueError(f"bound must be in [1, 2**64], got {n}")


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer.

    next_u64 steps the state and mixes it.  The other draws read the same
    outputs one at a time or in bulk: draws(n, count) is count successive
    below(n) and chances(t, count) the mask of count successive chance(t),
    and each leaves the stream where the single calls would.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection: the first output below
        the largest multiple of n at most 2**64, mod n.  n = 1 draws
        nothing."""
        _check_bound(n)
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def draws(self, n: int, count: int) -> list[int]:
        """count uniform integers in [0, n), by rejection: the values of
        count successive below(n) calls, which leave the stream where
        this leaves it.  Each run of up to _LANES outputs is mixed in
        lanes; a run where any output would be rejected is drawn again
        by below(n) calls from the same state."""
        _check_bound(n)
        _check_count(count)
        if n == 1:
            return [0] * count
        limit = (1 << 64) - ((1 << 64) % n)
        out = []
        while count:
            run = min(count, _LANES)
            state = self._state
            lanes = _mix_lanes(state, run).to_bytes(16 * run, sys.byteorder)
            words = memoryview(lanes).cast("Q")[::_WORD_STEP]
            if max(words) < limit:
                out += [z % n for z in words]
                self._state = (state + run * _GOLDEN) & _MASK64
            else:
                out += [self.below(n) for _ in range(run)]
            count -= run
        return out

    def chance(self, threshold: int) -> bool:
        """True with probability threshold / 2**64."""
        return self.next_u64() < threshold

    def chances(self, threshold: int, count: int) -> int:
        """count chance(threshold) trials as one mask: bit i is set when
        the i-th output is below threshold, as the i-th of count
        successive chance calls would return, and the stream is left where
        those calls would leave it.  A lane is below threshold t when
        adding 2**64 - t leaves its bit 64 clear; a threshold of at most
        0 or above 2**64 - 1 decides every trial without a mix."""
        _check_count(count)
        state = self._state
        self._state = (state + count * _GOLDEN) & _MASK64
        if threshold <= 0:
            return 0
        if threshold > _MASK64:
            return (1 << count) - 1
        mask = 0
        for done in range(0, count, _LANES):
            run = min(count - done, _LANES)
            lanes = _mix_lanes((state + done * _GOLDEN) & _MASK64, run)
            ones = _ONES & ((1 << 128 * run) - 1)
            carries = (lanes + ones * ((1 << 64) - threshold)) >> 64
            flags = carries.to_bytes(16 * run, "little")[::16].translate(_BELOW)
            mask |= int(flags[::-1], 2) << done
        return mask


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer labels into an independent child seed.

    Used to give each (trial, retry, ...) coordinate its own stream so that
    results do not depend on evaluation order.
    """
    x = _mix(master & _MASK64)
    for p in parts:
        x = _mix((x ^ ((p & _MASK64) * _GOLDEN)) & _MASK64)
    return x
