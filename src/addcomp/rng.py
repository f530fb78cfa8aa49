"""Deterministic 64-bit random number generation.

All randomized searches in this package draw from SplitMix64, a counter-based
generator: the state advances by a fixed odd constant and each output is a
finalizing mix of the new state.  It is fast, has a full 2**64 period, and the
same seed always reproduces the same stream on every platform, which is what
the reproducibility contracts here need.  Uniform integers below a bound are
produced by rejection sampling, so there is no modulo bias.
"""

from __future__ import annotations

__all__ = ["SplitMix64", "derive_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection."""
        return self.draws(n, 1)[0]

    def draws(self, n: int, count: int) -> list[int]:
        """count uniform integers in [0, n), by rejection: the values of
        count successive below(n) calls, which leave the stream where
        this leaves it, from one loop.  n = 1 draws nothing."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        if n == 1:
            return [0] * count
        limit = (1 << 64) - ((1 << 64) % n)
        out = []
        state = self._state
        while count:
            state = (state + _GOLDEN) & _MASK64
            z = _mix(state)
            if z < limit:
                out.append(z % n)
                count -= 1
        self._state = state
        return out

    def chance(self, threshold: int) -> bool:
        """True with probability threshold / 2**64."""
        return self.next_u64() < threshold


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer labels into an independent child seed.

    Used to give each (trial, retry, ...) coordinate its own stream so that
    results do not depend on evaluation order.
    """
    x = _mix(master & _MASK64)
    for p in parts:
        x = _mix((x ^ ((p & _MASK64) * _GOLDEN)) & _MASK64)
    return x
