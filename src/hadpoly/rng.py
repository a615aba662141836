"""Deterministic 64-bit pseudorandomness for the trial harness.

The generator is SplitMix64 (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators"): a counter advanced by the golden-ratio
increment, finalized by an xor-shift/multiply mixer.  It is fixed across
releases so that a (seed, trial index) pair reproduces a trial bit for bit
on any platform; child generators are derived by mixing index keys into the
seed rather than by sharing state.  ``randint`` is the one step, with the
mixer inline; every other draw goes through it.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator; state is a single integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        return self.randint(0, _MASK)

    def derive(self, *keys: int) -> "SplitMix64":
        """Independent child generator keyed by integers (e.g. a trial index)."""
        seed = self._state
        for key in keys:
            seed = _mix((seed ^ (key & _MASK)) + _GOLDEN & _MASK)
        return SplitMix64(seed)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by rejection-free modulo (bias is
        negligible for the tiny ranges used here and keeps the stream simple)."""
        if hi < lo:
            raise ValueError("empty range")
        z = self._state = (self._state + _GOLDEN) & _MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

    def rational(self, max_numerator: int, max_denominator: int) -> Fraction:
        """Nonnegative rational with numerator <= max_numerator, denominator
        <= max_denominator."""
        num = self.randint(0, max_numerator)
        den = self.randint(1, max_denominator)
        return Fraction(num, den)

    def positive_rational(self, max_numerator: int, max_denominator: int) -> Fraction:
        num = self.randint(1, max_numerator)
        den = self.randint(1, max_denominator)
        return Fraction(num, den)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.randint(1, den) <= num
