"""Deterministic 64-bit pseudorandomness for the trial harness.

The generator is SplitMix64 (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators"): a counter advanced by the golden-ratio
increment, finalized by an xor-shift/multiply mixer.  It is fixed across
releases so that a (seed, trial index) pair reproduces a trial bit for bit
on any platform; child generators are derived by mixing index keys into the
seed rather than by sharing state.  Output i mixes seed + i * golden, not an
earlier output, so ``randint`` (every draw's one step) serves ``_LANES``
outputs mixed in one pass over a packed integer: a counter per 128-bit lane,
masked per lane around each 64-bit multiply so no lane spills into the
next, read back little-endian; ``_state`` reads as if each were mixed alone.
"""

from __future__ import annotations

import struct

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANES = 32
_ONES = sum(1 << (128 * j) for j in range(_LANES))
_LANE_MASK = _MASK * _ONES
_STEPS = sum((j + 1) * _GOLDEN << (128 * j) for j in range(_LANES))  # lane j: (j + 1) golden
_LAYOUT = struct.Struct("<" + "Q8x" * _LANES)  # each lane's low 8 bytes


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _mix_block(base: int) -> tuple[int, ...]:
    """``_mix`` of base + k golden, k = 1.._LANES; ``_LAYOUT`` skips the last shift's spill."""
    z = (base * _ONES + _STEPS) & _LANE_MASK
    z = (z ^ (z >> 30) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = (z ^ (z >> 27) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    return _LAYOUT.unpack((z ^ (z >> 31)).to_bytes(_LAYOUT.size, "little"))


class SplitMix64:
    """Counter-based 64-bit generator; the counter ``_state`` is its whole state."""

    __slots__ = ("_base", "_used", "_block")
    _state = property(lambda self: (self._base + self._used * _GOLDEN) & _MASK)

    def __init__(self, seed: int):
        # a used-up block ending at the seed; the first draw mixes the next one
        self._base, self._used = (seed - _LANES * _GOLDEN) & _MASK, _LANES

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
        i = self._used
        if i == _LANES:
            self._base = base = (self._base + _LANES * _GOLDEN) & _MASK
            self._block = _mix_block(base)
            i = 0
        self._used = i + 1
        return lo + self._block[i] % (hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.randint(1, den) <= num
