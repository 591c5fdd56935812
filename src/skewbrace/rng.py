"""Small seeded linear-congruential generator for reproducible sampling."""

from __future__ import annotations

# one step is state -> (state * MULT + INC) & MASK; words.sample_word steps the state inline
MULT = 6364136223846793005
INC = 1442695040888963407
MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit LCG; identical seeds give identical streams everywhere."""

    def __init__(self, seed: int = 0):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & MASK

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        self.state = (self.state * MULT + INC) & MASK
        return (self.state >> 33) % bound

    def next_in(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        return lo + self.next_int(hi - lo + 1)
