"""Small seeded linear-congruential generator for reproducible sampling.

One step is s -> (s * MULT + INC) & MASK, and a draw is the step's new state
>> 33. After j steps from s_k the state is s_{k+j} = A_j s_k + C_j mod 2^64,
with A_j = MULT^j and C_j = INC (MULT^{j-1} + ... + 1) mod 2^64, so a whole
block of _BLOCK draws comes from one multiply. Lane j (j = 1.._BLOCK) of the
constants P and Q is the 128 bits from 128(j-1); it holds A_j and C_j shifted
left by 31, so s P + Q holds v_j = A_j s + C_j from bit 128(j-1) + 31. Each
v_j < 2^128, since s, A_j and C_j are below 2^64: it ends at bit 128j + 30,
before v_{j+1} begins, so no lane carries into the next. Masking bits 64..94
of each lane keeps bits 33..63 of v_j, which is s_{k+j} >> 33, and the four
bytes from byte 8 of the lane read it out as one unsigned int.
"""

from __future__ import annotations

import struct
from functools import cache

MULT = 6364136223846793005
INC = 1442695040888963407
MASK = (1 << 64) - 1

_BLOCK = 256
"""Draws computed per multiply; a reservation longer than this takes several blocks."""


@cache
def _lanes():
    """(A, C, P, Q, M, unpack): A_j and C_j for j = 0.._BLOCK, the lane constants and the lane reader.

    Built on the first draw, so importing the module costs nothing.
    """
    a, c = [1], [0]
    for _ in range(_BLOCK):
        a.append(a[-1] * MULT & MASK)
        c.append((c[-1] * MULT + INC) & MASK)

    def lanes(values):
        return int.from_bytes(b"".join((v << 31).to_bytes(16, "little") for v in values), "little")

    mask = int.from_bytes((bytes(8) + b"\xff\xff\xff\x7f" + bytes(4)) * _BLOCK, "little")
    return a, c, lanes(a[1:]), lanes(c[1:]), mask, struct.Struct("<" + "8xI4x" * _BLOCK).unpack


class Lcg:
    """Deterministic 64-bit LCG; identical seeds give identical streams everywhere.

    The draws are buffered a block at a time: ``_draws[_pos]`` is the next
    one, and ``_bases[k]`` is the state before draw k * _BLOCK of the buffer.
    """

    __slots__ = ("_bases", "_draws", "_pos")

    def __init__(self, seed: int = 0):
        self._bases = [(seed ^ 0x9E3779B97F4A7C15) & MASK]
        self._draws = ()
        self._pos = 0

    @property
    def state(self) -> int:
        """The state after the last draw: s_{k+j} = A_j s_k + C_j from the state of its block."""
        a, c = _lanes()[:2]
        k, j = divmod(self._pos, _BLOCK)
        return (a[j] * self._bases[k] + c[j]) & MASK

    def _refill(self, count: int) -> None:
        """Buffer at least ``count`` draws (one block at least) from the current state."""
        a, c, p, q, m, unpack = _lanes()
        base, bases, draws = self.state, [], ()
        while not draws or len(draws) < count:
            bases.append(base)
            draws += unpack(((base * p + q) & m).to_bytes(16 * _BLOCK, "little"))
            base = (a[_BLOCK] * base + c[_BLOCK]) & MASK
        bases.append(base)
        self._bases, self._draws, self._pos = bases, draws, 0

    def take(self, count: int) -> tuple:
        """The next ``count`` draws as (draws, i): they are draws[i:i + count], each state >> 33."""
        i = self._pos
        if len(self._draws) - i < count:
            self._refill(count)
            i = 0
        self._pos = i + count
        return self._draws, i

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        i = self._pos
        if i == len(self._draws):
            self._refill(1)
            i = 0
        self._pos = i + 1
        return self._draws[i] % bound
