"""The sampling stream against a generator that steps the LCG once per draw.

``Lcg`` computes its draws a block at a time; every draw it hands out, by
``next_int`` (also through ``oracles.next_in``), ``take`` or ``sample_word``, and its ``state``
after each call, must be those of the textbook step in ``oracles``.
"""

import random

import pytest
from oracles import lcg_draws_by_stepping, next_in

from skewbrace.rng import _BLOCK, Lcg
from skewbrace.words import FreeWord, sample_word

SEEDS = [0, 1, 2 ** 64 - 1, -7, 10 ** 30]


class Stepper:
    """The oracle stream, with the state after its last draw."""

    def __init__(self, seed):
        self.stream = lcg_draws_by_stepping(seed)
        self.state = (seed ^ 0x9E3779B97F4A7C15) % 2 ** 64

    def draw(self):
        value, self.state = next(self.stream)
        return value

    def word(self, rank, max_syllables, max_exp):
        """sample_word's draws in its order, reduced by FreeWord's validating reducer."""
        count = self.draw() % (max_syllables + 1)
        syllables = []
        for _ in range(count):
            g, e, sign = self.draw(), self.draw(), self.draw()
            e = 1 + e % max_exp
            syllables.append((1 + g % rank, -e if sign & 1 else e))
        return FreeWord(rank, syllables).syllables, count


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_draws_match_the_stepped_stream(seed):
    rng, ref = Lcg(seed), Stepper(seed)
    assert rng.state == ref.state
    choose = random.Random(f"rng:{seed}")
    draws = long_words = 0
    while draws < 3000 or not long_words:
        kind = choose.randrange(5)
        if kind == 0:
            bound = choose.randint(1, 10 ** 6)
            assert rng.next_int(bound) == ref.draw() % bound
            draws += 1
        elif kind == 1:
            lo = choose.randint(-50, 50)
            hi = lo + choose.randint(0, 100)
            assert next_in(rng, lo, hi) == lo + ref.draw() % (hi - lo + 1)
            draws += 1
        elif kind == 2:
            count = choose.randint(0, 40)
            block, i = rng.take(count)
            assert list(block[i:i + count]) == [ref.draw() for _ in range(count)]
            draws += count
        else:
            rank, max_exp = choose.randint(1, 4), choose.randint(1, 5)
            max_syllables = 200 if kind == 4 and choose.randrange(4) == 0 else choose.choice([0, 1, 8, 20])
            expected, count = ref.word(rank, max_syllables, max_exp)
            assert sample_word(rng, rank, max_syllables, max_exp) == expected
            draws += 1 + 3 * count
            long_words += 3 * count > _BLOCK
        assert rng.state == ref.state


@pytest.mark.parametrize("seed", SEEDS)
def test_takes_that_straddle_a_block_end(seed):
    for offset in (1, _BLOCK - 30, _BLOCK - 1, _BLOCK):
        for count in (1, 2, 31, _BLOCK, 2 * _BLOCK + 5):
            rng, ref = Lcg(seed), Stepper(seed)
            for _ in range(offset):
                assert rng.next_int(2 ** 31) == ref.draw()
            assert rng.state == ref.state
            # the first block starts at the first draw, so these takes cross its end
            assert (len(rng._draws) - rng._pos < count) == (count > _BLOCK - offset)
            block, i = rng.take(count)
            assert list(block[i:i + count]) == [ref.draw() for _ in range(count)]
            assert rng.state == ref.state
            assert rng.next_int(2 ** 31) == ref.draw() and rng.state == ref.state


@pytest.mark.parametrize("seed", SEEDS)
def test_a_word_longer_than_a_block(seed):
    rng, ref = Lcg(seed), Stepper(seed)
    longest = 0
    for _ in range(40):
        expected, count = ref.word(3, 200, 3)
        assert sample_word(rng, 3, 200, 3) == expected
        assert rng.state == ref.state
        longest = max(longest, 1 + 3 * count)
    assert longest > _BLOCK


def test_a_fresh_generator_reads_its_seed_state():
    for seed in SEEDS:
        assert Lcg(seed).state == Stepper(seed).state
