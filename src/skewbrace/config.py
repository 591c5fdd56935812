"""Sampling settings: how many samples the word and lattice samplers draw, and the seed.

Size caps are not config values: each is a module constant beside the one
check that reads it (``groups.MAX_GROUP_ORDER`` and its siblings). The one
tunable cap, the group-order cap, is a ``max_order`` argument of the
functions that read it and the CLI's ``--max-order``.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_SAMPLES = 100_000
"""The most samples a sampler draws: each one builds and compares a few words or vectors."""


@dataclass(frozen=True)
class SampleConfig:
    samples: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError("samples must not be negative")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples {self.samples} exceeds the bound of {MAX_SAMPLES}")


DEFAULT_SAMPLING = SampleConfig()
