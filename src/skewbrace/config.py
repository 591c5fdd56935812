"""Tunable size caps and sampling defaults.

Every cap is a config value rather than a hard constant so that callers
(and the CLI) can raise or lower the desk-scale guardrails.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_group_order: int = 24        # automorphism search cap
    max_holomorph_order: int = 10000
    max_ideal_search_order: int = 16  # ideal lattice / triviality chains
    max_system_vertices: int = 64
    max_lattice_depth: int = 8


@dataclass(frozen=True)
class SampleConfig:
    samples: int = 500
    seed: int = 0
    max_syllables: int = 8
    max_exponent: int = 3

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError("samples must not be negative")


DEFAULT_LIMITS = Limits()
DEFAULT_SAMPLING = SampleConfig()
