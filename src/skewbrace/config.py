"""Sampling settings: how many samples the word and lattice samplers draw, and the seed.

Size caps are not config values: each is a module constant beside the one
check that reads it (``groups.MAX_GROUP_ORDER`` and its siblings). The one
tunable cap, the group-order cap, is a ``max_order`` argument of the
functions that read it and the CLI's ``--max-order``. ``CheckedRecord`` is
the base of the records, here and in the other modules, that check their
fields.
"""

from collections import namedtuple

MAX_SAMPLES = 100_000
"""The most samples a sampler draws: each one builds and compares a few words or vectors."""


class CheckedRecord:
    """The base of a namedtuple record whose ``__new__`` checks its fields.

    namedtuple's ``_make``, which ``_replace`` calls, builds the tuple
    directly; this one builds it through ``__new__``, so both check too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)


class SampleConfig(CheckedRecord, namedtuple("SampleConfig", "samples seed", defaults=(500, 0))):
    """How many samples a sampler draws, at most MAX_SAMPLES, and the seed of its LCG."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.samples < 0:
            raise ValueError("samples must not be negative")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples {self.samples} exceeds the bound of {MAX_SAMPLES}")
        return self


DEFAULT_SAMPLING = SampleConfig()
