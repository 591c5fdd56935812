"""The library's records: namedtuple subclasses, immutable values with a field repr.

Each record is built here as the library builds it, or from plain values,
and checked for value equality, hashing, immutability, its repr, its
defaults and the checks its constructor makes. Importing the CLI must not
load ``dataclasses`` or what it imports.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import skewbrace
from skewbrace import braces, cli, config, groups, lattice, rota, structure, systems, words
from skewbrace.errors import RankMismatch


def _z2():
    return groups.cyclic_group(2)


def _z4():
    return groups.cyclic_group(4)


def _linear_system():
    z4 = _z4()
    inversion = [list(range(4)) if a % 2 == 0 else [0, 3, 2, 1] for a in range(4)]
    return systems.build_linear_system(z4, inversion, depth=1)


def _word(rank, *syllables):
    return words.FreeWord(rank, syllables)


# name -> (record class, a function that makes one instance, its fields, its defaults, hashable)
RECORDS = {
    "LambdaMap": (braces.LambdaMap, lambda: braces.LambdaMap.of_automorphisms(_z4(), [bytes(range(4))] * 4),
                  ("group", "maps", "which", "products", "kernel", "image_order", "image_exponent",
                   "hom_witness", "anti_witness", "image_abelian", "image_cyclic"), {}, True),
    "BraceReport": (braces.BraceReport, lambda: braces.verify_brace(_z2().table, _z2().table),
                    ("left_ok", "right_ok", "two_sided", "left_witness", "right_witness", "brace"), {}, True),
    "Classification": (braces.Classification, lambda: braces.classify(braces.trivial_brace(_z4())),
                       ("lambda_homomorphic", "lambda_anti_homomorphic", "symmetric", "lambda_cyclic",
                        "natural"), {}, True),
    "LinkReport": (oracles.LinkReport, lambda: oracles.LinkReport(True, True, True, True, True, True),
                   ("is_brace", "is_symmetric", "cond_i", "cond_ii", "images_commute", "hypothesis_met",
                    "advisory"), {"advisory": None}, True),
    "SampleConfig": (config.SampleConfig, lambda: config.SampleConfig(samples=7, seed=3),
                     ("samples", "seed"), {"samples": 500, "seed": 0}, True),
    "Violation": (groups.Violation, lambda: groups.Violation("not_square", (3,)),
                  ("code", "witness"), {}, True),
    "GroupCheck": (groups.GroupCheck, lambda: groups.verify_group(_z4().table),
                   ("ok", "group", "relabeling", "violations"), {}, True),
    "Holomorph": (groups.Holomorph, lambda: groups.build_holomorph(_z4()), ("base", "automorphisms", "group"),
                  {}, True),
    "LatticeAuto": (lattice.LatticeAuto, lambda: lattice.lattice_lambda(1), ("matrix",), {}, True),
    "RbCheck": (rota.RbCheck, lambda: rota.is_rb(_z4(), [0, 0, 0, 0]), ("ok", "witness"), {}, True),
    "FreeRb": (rota.FreeRb, lambda: rota.FreeRb(2, (_word(2, (1, 1)), _word(2, (1, 1)))),
               ("rank", "images"), {}, True),
    "IdealReport": (structure.IdealReport, lambda: structure.is_ideal(braces.trivial_brace(_z4()), (0, 2)),
                    ("elements", "lambda_invariant", "normal_add", "normal_circ", "witness"),
                    {"witness": None}, True),
    "TrivialityChain": (structure.TrivialityChain, lambda: structure.TrivialityChain(((0,), (0, 1)), 1),
                        ("chain", "step"), {}, True),
    "BraceSystemGraph": (systems.BraceSystemGraph, _linear_system,
                         ("carrier_order", "vertices", "labels", "edges", "kind", "label_map", "lam",
                          "hypotheses_met"), {"label_map": {}, "lam": None, "hypotheses_met": None}, False),
    "GeneratorCycle": (words.GeneratorCycle, lambda: words.GeneratorCycle(3, 2), ("rank", "shift"),
                       {"shift": 1}, True),
    "Inner": (words.Inner, lambda: words.Inner(_word(2, (1, 1), (2, -1))), ("word",), {}, True),
    "SchreierRewriter": (words.SchreierRewriter, lambda: words.SchreierRewriter(2, 3), ("rank", "modulus"),
                         {}, True),
}


# a new value that passes the checks of each record that checks its fields; the rest take "other"
CHECKED_REPLACEMENTS = {"SampleConfig": ("samples", 8), "FreeRb": ("images", ()), "GeneratorCycle": ("rank", 4)}


def test_every_record_is_listed():
    # every namedtuple subclass the library defines, and the one the oracles keep, is a record of RECORDS
    defined = {name for module in (braces, config, groups, lattice, rota, structure, systems, words, oracles)
               for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
               and value.__module__ == module.__name__}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_value(name):
    cls, build, fields, defaults, hashable = RECORDS[name]
    record, again = build(), build()
    assert type(record) is cls and cls.__name__ == name
    assert record._fields == fields
    assert "count" not in fields and "index" not in fields
    assert record == again and not record != again
    field, value = CHECKED_REPLACEMENTS.get(name, (fields[0], "other"))
    assert record._replace(**{field: value}) != record
    if hashable:
        assert hash(record) == hash(again)
        assert len({record, again}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    body = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({body})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_defaults(name):
    cls, build, fields, defaults, _ = RECORDS[name]
    assert dict(cls._field_defaults) == defaults
    required = [getattr(build(), field) for field in fields if field not in defaults]
    built = cls(*required)
    assert {field: getattr(built, field) for field in defaults} == defaults


@pytest.mark.parametrize("make, error, message", [
    (lambda: config.SampleConfig(-1), ValueError, "samples must not be negative"),
    (lambda: config.SampleConfig(samples=config.MAX_SAMPLES + 1), ValueError,
     f"samples {config.MAX_SAMPLES + 1} exceeds the bound of {config.MAX_SAMPLES}"),
    (lambda: rota.FreeRb(0, ()), ValueError, "rank must be at least 1"),
    (lambda: rota.FreeRb(rank=2, images=(_word(3, (1, 1)),)), RankMismatch,
     "an image's rank differs from the operator rank 2"),
    (lambda: words.GeneratorCycle(0), ValueError, "rank must be at least 1"),
    (lambda: words.GeneratorCycle(rank=words.MAX_RANK + 1, shift=2), ValueError,
     f"rank {words.MAX_RANK + 1} exceeds the bound of {words.MAX_RANK}"),
    (lambda: words.SchreierRewriter(2, 0), ValueError,
     "modulus must be at least 1, or None for the infinite case"),
])
def test_record_constructor_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("cls, valid, bad, error, message", [
    (config.SampleConfig, {}, {"samples": -1}, ValueError, "samples must not be negative"),
    (config.SampleConfig, {}, {"samples": config.MAX_SAMPLES + 1}, ValueError,
     f"samples {config.MAX_SAMPLES + 1} exceeds the bound of {config.MAX_SAMPLES}"),
    (rota.FreeRb, {"rank": 2, "images": ()}, {"rank": 0}, ValueError, "rank must be at least 1"),
    (rota.FreeRb, {"rank": 2, "images": ()}, {"images": (_word(3, (1, 1)),)}, RankMismatch,
     "an image's rank differs from the operator rank 2"),
    (words.GeneratorCycle, {"rank": 3}, {"rank": 0}, ValueError, "rank must be at least 1"),
    (words.GeneratorCycle, {"rank": 3}, {"rank": words.MAX_RANK + 1, "shift": 2}, ValueError,
     f"rank {words.MAX_RANK + 1} exceeds the bound of {words.MAX_RANK}"),
    (words.SchreierRewriter, {"rank": 2, "modulus": 3}, {"modulus": 0}, ValueError,
     "modulus must be at least 1, or None for the infinite case"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_record_checks_hold_through_replace_and_make(cls, valid, bad, error, message):
    # namedtuple's _make, which _replace calls, would build the tuple without __new__'s checks
    record = cls(**valid)
    fields = [bad.get(field, value) for field, value in zip(cls._fields, record)]
    for make in (lambda: cls(**{**record._asdict(), **bad}), lambda: record._replace(**bad),
                 lambda: cls._make(fields), lambda: cls._make(iter(fields))):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("cls", [config.SampleConfig, rota.FreeRb, words.GeneratorCycle,
                                 words.SchreierRewriter])
def test_checked_make_keeps_its_arity_and_field_errors(cls):
    record = {config.SampleConfig: config.SampleConfig(), rota.FreeRb: rota.FreeRb(1, ()),
              words.GeneratorCycle: words.GeneratorCycle(2), words.SchreierRewriter: words.SchreierRewriter(2, 3)}[cls]
    assert cls._make(record) == record == record._replace()
    assert type(cls._make(record)) is cls
    n = len(cls._fields)
    with pytest.raises(TypeError, match=f"Expected {n} arguments, got {n - 1}"):
        cls._make(tuple(record)[:-1])
    with pytest.raises(TypeError, match=f"Expected {n} arguments, got {n + 1}"):
        cls._make((*record, 0))
    with pytest.raises(ValueError, match=r"Got unexpected field names: \['bogus'\]"):
        record._replace(bogus=1)


def test_checked_records_accept_their_bounds():
    assert config.SampleConfig(0) == config.SampleConfig(samples=0, seed=0)
    assert config.SampleConfig(config.MAX_SAMPLES).samples == config.MAX_SAMPLES
    assert words.GeneratorCycle(words.MAX_RANK).shift == 1
    assert words.SchreierRewriter(1, None).modulus is None
    assert rota.FreeRb(1, ()).images == ()


def test_importing_the_cli_loads_no_dataclasses():
    # -S: no site hook runs; the modules the import adds are the difference of sys.modules
    src = str(Path(skewbrace.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import skewbrace.cli; print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True,
                          timeout=60, check=True)
    added = set(done.stdout.split())
    assert "skewbrace.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_a_record_in_a_report_is_not_json():
    # a record is one value, not a list of its fields: emit refuses it as json.dumps refused a dataclass
    flags = braces.classify(braces.trivial_brace(_z2()))
    for report in ({"flags": flags}, {"rows": [flags]}, flags, {"map": b"\x00\x01", "flags": flags},
                   {"rows": [1, 2, flags]}, {"table": (b"\x00",), "record": {"inner": flags}}):
        with pytest.raises(TypeError, match="Object of type Classification is not JSON serializable"):
            cli.emit(report)


def test_a_record_is_not_a_map_or_a_table():
    z2 = _z2()
    facts = braces.LambdaMap.of(z2, [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="lambda must be a list of maps"):
        braces.LambdaMap.of(z2, facts)
    assert groups.is_self_map([1, 1], 2)
    assert not groups.is_self_map(words.GeneratorCycle(1, 1), 2)
    with pytest.raises(ValueError, match='"add" must be a list of rows'):
        groups.table_field({"add": groups.Violation((0, 1), (1, 0))}, "add")


def test_union_kind_is_set_before_the_graph_is_built():
    # hypotheses fail on both unions; the first graph's edges are symmetric, the second's are not
    klein = groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))
    swap = [0, 1, 3, 2]
    ident = [0, 1, 2, 3]
    first = systems.build_linear_system(klein, [ident, ident, swap, swap], depth=1)
    second = systems.build_linear_system(klein, [ident, [0, 3, 2, 1], ident, [0, 3, 2, 1]], depth=1)
    merged = systems.union_systems(first, second)
    assert (merged.kind, merged.hypotheses_met, merged.label_map) == ("symmetric", False, {})
    g = groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2))
    e, s, t = list(range(8)), [0, 1, 7, 6, 4, 5, 3, 2], [0, 1, 6, 7, 4, 5, 2, 3]
    merged = systems.union_systems(systems.build_linear_system(g, [e, e, s, s, e, e, s, s], depth=1),
                                   systems.build_linear_system(g, [e, t, t, e, e, t, t, e], depth=1))
    assert (merged.kind, merged.hypotheses_met) == ("general", False)
    assert not merged.is_edge_symmetric()
