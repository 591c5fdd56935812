"""The bytes-row kernels against the int-tuple references of oracles.py.

Every group of small_group_catalog(12), from the trivial group up, and Z2^8,
whose 256 labels fill the translate table with no padding, with maps drawn
from a seeded generator.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    case_key,
    compose_by_index,
    conjugation_by_index,
    derived_table_by_index,
    hom_witness_by_full_scan,
    inversion_operator,
    invert_by_index,
    lambda_by_index,
    multiplicative_by_full_scan,
    permutation_closure_all_products,
    rb_center_conditions_by_scan,
    rb_first_failure_by_index,
    tuples,
)
from skewbrace.braces import LambdaMap, SkewBrace, enumerate_circ_ops
from skewbrace.errors import OrderCapExceeded
from skewbrace.groups import (
    MAX_PERMUTATION_DEGREE,
    MAX_TABLE_ORDER,
    _permutation_closure,
    automorphism_group,
    compose,
    coset_labels,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    endomorphisms,
    group_from_permutations,
    hom_witness,
    invert_permutation,
    is_multiplicative,
    small_group_catalog,
    subgroup_closure_in,
)
from skewbrace.rota import (
    derived_table,
    is_rb,
    rb_brace,
    rb_endomorphisms,
    rb_lambda_hom_check,
    rb_self_maps,
    rb_symmetry_check,
)


def z2_to_the_8():
    group = cyclic_group(2)
    for _ in range(7):
        group = direct_product(group, cyclic_group(2))
    return group


GROUPS = small_group_catalog(12) + [z2_to_the_8()]
assert GROUPS[0].order == 1 and GROUPS[-1].order == MAX_TABLE_ORDER


def random_maps(group, count, seed):
    """``count`` self-maps of the carrier, and as many permutations, as bytes."""
    rng = random.Random(f"{case_key(group)}:{seed}")
    n = group.order
    maps = [bytes(rng.randrange(n) for _ in range(n)) for _ in range(count)]
    perms = [bytes(rng.sample(range(n), n)) for _ in range(count)]
    return maps, perms


def known_homomorphisms(group):
    """Maps that respect products: every endomorphism up to order 12, some at order 256."""
    if group.order <= 12:
        return endomorphisms(group)
    return [bytes(range(group.order)), bytes(group.order), inversion_operator(group)]


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_compose_and_inverse_match_the_references(group):
    maps, perms = random_maps(group, 8, "compose")
    for f in maps + perms:
        for g in maps + perms:
            assert tuple(compose(f, g)) == compose_by_index(tuple(f), tuple(g))
    for p in perms:
        assert tuple(invert_permutation(p)) == invert_by_index(tuple(p))


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_is_multiplicative_matches_the_full_scan(group):
    maps, perms = random_maps(group, 6, "multiplicative")
    for dst in (group.table, group.columns):
        for images in maps + perms + known_homomorphisms(group):
            assert is_multiplicative(group, dst, images) == \
                multiplicative_by_full_scan(tuples(group.table), tuples(dst), tuple(images))


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_inner_and_conj_match_the_reference(group):
    table = tuples(group.table)
    for g, images in enumerate(group.inner):
        expected = conjugation_by_index(table, g)
        assert tuple(images) == expected


PERMUTATION_SETS = st.integers(1, 6).flatmap(
    lambda degree: st.tuples(st.just(degree), st.lists(st.permutations(range(degree)), max_size=4)))


@given(PERMUTATION_SETS)
def test_permutation_closure_matches_the_all_products_closure(drawn):
    degree, seeds = drawn
    identity, seeds = bytes(range(degree)), [bytes(s) for s in seeds]
    members, gens = _permutation_closure(identity, seeds)
    expected = permutation_closure_all_products(seeds, degree)
    assert len(members) == len(set(members)) and sorted(map(tuple, members)) == expected
    # the kept seeds are a subsequence of the seeds and generate the same group
    rest = iter(seeds)
    assert all(g in rest for g in gens)
    assert permutation_closure_all_products(gens, degree) == expected
    # a cap of the group's order passes, one below it stops the walk
    assert len(_permutation_closure(identity, seeds, len(expected))[0]) == len(expected)
    if len(expected) > 1:
        with pytest.raises(OrderCapExceeded):
            _permutation_closure(identity, seeds, len(expected) - 1)


def test_group_from_permutations_refuses_a_degree_bytes_cannot_hold():
    degree = MAX_PERMUTATION_DEGREE + 1
    with pytest.raises(ValueError, match=f'"degree" {degree} exceeds the bound of '
                                         f"{MAX_PERMUTATION_DEGREE} points"):
        group_from_permutations([tuple(range(1, degree)) + (0,)], degree)


def non_normal_subgroup(group):
    """A cyclic subgroup that some element does not conjugate into itself; <1> if there is none."""
    cyclic = [subgroup_closure_in(group, (g,)) for g in range(1, group.order)] or [(0,)]
    return next((k for k in cyclic if any(group.inner[g][x] not in k for g in range(group.order)
                                          for x in k)), cyclic[0])


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_hom_witness_matches_the_full_scan(group):
    rng = random.Random(f"{case_key(group)}:witness")
    n, t = group.order, group.table
    k = non_normal_subgroup(group)
    maps, perms = random_maps(group, 4, "witness")
    homs = known_homomorphisms(group)[:12]
    # homomorphisms moved within cosets: multiplicative modulo Z(G) or modulo K, not always exactly
    by_center = [bytes(t[h[x]][rng.choice(group.center)] for x in range(n)) for h in homs]
    by_k = [bytes(t[h[x]][rng.choice(k)] for x in range(n)) for h in homs]
    src = tuples(t)
    found = set()
    for labels in (None, group.center_labels, coset_labels(group, k)):
        for rows in (None, group.generators or (0,)):
            for dst in (group.table, group.columns):
                for images in maps + perms + homs + by_center + by_k:
                    witness = hom_witness(t, dst, images, rows, labels)
                    assert witness == hom_witness_by_full_scan(src, tuples(dst), tuple(images),
                                                               rows, labels)
                    found.add((labels is None, witness is None))
    # exact and modulo tests each both pass and fail, where the group allows it
    assert {(True, True), (False, True)} <= found
    assert ((True, False) in found) == (n > 1)
    if group.table != group.columns:
        assert (False, False) in found


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_lambda_arrays_match_the_reference(group):
    found = enumerate_circ_ops(group) if group.order <= 8 else [SkewBrace(group, group.opposite())]
    for brace in found:
        assert tuples(brace.lam.maps) == lambda_by_index(tuples(brace.add.table),
                                                         tuples(brace.circ.table))


def first_law_failure_by_index(table, maps, anti):
    """First (a, b) with lambda_{a b} != lambda_a lambda_b (lambda_b lambda_a if anti), or None."""
    n = len(table)
    return next(((a, b) for a in range(n) for b in range(n)
                 if maps[table[a][b]] != compose_by_index(*((maps[b], maps[a]) if anti
                                                            else (maps[a], maps[b])))), None)


@pytest.mark.parametrize("group", [g for g in GROUPS if g.order <= 12], ids=case_key)
def test_lambda_witnesses_match_the_reference(group):
    rng = random.Random(f"{case_key(group)}:witness")
    auts = automorphism_group(group)
    table = tuples(group.table)
    assignments = [[rng.choice(auts) for _ in range(group.order)] for _ in range(6)]
    for brace in enumerate_circ_ops(group)[:6]:
        lam = list(brace.lam.maps)
        assignments.append(lam)
        lam = lam[:]
        lam[-1] = rng.choice(auts)
        assignments.append(lam)
    for maps in assignments:
        facts = LambdaMap.of_automorphisms(group, maps)
        for anti, witness in ((False, facts.hom_witness), (True, facts.anti_witness)):
            assert witness == first_law_failure_by_index(table, tuples(maps), anti)


@pytest.mark.parametrize("group", GROUPS, ids=case_key)
def test_is_rb_and_derived_table_match_the_references(group):
    maps, perms = random_maps(group, 6, "rota")
    table = tuples(group.table)
    operators = [inversion_operator(group), bytes(group.order)]
    if group.order <= 6:
        operators += rb_self_maps(group)
    for b in maps + perms + operators:
        assert is_rb(group, b).witness == rb_first_failure_by_index(table, tuple(b))
        assert tuple(tuples(derived_table(group, b))) == derived_table_by_index(table, tuple(b))


@pytest.mark.parametrize("group", [g for g in GROUPS if g.order <= 6], ids=case_key)
def test_rb_self_maps_are_every_rota_baxter_self_map(group):
    from itertools import product

    table = tuples(group.table)
    everything = [m for m in product(range(group.order), repeat=group.order)
                  if rb_first_failure_by_index(table, m) is None]
    assert tuples(rb_self_maps(group)) == everything


# Two Rota-Baxter operators that are not endomorphisms, one of D8 and one of
# Q8, whose defects are central but not all trivial.
CENTRAL_DEFECTS = [(dihedral_group(4), (0, 1, 2, 3, 0, 3, 2, 1)),
                   (dicyclic_group(2), (0, 1, 2, 3, 4, 7, 6, 5))]


@pytest.mark.parametrize("group,b_map", CENTRAL_DEFECTS + [
    (g, b) for g in GROUPS if 6 < g.order <= 12 for b in rb_endomorphisms(g, endomorphisms(g))[:8]])
def test_center_conditions_match_the_full_scan(group, b_map):
    brace = rb_brace(group, b_map)
    symmetric, homomorphic = rb_center_conditions_by_scan(tuples(group.table), tuple(b_map))
    assert rb_symmetry_check(brace, b_map)["center_condition"] == symmetric
    assert rb_lambda_hom_check(brace, b_map)["center_condition"] == homomorphic
