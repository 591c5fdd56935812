"""The law checks made on generators return exactly what full scans return.

Each library check below tests its law against the generators of a group
and falls back to a full scan only on failure; the oracles scan every pair
or triple.  The inputs cover valid braces, law-breaking pairs, tables whose
identity is not 0 and non-associative loops, where Light's test fails.
"""

from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_subgroups_by_all_pairs_closure,
    endomorphisms_by_brute_force,
    first_associativity_triple,
    homomorphisms_by_extension,
    left_law_first_witness,
    loop_tables,
    multiplicative_by_full_scan,
    right_law_first_witness,
    subgroup_closure_all_pairs,
    switched_cyclic_loop,
)
from skewbrace.braces import enumerate_circ_ops, left_law_witness, right_law_witness, verify_brace
from skewbrace.groups import (
    FiniteGroup,
    automorphism_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    endomorphisms,
    group_isomorphisms,
    is_multiplicative,
    small_group_catalog,
    subgroup_closure_in,
    verify_group,
)
from skewbrace.structure import all_subgroups

CATALOG = small_group_catalog(12)


@lru_cache(maxsize=None)
def braces_over(i):
    return enumerate_circ_ops(CATALOG[i])


@st.composite
def braces(draw):
    i = draw(st.integers(0, len(CATALOG) - 1))
    found = braces_over(i)
    return found[draw(st.integers(0, len(found) - 1))]


def relabeled(table, p):
    """The table with every label x renamed p[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[table[a][b]]
    return tuple(tuple(row) for row in out)


def fixing_zero(n):
    return st.permutations(range(1, n)).map(lambda rest: (0,) + tuple(rest))


@given(braces())
def test_laws_on_valid_braces(brace):
    add, circ = brace.add, brace.circ
    assert left_law_witness(add, circ) is None is left_law_first_witness(add.table, circ.table)
    assert right_law_witness(add, circ) == right_law_first_witness(add.table, circ.table)
    # the direct symmetry check of classify: often a failing pair
    assert left_law_witness(circ, add) == left_law_first_witness(circ.table, add.table)


@given(st.data())
def test_laws_on_pairs_with_a_relabeled_circ(data):
    brace = data.draw(braces())
    p = data.draw(fixing_zero(brace.order))
    add, circ = brace.add, FiniteGroup(relabeled(brace.circ.table, p))
    assert left_law_witness(add, circ) == left_law_first_witness(add.table, circ.table)
    assert right_law_witness(add, circ) == right_law_first_witness(add.table, circ.table)
    assert left_law_witness(circ, add) == left_law_first_witness(circ.table, add.table)


@given(st.data())
def test_laws_on_tables_whose_identity_is_not_zero(data):
    brace = data.draw(braces())
    n = brace.order
    p = data.draw(fixing_zero(n))
    q = data.draw(st.permutations(range(n)))
    add = relabeled(brace.add.table, q)
    circ = relabeled(relabeled(brace.circ.table, p), q)
    report = verify_brace(add, circ)
    assert report.left_witness == left_law_first_witness(add, circ)
    assert report.right_witness == right_law_first_witness(add, circ)
    assert verify_group(add).ok and verify_group(circ).ok


loops = st.one_of(
    st.sampled_from(loop_tables(5)),
    st.builds(switched_cyclic_loop, st.sampled_from([6, 8, 10, 12]), st.integers(1, 2),
              st.integers(1, 2)),
)


@given(st.data())
def test_associativity_witness_on_loops(data):
    loop = data.draw(loops)
    table = relabeled(loop, data.draw(st.permutations(range(len(loop)))))
    witness = first_associativity_triple(table)
    check = verify_group(table)
    assert check.ok == (witness is None)
    if witness is not None:
        assert [(v.code, v.witness) for v in check.violations] == [("not_associative", witness)]


def test_loops_cover_both_sides_of_light_test():
    verdicts = {first_associativity_triple(t) is None for t in loop_tables(5)}
    verdicts |= {first_associativity_triple(switched_cyclic_loop(8, 1, 1)) is None}
    assert verdicts == {True, False}


@st.composite
def maps(draw):
    group = CATALOG[draw(st.integers(0, len(CATALOG) - 1))]
    n = group.order
    images = draw(st.one_of(
        st.sampled_from(endomorphisms(group)),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
    ))
    dst = draw(st.sampled_from([group.table, tuple(zip(*group.table))]))
    return group, dst, images


@given(maps())
def test_is_multiplicative_matches_full_scan(case):
    group, dst, images = case
    assert is_multiplicative(group, dst, images) == \
        multiplicative_by_full_scan(group.table, dst, images)


@given(st.data())
def test_subgroup_closure_matches_all_pairs_closure(data):
    group = CATALOG[data.draw(st.integers(0, len(CATALOG) - 1))]
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    assert subgroup_closure_in(group, seeds) == subgroup_closure_all_pairs(group.table, seeds)


@pytest.mark.parametrize("group", CATALOG, ids=lambda g: g.name)
def test_all_subgroups_matches_all_pairs_closure(group):
    assert all_subgroups(group) == all_subgroups_by_all_pairs_closure(group.table)


@pytest.mark.parametrize("group", [g for g in CATALOG if g.order <= 6], ids=lambda g: g.name)
def test_homomorphism_search_matches_all_self_maps(group):
    brute = endomorphisms_by_brute_force(group.table)
    assert endomorphisms(group) == brute
    assert list(automorphism_group(group)) == \
        [m for m in brute if len(set(m)) == group.order]


ORDER_16 = [
    cyclic_group(16),
    direct_product(cyclic_group(8), cyclic_group(2)),
    dihedral_group(8),
    dicyclic_group(4),
    direct_product(cyclic_group(4), cyclic_group(4)),
    direct_product(direct_product(cyclic_group(4), cyclic_group(2)), cyclic_group(2),
                   name="Z4xZ2xZ2"),
]


@pytest.mark.parametrize("group", CATALOG + ORDER_16, ids=lambda g: g.name)
def test_homomorphism_search_matches_extension_by_closure(group):
    assert endomorphisms(group) == homomorphisms_by_extension(group, group, False)
    assert group_isomorphisms(group, group) == homomorphisms_by_extension(group, group, True)
    # onto a copy relabeled by reversing the non-identity labels
    p = (0,) + tuple(range(group.order - 1, 0, -1))
    copy = FiniteGroup(relabeled(group.table, p))
    assert group_isomorphisms(group, copy) == homomorphisms_by_extension(group, copy, True)
    assert group_isomorphisms(copy, group) == homomorphisms_by_extension(copy, group, True)
