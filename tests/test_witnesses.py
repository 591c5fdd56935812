"""The law checks made on generators return exactly what full scans return.

Each library check below tests its law against the generators of a group
and falls back to a full scan only on failure; the oracles scan every pair
or triple.  The inputs cover valid braces, every pair of small group
tables, law-breaking pairs, tables whose identity is not 0, malformed
tables, non-associative loops, where Light's test fails, and sets one
element off a subgroup, for the ideal check.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    all_subgroups_by_all_pairs_closure,
    case_key,
    endomorphisms_by_brute_force,
    first_associativity_triple,
    group_tables_identity_zero,
    homomorphisms_by_extension,
    is_ideal_by_full_scan,
    left_law_first_witness,
    loop_tables,
    multiplicative_by_full_scan,
    pushforward,
    right_law_first_witness,
    subgroup_closure_all_pairs,
    switched_cyclic_loop,
    trivial_quotient_by_all_pairs,
    tuples,
    verify_group_by_full_scan,
)
from skewbrace.braces import (
    enumerate_circ_ops,
    left_law_witness,
    right_law_witness,
    verify_brace,
)
from skewbrace.groups import (
    FiniteGroup,
    automorphism_group,
    coset_labels,
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
from skewbrace.structure import (
    all_ideals,
    all_subgroups,
    brace_automorphisms,
    is_ideal,
    trivial_quotient,
)

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


def sending_zero_to(rng, n, k):
    """A seeded permutation of range(n) with 0 -> k."""
    p = list(range(n))
    rng.shuffle(p)
    z = p.index(k)
    p[0], p[z] = p[z], p[0]
    return p


def assert_laws_match_full_scans(add, circ):
    """Both law checks, directly and through verify_brace, against the full-scan oracles."""
    left, right = left_law_first_witness(add, circ), right_law_first_witness(add, circ)
    assert left_law_witness(FiniteGroup(add), FiniteGroup(circ)) == left
    assert right_law_witness(FiniteGroup(add), FiniteGroup(circ)) == right
    report = verify_brace(add, circ)
    assert (report.left_witness, report.right_witness) == (left, right)
    return left


@pytest.mark.parametrize("n", range(1, 7))
def test_laws_on_every_pair_of_small_group_tables(n):
    # every ordered pair, so each pair is also checked as (circ, add)
    tables = group_tables_identity_zero(n)
    for add in tables:
        for circ in tables:
            assert_laws_match_full_scans(add, circ)


@pytest.mark.parametrize("n", range(3, 7))
def test_laws_on_pairs_with_two_identities_away_from_zero(n):
    rng = random.Random(n)
    tables = group_tables_identity_zero(n)
    for _ in range(60):
        i, j = rng.sample(range(1, n), 2)
        add = relabeled(rng.choice(tables), sending_zero_to(rng, n, i))
        circ = relabeled(rng.choice(tables), sending_zero_to(rng, n, j))
        assert assert_laws_match_full_scans(add, circ) is not None    # one identity each
        assert assert_laws_match_full_scans(circ, add) is not None


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
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(bytes),
    ))
    dst = draw(st.sampled_from([group.table, group.columns]))
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


@pytest.mark.parametrize("group", CATALOG, ids=case_key)
def test_all_subgroups_matches_all_pairs_closure(group):
    assert all_subgroups(group) == all_subgroups_by_all_pairs_closure(group.table)


@pytest.mark.parametrize("group", [g for g in CATALOG if g.order <= 6], ids=case_key)
def test_homomorphism_search_matches_all_self_maps(group):
    brute = endomorphisms_by_brute_force(group.table)
    assert tuples(endomorphisms(group)) == brute
    assert tuples(automorphism_group(group)) == \
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


@pytest.mark.parametrize("group", CATALOG + ORDER_16, ids=case_key)
def test_homomorphism_search_matches_extension_by_closure(group):
    assert tuples(endomorphisms(group)) == homomorphisms_by_extension(group, group, False)
    assert tuples(group_isomorphisms(group, group)) == homomorphisms_by_extension(group, group, True)
    # onto a copy relabeled by reversing the non-identity labels
    p = (0,) + tuple(range(group.order - 1, 0, -1))
    copy = FiniteGroup(relabeled(group.table, p))
    assert tuples(group_isomorphisms(group, copy)) == homomorphisms_by_extension(group, copy, True)
    assert tuples(group_isomorphisms(copy, group)) == homomorphisms_by_extension(copy, group, True)


class Label(int):
    """An int subclass: verify_group takes it as an integer entry."""


def _edited(table, edits):
    rows = [list(row) for row in table]
    for a, b, v in edits:
        rows[a][b] = v
    return rows


Z4 = cyclic_group(4).table
MALFORMED_TABLES = {
    "empty": [],
    "ragged": [[0, 1], [1]],
    "bools": [[False, True], [True, False]],
    "int_subclass": _edited(Z4, [(2, 3, Label(1))]),
    "int_subclass_group": [[Label(x) for x in row] for row in Z4],
    "floats": [[float(x) for x in row] for row in Z4],
    "one_float": _edited(Z4, [(3, 3, 2.0)]),
    "out_of_range": _edited(Z4, [(1, 2, 4)]),
    "negative": _edited(Z4, [(0, 0, -1)]),
    "repeated_row": [Z4[0], Z4[1], Z4[1], Z4[3]],
    "repeated_column": _edited(Z4, [(1, 0, 2), (1, 1, 1)]),
    "repeated_column_identity_intact": _edited(Z4, [(2, 1, 1), (2, 3, 3)]),
    "no_identity": [[(a + b + 1) % 3 for b in range(3)] for a in range(3)],
    "identity_row_bad_column": [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
    "identity_row_away_from_zero": [[1, 2, 0], [0, 1, 2], [2, 0, 1]],
    "no_inverse": [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
}


@pytest.mark.parametrize("name", MALFORMED_TABLES)
def test_verify_group_matches_full_scan_on_malformed_tables(name):
    table = MALFORMED_TABLES[name]
    check = verify_group(table)
    assert check == verify_group_by_full_scan(table)
    # an accepted table holds plain ints, whatever int subclass it came in
    assert check.group is None or {type(x) for row in check.group.table for x in row} == {int}


@pytest.mark.parametrize("group", CATALOG + ORDER_16, ids=case_key)
def test_verify_group_matches_full_scan_on_relabeled_groups(group):
    rng = random.Random(case_key(group))
    n = group.order
    for k in range(n):
        table = relabeled(group.table, sending_zero_to(rng, n, k))
        assert verify_group(table) == verify_group_by_full_scan(table)
        # rows in reverse order: a Latin square whose identity row sits elsewhere
        assert verify_group(table[::-1]) == verify_group_by_full_scan(table[::-1])


@pytest.mark.parametrize("table", loop_tables(5) + tuple(
    switched_cyclic_loop(n, a, b) for n in (6, 8) for a in (1, 2) for b in (1, 2)))
def test_verify_group_matches_full_scan_on_loops(table):
    n = len(table)
    for k in range(n):
        moved = relabeled(table, sending_zero_to(random.Random(k), n, k))
        assert verify_group(moved) == verify_group_by_full_scan(moved)


def one_element_off(subgroup, n):
    """Every set that is the subgroup with one element taken out or put in."""
    for x in range(n):
        yield tuple(y for y in subgroup if y != x) if x in subgroup else subgroup + (x,)


@pytest.mark.parametrize("i", range(len(CATALOG)), ids=lambda i: case_key(CATALOG[i]))
def test_is_ideal_matches_full_scan(i):
    for brace in braces_over(i):
        for subgroup in all_subgroups(brace.add):
            for members in (subgroup, *one_element_off(subgroup, brace.order)):
                assert is_ideal(brace, members) == is_ideal_by_full_scan(brace, members)


# ---------------------------------------------------------------------------
# Brace automorphisms and ideals, against searches that prune nothing


@lru_cache(maxsize=None)
def additive_automorphisms_by_extension(add):
    return homomorphisms_by_extension(add, add, True)


@lru_cache(maxsize=None)
def additive_subgroups_by_all_pairs_closure(add):
    return all_subgroups_by_all_pairs_closure(add.table)


@lru_cache(maxsize=None)
def braces_over_order_16():
    """Every brace over D16 and Q16, relabeled by one of four seeded permutations fixing 0."""
    rng = random.Random(16)
    found = []
    for group in (dihedral_group(8), dicyclic_group(4)):
        perms = [sending_zero_to(rng, 16, 0) for _ in range(4)]
        found += [pushforward(brace, perms[k % 4])
                  for k, brace in enumerate(enumerate_circ_ops(group))]
    return tuple(found)


def assert_structure_matches_oracles(brace):
    add, circ = brace.add, brace.circ.table
    assert tuples(brace_automorphisms(brace)) == [
        m for m in additive_automorphisms_by_extension(add)
        if multiplicative_by_full_scan(circ, circ, m)]
    ideals = all_ideals(brace)
    assert ideals == [
        s for s in additive_subgroups_by_all_pairs_closure(add)
        if is_ideal_by_full_scan(brace, s).is_ideal]
    for small in ideals:
        for big in ideals:
            if set(small) < set(big):
                assert trivial_quotient(brace, big, coset_labels(add, small)) == \
                    trivial_quotient_by_all_pairs(brace, set(small), big), (small, big)


@pytest.mark.parametrize("i", range(len(CATALOG)), ids=lambda i: case_key(CATALOG[i]))
def test_brace_automorphisms_and_ideals_match_oracles(i):
    for brace in braces_over(i):
        assert_structure_matches_oracles(brace)


def test_brace_automorphisms_and_ideals_match_oracles_at_order_16():
    found = braces_over_order_16()
    assert len({b.add.table for b in found}) == 8
    for brace in found:
        assert_structure_matches_oracles(brace)


def test_automorphisms_and_endomorphisms_of_z2_to_the_4():
    z2 = cyclic_group(2)
    group = direct_product(direct_product(direct_product(z2, z2), z2), z2)
    assert len(automorphism_group(group)) == 20160     # |GL(4, 2)|
    assert len(endomorphisms(group)) == 65536          # 2^16 matrices over F2
