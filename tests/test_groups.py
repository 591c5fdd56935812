from itertools import permutations

import pytest

from oracles import case_key, nilpotency_class, regular_subgroups_by_closure
from skewbrace import groups
from skewbrace.errors import InvalidGroup, OrderCapExceeded
from skewbrace.groups import (
    automorphism_group,
    build_holomorph,
    compose,
    derived_subgroup,
    group_from_json,
    group_from_permutations,
    group_isomorphisms,
    is_multiplicative,
    small_group_catalog,
    subgroup_closure_in,
    verify_group,
)


def brute_force_automorphisms(g):
    """Oracle: scan all |G|! permutations for the homomorphism law."""
    found = []
    for p in permutations(range(g.order)):
        if all(p[g.table[a][b]] == g.table[p[a]][p[b]]
               for a in range(g.order) for b in range(g.order)):
            found.append(p)
    return sorted(found)


# --- verify_group ---------------------------------------------------------


def test_trivial_table():
    check = verify_group([[0]])
    assert check.ok and check.group.order == 1


def test_z4_table_valid(z4):
    check = verify_group(z4.table)
    assert check.ok
    assert check.group.table == z4.table
    assert check.relabeling == (0, 1, 2, 3)


def test_corrupt_z4_not_latin(z4):
    bad = [list(r) for r in z4.table]
    bad[1][1] = 1
    check = verify_group(bad)
    assert not check.ok
    codes = {v.code for v in check.violations}
    assert "not_latin_square" in codes
    assert ("row", 1) in [v.witness for v in check.violations]


def test_no_identity_reported():
    # latin square whose only row identity is not a column identity
    bad = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    check = verify_group(bad)
    assert not check.ok
    assert "no_identity" in {v.code for v in check.violations}


def test_not_associative_witness():
    # latin with identity 0 but non-associative (order 5 quasigroup)
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    check = verify_group(t)
    assert not check.ok
    v = next(v for v in check.violations if v.code == "not_associative")
    a, b, c = v.witness
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_identity_relabeled_to_zero(z3):
    # relabel Z3 so that the identity sits at index 2
    perm = (2, 0, 1)  # old -> new
    inv = (1, 2, 0)
    shuffled = [[perm[z3.table[inv[a]][inv[b]]] for b in range(3)] for a in range(3)]
    assert shuffled[2] == [0, 1, 2]  # label 2 is now the identity's row
    check = verify_group(shuffled)
    assert check.ok
    assert check.group.table == z3.table
    # old identity label was perm[0] = 2; it must map back to 0
    assert check.relabeling[2] == 0


@pytest.mark.parametrize("identity", [0, 5])
def test_verified_group_columns_are_its_transpose(monkeypatch, identity):
    # with the identity at 0, verify_group hands the columns it checked to the group
    d8 = groups.dihedral_group(4)
    swap = list(range(8))
    swap[0], swap[identity] = identity, 0
    table = [[swap[d8.table[swap[a]][swap[b]]] for b in range(8)] for a in range(8)]
    check = verify_group(table)
    transposed = []
    transpose = groups.transpose
    monkeypatch.setattr(groups, "transpose", lambda t: transposed.append(t) or transpose(t))
    group = check.group
    n = group.order
    assert group.columns == tuple(bytes(group.table[a][b] for a in range(n)) for b in range(n))
    assert len(transposed) == (identity != 0)


def test_no_inverse_reported():
    check = verify_group([[0, 1], [1, 1]])
    assert not check.ok
    codes = {v.code for v in check.violations}
    assert "no_inverse" in codes and "not_latin_square" in codes


def test_non_square_rejected():
    assert not verify_group([[0, 1], [1]]).ok
    assert not verify_group([]).ok
    assert not verify_group([[0, 7], [1, 0]]).ok


# --- element machinery ----------------------------------------------------


def test_inverse_and_orders(s3, z4):
    for g in (s3, z4):
        for a in range(g.order):
            assert g.table[a][g.inverse[a]] == 0
            assert g.order % g.element_order(a) == 0


def test_opposite_group(s3):
    op = s3.opposite()
    assert verify_group(op.table).ok
    assert op.table != s3.table  # non-abelian
    assert op.opposite().table == s3.table


def test_dicyclic_is_q8(q8):
    assert q8.order == 8
    orders = sorted(q8.element_order(a) for a in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # unique involution


# --- automorphisms --------------------------------------------------------


def test_automorphisms_z3(z3):
    auts = automorphism_group(z3)
    assert list(auts) == [bytes((0, 1, 2)), bytes((0, 2, 1))]
    assert auts[0] == bytes(range(3))  # identity first


def test_automorphisms_trivial():
    auts = automorphism_group(groups.trivial_group())
    assert len(auts) == 1


def test_automorphisms_s3_all_inner(s3):
    auts = automorphism_group(s3)
    assert len(auts) == 6
    inner = set(s3.inner)
    assert set(auts) == inner


@pytest.mark.parametrize("maker", [
    lambda: groups.cyclic_group(2),
    lambda: groups.cyclic_group(3),
    lambda: groups.cyclic_group(4),
    lambda: groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2)),
    lambda: groups.cyclic_group(6),
    lambda: groups.symmetric_group(3),
    lambda: groups.dihedral_group(4),
    lambda: groups.dicyclic_group(2),
])
def test_automorphisms_match_brute_force(maker):
    g = maker()
    auts = [tuple(f) for f in automorphism_group(g)]
    assert auts == brute_force_automorphisms(g)


def test_automorphism_search_builds_no_group(monkeypatch):
    d8 = groups.dihedral_group(4)
    built = []
    init = groups.FiniteGroup.__init__

    def recording_init(self, table, name=""):
        init(self, table, name)
        built.append(self.order)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", recording_init)
    auts = automorphism_group(d8)
    assert len(auts) == 8 and built == []


def test_identity_read_off_a_raw_table():
    # Z3 with identity 2: 2 + 2 = 2 and 0 + 1 = 2
    g = groups.FiniteGroup([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert g.identity == 2
    assert g.inverse == bytes((1, 0, 2))
    assert groups.cyclic_group(5).identity == 0


def test_automorphism_group_closed(d4):
    auts = automorphism_group(d4)
    as_set = set(auts)
    for f in auts:
        for g in auts:
            assert compose(f, g) in as_set
        assert groups.invert_permutation(f) in as_set


def test_automorphism_cap():
    with pytest.raises(OrderCapExceeded):
        automorphism_group(groups.cyclic_group(30))


@pytest.mark.parametrize("group", [g for g in groups.small_group_catalog(12) if g.order > 6],
                         ids=case_key)
def test_automorphisms_are_the_bijective_endomorphisms(group):
    # rota.rb_search takes Aut(G) so above the self-map order: same maps, same order, identity first
    endos = groups.endomorphisms(group)
    assert [e for e in endos if len(set(e)) == group.order] == list(groups.automorphism_group(group))


def test_endomorphism_enumeration(z4, s3):
    from skewbrace.groups import endomorphisms

    z4_endos = endomorphisms(z4)
    assert z4_endos == sorted(bytes((k * x) % 4 for x in range(4)) for k in range(4))
    # S3: six automorphisms, three sign maps onto transposition subgroups, one trivial
    assert len(endomorphisms(s3)) == 10


# --- structure ------------------------------------------------------------


def test_structure_s3(s3):
    assert s3.center == (0,)
    assert len(derived_subgroup(s3)) == 3
    assert len(set(s3.inner)) == 6


def test_structure_z4(z4):
    assert z4.center == (0, 1, 2, 3)
    assert derived_subgroup(z4) == (0,)


def test_structure_d4(d4):
    assert len(d4.center) == 2
    assert len(derived_subgroup(d4)) == 2
    assert set(derived_subgroup(d4)) <= set(d4.center)


def test_inner_count_is_index_of_center():
    for g in small_group_catalog(12):
        assert len(set(g.inner)) == g.order // len(g.center)


def test_nilpotency_class(d4, d16, s3, z4):
    assert nilpotency_class(z4) == 1
    assert nilpotency_class(d4) == 2
    assert nilpotency_class(d16) == 3
    assert nilpotency_class(s3) is None


# --- holomorph ------------------------------------------------------------


def test_holomorph_z3(z3):
    hol = build_holomorph(z3)
    assert hol.group.order == 6
    assert verify_group(hol.group.table).ok
    assert hol.group.table != hol.group.columns


def test_holomorph_trivial():
    hol = build_holomorph(groups.trivial_group())
    assert hol.group.order == 1


def test_holomorph_z4(z4):
    hol = build_holomorph(z4)
    assert hol.group.order == 8
    assert verify_group(hol.group.table).ok


def test_holomorph_product_law(s3):
    hol = build_holomorph(s3)
    auts = hol.automorphisms
    n = s3.order
    for fi in (0, 2, 5):
        for a in (1, 4):
            for gi in (1, 3):
                for b in (2, 5):
                    lhs = hol.group.table[fi * n + a][gi * n + b]
                    fgi = auts.index(compose(auts[fi], auts[gi]))
                    assert lhs == fgi * n + s3.table[a][auts[fi][b]]


def test_holomorph_s3_passes_verification(s3):
    hol = build_holomorph(s3)
    assert hol.group.order == 36
    assert verify_group(hol.group.table).ok


def test_holomorph_cap(z4, monkeypatch):
    monkeypatch.setattr(groups, "MAX_HOLOMORPH_ORDER", 4)
    with pytest.raises(OrderCapExceeded):
        build_holomorph(z4)


def test_holomorph_table_bound():
    z2 = groups.cyclic_group(2)
    cube = groups.direct_product(groups.direct_product(z2, z2), z2)
    with pytest.raises(OrderCapExceeded, match="holomorph order 1344 exceeds the table bound of 256"):
        build_holomorph(cube)


def test_subgroup_closure_cases(z4):
    hol = build_holomorph(z4)
    assert subgroup_closure_in(hol.group, ()) == (0,)
    # seeds = one translation generator -> the four translations
    assert subgroup_closure_in(hol.group, (1,)) == (0, 1, 2, 3)
    everything = subgroup_closure_in(hol.group, tuple(range(hol.group.order)))
    assert everything == tuple(range(hol.group.order))
    translations = subgroup_closure_in(hol.group, (1,))
    assert subgroup_closure_in(hol.group, translations) == translations


def test_translation_subgroup_regular():
    for g in (groups.cyclic_group(4), groups.symmetric_group(3)):
        hol = build_holomorph(g)
        trans = subgroup_closure_in(hol.group, tuple(range(g.order)))  # the pairs (id, a)
        assert trans == tuple(range(g.order))
        assert trans in regular_subgroups_by_closure(g)


def test_regularity_affine_examples(z4):
    # inside Hol(Z4): automorphisms are id and inversion (index 1); (f, a) is f * 4 + a
    hol = build_holomorph(z4)
    inv_idx = hol.automorphisms.index(bytes((0, 3, 2, 1)))
    # {x, x+2, 3x, 3x+2}: second coordinates repeat
    s1 = subgroup_closure_in(hol.group, (2, inv_idx * 4))
    assert sorted(i % 4 for i in s1) == [0, 0, 2, 2]
    assert s1 not in regular_subgroups_by_closure(z4)
    # {x, x+2, 3x+1, 3x+3}: distinct second coordinates
    s2 = subgroup_closure_in(hol.group, (2, inv_idx * 4 + 1))
    assert sorted(i % 4 for i in s2) == [0, 1, 2, 3]
    assert s2 in regular_subgroups_by_closure(z4)


# --- ingestion ------------------------------------------------------------


def test_group_from_permutations_s3():
    g = group_from_permutations([groups.parse_cycles("(1 2)", 3),
                                 groups.parse_cycles("(1 2 3)", 3)], 3)
    assert g.order == 6
    assert group_isomorphisms(g, groups.symmetric_group(3))


def test_group_from_permutations_stops_at_the_order_cap():
    s4 = [groups.parse_cycles("(1 2)", 4), groups.parse_cycles("(1 2 3 4)", 4)]
    assert group_from_permutations(s4, 4, max_order=24).order == 24
    with pytest.raises(OrderCapExceeded):
        group_from_permutations(s4, 4, max_order=23)
    s5 = {"degree": 5, "generators": ["(1 2)", "(1 2 3 4 5)"]}
    with pytest.raises(OrderCapExceeded):
        group_from_json(s5)
    assert group_from_json(s5, max_order=120).order == 120


def test_group_from_permutations_cap_below_one_still_stops():
    # a cap the closure has passed before its first check must still stop it
    s4 = [groups.parse_cycles("(1 2)", 4), groups.parse_cycles("(1 2 3 4)", 4)]
    for cap in (0, -5):
        with pytest.raises(OrderCapExceeded):
            group_from_permutations(s4, 4, max_order=cap)


def test_group_from_json_generators():
    g = group_from_json({"name": "V", "degree": 4,
                         "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]})
    assert g.order == 4
    assert g.table == g.columns
    assert all(g.element_order(a) <= 2 for a in range(4))


def test_group_from_json_table_normalizes():
    # Z2 written with identity at label 1
    g = group_from_json({"name": "swapped", "order": 2, "table": [[0, 1], [1, 0]]})
    assert g.table == (bytes((0, 1)), bytes((1, 0)))


def test_group_from_json_rejects_garbage():
    with pytest.raises(InvalidGroup):
        group_from_json({"order": 2, "table": [[0, 1], [0, 1]]})


def test_parse_cycles_rejects_bad_input():
    with pytest.raises(InvalidGroup):
        groups.parse_cycles("(1 5)", 3)
    with pytest.raises(InvalidGroup):
        groups.parse_cycles("nonsense", 3)


# --- catalog / emitted values always re-verify ----------------------------


def test_catalog_orders():
    cat = small_group_catalog(12)
    assert [g.order for g in cat] == sorted(g.order for g in cat)
    from collections import Counter

    counts = Counter(g.order for g in cat)
    assert counts == Counter({1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1,
                              8: 5, 9: 2, 10: 2, 11: 1, 12: 5})
    for g in cat:
        assert verify_group(g.table).ok
    # catalog entries are pairwise non-isomorphic
    for i, g in enumerate(cat):
        for h in cat[i + 1:]:
            if g.order == h.order:
                assert not group_isomorphisms(g, h)


def test_subgroup_closure_in_plain_group(s3):
    assert subgroup_closure_in(s3, ()) == (0,)
    three = derived_subgroup(s3)
    assert subgroup_closure_in(s3, three) == three


def test_self_map_flags(z4, s3):
    inv = bytes((0, 3, 2, 1))
    assert is_multiplicative(z4, z4.table, inv) and len(set(inv)) == 4    # an automorphism
    assert is_multiplicative(z4, z4.columns, inv)                         # and anti-homomorphic
    conj_inv = s3.inner[s3.inverse[1]]
    assert is_multiplicative(s3, s3.table, conj_inv) and len(set(conj_inv)) == 6
    assert not is_multiplicative(z4, z4.table, bytes((0, 1, 1, 1)))        # not an endomorphism
