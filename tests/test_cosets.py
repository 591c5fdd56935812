"""Every condition modulo a subgroup, decided by coset labels, against the scans it replaced.

groups.coset_labels names each left coset x K by its least element. The
kernel conditions of construct_from_lambda, the cross kernels of
link_conditions, the endomorphism-mod-centre check of construct_unification,
quotients and sub-braces are compared here with the pair scans and the
verify_group path of tests/oracles.py, on seeded inputs that pass and fail.
"""

import random
from functools import lru_cache

import pytest

from oracles import (
    anti_kernel_witness_by_scan,
    case_key,
    endomorphism_mod_center_failure_by_scan,
    kernel_witness_by_scan,
    pushforward,
    quotient_brace_by_verify_group,
    sub_brace_by_verify_group,
    tuples,
)
from skewbrace import structure
from skewbrace.braces import (
    LambdaMap,
    construct_from_lambda,
    construct_unification,
    enumerate_circ_ops,
)
from skewbrace.errors import (
    CriterionMismatch,
    KernelConditionFails,
    NotEndomorphismModCenter,
)
from skewbrace.groups import (
    _right_closure,
    automorphism_group,
    compose,
    coset_labels,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    small_group_catalog,
)
from skewbrace.structure import (
    IdealReport,
    all_ideals,
    all_subgroups,
    quotient_brace,
)

CATALOG = small_group_catalog(12)
BY_NAME = {g.name: g for g in CATALOG}


@lru_cache(maxsize=None)
def braces_over(group):
    return enumerate_circ_ops(group)


@pytest.mark.parametrize("group", CATALOG, ids=case_key)
def test_coset_labels_name_left_cosets_by_their_least_element(group):
    t = group.table
    for members in all_subgroups(group):
        labels = coset_labels(group, members)
        for x in range(group.order):
            coset = {t[x][k] for k in members}
            assert labels[x] == min(coset)
            assert {y for y in range(group.order) if labels[y] == labels[x]} == coset


def walk_assignments(group, rng, anti, count):
    """Distinct assignments a -> lambda_a into Aut(G) that are (anti-)homomorphisms of (G, .).

    Each draws one automorphism per generator of the group's walk and
    extends along the walk's steps y = x g by lambda_y = lambda_x lambda_g,
    or lambda_g lambda_x for anti; only draws that are then (anti-)
    homomorphisms everywhere are kept.
    """
    auts = automorphism_group(group)
    members, gens, steps = _right_closure(group.table, 0, range(group.order))
    found = {}
    for _ in range(count):
        chosen = {g: rng.choice(auts) for g in gens}
        maps = [auts[0]] * group.order
        for y, (x, g) in zip(members[1:], steps):
            maps[y] = compose(chosen[g], maps[x]) if anti else compose(maps[x], chosen[g])
        facts = LambdaMap.of_automorphisms(group, maps)
        if (facts.anti_witness if anti else facts.hom_witness) is None:
            found[tuple(maps)] = facts
    return list(found.values())


@pytest.mark.parametrize("anti", [False, True], ids=["homomorphic", "anti_homomorphic"])
def test_kernel_witnesses_match_the_pair_scans(anti):
    scan = anti_kernel_witness_by_scan if anti else kernel_witness_by_scan
    mode = "anti_homomorphic" if anti else "homomorphic"
    rng = random.Random(f"kernel:{mode}")
    seen = failing = 0
    for group in CATALOG:
        for facts in walk_assignments(group, rng, anti, 150):
            expected = scan(tuples(group.table), tuples(facts.maps), facts.kernel)
            assert facts.kernel_witness(facts.kernel, conjugated=anti) == expected
            if expected is None:
                brace = construct_from_lambda(group, tuples(facts.maps), mode)
                assert brace.lam.maps == facts.maps
            else:
                with pytest.raises(KernelConditionFails) as caught:
                    construct_from_lambda(group, tuples(facts.maps), mode)
                assert caught.value.witness == expected
                failing += 1
            seen += 1
    assert seen > 200 and failing > 100


@pytest.mark.parametrize("group", [g for g in CATALOG if len(braces_over(g)) <= 64],
                         ids=case_key)
def test_cross_kernel_witnesses_match_the_pair_scan(group):
    # over S3, D10, D12, A4 and Dic12 some Ker lambda is not normal in (G, .)
    found = braces_over(group)
    table = tuples(group.table)
    for first in found:
        for second in found:
            kernel = first.lam.kernel
            assert second.lam.kernel_witness(kernel) == \
                kernel_witness_by_scan(table, tuples(second.lam.maps), kernel)


def test_some_cross_kernel_is_not_normal():
    # the groups of the test above include kernels whose left and right cosets differ
    for group in map(BY_NAME.get, ("S3", "D10", "D12", "A4", "Dic12")):
        kernels = {b.lam.kernel for b in braces_over(group)}
        assert any(not structure._is_normal_subgroup(group, set(k))[0] for k in kernels), group


@pytest.mark.parametrize("group", [dihedral_group(4), dicyclic_group(2),
                                   direct_product(dihedral_group(4), cyclic_group(2))],
                         ids=case_key)
def test_endomorphism_mod_center_failure_matches_the_pair_scan(group):
    rng = random.Random(f"unification:{case_key(group)}")
    n = group.order
    zero = [[0] * n for _ in range(n)]
    center = group.center
    checked = 0
    for _ in range(150):
        f = [rng.randrange(n) for _ in range(n)]
        expected = endomorphism_mod_center_failure_by_scan(tuples(group.table), center, f)
        try:
            construct_unification(group, f, zero, 1)
        except NotEndomorphismModCenter as exc:
            assert str(exc) == f"f fails at pair {expected}"
            checked += 1
        else:
            assert expected is None
    assert checked > 20


@lru_cache(maxsize=None)
def braces_up_to_order_8():
    """Every labeled brace over the catalogue groups of order <= 8, and each relabeled by a seeded permutation."""
    rng = random.Random(8)
    found = []
    for group in small_group_catalog(8):
        for brace in braces_over(group):
            rest = list(range(1, group.order))
            rng.shuffle(rest)
            found += [brace, pushforward(brace, [0] + rest)]
    return found


def test_quotients_and_sub_braces_match_the_verify_group_path():
    pairs = 0
    for brace in braces_up_to_order_8():
        for ideal in all_ideals(brace):
            quotient = quotient_brace(brace, structure.is_ideal(brace, ideal))
            reference = quotient_brace_by_verify_group(brace, ideal)
            assert (quotient.add.table, quotient.circ.table) == \
                (reference.add.table, reference.circ.table)
            # an ideal is a sub-brace, whose lambda is the brace's lambda restricted to it
            index = {x: i for i, x in enumerate(ideal)}
            part = sub_brace_by_verify_group(brace, ideal)
            assert part.lam.maps == tuple(bytes(index[brace.lam.maps[a][b]] for b in ideal) for a in ideal)
            pairs += 1
    assert pairs > 2000


def test_quotient_cross_check_refuses_every_normal_subgroup_that_is_not_an_ideal():
    # with a report that calls them ideals, only the cross-checks of quotient_brace stand in the way
    refused = 0
    for group in small_group_catalog(8):
        normal = [s for s in all_subgroups(group) if structure._is_normal_subgroup(group, set(s))[0]]
        for brace in braces_over(group):
            for members in normal:
                if structure.is_ideal(brace, members).is_ideal:
                    continue
                with pytest.raises(CriterionMismatch):
                    quotient_brace(brace, IdealReport(members, True, True, True))
                refused += 1
    assert refused > 1000
