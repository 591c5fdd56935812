import random
import re

import pytest

from oracles import (
    AdditiveTablesDiffer,
    bilinearity_failure_by_scan,
    brace_isomorphic,
    brute_force_circ_tables,
    case_key,
    circ_orbits_by_relabeling,
    classification_by_scan,
    compose_by_index,
    cross_compatibility_check,
    holomorph_members,
    inversion_operator,
    isomorphism_classes_by_orbit,
    link_check,
    opposite_symmetry_check,
    pushforward,
    regular_subgroup_count_by_lambda_walk,
    regular_subgroups_by_closure,
    transported_closure,
    tuples,
)
from skewbrace import braces, groups, rota, structure, systems
from skewbrace.braces import (
    SkewBrace,
    brace_from_json,
    brace_to_json,
    classify,
    construct_exact_factorization,
    construct_from_lambda,
    construct_unification,
    enumerate_circ_ops,
    op_brace,
    opposite,
    trivial_brace,
    verify_brace,
)
from skewbrace.errors import (
    CriterionMismatch,
    ImageNotAbelianModCenter,
    InvalidGroup,
    KernelConditionFails,
    LambdaNotAutomorphism,
    NotAntiHomomorphism,
    NotBilinear,
    NotEndomorphismModCenter,
    NotExactFactorization,
    NotHomomorphism,
    OrderCapExceeded,
    PreconditionFails,
)
from skewbrace.groups import compose, invert_permutation


def inversion_brace(z4):
    """(Z4, +, o) with lambda_a = inversion^a, so a o b = a + (-1)^a b."""
    inv = (0, 3, 2, 1)
    lam = [tuple(range(4)) if a % 2 == 0 else inv for a in range(4)]
    return construct_from_lambda(z4, lam, "homomorphic")


@pytest.fixture(scope="module")
def z4_inversion():
    return inversion_brace(groups.cyclic_group(4))


# --- lambda ----------------------------------------------------------------


def test_lambda_trivial(z4):
    lam = trivial_brace(z4).lam
    assert lam.kernel == (0, 1, 2, 3)
    assert lam.image_order == 1 and lam.image_exponent == 1
    assert lam.homomorphic_on_add and lam.anti_homomorphic_on_add


def test_lambda_op_brace_is_conjugation(s3):
    brace = op_brace(s3)
    lam = brace.lam
    for a in range(6):
        expected = bytes(s3.table[s3.table[s3.inverse[a]][b]][a] for b in range(6))
        assert lam.maps[a] == expected
    assert lam.anti_homomorphic_on_add
    assert not lam.homomorphic_on_add
    assert lam.kernel == (0,)  # centerless


def test_lambda_inversion_brace(z4_inversion):
    lam = z4_inversion.lam
    assert lam.kernel == (0, 2)
    assert lam.image_order == 2
    assert lam.image_exponent == 2
    assert lam.homomorphic_on_add and lam.image_abelian


def test_lambda_is_circ_homomorphism(z4_inversion, s3):
    for brace in (z4_inversion, op_brace(s3), trivial_brace(s3)):
        lam = brace.lam
        n = brace.order
        for a in range(n):
            for b in range(n):
                ab = brace.circ.table[a][b]
                assert lam.maps[ab] == compose(lam.maps[a], lam.maps[b])


def test_bad_tables_raise(z4):
    # Z4 relabeled through the non-automorphism (0,2,1,3): the law fails
    twisted = groups.verify_group(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]).or_raise().group
    with pytest.raises(LambdaNotAutomorphism):
        SkewBrace(z4, twisted)


# --- verify_brace ----------------------------------------------------------


def test_verify_trivial(s3):
    rep = verify_brace(s3.table, s3.table)
    assert rep.left_ok and rep.right_ok and rep.two_sided


def test_verify_op_brace(s3):
    rep = verify_brace(s3.table, s3.opposite().table)
    assert rep.left_ok
    assert rep.right_ok  # the two-sided law also holds for this pair


def test_verify_inversion_two_sided(z4_inversion):
    rep = verify_brace(z4_inversion.add.table, z4_inversion.circ.table)
    assert rep.left_ok and rep.right_ok and rep.two_sided


def test_verify_failure_has_witness(z4):
    bad = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    rep = verify_brace(z4.table, bad)
    assert not rep.left_ok
    a, b, c = rep.left_witness
    lhs = bad[a][z4.table[b][c]]
    rhs = z4.table[z4.table[bad[a][b]][z4.inverse[a]]][bad[a][c]]
    assert lhs != rhs


def test_verify_requires_groups(z4):
    with pytest.raises(InvalidGroup):
        verify_brace(z4.table, [[0, 1, 2, 3]] * 4)


# --- classify ---------------------------------------------------------------


def test_classify_trivial_nonabelian(s3):
    flags = classify(trivial_brace(s3))
    assert flags.lambda_homomorphic and flags.lambda_anti_homomorphic
    assert flags.symmetric and flags.lambda_cyclic
    assert not flags.natural


def test_classify_trivial_abelian(z4):
    assert classify(trivial_brace(z4)).natural  # .^op = . on abelian carriers


def test_classify_op_brace(s3):
    flags = classify(op_brace(s3))
    assert flags.lambda_anti_homomorphic
    assert flags.symmetric
    assert not flags.lambda_homomorphic
    assert flags.natural


def test_classify_inversion(z4_inversion):
    flags = classify(z4_inversion)
    assert flags.lambda_homomorphic and flags.symmetric and flags.lambda_cyclic
    assert not flags.natural


def test_classify_matches_the_scans_on_every_enumerated_brace():
    carriers = groups.small_group_catalog(12) + [groups.dihedral_group(8), groups.dicyclic_group(4)]
    for g in carriers:
        for brace in enumerate_circ_ops(g):
            assert classify(brace) == classification_by_scan(brace), g.name


@pytest.mark.parametrize("symmetric", [True, False])
def test_classify_raises_when_the_direct_check_disagrees(monkeypatch, s3, symmetric):
    brace = next(b for b in enumerate_circ_ops(s3) if classify(b).symmetric == symmetric)
    real = braces.left_law_witness

    def flipped(add, circ):   # the direct symmetry check of this brace gives the other answer
        if add is brace.circ and circ is brace.add:
            return None if real(add, circ) else (0, 0, 0)
        return real(add, circ)

    monkeypatch.setattr(braces, "left_law_witness", flipped)
    message = f"symmetry criterion ({symmetric}) disagrees with direct check ({not symmetric})"
    with pytest.raises(CriterionMismatch, match=re.escape(message)):
        classify(SkewBrace(brace.add, brace.circ))


# --- construct_from_lambda ---------------------------------------------------


def test_construct_identity_lambda(s3):
    lam = [tuple(range(6))] * 6
    assert construct_from_lambda(s3, lam, "homomorphic").is_trivial


def test_construct_op_brace_via_anti_mode(s3):
    lam = [tuple(s3.inner[s3.inverse[a]]) for a in range(6)]
    brace = construct_from_lambda(s3, lam, "anti_homomorphic")
    assert brace.circ.table == s3.opposite().table
    assert classify(brace).symmetric


def test_construct_inversion_brace(z4_inversion, z4):
    assert z4_inversion.circ.table[1][1] == 0  # 1 o 1 = 0
    orders = sorted(z4_inversion.circ.element_order(a) for a in range(4))
    assert orders == [1, 2, 2, 2]  # Klein multiplicative group
    assert tuple(map(tuple, z4_inversion.circ.table)) in {
        tuple(map(tuple, t)) for t in brute_force_circ_tables(z4)
    }


def test_construct_rejects_non_homomorphism(s3):
    lam = [tuple(s3.inner[s3.inverse[a]]) for a in range(6)]
    with pytest.raises(NotHomomorphism):
        construct_from_lambda(s3, lam, "homomorphic")  # conjugation-by-inverse is anti


def test_construct_rejects_kernel_failure(s3):
    # a -> conjugation by a is a homomorphism, but [G, lambda(G)] is not in Ker = {e}
    lam = [tuple(s3.inner[a]) for a in range(6)]
    with pytest.raises(KernelConditionFails):
        construct_from_lambda(s3, lam, "homomorphic")


def test_construct_rejects_non_automorphism(z4):
    with pytest.raises(braces.NotAutomorphism):
        construct_from_lambda(z4, [(0, 1, 1, 1)] * 4, "homomorphic")


def test_construct_rejects_anti_violation(z4, s3):
    # a homomorphism that is not an anti-homomorphism on a nonabelian carrier
    lam = [tuple(s3.inner[a]) for a in range(6)]
    with pytest.raises(NotAntiHomomorphism):
        construct_from_lambda(s3, lam, "anti_homomorphic")


def test_circ_inverse_formula(z4_inversion, s3):
    # inverse of a in (G, o) is lambda_a^-1(a^-1) for constructed braces
    for brace in (z4_inversion, op_brace(s3)):
        for a in range(brace.order):
            lam_inv = invert_permutation(brace.lam.maps[a])
            assert brace.circ.inverse[a] == lam_inv[brace.add.inverse[a]]


# --- exact factorization ------------------------------------------------------


def test_factorization_b_trivial_gives_trivial(s3):
    brace = construct_exact_factorization(s3, tuple(range(6)), (0,))
    assert brace.is_trivial


def test_factorization_s3(s3):
    a3 = groups.derived_subgroup(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    b = (0, transposition)
    brace = construct_exact_factorization(s3, a3, b)
    flags = classify(brace)
    assert flags.lambda_anti_homomorphic and flags.symmetric
    # multiplicative group is abelian of order 6 with an element of order 6
    assert brace.circ.table == brace.circ.columns
    assert max(brace.circ.element_order(x) for x in range(6)) == 6


def test_factorization_cross_checks_the_closed_form(monkeypatch, s3):
    # with every lambda value the identity, the trivial table is not a1 a2 b2 b1
    of = braces.LambdaMap.of_automorphisms
    identity = [groups.identity_map(6)] * 6
    monkeypatch.setattr(braces.LambdaMap, "of_automorphisms",
                        staticmethod(lambda group, arrays: of(group, identity)))
    a3 = groups.derived_subgroup(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    with pytest.raises(CriterionMismatch, match="conjugation by the B part"):
        construct_exact_factorization(s3, a3, (0, transposition))


def test_factorization_z6_everything_commutes():
    z6 = groups.cyclic_group(6)
    brace = construct_exact_factorization(z6, (0, 2, 4), (0, 3))
    assert brace.is_trivial


def test_factorization_rejects_bad_parts(s3):
    a3 = groups.derived_subgroup(s3)
    with pytest.raises(NotExactFactorization):
        construct_exact_factorization(s3, a3, a3)
    with pytest.raises(NotExactFactorization):
        construct_exact_factorization(s3, a3, (0,))
    with pytest.raises(NotExactFactorization):
        construct_exact_factorization(s3, (0, 1), (0, 2))


# --- unification ---------------------------------------------------------------


def d4_characters(d4):
    """Two independent mod-2 characters of D8 (rotation exponent, reflection flag)."""
    chi1 = [i % 2 for i in range(4)] + [i % 2 for i in range(4)]
    chi2 = [0] * 4 + [1] * 4
    return chi1, chi2


def test_unification_trivial(d4):
    f = [0] * 8
    alpha = [[0] * 8 for _ in range(8)]
    assert construct_unification(d4, f, alpha, 1).is_trivial


def test_unification_central_pairing(d4):
    z = 2  # the central rotation r^2
    chi1, chi2 = d4_characters(d4)
    alpha = [[z if chi1[a] * chi2[b] else 0 for b in range(8)] for a in range(8)]
    brace = construct_unification(d4, [0] * 8, alpha, 1)
    assert not brace.is_trivial
    flags = classify(brace)
    assert flags.lambda_homomorphic and flags.symmetric
    assert verify_brace(brace.add.table, brace.circ.table).left_ok


def test_unification_projection(d4):
    _, chi2 = d4_characters(d4)
    f = [1 if chi2[a] else 0 for a in range(8)]  # projection pattern into <r>
    alpha = [[0] * 8 for _ in range(8)]
    brace = construct_unification(d4, f, alpha, 1)
    for a in range(8):
        fa = f[a]
        expected = bytes(d4.table[d4.table[d4.inverse[fa]][b]][fa] for b in range(8))
        assert brace.lam.maps[a] == expected
    assert classify(brace).symmetric


def test_unification_epsilon_minus_one():
    # on A4 the retraction onto a 3-cycle gives conjugations of order 3,
    # so the two conjugation directions give different braces
    a4 = groups.alternating_group(4)
    v4 = set(groups.derived_subgroup(a4))
    c = next(x for x in range(12) if a4.element_order(x) == 3)
    section = (0, c, a4.table[c][c])
    f = [next(x for x in section if a4.table[a][a4.inverse[x]] in v4) for a in range(12)]
    alpha = [[0] * 12 for _ in range(12)]
    plus = construct_unification(a4, f, alpha, 1)
    minus = construct_unification(a4, f, alpha, -1)
    assert classify(plus).symmetric and classify(minus).symmetric
    assert plus.circ.table != minus.circ.table  # conjugation direction differs


def test_unification_representative_independence(d4):
    _, chi2 = d4_characters(d4)
    f = [1 if chi2[a] else 0 for a in range(8)]
    f_twisted = [d4.table[x][2] for x in f]  # multiply every value by the central involution
    alpha = [[0] * 8 for _ in range(8)]
    assert construct_unification(d4, f, alpha, 1).circ.table == \
        construct_unification(d4, f_twisted, alpha, 1).circ.table


def test_unification_rejects_bad_alpha(d4):
    alpha = [[0] * 8 for _ in range(8)]
    alpha[1][1] = 1  # value outside the center
    with pytest.raises(NotBilinear):
        construct_unification(d4, [0] * 8, alpha, 1)
    chi1, chi2 = d4_characters(d4)
    broken = [[2 if (a == 1 and b == 4) else 0 for b in range(8)] for a in range(8)]
    with pytest.raises(NotBilinear):
        construct_unification(d4, [0] * 8, broken, 1)


def test_unification_names_the_first_triple_where_alpha_is_not_additive():
    # central values at random places; where both sides fail first at one triple, the left is named
    rng = random.Random("alpha")
    kinds = set()
    for group in groups.small_group_catalog(8)[1:]:
        n = group.order
        for _ in range(60):
            alpha = [[0] * n for _ in range(n)]
            for _ in range(rng.randrange(1, 4)):
                alpha[rng.randrange(1, n)][rng.randrange(1, n)] = rng.choice(group.center)
            failure = bilinearity_failure_by_scan(tuples(group.table), alpha)
            if failure is None:
                continue
            sides, (a, b, c) = failure
            kinds.add(sides)
            with pytest.raises(NotBilinear) as raised:
                construct_unification(group, [0] * n, alpha, 1)
            side = "left" if sides[0] else "right"
            assert str(raised.value) == f"alpha not additive on the {side} at ({a},{b},{c})"
    assert kinds == {(True, False), (False, True), (True, True)}


def test_unification_rejects_bad_f(d4, s3):
    alpha = [[0] * 8 for _ in range(8)]
    f = [0] * 8
    f[1] = 4  # sporadic value: not an endomorphism mod center
    with pytest.raises(NotEndomorphismModCenter):
        construct_unification(d4, f, alpha, 1)
    alpha6 = [[0] * 6 for _ in range(6)]
    with pytest.raises(ImageNotAbelianModCenter):
        construct_unification(s3, list(range(6)), alpha6, 1)  # image S3, center trivial


# --- opposite ------------------------------------------------------------------


def test_opposite_of_trivial_abelian(z4):
    assert opposite(trivial_brace(z4)).is_trivial


def test_opposite_of_op_brace_is_trivial(s3):
    assert opposite(op_brace(s3)).is_trivial


def test_opposite_of_inversion_same_tables(z4_inversion):
    op = opposite(z4_inversion)
    assert op.add.table == z4_inversion.add.table  # abelian: .^op = .
    assert op.circ.table == z4_inversion.circ.table


def test_opposite_symmetry_check(z4, z4_inversion, d4):
    rep = opposite_symmetry_check(trivial_brace(z4))
    assert rep["opposite_symmetric"] and rep["inn_centralizes_lambda"]
    rep = opposite_symmetry_check(z4_inversion)
    assert rep["opposite_symmetric"] and rep["inn_centralizes_lambda"]
    chi1, chi2 = d4_characters(d4)
    alpha = [[2 if chi1[a] * chi2[b] else 0 for b in range(8)] for a in range(8)]
    rep = opposite_symmetry_check(construct_unification(d4, [0] * 8, alpha, 1))
    assert rep["iff_holds"]


def test_opposite_symmetry_requires_homomorphic(s3):
    with pytest.raises(PreconditionFails):
        opposite_symmetry_check(op_brace(s3))


# --- link_check ------------------------------------------------------------------


def test_link_self(s3):
    brace = op_brace(s3)
    rep = link_check(brace, brace)
    assert rep.is_brace  # (G, o, o) is the trivial brace on (G, o)


def test_link_with_trivial(s3):
    rep = link_check(op_brace(s3), trivial_brace(s3))
    assert rep.cond_i  # lambda* is trivial, so the commutators land in any kernel
    assert rep.is_brace


def test_link_requires_shared_addition(s3, z4):
    with pytest.raises(AdditiveTablesDiffer):
        link_check(op_brace(s3), trivial_brace(z4))


def test_link_advisory_when_images_do_not_commute(s3):
    brace = op_brace(s3)
    twisted = pushforward(brace, next(
        m for m in groups.automorphism_group(s3) if m != tuple(range(6))
    ))
    # an automorphism of (G, .) preserves b . a too, so it carries the op brace to itself
    assert twisted == brace
    rep = link_check(brace, twisted)
    assert not rep.images_commute
    assert rep.hypothesis_met is False  # Inn(S3) is nonabelian, images cannot commute
    assert rep.advisory


def test_link_d16_twisted_conjugation(d16):
    brace1 = op_brace(d16)
    x = 1  # a rotation generator
    lam_star = []
    for a in range(16):
        c = d16.table[d16.inverse[a]][d16.inner[d16.inverse[x]][a]]  # a^-1 x^-1 a x
        lam_star.append(tuple(d16.table[d16.table[d16.inverse[c]][b]][c] for b in range(16)))
    brace2 = construct_from_lambda(d16, lam_star, "anti_homomorphic")
    rep = link_check(brace1, brace2)
    assert rep.hypothesis_met
    assert rep.cond_i and rep.cond_ii
    assert rep.is_brace and rep.is_symmetric


# --- cross compatibility -----------------------------------------------------------


def test_cross_compatibility_trivial(z4):
    rep = cross_compatibility_check(z4, z4.table, z4.table)
    assert rep["condition_holds"] and rep["is_brace"]
    moved = [[1, 3, 0, 2], [3, 2, 1, 0], [0, 1, 2, 3], [2, 0, 3, 1]]   # Z4 with identity 2
    for tables in ((z4.table, moved), (moved, z4.table)):
        with pytest.raises(InvalidGroup, match="identities of the two operations differ"):
            cross_compatibility_check(z4, *tables)


def test_cross_compatibility_z4(z4, z4_inversion):
    rep = cross_compatibility_check(z4, z4.table, z4_inversion.circ.table)
    assert rep["is_brace"] == (left_ok := verify_brace(z4.table, z4_inversion.circ.table).left_ok)
    assert left_ok
    assert not rep["condition_holds"] or rep["is_brace"]


def test_cross_compatibility_s3(s3):
    a3 = groups.derived_subgroup(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    fact = construct_exact_factorization(s3, a3, (0, transposition))
    rep = cross_compatibility_check(s3, s3.opposite().table, fact.circ.table)
    assert not rep["condition_holds"] or rep["is_brace"]


# --- enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 2)])
def test_enumerate_cyclic(n, expected):
    found = enumerate_circ_ops(groups.cyclic_group(n))
    assert len(found) == expected
    oracle = {t for t in map(lambda x: tuple(map(tuple, x)),
                             brute_force_circ_tables(groups.cyclic_group(n)))}
    assert {tuple(tuples(b.circ.table)) for b in found} == oracle


def test_enumerate_klein(klein):
    found = enumerate_circ_ops(klein)
    assert len(found) == 4
    klein_like = [b for b in found if all(b.circ.element_order(a) <= 2 for a in range(4))]
    cyclic_like = [b for b in found if max(b.circ.element_order(a) for a in range(4)) == 4]
    assert len(klein_like) == 1 and len(cyclic_like) == 3
    oracle = {tuple(map(tuple, t)) for t in brute_force_circ_tables(klein)}
    assert {tuple(tuples(b.circ.table)) for b in found} == oracle


def test_enumerate_deterministic(z4):
    first = [b.circ.table for b in enumerate_circ_ops(z4)]
    second = [b.circ.table for b in enumerate_circ_ops(z4)]
    assert first == second == sorted(first)


def test_enumerate_all_verify(s3):
    for brace in enumerate_circ_ops(s3):
        assert verify_brace(brace.add.table, brace.circ.table).left_ok


def test_enumerate_matches_lambda_walk_small():
    for g in groups.small_group_catalog(12):
        auts = groups.automorphism_group(g)
        orbits = braces.assignment_orbits(g, auts, braces.regular_subgroups(g, auts))
        found = holomorph_members([maps for orbit in orbits for maps in orbit], auts)
        assert found == list(regular_subgroups_by_closure(g)), g.name
        if g.order <= 6:
            assert len(enumerate_circ_ops(g)) == regular_subgroup_count_by_lambda_walk(g)


def test_enumerate_cap_matches_holomorph_cap(monkeypatch):
    z2 = groups.cyclic_group(2)
    cube = groups.direct_product(groups.direct_product(z2, z2), z2)
    monkeypatch.setattr(groups, "MAX_HOLOMORPH_ORDER", 1000)
    with pytest.raises(OrderCapExceeded) as from_table:
        groups.build_holomorph(cube)
    with pytest.raises(OrderCapExceeded) as from_walk:
        enumerate_circ_ops(cube)
    assert str(from_walk.value) == str(from_table.value) == (
        "holomorph order exceeds cap 1000: Aut(G) has more than 125 automorphisms")


def test_enumerate_builds_no_holomorph_table(monkeypatch):
    z2 = groups.cyclic_group(2)
    cube = groups.direct_product(groups.direct_product(z2, z2), z2)
    expected = len(regular_subgroups_by_closure(cube))
    built = []
    init = groups.FiniteGroup.__init__

    def recording_init(self, table, name=""):
        init(self, table, name)
        built.append(self.order)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", recording_init)
    found = enumerate_circ_ops(cube)
    assert len(found) == expected
    assert built and max(built) == 8


# --- Aut(G)-orbits ----------------------------------------------------------------

ORBIT_GROUPS = groups.small_group_catalog(12)[1:] + [
    groups.cyclic_group(16),
    groups.direct_product(groups.cyclic_group(8), groups.cyclic_group(2), name="Z8xZ2"),
    groups.dihedral_group(8),
    groups.dicyclic_group(4),
]
# the four order-16 groups of the enumerate benchmark
ORDER_16_ORBITS = {"Z16": 8, "Z8xZ2": 66, "D16": 80, "Q16": 80}


def test_every_enumerated_brace_equals_its_rebuild_by_the_left_law():
    # one brace per orbit is checked; the others are carried over by automorphism
    for g in ORBIT_GROUPS:
        for brace in enumerate_circ_ops(g):
            rebuilt = SkewBrace(brace.add, brace.circ)
            assert rebuilt.lam.maps == brace.lam.maps, g.name
            assert classify(rebuilt) == brace.classification, g.name


def relabeling(group, seed):
    """A seeded permutation of the non-identity labels of ``group``, so a0 and Stab(a0) move."""
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    return bytes([0] + rest)


def walk_root_by_scan(group, auts):
    """(a0, least): the walk's root by its rule, and f -> the least psi f psi^-1 over psi with psi(a0) = a0."""
    a0 = min(range(1, group.order), default=0,
             key=lambda a: (-group.element_order(a), len({f[a] for f in auts}), a))
    stab = [psi for psi in auts if psi[a0] == a0]
    return a0, {f: min(compose(psi, compose(f, invert_permutation(psi))) for psi in stab) for f in auts}


def check_orbits_against_the_oracles(group, closure):
    """The census orbits of ``group`` checked against ``closure``, its regular subgroups of Hol G, and relabeling.

    Returns the walked list.
    """
    n, t = group.order, group.table
    auts = groups.automorphism_group(group)
    walked = braces.regular_subgroups(group, auts)
    orbits = braces.assignment_orbits(group, auts, walked)
    found = sorted(m for orbit in orbits for m in orbit)
    assert holomorph_members(found, auts) == list(closure)
    a0, least = walk_root_by_scan(group, auts)
    assert walked == [m for m in found if least[m[a0]] == m[a0]]
    assert all(len(auts) % len(orbit) == 0 for orbit in orbits)     # orbit-stabilizer
    assert [orbit[0] for orbit in orbits] == sorted(min(orbit) for orbit in orbits)

    def circ(maps):
        return tuple(tuple(t[a][maps[a][b]] for b in range(n)) for a in range(n))

    by_relabeling = circ_orbits_by_relabeling(group, [circ(m) for m in found])
    assert {frozenset(map(circ, orbit)) for orbit in orbits} == set(map(frozenset, by_relabeling))
    if n == 16:
        assert len(orbits) == ORDER_16_ORBITS[group.name]
    return walked


@pytest.mark.parametrize("group", ORBIT_GROUPS, ids=case_key)
def test_orbits_partition_the_census_as_relabeling_does(group):
    check_orbits_against_the_oracles(group, regular_subgroups_by_closure(group))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("group", ORBIT_GROUPS, ids=case_key)
def test_rooted_walk_meets_every_orbit_under_relabeling(group, seed):
    relabel = relabeling(group, seed)
    moved = groups.FiniteGroup(groups.relabeled(group.table, relabel), name=group.name)
    closure = transported_closure(group, relabel)
    if seed == 1:       # the transport checked once per group against a closure grown from scratch
        assert closure == regular_subgroups_by_closure(moved)
    walked = check_orbits_against_the_oracles(moved, closure)
    if group.name == "Q16":        # 304 labeled regular subgroups, of which the root keeps fewer
        assert len(walked) < len(closure) == 304


# --- one lambda pass per brace ---------------------------------------------------


def test_lambda_is_computed_once_by_the_left_law_pass(monkeypatch):
    a4 = groups.alternating_group(4)
    circ = next(b.circ for b in enumerate_circ_ops(a4)
                if b.classification.symmetric and not b.is_trivial)
    k = len(circ.generators)        # the left law is checked on the generators of (G, o)
    calls = []
    check = groups.is_multiplicative

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(braces, "is_multiplicative", counted)
    brace = SkewBrace(a4, circ)
    assert len(calls) == k                      # the constructor's left law
    lam = brace.lam
    assert len(calls) == k                      # reading lambda makes no check
    assert brace.classification.symmetric
    assert len(calls) == k + len(a4.generators)  # the direct symmetric cross-check
    assert lam.image_order > 1


def test_lambda_facts_equal_those_of_a_validated_assignment():
    for group in groups.small_group_catalog(8):
        n, t, inv = group.order, group.table, group.inverse
        for brace in enumerate_circ_ops(group):
            arrays = [[t[inv[a]][c] for c in brace.circ.table[a]] for a in range(n)]
            assert brace.lam == braces.LambdaMap.of(group, arrays)


# --- SkewBrace.from_lambda ----------------------------------------------------------


def table_by_index(group, maps):
    """a o b = a . lambda_a(b), one subscript at a time."""
    n = group.order
    return tuple(tuple(group.table[a][maps[a][b]] for b in range(n)) for a in range(n))


def seeded_assignments(group, rng, count):
    """Assignments of automorphisms: random ones, braces' lambdas and their perturbations.

    Besides the constant ones, four in five come from a brace's lambda: as
    is, moved by a relabeling along an automorphism (again a brace), with
    one value replaced, or composed after one automorphism, which moves
    lambda_0 off the identity.
    """
    auts = groups.automorphism_group(group)
    found = braces.regular_subgroups(group, auts)
    n = group.order
    out = [[auts[0]] * n, [rng.choice(auts)] * n]
    while len(out) < count:
        kind = rng.randrange(5)
        maps = list(rng.choice(found))
        phi = rng.choice(auts)
        if kind == 0:
            maps = [rng.choice(auts) for _ in range(n)]
        elif kind == 1:
            phi_inv = invert_permutation(phi)
            maps = [compose(phi, compose(maps[phi_inv[a]], phi_inv)) for a in range(n)]
        elif kind == 2:
            maps[rng.randrange(n)] = phi
        elif kind == 3:
            maps = [compose(phi, m) for m in maps]
        out.append(maps)
    return out


@pytest.mark.parametrize("group", groups.small_group_catalog(12), ids=case_key)
def test_from_lambda_agrees_with_verify_group(group):
    rng = random.Random(f"{case_key(group)}:from_lambda")
    n = group.order
    for maps in seeded_assignments(group, rng, 200):
        table = table_by_index(group, maps)
        ref = tuples(maps)
        first = next(((a, b) for a in range(n) for b in range(n)
                      if ref[table[a][b]] != compose_by_index(ref[a], ref[b])), None)
        check = groups.verify_group(table)
        try:
            brace = SkewBrace.from_lambda(braces.LambdaMap.of_automorphisms(group, maps))
        except CriterionMismatch as exc:
            assert not check.ok, ref
            assert str(exc) == f"lambda_(a o b) is not lambda_a lambda_b at {first}"
        else:
            assert first is None and check.ok and check.relabeling == tuple(range(n)), ref
            assert tuples(brace.circ.table) == list(table)
            assert verify_brace(group.table, table).left_ok


@pytest.mark.parametrize("group", [groups.cyclic_group(4), groups.symmetric_group(3)],
                         ids=case_key)
def test_from_lambda_rejects_trivial_endomorphisms_by_bijectivity(group):
    # lambda_(a o b) = 0 = lambda_a lambda_b holds, yet a o b = a is no group
    maps = [bytes(group.order)] * group.order
    assert not groups.verify_group(table_by_index(group, maps)).ok
    with pytest.raises(CriterionMismatch, match="lambda of element 0 is not a bijection"):
        SkewBrace.from_lambda(braces.LambdaMap.of_automorphisms(group, maps))


def test_from_lambda_rejects_bijections_that_are_not_multiplicative(z4):
    # x -> x + 2 at the odd elements: lambda is a homomorphism out of o, o is no group
    shift = bytes((x + 2) % 4 for x in range(4))
    maps = [bytes(range(4)), shift, bytes(range(4)), shift]
    assert not groups.verify_group(table_by_index(z4, maps)).ok
    with pytest.raises(CriterionMismatch, match="is not multiplicative"):
        SkewBrace.from_lambda(braces.LambdaMap.of_automorphisms(z4, maps))


def test_no_table_built_from_lambda_or_an_operator_reaches_verify_group(monkeypatch, d4, s3):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_group called on a derived table")

    monkeypatch.setattr(groups, "verify_group", refuse)
    monkeypatch.setattr(braces, "verify_group", refuse)
    assert len(enumerate_circ_ops(d4)) == len(regular_subgroups_by_closure(d4))
    construct_exact_factorization(s3, groups.derived_subgroup(s3), (0, 1))
    conj = [list(s3.inner[s3.inverse[a]]) for a in range(6)]
    assert construct_from_lambda(s3, conj, "anti_homomorphic") == op_brace(s3)
    rota.rb_brace(s3, inversion_operator(s3))
    systems.build_rb_multibrace(s3, inversion_operator(s3), 3)
    z = groups.cyclic_group(9)
    triple = [bytes(x * (1 + 3 * a) % 9 for x in range(9)) for a in range(9)]
    linear = systems.build_linear_system(z, triple, include_negative=True)
    assert len(systems.union_systems(linear, linear).vertices) == len(linear.vertices) == 3
    a3 = groups.derived_subgroup(s3)
    assert structure.quotient_brace(op_brace(s3), structure.is_ideal(op_brace(s3), a3)).order == 2
    assert groups.symmetric_group(4).order == 24


# --- isomorphism -----------------------------------------------------------------


def test_isomorphic_to_self(z4_inversion):
    phi = brace_isomorphic(z4_inversion, z4_inversion)
    assert phi is not None
    assert phi == bytes((0, 1, 2, 3))


def test_not_isomorphic_different_circ(z4, z4_inversion):
    assert brace_isomorphic(trivial_brace(z4), z4_inversion) is None


@pytest.mark.parametrize("perm", [(1, 0, 2, 3), (0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 4), (0, 3, 2, 1.0)])
def test_pushforward_rejects_what_is_not_a_permutation_fixing_0(z4_inversion, perm):
    with pytest.raises(ValueError, match="a permutation of 0..3 that fixes 0"):
        pushforward(z4_inversion, perm)


def test_isomorphic_pushforward(z4_inversion):
    moved = pushforward(z4_inversion, (0, 3, 2, 1))
    phi = brace_isomorphic(z4_inversion, moved)
    assert phi is not None
    n = 4
    for a in range(n):
        for b in range(n):
            assert phi[z4_inversion.add.table[a][b]] == \
                moved.add.table[phi[a]][phi[b]]
            assert phi[z4_inversion.circ.table[a][b]] == \
                moved.circ.table[phi[a]][phi[b]]
    # the inversion relabeling itself is a valid isomorphism witness
    assert brace_isomorphic(pushforward(z4_inversion, (0, 3, 2, 1)), moved) is not None


def test_not_isomorphic_orders(z4, s3):
    assert brace_isomorphic(trivial_brace(z4), trivial_brace(s3)) is None


def test_isomorphism_cap():
    big = trivial_brace(groups.cyclic_group(30))
    with pytest.raises(OrderCapExceeded):
        brace_isomorphic(big, big)


@pytest.mark.parametrize("maker,expected_classes", [
    (lambda: groups.cyclic_group(4), 2),
    (lambda: groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2)), 2),
    (lambda: groups.cyclic_group(6), 2),
    (lambda: groups.symmetric_group(3), 4),
])
def test_isomorphism_partition_matches_orbit_oracle(maker, expected_classes):
    # counts 2 + 2 at order 4 and 2 + 4 at order 6 match the known censuses
    group = maker()
    found = enumerate_circ_ops(group)
    oracle = isomorphism_classes_by_orbit(found)
    assert len(oracle) == expected_classes
    for cls in oracle:
        representative = found[cls[0]]
        for other_idx in range(len(found)):
            phi = brace_isomorphic(representative, found[other_idx])
            assert (phi is not None) == (other_idx in cls)


def test_classification_invariant_under_relabeling(z4_inversion):
    from hypothesis import given
    from hypothesis import strategies as st

    base_flags = classify(z4_inversion)._asdict()

    @given(st.permutations([1, 2, 3]))
    def check(tail):
        perm = (0,) + tuple(tail)
        moved = pushforward(z4_inversion, perm)
        assert classify(moved)._asdict() == base_flags

    check()


# --- invariants -------------------------------------------------------------------


def test_trivial_iff_kernel_everything(z4, s3, z4_inversion):
    for brace in (trivial_brace(z4), trivial_brace(s3), z4_inversion, op_brace(s3)):
        assert brace.is_trivial == (brace.lam.kernel == tuple(range(brace.order)))


def test_anti_homomorphic_circ_inverse_in_kernel_coset(s3, d16):
    for brace in (op_brace(s3), op_brace(d16)):
        kernel = set(brace.lam.kernel)
        for a in range(brace.order):
            u = brace.add.table[a][brace.circ.inverse[a]]
            assert u in kernel


def test_homomorphic_lambda_constant_on_both_products(z4_inversion):
    lam = z4_inversion.lam
    for a in range(4):
        for b in range(4):
            assert lam.maps[z4_inversion.circ.table[a][b]] == \
                lam.maps[z4_inversion.add.table[a][b]]


def test_two_sided_when_commutators_central_and_fixed():
    # central commutator values alone do NOT force the right law (see the
    # counterexample below); they do when lambda also fixes them pointwise.
    for g in groups.small_group_catalog(6):
        for brace in enumerate_circ_ops(g):
            lam = brace.lam
            if not (lam.homomorphic_on_add and lam.image_abelian):
                continue
            center = set(g.center)
            values = {
                g.table[g.inverse[b]][lam.maps[a][b]]
                for a in range(g.order) for b in range(g.order)
            }
            commutators_central = values <= center
            commutators_fixed = all(
                lam.maps[a][x] == x for a in range(g.order) for x in values
            )
            if commutators_central and commutators_fixed:
                assert verify_brace(brace.add.table, brace.circ.table).two_sided


def test_two_sided_counterexample_on_z6():
    # the inversion brace on Z6 is homomorphic with abelian image and all
    # commutator values central, yet fails the right law: the sufficient
    # condition needs the values to be fixed by lambda as well
    z6 = groups.cyclic_group(6)
    inv6 = tuple(z6.inverse[b] for b in range(6))
    lam = [tuple(range(6)) if a % 2 == 0 else inv6 for a in range(6)]
    brace = construct_from_lambda(z6, lam, "homomorphic")
    rep = verify_brace(brace.add.table, brace.circ.table)
    assert rep.left_ok and not rep.right_ok
    assert classify(brace).symmetric  # still symmetric, as the theory predicts


def test_trivial_group_brace_degenerate_cases():
    one = groups.trivial_group()
    brace = trivial_brace(one)
    flags = classify(brace)
    assert brace.is_trivial
    assert flags.symmetric and flags.lambda_homomorphic and flags.lambda_anti_homomorphic
    rep = verify_brace(one.table, one.table)
    assert rep.two_sided
    assert enumerate_circ_ops(one)[0] == brace
    assert opposite(brace).is_trivial


# --- json --------------------------------------------------------------------------


def test_brace_json_roundtrip(z4_inversion):
    data = brace_to_json(z4_inversion)
    back = brace_from_json(data)
    assert back == z4_inversion


def test_brace_json_normalizes_identity(z4_inversion):
    # relabel so the identity is 3; loading must normalize back
    perm = (3, 0, 1, 2)
    inv = invert_permutation(perm)
    remap = lambda t: [[perm[t[inv[a]][inv[b]]] for b in range(4)] for a in range(4)]
    data = {"order": 4,
            "add": remap(z4_inversion.add.table),
            "circ": remap(z4_inversion.circ.table)}
    assert brace_from_json(data) == z4_inversion


def test_brace_json_rejects_mismatched(z4, s3):
    with pytest.raises(InvalidGroup):
        brace_from_json({"order": 4, "add": [list(r) for r in z4.table],
                         "circ": [list(r) for r in s3.table]})
