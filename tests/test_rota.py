import pytest
from oracles import (
    case_key,
    circ2_expansion_report,
    circ_word_expand,
    constant_operator,
    free_circ_word_expand,
    free_rb_apply,
    free_rb_example,
    free_rb_level_inverse,
    inversion_operator,
    next_in,
    rb_anti_hom_lemma_check,
    rb_operators_by_graph_subgroups,
    tuples,
    word_power,
    word_product,
)

from skewbrace import groups, rota
from skewbrace.braces import classify, op_brace, trivial_brace
from skewbrace.config import SampleConfig
from skewbrace.errors import CriterionMismatch, NotRotaBaxter, PreconditionFails, RankMismatch
from skewbrace.rng import Lcg
from skewbrace.rota import (
    FreeRb,
    free_rb_report,
    is_rb,
    rb_brace,
    rb_endomorphisms,
    rb_from_json,
    rb_lambda_hom_check,
    rb_self_maps,
    rb_symmetry_check,
)
from skewbrace.words import MAX_EXPONENT, MAX_SYLLABLES, FreeWord, exp_sum, inv_syllables, sample_word, word_from_text


# --- the identity ----------------------------------------------------------


def test_constant_operator_is_rb(s3):
    assert is_rb(s3, constant_operator(s3)).ok


def test_inversion_is_rb(s3):
    assert is_rb(s3, inversion_operator(s3)).ok


def test_identity_map_not_rb_on_nonabelian(s3):
    check = is_rb(s3, tuple(range(6)))
    assert not check.ok
    g, h = check.witness
    assert s3.table[g][h] != s3.table[h][g]  # any witness is a non-commuting pair


def test_identity_map_rb_on_abelian(z4):
    assert is_rb(z4, tuple(range(4))).ok


def test_inversion_rb_on_all_small_groups():
    for g in groups.small_group_catalog(12):
        assert is_rb(g, inversion_operator(g)).ok


# --- derived group and brace --------------------------------------------------


def test_derived_constant_is_original(s3):
    assert rb_brace(s3, constant_operator(s3)).circ.table == s3.table


def test_derived_inversion_is_opposite(s3):
    assert rb_brace(s3, inversion_operator(s3)).circ.table == s3.opposite().table


def test_derived_rejects_non_rb(s3):
    with pytest.raises(NotRotaBaxter):
        rb_brace(s3, tuple(range(6)))


def test_rb_brace_inversion_equals_op_brace(s3):
    assert rb_brace(s3, inversion_operator(s3)) == op_brace(s3)


def test_rb_brace_cross_checks_lambda_against_conjugation(monkeypatch, s3):
    # a brace built from lambda that is valid but not the one of conjugation by B fails the closed form
    monkeypatch.setattr(rota.SkewBrace, "from_lambda", classmethod(lambda cls, lam: trivial_brace(s3)))
    with pytest.raises(CriterionMismatch, match="conjugation by B"):
        rb_brace(s3, inversion_operator(s3))


def test_rb_brace_endomorphism_example(d4):
    # the endomorphism of D8 sending reflections to the central rotation r^2
    b = tuple(0 if x < 4 else 2 for x in range(8))
    assert all(b[d4.table[x][y]] == d4.table[b[x]][b[y]] for x in range(8) for y in range(8))
    assert is_rb(d4, b).ok  # endomorphisms onto abelian images satisfy the identity
    brace = rb_brace(d4, b)
    assert classify(brace).symmetric


# --- criteria --------------------------------------------------------------------


def test_symmetry_check_abelian(z4):
    b = tuple(range(4))
    rep = rb_symmetry_check(rb_brace(z4, b), b)
    assert rep["symmetric"] and rep["center_condition"]


def test_symmetry_check_inversion(s3):
    b = inversion_operator(s3)
    rep = rb_symmetry_check(rb_brace(s3, b), b)
    assert rep["symmetric"] and rep["center_condition"]


def test_lambda_hom_check_constant(s3):
    b = constant_operator(s3)
    rep = rb_lambda_hom_check(rb_brace(s3, b), b)
    assert rep["lambda_homomorphic"] and rep["center_condition"]


def test_lambda_hom_check_inversion_fails_on_s3(s3):
    b = inversion_operator(s3)
    rep = rb_lambda_hom_check(rb_brace(s3, b), b)
    assert not rep["lambda_homomorphic"] and not rep["center_condition"]


def test_anti_hom_lemma(s3, d4):
    for g in (s3, d4):
        assert rb_anti_hom_lemma_check(g, inversion_operator(g))
    non_anti = next(
        b for b in rb_self_maps(s3)
        if not all(b[s3.table[x][y]] == s3.table[b[y]][b[x]]
                   for x in range(6) for y in range(6))
    )
    with pytest.raises(PreconditionFails):
        rb_anti_hom_lemma_check(s3, non_anti)


def test_anti_hom_lemma_on_found_operators():
    for g in groups.small_group_catalog(6):
        for b in rb_self_maps(g):
            anti = all(b[g.table[x][y]] == g.table[b[y]][b[x]]
                       for x in range(g.order) for y in range(g.order))
            if anti:
                assert rb_anti_hom_lemma_check(g, b)


# --- searches ---------------------------------------------------------------------


def test_self_map_search_finds_known_operators(s3):
    found = rb_self_maps(s3)
    assert inversion_operator(s3) in found
    assert constant_operator(s3) in found
    assert tuple(range(6)) not in found


def test_self_map_search_criteria_agree():
    for g in groups.small_group_catalog(6):
        for b in rb_self_maps(g):
            brace = rb_brace(g, b)         # asserts the derived-group facts
            rb_symmetry_check(brace, b)    # raises CriterionMismatch on disagreement
            rb_lambda_hom_check(brace, b)


def test_endomorphism_search_order_8(d4, q8):
    for g in (d4, q8):
        found = rb_endomorphisms(g, groups.endomorphisms(g))
        assert constant_operator(g) in found
        for b in found:
            brace = rb_brace(g, b)
            rb_symmetry_check(brace, b)
            rb_lambda_hom_check(brace, b)


@pytest.mark.parametrize("group", groups.small_group_catalog(12), ids=case_key)
def test_walker_finds_every_rota_baxter_operator_past_the_cap(group):
    # the walk rb_self_maps runs, on groups it refuses, against subgroups of G x G
    n, t = group.order, group.table
    conj = [bytes(group.inner[x][b] for b in range(n)) for x in range(n)]
    found = groups._regular_assignments(group, conj, lambda x, y: t[x][y])
    assert found == rb_operators_by_graph_subgroups(group)
    assert all(is_rb(group, b).ok for b in found)
    assert set(tuples(rb_endomorphisms(group, groups.endomorphisms(group)))) <= set(found)


def test_self_map_cap(d4):
    with pytest.raises(PreconditionFails):
        rb_self_maps(d4)


# --- word expansion -----------------------------------------------------------------


def test_expand_single_letter(s3):
    b = inversion_operator(s3)
    for a in range(6):
        assert circ_word_expand(s3, b, [(a, 1)]) == a


def test_expand_circle_inverse(s3):
    b = inversion_operator(s3)
    # circle inverse in the opposite group is the plain inverse
    for a in range(6):
        assert circ_word_expand(s3, b, [(a, -1)]) == s3.inverse[a]


def test_expand_seeded_words(d4):
    b = inversion_operator(d4)
    rng = Lcg(0)
    for _ in range(500):
        letters = [(rng.next_int(8), next_in(rng, -2, 2)) for _ in range(4)]
        value = circ_word_expand(d4, b, letters)
        assert 0 <= value < 8


def test_expand_matches_direct_fold(s3):
    # fold the derived (opposite) operation directly as an oracle
    b = inversion_operator(s3)
    op = s3.opposite()
    rng = Lcg(3)
    for _ in range(200):
        letters = [(rng.next_int(6), next_in(rng, -2, 2)) for _ in range(3)]
        expected = 0
        for a, k in letters:
            step = a if k >= 0 else op.inverse[a]
            for _ in range(abs(k)):
                expected = op.table[expected][step]
        assert circ_word_expand(s3, b, letters) == expected


def test_circ2_expansion_matches(s3, d4, q8):
    for g in (s3, d4, q8):
        rep = circ2_expansion_report(g, inversion_operator(g))
        assert rep["matches_printed"], rep
    for g in groups.small_group_catalog(6):
        for b in rb_self_maps(g):
            assert circ2_expansion_report(g, b)["matches_printed"]


# --- free example ---------------------------------------------------------------------


def test_free_example_zero_grading():
    a = word_from_text(2, "x1 x2^-1")  # exponent sum 0
    b = word_from_text(2, "x2")
    assert free_rb_example(1, a, b) == a.mul(b)


def test_free_example_expansion():
    a = word_from_text(2, "x1 x2")
    b = word_from_text(2, "x2")
    expected = word_from_text(2, "x1 x2 x1^2 x2 x1^-2")
    assert free_rb_example(1, a, b) == expected


def test_free_example_single_generator():
    a = word_from_text(2, "x1")
    b = word_from_text(2, "x2")
    assert free_rb_example(1, a, b) == word_from_text(2, "x1^2 x2 x1^-1")


def test_free_rb_report_clean():
    for m in (0, 1, 2):
        rep = free_rb_report(m, SampleConfig(samples=200))
        assert rep["failure_count"] == 0


def test_free_rb_kernels_match_the_oracles():
    # the level product, the level inverse and B on syllable tuples, against the FreeWord-level formulas
    rng = Lcg(18)
    op = FreeRb(2, (word_from_text(2, "x2"), word_from_text(2, "x1 x2^-1 x1")))
    b = op.action()
    for m in (-1, 0, 1, 2):
        for _ in range(200):
            a, c = (sample_word(rng, 2, MAX_SYLLABLES, MAX_EXPONENT) for _ in range(2))
            u, v = FreeWord(2, a), FreeWord(2, c)
            k = m * exp_sum(a)
            assert rota._level_mul(a, k, c) == free_rb_example(m, u, v).syllables
            assert rota._level_mul((), -k, inv_syllables(a)) == free_rb_level_inverse(m, u).syllables
            assert free_rb_example(m, u, free_rb_level_inverse(m, u)).is_identity
            images = [word_power(op.images[g - 1], e) for g, e in u.syllables]
            assert b(a) == word_product(FreeWord(2), *images).syllables


def test_free_rb_keeps_its_rank_checks():
    x1 = word_from_text(2, "x1")
    with pytest.raises(RankMismatch):
        FreeRb(2, (x1, word_from_text(3, "x3")))
    with pytest.raises(RankMismatch):
        free_rb_apply(FreeRb(2, (x1, x1)), word_from_text(3, "x1"))


def test_free_rb_report_rb_identity_witness_reproduces(monkeypatch):
    bad = FreeRb(2, (word_from_text(2, "x2"), word_from_text(2, "x1 x2")))
    action = FreeRb.action
    monkeypatch.setattr(FreeRb, "action", lambda self: action(bad))
    report = free_rb_report(0, SampleConfig(samples=40, seed=11))
    records = [f for f in report["failures"] if f["kind"] == "rb_identity"]
    assert records
    for f in records:
        g, h = word_from_text(2, f["g"]), word_from_text(2, f["h"])
        b_g = free_rb_apply(bad, g)
        assert b_g.mul(free_rb_apply(bad, h)) != free_rb_apply(bad, g.mul(b_g).mul(h).mul(b_g.inv()))


def test_free_circ_word_expand():
    op = FreeRb(2, (FreeWord.generator(2, 1), FreeWord.generator(2, 1)))
    a = word_from_text(2, "x1")
    b = word_from_text(2, "x2")
    out = free_circ_word_expand(op, [(a, 1), (b, 1)])
    # a o b = a B(a) b B(a)^-1 = x1 x1 x2 x1^-1
    assert out == word_from_text(2, "x1^2 x2 x1^-1")
    assert free_circ_word_expand(op, [(a, 1), (a, -1)]).is_identity


# --- files -------------------------------------------------------------------------------


def test_rb_from_json_table(s3):
    op = rb_from_json({"order": 6, "map": list(inversion_operator(s3))})
    assert is_rb(s3, op).ok


def test_rb_from_json_free():
    op = rb_from_json({"rank": 2, "images": ["x1", "x1"]})
    assert isinstance(op, FreeRb)
    assert free_rb_apply(op, word_from_text(2, "x2 x1")) == word_from_text(2, "x1^2")


def test_rb_from_json_rejects():
    with pytest.raises(ValueError):
        rb_from_json({"order": 3, "map": [0, 1]})
    with pytest.raises(ValueError):
        rb_from_json({})
