import pytest

from oracles import nilpotency_class, sub_brace_by_verify_group
from skewbrace import groups, structure
from skewbrace.braces import (
    classify,
    construct_exact_factorization,
    construct_from_lambda,
    enumerate_circ_ops,
    op_brace,
    trivial_brace,
)
from skewbrace.errors import NotAnIdeal, NotAntiHomomorphism, OrderCapExceeded
from skewbrace.groups import compose, invert_permutation
from skewbrace.structure import (
    all_ideals,
    brace_automorphisms,
    is_ideal,
    kernel_ideal,
    naturality_report,
    quotient_brace,
    triviality_step,
)


def inversion_brace():
    z4 = groups.cyclic_group(4)
    inv = (0, 3, 2, 1)
    return construct_from_lambda(
        z4, [tuple(range(4)) if a % 2 == 0 else inv for a in range(4)], "homomorphic")


def s3_factorization_brace(s3):
    a3 = groups.derived_subgroup(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    return construct_exact_factorization(s3, a3, (0, transposition))


# --- ideals -----------------------------------------------------------------


def test_singleton_and_whole_are_ideals(s3):
    brace = op_brace(s3)
    assert is_ideal(brace, (0,)).is_ideal
    assert is_ideal(brace, tuple(range(6))).is_ideal


def test_a3_is_ideal_of_op_brace(s3):
    brace = op_brace(s3)
    a3 = groups.derived_subgroup(s3)
    assert is_ideal(brace, a3).is_ideal


def test_transposition_subgroup_fails_normality(s3):
    brace = op_brace(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    report = is_ideal(brace, (0, transposition))
    assert not report.normal_add
    assert not report.is_ideal
    assert report.witness is not None


def test_missing_identity_rejected(s3):
    report = is_ideal(op_brace(s3), (1, 2))
    assert not report.is_ideal and report.witness == ("identity",)


def test_all_ideals_of_op_brace(s3):
    brace = op_brace(s3)
    found = all_ideals(brace)
    a3 = groups.derived_subgroup(s3)
    assert found == [(0,), a3, tuple(range(6))]


def test_ideal_cap(d16):
    big = groups.direct_product(d16, groups.cyclic_group(2))
    with pytest.raises(OrderCapExceeded):
        all_ideals(trivial_brace(big))


# --- kernel ideal -----------------------------------------------------------


def test_kernel_ideal_trivial_brace(z4):
    assert kernel_ideal(trivial_brace(z4)).elements == (0, 1, 2, 3)


def test_kernel_ideal_op_brace(s3):
    assert kernel_ideal(op_brace(s3)).elements == (0,)  # centerless carrier


def test_kernel_ideal_inversion():
    assert kernel_ideal(inversion_brace()).elements == (0, 2)


def test_kernel_ideal_always_passes(s3, d4):
    for brace in (op_brace(d4), s3_factorization_brace(s3), inversion_brace()):
        report = kernel_ideal(brace)
        assert is_ideal(brace, report.elements).is_ideal


def test_kernel_not_an_ideal_over_dic12():
    # Ker lambda is an ideal of every anti-homomorphic brace, not of every brace
    found = enumerate_circ_ops(groups.dicyclic_group(3))
    anti = [b for b in found if b.lam.anti_homomorphic_on_add]
    for brace in anti:
        assert is_ideal(brace, kernel_ideal(brace).elements).is_ideal
    failing = [b for b in found if not is_ideal(b, b.lam.kernel).is_ideal]
    assert failing
    for brace in failing:
        assert not brace.lam.anti_homomorphic_on_add
        with pytest.raises(NotAnIdeal):
            kernel_ideal(brace)


# --- quotients ----------------------------------------------------------------


def test_quotient_by_singleton_is_copy(s3):
    brace = op_brace(s3)
    q = quotient_brace(brace, is_ideal(brace, (0,)))
    assert q.add.table == brace.add.table
    assert q.circ.table == brace.circ.table


def test_quotient_by_everything(s3):
    brace = op_brace(s3)
    q = quotient_brace(brace, is_ideal(brace, tuple(range(6))))
    assert q.order == 1


def test_quotient_s3_by_a3(s3):
    brace = op_brace(s3)
    a3 = groups.derived_subgroup(s3)
    q = quotient_brace(brace, is_ideal(brace, a3))
    assert q.order == 2
    assert q.is_trivial


def test_quotient_rejects_non_ideal(s3):
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    brace = op_brace(s3)
    with pytest.raises(NotAnIdeal):
        quotient_brace(brace, is_ideal(brace, (0, transposition)))


def test_sub_brace_restriction(s3):
    brace = op_brace(s3)
    a3 = groups.derived_subgroup(s3)
    part = sub_brace_by_verify_group(brace, a3)
    assert part.order == 3
    assert part.is_trivial  # A3 is abelian, so the opposite agrees


def test_sub_brace_takes_exactly_the_subgroups_of_both_operations(d4):
    # as a o b = a . lambda_a(b), a subgroup of (G, .) is one of (G, o) iff each lambda_a keeps it
    refused = 0
    for brace in enumerate_circ_ops(d4):
        for members in structure.all_subgroups(brace.add):
            kept = all(brace.lam.maps[a][b] in members for a in members for b in members)
            assert (groups.subgroup_closure_in(brace.circ, members) == members) == kept
            if kept:
                assert sub_brace_by_verify_group(brace, members).order == len(members)
            else:
                refused += 1
    assert refused > 0


# --- triviality chains -----------------------------------------------------------


def test_step_of_trivial_brace(z4):
    brace = trivial_brace(z4)
    found = triviality_step(brace, all_ideals(brace))
    assert found.step == 1
    assert found.chain == ((0,), (0, 1, 2, 3))


def test_step_of_trivial_group_brace():
    brace = trivial_brace(groups.trivial_group())
    found = triviality_step(brace, all_ideals(brace))
    assert found.step == 0


def test_step_of_s3_op_brace(s3):
    brace = op_brace(s3)
    found = triviality_step(brace, all_ideals(brace))
    a3 = groups.derived_subgroup(s3)
    assert found.step == 2
    assert found.chain == ((0,), a3, tuple(range(6)))


def test_step_of_d4_op_brace(d4):
    brace = op_brace(d4)
    found = triviality_step(brace, all_ideals(brace))
    assert found is not None and found.step <= 2


def test_step_bounded_by_nilpotency_class(d4, q8, d16):
    for g in (d4, q8, d16):
        brace = op_brace(g)
        found = triviality_step(brace, all_ideals(brace))
        assert found is not None
        assert found.step <= nilpotency_class(g)


def test_chains_recheck(s3, d4):
    for brace in (op_brace(s3), op_brace(d4), inversion_brace()):
        found = triviality_step(brace, all_ideals(brace))
        for lower, upper in zip(found.chain, found.chain[1:]):
            assert set(lower) < set(upper)
            assert is_ideal(brace, lower).is_ideal
            part = sub_brace_by_verify_group(brace, upper)
            index = {x: i for i, x in enumerate(upper)}
            q = quotient_brace(part, is_ideal(part, tuple(index[x] for x in lower)))
            assert q.is_trivial


# --- naturality ---------------------------------------------------------------------


def test_op_brace_is_natural(s3):
    report = naturality_report(op_brace(s3))
    assert report["is_natural"]


def test_factorization_brace_quotient_natural(s3):
    brace = s3_factorization_brace(s3)
    report = naturality_report(brace)
    assert not report["is_natural"]
    assert report["quotient_natural"]
    assert quotient_brace(brace, kernel_ideal(brace)).order == 2


def test_naturality_report_checks_the_kernel_once(s3, monkeypatch):
    # quotient_brace takes the IdealReport of kernel_ideal as it is
    brace = s3_factorization_brace(s3)
    expected = naturality_report(brace)
    calls = []
    checked = structure.is_ideal
    monkeypatch.setattr(structure, "is_ideal", lambda b, elements: calls.append(elements) or checked(b, elements))
    assert naturality_report(brace) == expected
    assert calls == [brace.lam.kernel]


def test_quotient_refuses_a_failing_report(s3):
    brace = op_brace(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    failing = is_ideal(brace, (0, transposition))
    assert not failing.is_ideal
    with pytest.raises(NotAnIdeal) as caught:
        quotient_brace(brace, failing)
    assert str(caught.value) == f"[0, {transposition}] fails {failing.witness}"


def test_trivial_abelian_natural(z4):
    report = naturality_report(trivial_brace(z4))
    assert report["is_natural"]


def test_naturality_requires_anti(d4):
    non_anti = next(
        b for b in enumerate_circ_ops(d4) if not classify(b).lambda_anti_homomorphic
    )
    t, inv, circ = d4.table, d4.inverse, non_anti.circ.table
    lam = [bytes(t[inv[a]][circ[a][b]] for b in range(8)) for a in range(8)]   # a^-1 (a o b)
    first = next((a, b) for a in range(8) for b in range(8)
                 if lam[t[a][b]] != compose(lam[b], lam[a]))
    with pytest.raises(NotAntiHomomorphism) as info:
        naturality_report(non_anti)
    assert info.value.witness == first


# --- brace automorphisms --------------------------------------------------------------


def test_trivial_brace_automorphisms(z3):
    maps = brace_automorphisms(trivial_brace(z3))
    assert [m for m in maps] == [bytes((0, 1, 2)), bytes((0, 2, 1))]


def test_trivial_group_brace_automorphisms():
    maps = brace_automorphisms(trivial_brace(groups.trivial_group()))
    assert len(maps) == 1


def test_inversion_brace_contains_lambda():
    brace = inversion_brace()
    maps = set(brace_automorphisms(brace))
    assert bytes((0, 3, 2, 1)) in maps  # the nontrivial lambda value


def test_brace_automorphisms_closed(s3):
    maps = list(brace_automorphisms(op_brace(s3)))
    as_set = set(maps)
    for f in maps:
        assert invert_permutation(f) in as_set
        for g in maps:
            assert compose(f, g) in as_set
