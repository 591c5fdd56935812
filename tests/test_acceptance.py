"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (discrete algebra); the time bounds are generous
wall-clock ceilings for desk-scale hardware.
"""

import json
import time

from oracles import (
    brute_force_circ_tables,
    circ_orbits_by_relabeling,
    circ_word_expand,
    holomorph_members,
    inversion_operator,
    next_in,
    regular_subgroup_count_by_lambda_walk,
    regular_subgroups_by_closure,
    tuples,
)
from skewbrace import groups
from skewbrace.braces import (
    SkewBrace,
    assignment_orbits,
    classify,
    enumerate_circ_ops,
    left_law_witness,
    op_brace,
    regular_subgroups,
    trivial_brace,
)
from skewbrace.config import SampleConfig
from skewbrace.lattice import lattice_system_check
from skewbrace.rota import (
    is_rb,
    rb_brace,
    rb_endomorphisms,
    rb_lambda_hom_check,
    rb_self_maps,
    rb_symmetry_check,
)
from skewbrace.rng import Lcg
from skewbrace.structure import (
    all_ideals,
    brace_automorphisms,
    naturality_report,
    triviality_step,
)
from skewbrace.systems import build_linear_system, detect_period
from skewbrace.words import (
    FreeWord,
    GeneratorCycle,
    Inner,
    sampled_brace_check,
    verify_cyclic1,
    verify_t4,
    word_from_text,
)


def report_line(number, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({elapsed:.2f}s)")


_census_cache = []


def census():
    """Every brace over every group of order <= 8, with classification flags.

    Built once, inside the timer of whichever criterion runs first, so the
    enumeration cost is charged against a stated budget.
    """
    if not _census_cache:
        for g in groups.small_group_catalog(8):
            for brace in enumerate_circ_ops(g):
                _census_cache.append((g, brace, classify(brace)))
    return _census_cache


def test_criterion_1_enumeration_oracle_equivalence():
    start = time.monotonic()
    cases = [
        (groups.cyclic_group(2), 1),
        (groups.cyclic_group(3), 1),
        (groups.cyclic_group(4), 2),
        (groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2)), 4),
    ]
    problems = []
    for group, expected in cases:
        found = {tuple(tuples(b.circ.table)) for b in enumerate_circ_ops(group)}
        oracle = {tuple(map(tuple, t)) for t in brute_force_circ_tables(group)}
        if found != oracle:
            problems.append(f"{group.name}: sets differ")
        if len(found) != expected:
            problems.append(f"{group.name}: {len(found)} braces, expected {expected}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 5.0
    report_line(1, "enumeration equals the brute-force oracle (1/1/2/4)", ok, elapsed)
    assert not problems, problems
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_symmetry_criterion_equivalence():
    start = time.monotonic()
    mismatches = []
    for g, brace, flags in census():
        lam = brace.lam
        n = g.order
        criterion = all(
            lam.maps[brace.circ.table[a][b]] == lam.maps[g.table[b][a]]
            for a in range(n) for b in range(n)
        )
        direct = left_law_witness(brace.circ, brace.add) is None
        if criterion != direct:
            mismatches.append((g.name, brace.circ.table))
        if flags.symmetric != criterion:
            mismatches.append((g.name, "classify disagrees"))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    report_line(2, "symmetry criterion equals direct verification on the census", ok, elapsed)
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_3_sufficient_conditions_for_symmetry():
    start = time.monotonic()
    counterexamples = []
    for g, brace, flags in census():
        if flags.lambda_anti_homomorphic and not flags.symmetric:
            counterexamples.append((g.name, "anti-homomorphic but not symmetric"))
        if flags.lambda_homomorphic and brace.lam.image_abelian and not flags.symmetric:
            counterexamples.append((g.name, "homomorphic with abelian image but not symmetric"))
    elapsed = time.monotonic() - start
    ok = not counterexamples
    report_line(3, "anti-homomorphic and abelian-image braces are symmetric", ok, elapsed)
    assert not counterexamples, counterexamples[:3]


def test_criterion_4_linear_system_laws():
    start = time.monotonic()
    problems = []

    z4 = groups.cyclic_group(4)
    inv4 = (0, 3, 2, 1)
    lam_z4 = [tuple(range(4)) if a % 2 == 0 else inv4 for a in range(4)]

    z2xz4 = groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(4))
    phi = tuple((x // 4) * 4 + ((x % 4) + 2 * (x // 4)) % 4 for x in range(8))
    lam_big = [phi if (x % 4) % 2 else tuple(range(8)) for x in range(8)]

    for group, lam, expected_exponent in ((z4, lam_z4, 2), (z2xz4, lam_big, 2)):
        system = build_linear_system(group, lam, depth=expected_exponent)
        if any(status != "verified" for status in system.edges.values()):
            problems.append(f"{group.name}: some ordered pair failed")
        period = detect_period(system)
        if period != system.image_exponent or period != expected_exponent:
            problems.append(f"{group.name}: period {period} != exponent {system.image_exponent}")
        # kernel and image are level-independent
        levels = sorted(k for k in system.label_map if k >= 0)
        base_maps = tuple(bytes(m) for m in lam)
        for i in levels[:-1]:
            lower = system.vertices[system.label_map[i]]
            upper = system.vertices[system.label_map[i + 1]]
            level_brace = SkewBrace(lower, upper)
            if level_brace.lam.maps != base_maps:
                problems.append(f"{group.name}: lambda changed at level {i}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 5.0
    report_line(4, "linear systems verify all pairs with level-stable data", ok, elapsed)
    assert not problems, problems
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_5_cycle_grading_suite():
    start = time.monotonic()
    problems = []
    for n in (2, 3, 4, 5):
        report = verify_cyclic1(n)
        if report["kernel_rank"] != n * n - n + 1:
            problems.append(f"n={n}: kernel rank {report['kernel_rank']}")
        if report["mismatch_count"] != 0:
            bad = [c for c in report["checks"] if not c["ok"]]
            problems.append(f"n={n}: {len(bad)} formula mismatches: {bad[:2]}")
        if not report["rank_consistent"]:
            problems.append(f"n={n}: Nielsen-Schreier count inconsistent")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    report_line(5, "cycle-graded formulas verify for n = 2..5", ok, elapsed)
    assert not problems, problems
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_6_conjugation_grading_suite():
    start = time.monotonic()
    problems = []
    for n in (2, 3):
        for m in range(-3, 4):
            if m == 0:
                w = word_from_text(n, "x2 x1^-1")
            else:
                w = FreeWord.generator(n, 1, m)
            report = verify_t4(n, w, window=6)
            if not report["modified_shift_ok"] or not report["raw_conjugation_ok"]:
                problems.append(f"n={n} m={m}: shift law failed")
            if m == -1:
                if not report["direct_product_regime"]:
                    problems.append(f"n={n}: m=-1 not flagged as direct product")
            else:
                if report["fundamental_domain_count"] != abs(m + 1) * (n - 1):
                    problems.append(f"n={n} m={m}: domain count off")
                if not report["rank_formula_consistent"]:
                    problems.append(f"n={n} m={m}: rank formula inconsistent")
            if m == 1 and report["printed_recurrence_consistent"] is not False:
                problems.append("printed recurrence was not reported as inconsistent")
    elapsed = time.monotonic() - start
    ok = not problems
    report_line(6, "shift law, domain counts and recurrence report", ok, elapsed)
    assert not problems, problems


def test_criterion_7_rota_baxter_suite():
    start = time.monotonic()
    problems = []

    # inversion is an operator everywhere and gives the natural opposite brace
    for g in groups.small_group_catalog(12):
        b = inversion_operator(g)
        if not is_rb(g, b).ok:
            problems.append(f"{g.name}: inversion not Rota-Baxter")
        elif rb_brace(g, b) != op_brace(g):
            problems.append(f"{g.name}: inversion brace differs from the opposite brace")

    # derived-group facts and both iff-criteria over the exhaustive search
    for g in groups.small_group_catalog(6):
        for b in rb_self_maps(g):
            brace = rb_brace(g, b)         # raises if the derived-group facts fail
            rb_symmetry_check(brace, b)    # raises if the booleans disagree
            rb_lambda_hom_check(brace, b)
    for g in groups.small_group_catalog(12):
        if g.order < 7:
            continue
        for b in rb_endomorphisms(g, groups.endomorphisms(g)):
            brace = rb_brace(g, b)
            rb_symmetry_check(brace, b)
            rb_lambda_hom_check(brace, b)

    # word expansion: fold vs closed form, 500 seeded words per group
    for g in groups.small_group_catalog(12):
        b = inversion_operator(g)
        rng = Lcg(0)
        for _ in range(500):
            letters = [(rng.next_int(g.order), next_in(rng, -2, 2)) for _ in range(4)]
            circ_word_expand(g, b, letters)  # raises on any fold/formula disagreement

    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    report_line(7, "Rota-Baxter operators, criteria and word expansion", ok, elapsed)
    assert not problems, problems
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"


def test_criterion_8_structure_suite():
    start = time.monotonic()
    problems = []

    s3 = groups.symmetric_group(3)
    brace = op_brace(s3)
    found = triviality_step(brace, all_ideals(brace))
    a3 = groups.derived_subgroup(s3)
    if found.step != 2 or found.chain != ((0,), a3, tuple(range(6))):
        problems.append(f"s3 chain: {found}")
    brace = trivial_brace(groups.cyclic_group(4))
    if triviality_step(brace, all_ideals(brace)).step != 1:
        problems.append("trivial brace should have step 1")

    for g, brace, flags in census():
        if flags.lambda_homomorphic and brace.lam.image_abelian:
            listed = set(brace_automorphisms(brace))
            if any(mp not in listed for mp in brace.lam.maps):
                problems.append(f"{g.name}: a lambda value is not a brace automorphism")
        if flags.lambda_anti_homomorphic:
            report = naturality_report(brace)
            if not (report["is_natural"] or report["quotient_natural"]):
                problems.append(f"{g.name}: naturality disjunction failed")

    elapsed = time.monotonic() - start
    ok = not problems
    report_line(8, "triviality steps, automorphisms and naturality", ok, elapsed)
    assert not problems, problems


def test_criterion_9_sampling_suites_deterministic():
    start = time.monotonic()
    problems = []
    config = SampleConfig(samples=500, seed=0)

    word_configs = [
        ("identity", GeneratorCycle(2, shift=0)),
        ("swap", GeneratorCycle(2)),
        ("inner", Inner(word_from_text(3, "x1 x2"))),
    ]
    for name, theta in word_configs:
        first = sampled_brace_check(theta, config)
        second = sampled_brace_check(theta, config)
        if first["failure_count"] != 0:
            problems.append(f"words/{name}: {first['failure_count']} failures")
        if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
            problems.append(f"words/{name}: reports not byte-identical")

    for p, depth in ((0, 2), (1, 3)):
        first = lattice_system_check(p, depth=depth, sampling=config)
        second = lattice_system_check(p, depth=depth, sampling=config)
        if first["failure_count"] != 0:
            problems.append(f"lattice/p={p}: {first['failure_count']} failures")
        if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
            problems.append(f"lattice/p={p}: reports not byte-identical")

    elapsed = time.monotonic() - start
    ok = not problems
    report_line(9, "seeded sampling suites are clean and reproducible", ok, elapsed)
    assert not problems, problems


def test_census_counts_match_independent_walk():
    # supporting invariant for criteria 1-3: the library's assignment walk,
    # with the orbits it meets rebuilt, finds the same regular subgroups as
    # closure inside the holomorph table on every group of order <= 12, and
    # the count-only walk agrees up to 8
    for g in groups.small_group_catalog(12):
        auts = groups.automorphism_group(g)
        orbits = assignment_orbits(g, auts, regular_subgroups(g, auts))
        found = holomorph_members([maps for orbit in orbits for maps in orbit], auts)
        assert found == list(regular_subgroups_by_closure(g)), g.name
        if g.order <= 8:
            assert len(enumerate_circ_ops(g)) == regular_subgroup_count_by_lambda_walk(g)


def test_census_orbits_match_guarnieri_vendramin():
    # The Aut(G)-orbits of the labeled braces over G are its isomorphism
    # classes; summed over the groups of each order 2-12 they give the
    # published counts of skew braces and of braces (abelian addition),
    # Guarnieri-Vendramin, Math. Comp. 86 (2017).
    skew, classical = [0] * 13, [0] * 13
    for g in groups.small_group_catalog(12)[1:]:
        orbits = len(circ_orbits_by_relabeling(g, [b.circ.table for b in enumerate_circ_ops(g)]))
        skew[g.order] += orbits
        classical[g.order] += orbits if g.table == g.columns else 0
    assert skew[2:] == [1, 1, 4, 1, 6, 1, 47, 4, 6, 1, 38]
    assert classical[2:] == [1, 1, 4, 1, 2, 1, 27, 4, 2, 1, 10]


def test_lambda_is_circle_homomorphism_over_census():
    # lambda_{a o b} = lambda_a . lambda_b holds for every brace
    from skewbrace.groups import compose

    for g, brace, _ in census():
        lam = brace.lam
        for a in range(g.order):
            for b in range(g.order):
                ab = brace.circ.table[a][b]
                assert lam.maps[ab] == compose(lam.maps[a], lam.maps[b])


def test_opposite_always_a_brace_over_census():
    # swapping the addition for its opposite keeps the left law (constructor
    # re-verifies it exhaustively and would raise)
    from skewbrace.braces import opposite

    for _, brace, _ in census():
        opposite(brace)


def test_opposite_symmetry_iff_empirical():
    # the opposite-symmetry criterion is only proved in one direction; check
    # the full equivalence over every homomorphic brace in the census and
    # surface any counterexample instead of assuming the converse
    from oracles import opposite_symmetry_check

    counterexamples = []
    for g, brace, flags in census():
        if not flags.lambda_homomorphic:
            continue
        report = opposite_symmetry_check(brace)
        if not report["iff_holds"]:
            counterexamples.append((g.name, report))
    assert not counterexamples, counterexamples


def test_link_and_cross_compatibility_lemmas_over_census():
    # both linking criteria carry internal assertions (criterion vs direct
    # verification); drive them across every ordered pair of braces sharing
    # an additive group of order <= 6
    from oracles import cross_compatibility_check, link_check

    for g in groups.small_group_catalog(6):
        found = enumerate_circ_ops(g)
        for b1 in found:
            for b2 in found:
                link_check(b1, b2)
                cross_compatibility_check(g, [list(r) for r in b1.circ.table],
                                          [list(r) for r in b2.circ.table])


def test_link_criterion_assertions_at_order_8():
    # at order 8 many brace pairs satisfy the linking hypotheses, engaging
    # the internal iff assertions for real
    from oracles import link_check

    engaged = 0
    for g in groups.small_group_catalog(8):
        if g.order != 8 or g.name == "Z2xZ2xZ2":  # the 232-brace census is covered above
            continue
        found = enumerate_circ_ops(g)
        for b1 in found:
            for b2 in found:
                report = link_check(b1, b2)
                engaged += report.hypothesis_met
    assert engaged > 100  # the assertions actually fired
