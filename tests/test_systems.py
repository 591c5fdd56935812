import pytest

from oracles import inversion_operator, linear_level_by_recomposing, tuples
from skewbrace import groups, systems
from skewbrace.braces import SkewBrace, classify, enumerate_circ_ops, left_law_witness
from skewbrace.errors import (
    BaseMismatch,
    CarrierMismatch,
    NotRotaBaxter,
    OrderCapExceeded,
    PreconditionFails,
)
from skewbrace.groups import compose, identity_map, is_multiplicative
from skewbrace.systems import (
    build_linear_system,
    check_linear_preconditions,
    build_rb_multibrace,
    build_rooted_system,
    detect_period,
    export_graph,
    system_to_json,
    union_systems,
)


def inversion_lambda(z4):
    inv = bytes((0, 3, 2, 1))
    return [bytes(range(4)) if a % 2 == 0 else inv for a in range(4)]


def z2xz4_central_lambda(g):
    """Order-2 automorphism (u, v) -> (u, v + 2u), graded by v mod 2."""
    # packed index = u * 4 + v
    phi = bytes((x // 4) * 4 + ((x % 4) + 2 * (x // 4)) % 4 for x in range(8))
    return [phi if (x % 4) % 2 else bytes(range(8)) for x in range(8)]


@pytest.fixture(scope="module")
def z2xz4():
    return groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(4))


# --- linear systems -----------------------------------------------------------


def test_identity_lambda_collapses(z4):
    system = build_linear_system(z4, [tuple(range(4))] * 4, depth=3)
    assert len(system.vertices) == 1
    assert system.kind == "linear"
    assert detect_period(system) == 1


def test_z4_inversion_period(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=2)
    assert len(system.vertices) == 2  # o_2 collapses onto o_0
    assert system.label_map[2] == system.label_map[0]
    assert detect_period(system) == 2
    assert system.image_exponent == 2
    assert all(status == "verified" for status in system.edges.values())


def test_z4_depth_defaults_to_exponent(z4):
    system = build_linear_system(z4, inversion_lambda(z4))
    assert max(k for k in system.label_map) == 2


def test_z2xz4_central_depth_3(z2xz4):
    system = build_linear_system(z2xz4, z2xz4_central_lambda(z2xz4), depth=3)
    assert system.label_map[2] == system.label_map[0]
    assert system.label_map[3] == system.label_map[1]
    assert len(system.vertices) == 2
    assert detect_period(system) == 2
    assert all(status == "verified" for status in system.edges.values())


def test_negative_levels(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=2, include_negative=True)
    assert system.label_map[-1] == system.label_map[1]  # period 2
    assert system.label_map[-2] == system.label_map[0]


def test_closed_form_matches_iteration(z4):
    lam = inversion_lambda(z4)
    system = build_linear_system(z4, lam, depth=3)
    # iterate o_{i+1}[a][b] = o_i[a][lam_a(b)] from scratch
    tables = [z4.table]
    for _ in range(3):
        prev = tables[-1]
        tables.append(tuple(bytes(prev[a][lam[a][b]] for b in range(4)) for a in range(4)))
    for i, table in enumerate(tables):
        assert system.vertices[system.label_map[i]].table == table


def shear_lambda(m, k, c):
    """On Zm x Zk (index x * k + y): lambda_(x, y)(u, v) = (u, v + c x u)."""
    return [tuple(u * k + (v + c * (a // k) * u) % k for u in range(m) for v in range(k))
            for a in range(m * k)]


@pytest.mark.parametrize("m,k,c", [(2, 4, 2), (4, 8, 2), (3, 9, 3), (5, 5, 1)])
def test_levels_match_recomposing_from_identity(m, k, c):
    group = groups.direct_product(groups.cyclic_group(m), groups.cyclic_group(k))
    lam = shear_lambda(m, k, c)
    exponent = build_linear_system(group, lam).image_exponent
    depth = 3 * exponent
    system = build_linear_system(group, lam, depth=depth, include_negative=True)
    assert sorted(system.label_map) == list(range(-depth, depth + 1))
    for i in range(-depth, depth + 1):
        assert tuple(tuples(system.vertices[system.label_map[i]].table)) == \
            linear_level_by_recomposing(group, lam, i)
    assert len(system.vertices) == exponent


def test_cross_level_closed_form(z2xz4):
    # o_j (a, b) = o_i (a, lambda_a^{j-i}(b)) for all built i < j
    lam = z2xz4_central_lambda(z2xz4)
    system = build_linear_system(z2xz4, lam, depth=3)
    levels = sorted(k for k in system.label_map if k >= 0)
    for i in levels:
        for j in levels:
            if i >= j:
                continue
            ti = system.vertices[system.label_map[i]].table
            tj = system.vertices[system.label_map[j]].table
            for a in range(8):
                powered = identity_map(8)
                for _ in range(j - i):
                    powered = compose(lam[a], powered)
                assert all(tj[a][b] == ti[a][powered[b]] for b in range(8))


def test_level_pairs_are_symmetric_braces(z2xz4):
    system = build_linear_system(z2xz4, z2xz4_central_lambda(z2xz4), depth=2)
    for u, gu in enumerate(system.vertices):
        for v, gv in enumerate(system.vertices):
            if u == v:
                continue
            assert classify(SkewBrace(gu, gv)).symmetric


def test_kernel_and_image_level_independent(z2xz4):
    lam = z2xz4_central_lambda(z2xz4)
    system = build_linear_system(z2xz4, lam, depth=2)
    base_maps = tuple(lam)
    levels = sorted(k for k in system.label_map if k >= 0)
    for i in levels[:-1]:
        lower = system.vertices[system.label_map[i]]
        upper = system.vertices[system.label_map[i + 1]]
        brace = SkewBrace(lower, upper)
        assert brace.lam.maps == base_maps
    ident = identity_map(8)
    kernel = tuple(a for a in range(8) if lam[a] == ident)
    assert SkewBrace(system.vertices[0], system.vertices[1]).lam.kernel == kernel


def test_lambda_values_are_automorphisms_of_every_level(z4):
    lam = inversion_lambda(z4)
    system = build_linear_system(z4, lam, depth=2)
    for g in system.vertices:
        for arr in set(lam):
            assert is_multiplicative(g, g.table, arr) and len(set(arr)) == g.order


def test_precondition_errors(s3, z4):
    conj = [tuple(s3.inner[a]) for a in range(6)]
    with pytest.raises(PreconditionFails):
        build_linear_system(s3, conj, depth=1)  # kernel condition fails
    anti = [tuple(s3.inner[s3.inverse[a]]) for a in range(6)]
    with pytest.raises(PreconditionFails):
        build_linear_system(s3, anti, depth=1)  # not a homomorphism
    with pytest.raises(PreconditionFails):
        build_linear_system(z4, [(0, 1, 1, 1)] * 4, depth=1)


def test_every_homomorphic_symmetric_brace_meets_the_linear_preconditions():
    """The proof in check_linear_preconditions, over every labeled brace of the census groups.

    Each such brace is also level 1 of the linear system of its own lambda.
    """
    z8xz2 = groups.direct_product(groups.cyclic_group(8), groups.cyclic_group(2))
    bench16 = [groups.cyclic_group(16), z8xz2, groups.dihedral_group(8), groups.dicyclic_group(4)]
    seen = nontrivial = 0
    for g in groups.small_group_catalog(12) + bench16:
        for brace in enumerate_circ_ops(g):
            flags = brace.classification
            if flags.lambda_homomorphic and flags.symmetric:
                facts = check_linear_preconditions(g, list(brace.lam.maps))
                assert facts.maps == brace.lam.maps and facts.image_abelian, g.name
                level1 = build_linear_system(g, facts.maps, depth=1)
                assert level1.vertices[level1.label_map[1]].table == brace.circ.table, g.name
                seen += 1
                nontrivial += facts.image_order > 1 and g.table != g.columns
    assert (seen, nontrivial) == (563, 304)


def test_vertex_cap(z4, monkeypatch):
    monkeypatch.setattr(systems, "MAX_SYSTEM_VERTICES", 1)
    with pytest.raises(OrderCapExceeded):
        build_linear_system(z4, inversion_lambda(z4), depth=2)


def test_detect_period_none_when_depth_short(z4):
    # build only up to depth 1: the period-2 collapse is not yet visible
    system = build_linear_system(z4, inversion_lambda(z4), depth=1)
    assert detect_period(system) is None


def test_exponent_four_period():
    # Z4 x Z5 graded by the Z4 coordinate, acting on the Z5 part by doubling
    g = groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(5))
    doubling = []
    for k in range(4):
        mult = pow(2, k, 5)
        doubling.append(tuple((x // 5) * 5 + (mult * (x % 5)) % 5 for x in range(20)))
    lam = [doubling[x // 5] for x in range(20)]
    system = build_linear_system(g, lam)
    assert system.image_exponent == 4
    period = detect_period(system)
    assert period in (1, 2, 4)
    assert period == 4
    assert all(status == "verified" for status in system.edges.values())


# --- unions ---------------------------------------------------------------------


def z2cubed_lambdas():
    g = groups.direct_product(
        groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2)),
        groups.cyclic_group(2))
    # coordinates: index = 4*e1 + 2*e2 + e3
    a_img = tuple(x ^ 4 if x & 1 else x for x in range(8))      # adds e1 when e3 set
    b_img = tuple(x ^ 4 if x & 2 else x for x in range(8))      # adds e1 when e2 set
    lam1 = [a_img if x & 1 else tuple(range(8)) for x in range(8)]
    lam2 = [b_img if x & 2 else tuple(range(8)) for x in range(8)]
    return g, lam1, lam2


def test_union_of_system_with_itself(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=1)
    merged = union_systems(system, system)
    assert len(merged.vertices) == len(system.vertices)
    assert merged.hypotheses_met
    assert merged.kind == "full_symmetric"


def test_union_crossed_kernels():
    g, lam1, lam2 = z2cubed_lambdas()
    sys1 = build_linear_system(g, lam1)
    sys2 = build_linear_system(g, lam2)
    merged = union_systems(sys1, sys2)
    assert merged.hypotheses_met
    assert merged.kind == "full_symmetric"
    assert len(merged.vertices) == 3  # base, and one nontrivial level each
    assert all(status == "verified" for status in merged.edges.values())


def test_union_mismatch_errors(z4, s3):
    sys_z4 = build_linear_system(z4, inversion_lambda(z4), depth=1)
    sys_s3 = build_linear_system(s3, [tuple(range(6))] * 6, depth=1)
    with pytest.raises(CarrierMismatch):
        union_systems(sys_z4, sys_s3)
    klein = groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))
    sys_klein = build_linear_system(klein, [tuple(range(4))] * 4, depth=1)
    with pytest.raises(BaseMismatch):
        union_systems(sys_z4, sys_klein)


def test_union_without_hypotheses_reports_edges():
    g, lam1, _ = z2cubed_lambdas()
    # grade by e2 and act by adding e3: the commutator values {0, e3} leave
    # the kernel of lam1 (graded by e3), so the crossed containment fails
    c_img = tuple(x ^ 1 if x & 2 else x for x in range(8))
    lam3 = [c_img if x & 2 else tuple(range(8)) for x in range(8)]
    sys1 = build_linear_system(g, lam1)
    sys3 = build_linear_system(g, lam3)
    merged = union_systems(sys1, sys3)
    assert merged.hypotheses_met is False
    assert set(merged.edges.values()) <= {"verified", "failed"}


# --- operator towers ---------------------------------------------------------------


def test_tower_constant_operator(s3):
    system = build_rb_multibrace(s3, (0,) * 6, 3)
    assert len(system.vertices) == 1


def test_tower_inversion_s3(s3):
    system = build_rb_multibrace(s3, inversion_operator(s3), 2)
    assert system.vertices[system.label_map[1]].table == s3.opposite().table
    for i in (1, 2):
        u, v = system.label_map[i - 1], system.label_map[i]
        if u != v:
            assert system.edges[(u, v)] == "verified"


def test_tower_endomorphism_z2xz4(z2xz4):
    b = tuple((x % 4 % 2) * 2 for x in range(8))  # image in the 2-torsion of the Z4 factor

    def is_endo():
        return all(b[z2xz4.table[x][y]] == z2xz4.table[b[x]][b[y]]
                   for x in range(8) for y in range(8))

    assert is_endo()
    system = build_rb_multibrace(z2xz4, b, 3)
    for i in range(1, 4):
        u, v = system.label_map[i - 1], system.label_map[i]
        if u != v:
            assert system.edges[(u, v)] == "verified"


def test_tower_rejects_non_rb(s3):
    with pytest.raises(NotRotaBaxter):
        build_rb_multibrace(s3, tuple(range(6)), 2)


def test_tower_tags_nonconsecutive_pairs(s3):
    system = build_rb_multibrace(s3, inversion_operator(s3), 2)
    for (u, v), status in system.edges.items():
        assert status in ("verified", "failed")
        expected = left_law_witness(system.vertices[u], system.vertices[v]) is None
        assert (status == "verified") == expected


# --- rooted systems -------------------------------------------------------------------


def test_rooted_system_from_enumeration(z4):
    circs = [b.circ for b in enumerate_circ_ops(z4)]
    system = build_rooted_system(z4, circs)
    assert system.kind == "rooted"
    root = system.label_map["root"]
    assert all(u == root for (u, _) in system.edges)
    assert all(status == "verified" for status in system.edges.values())


# --- export ----------------------------------------------------------------------------


def test_export_single_vertex(z4):
    system = build_linear_system(z4, [tuple(range(4))] * 4, depth=1)
    dot = export_graph(system)
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_export_two_vertices_both_arcs(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=1)
    dot = export_graph(system)
    assert "v0 -> v1;" in dot and "v1 -> v0;" in dot


def test_export_failed_edge_annotated(s3):
    system = build_rb_multibrace(s3, inversion_operator(s3), 2)
    dot = export_graph(system)
    if any(status == "failed" for status in system.edges.values()):
        assert 'status="failed"' in dot
    # force a failed edge deterministically with a handmade system
    from skewbrace.systems import BraceSystemGraph

    z4 = groups.cyclic_group(4)
    bad = BraceSystemGraph(4, (z4, z4), ("circ_0", "circ_1"),
                           {(0, 1): "failed"}, "general")
    assert 'v0 -> v1 [status="failed", style=dashed];' in export_graph(bad)


def test_export_json_schema(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=1)
    payload = system_to_json(system)
    assert payload["carrier_order"] == 4
    assert payload["kind"] == "linear"
    assert len(payload["vertices"]) == 2
    assert sorted(tuple(e) for e in payload["edges"]) == [(0, 1, "verified"), (1, 0, "verified")]


def test_export_deterministic(z4):
    system = build_linear_system(z4, inversion_lambda(z4), depth=2)
    assert export_graph(system) == export_graph(system)
