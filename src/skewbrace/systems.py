"""Brace systems: families of group operations on one carrier, as labeled graphs.

A vertex is an operation table, an ordered edge (u, v) records whether the
pair (carrier, op_u, op_v) satisfies the left brace law.  Vertices are
deduplicated by exact table equality, keeping the label closest to the base.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from types import MappingProxyType

from .braces import LambdaMap, SkewBrace, left_law_witness, link_conditions
from .errors import (
    BaseMismatch,
    CarrierMismatch,
    CriterionMismatch,
    NotAutomorphism,
    NotRotaBaxter,
    OrderCapExceeded,
    PreconditionFails,
)
from .groups import FiniteGroup, compose, identity_map, invert_permutation
from .rota import is_rb, rb_brace

MAX_TOWER_HEIGHT = 1000
"""The tallest operator tower ``build_rb_multibrace`` builds: it derives and keeps every level."""

MAX_SYSTEM_VERTICES = 64
"""The most distinct operations a system keeps: every ordered pair of them is checked."""


class BraceSystemGraph(namedtuple("BraceSystemGraph", "carrier_order vertices labels edges kind "
                                   "label_map lam hypotheses_met",
                                   defaults=(MappingProxyType({}), None, None))):
    """A brace system as a labeled graph.

    vertices        FiniteGroup per vertex
    labels          display label per vertex (str)
    edges           (u, v) -> "verified" | "failed"
    kind            general | symmetric | full_symmetric | linear | rooted
    label_map       built level -> vertex index; an empty read-only mapping when not given
    lam             level-0 assignment, when built from one
    hypotheses_met  union linking hypotheses, when evaluated
    """

    __slots__ = ()

    @property
    def image_exponent(self) -> int | None:
        return self.lam.image_exponent if self.lam else None

    def verified_edges(self):
        return sorted(k for k, v in self.edges.items() if v == "verified")

    def is_edge_symmetric(self) -> bool:
        verified = {k for k, v in self.edges.items() if v == "verified"}
        return all((v, u) in verified for (u, v) in verified)


def _verify_all_pairs(vertices) -> dict:
    return {(u, v): "verified" if left_law_witness(gu, gv) is None else "failed"
            for u, gu in enumerate(vertices) for v, gv in enumerate(vertices) if u != v}


def _dedupe(groups_by_label):
    """Keep the first group with each table, in the given label order."""
    vertices, labels, label_map, seen = [], [], {}, {}
    for label, group in groups_by_label:
        if group.table not in seen:
            if len(vertices) >= MAX_SYSTEM_VERTICES:
                raise OrderCapExceeded(f"system would exceed {MAX_SYSTEM_VERTICES} vertices")
            seen[group.table] = len(vertices)
            vertices.append(group)
            labels.append(f"circ_{label}")
        label_map[label] = seen[group.table]
    return tuple(vertices), tuple(labels), label_map


# ---------------------------------------------------------------------------
# Linear systems from an abelian-image lambda assignment


def check_linear_preconditions(group: FiniteGroup, lam) -> LambdaMap:
    """The assignment must be a homomorphism with abelian image whose
    commutator values land in its kernel; each value an automorphism.

    The lambda of every lambda-homomorphic symmetric skew brace passes. Each
    lambda_a is an automorphism of (G, .). In any brace
    lambda_{a o b} = lambda_a lambda_b and a o b = a . lambda_a(b). If lambda
    is also a homomorphism of (G, .), then
    lambda_a lambda_b = lambda_{a . lambda_a(b)} = lambda_a lambda_{lambda_a(b)},
    so lambda_{lambda_a(b)} = lambda_b and
    lambda_{b^-1 . lambda_a(b)} = lambda_b^-1 lambda_b = id: b^-1 . lambda_a(b)
    lies in Ker lambda. A symmetric brace has lambda anti-homomorphic on
    (G, .) as well, so lambda_a lambda_b = lambda_{a . b} = lambda_b lambda_a,
    and the image is abelian.
    """
    try:
        facts = LambdaMap.of(group, lam)
    except NotAutomorphism as exc:
        raise PreconditionFails("lambda value is not an automorphism", exc.element) from None
    if facts.hom_witness is not None:
        raise PreconditionFails("lambda is not a homomorphism", facts.hom_witness)
    if not facts.image_abelian:
        raise PreconditionFails("lambda image is not abelian", None)
    witness = facts.kernel_witness(facts.kernel)
    if witness is not None:
        raise PreconditionFails("kernel condition fails", witness)
    return facts


def build_linear_system(group: FiniteGroup, lam, depth: int | None = None,
                        include_negative: bool = False) -> BraceSystemGraph:
    """Materialize the iterated operations a o_i b = a . lambda_a^i(b).

    ``depth`` defaults to the exponent of the image, so the whole period is
    built; negative levels use the inverse automorphisms. Each level's
    lambda_a^i is one composition from the level before it, and each distinct
    level is one SkewBrace.from_lambda. A depth above MAX_TOWER_HEIGHT raises
    ValueError before any level is built. Every ordered pair of distinct
    vertices is verified and must pass.
    """
    facts = check_linear_preconditions(group, lam)
    if depth is None:
        depth = facts.image_exponent
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > MAX_TOWER_HEIGHT:
        raise ValueError(f"depth {depth} exceeds the bound of {MAX_TOWER_HEIGHT}")
    n = group.order
    built = {identity_map(n) * n: group}   # level groups by their joined powers; all id is level 0

    def levels(steps, sign):
        """(sign * i, group of level sign * i) for i = 1..depth, from the powers steps[a]^i."""
        powers = [identity_map(n)] * n
        for i in range(1, depth + 1):
            powers = [compose(step, power) for step, power in zip(steps, powers)]
            key = b"".join(powers)
            if key not in built:
                built[key] = SkewBrace.from_lambda(LambdaMap.of_automorphisms(group, powers)).circ
            yield sign * i, built[key]

    negative = levels([invert_permutation(m) for m in facts.maps], -1) if include_negative else ()
    vertices, labels, label_map = _dedupe(chain([(0, group)], levels(facts.maps, 1), negative))
    edges = _verify_all_pairs(vertices)
    if any(status == "failed" for status in edges.values()):
        raise CriterionMismatch("a pair of iterated operations failed the brace law")
    return BraceSystemGraph(
        carrier_order=n,
        vertices=vertices,
        labels=labels,
        edges=edges,
        kind="linear",
        label_map=label_map,
        lam=facts,
    )


def detect_period(system: BraceSystemGraph) -> int | None:
    """Smallest p >= 1 with o_p = o_0 among the built levels, or None."""
    if 0 not in system.label_map:
        raise PreconditionFails("system was not built from a level iteration")
    base = system.label_map[0]
    positive = sorted(lbl for lbl in system.label_map if lbl >= 1)
    for p in positive:
        if system.label_map[p] == base:
            if system.image_exponent is not None and system.image_exponent % p != 0:
                raise CriterionMismatch(
                    f"period {p} does not divide the image exponent {system.image_exponent}")
            return p
    return None


# ---------------------------------------------------------------------------
# Unions


def union_systems(sys1: BraceSystemGraph, sys2: BraceSystemGraph) -> BraceSystemGraph:
    """Merge two linear systems sharing carrier and base vertex.

    The linking hypotheses (commuting images, crossed kernel containments)
    are evaluated on the level-0 assignments; when they hold every cross pair
    must verify, otherwise the per-edge results stand on their own.
    """
    if sys1.carrier_order != sys2.carrier_order:
        raise CarrierMismatch("carrier orders differ")
    if sys1.vertices[sys1.label_map.get(0, 0)].table != sys2.vertices[sys2.label_map.get(0, 0)].table:
        raise BaseMismatch("base operations differ")
    hypotheses_met = None
    if sys1.lam is not None and sys2.lam is not None:
        hypotheses_met = all(link_conditions(sys1.lam, sys2.lam))

    tagged = [(("a", lbl), g) for lbl, g in zip(sys1.labels, sys1.vertices)]
    tagged += [(("b", lbl), g) for lbl, g in zip(sys2.labels, sys2.vertices)]
    vertices, _, _ = _dedupe(tagged)
    edges = _verify_all_pairs(vertices)
    if hypotheses_met and any(status == "failed" for status in edges.values()):
        raise CriterionMismatch("union hypotheses held but a cross pair failed")
    graph = BraceSystemGraph(
        carrier_order=sys1.carrier_order,
        vertices=vertices,
        labels=tuple(f"circ_{i}" for i in range(len(vertices))),
        edges=edges,
        kind="full_symmetric" if hypotheses_met else "general",
        label_map={},
        hypotheses_met=hypotheses_met,
    )
    if not hypotheses_met and graph.is_edge_symmetric():
        return graph._replace(kind="symmetric")
    return graph


# ---------------------------------------------------------------------------
# Operator towers


def build_rb_multibrace(group: FiniteGroup, b_map, k: int) -> BraceSystemGraph:
    """The operator tower o_0 = ., o_{i+1} built from o_i and the operator.

    Consecutive pairs must satisfy the mixed law (asserted); non-consecutive
    pairs are tested and tagged but carry no guarantee. A height above
    MAX_TOWER_HEIGHT raises ValueError before any level is derived.
    """
    check = is_rb(group, b_map)
    if not check.ok:
        raise NotRotaBaxter(check.witness)
    if k < 0:
        raise ValueError("tower height must be non-negative")
    if k > MAX_TOWER_HEIGHT:
        raise ValueError(f"tower height {k} exceeds the bound of {MAX_TOWER_HEIGHT}")
    levels, derived = [group], {}
    for _ in range(k):
        current = levels[-1]
        if current.table not in derived:     # a repeated level repeats the tower from there
            derived[current.table] = rb_brace(current, b_map).circ
        levels.append(derived[current.table])
    vertices, labels, label_map = _dedupe(enumerate(levels))
    edges = _verify_all_pairs(vertices)
    for i in range(1, k + 1):
        u, v = label_map[i - 1], label_map[i]
        if u != v and edges[(u, v)] != "verified":
            raise CriterionMismatch(f"consecutive pair ({i - 1}, {i}) failed the mixed law")
    return BraceSystemGraph(
        carrier_order=group.order,
        vertices=vertices,
        labels=labels,
        edges=edges,
        kind="linear",
        label_map=label_map,
    )


def build_rooted_system(base: FiniteGroup, circ_groups) -> BraceSystemGraph:
    """Root vertex plus one vertex per operation, with root -> vertex edges."""
    vertices, _, label_map = _dedupe([("root", base)] + list(enumerate(circ_groups)))
    labels = ("circ_root",) + tuple(f"circ_{i}" for i in range(1, len(vertices)))
    root = label_map["root"]
    edges = {}
    for v in range(len(vertices)):
        if v == root:
            continue
        status = "verified" if left_law_witness(vertices[root], vertices[v]) is None else "failed"
        edges[(root, v)] = status
    return BraceSystemGraph(
        carrier_order=base.order,
        vertices=vertices,
        labels=labels,
        edges=edges,
        kind="rooted",
        label_map=label_map,
    )


# ---------------------------------------------------------------------------
# Export


def export_graph(system: BraceSystemGraph) -> str:
    """The graph in DOT: one node per vertex, one arc per checked pair, a failed arc dashed."""
    lines = ["digraph brace_system {"]
    for i, label in enumerate(system.labels):
        lines.append(f'  v{i} [label="{label}"];')
    for (u, v) in sorted(system.edges):
        if system.edges[(u, v)] == "verified":
            lines.append(f"  v{u} -> v{v};")
        else:
            lines.append(f'  v{u} -> v{v} [status="failed", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def system_to_json(system: BraceSystemGraph) -> dict:
    return {
        "carrier_order": system.carrier_order,
        "kind": system.kind,
        "labels": list(system.labels),
        "vertices": [[list(row) for row in g.table] for g in system.vertices],
        "edges": [[u, v, system.edges[(u, v)]] for (u, v) in sorted(system.edges)],
    }
