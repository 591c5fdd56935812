"""Rota-Baxter operators on groups and the braces they induce.

A self-map B is a Rota-Baxter operator (of weight 1) when
``B(g) B(h) = B(g B(g) h B(g)^-1)``; it equips the carrier with a derived
group operation ``g o h = g B(g) h B(g)^-1`` and hence a skew brace.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .braces import LambdaMap, SkewBrace
from .config import DEFAULT_SAMPLING, CheckedRecord, SampleConfig
from .errors import CriterionMismatch, NotRotaBaxter, PreconditionFails, RankMismatch
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    _lut,
    _regular_assignments,
    automorphism_group,
    automorphism_orbits,
    conjugation_by,
    endomorphisms,
    hom_witness,
    is_multiplicative,
    is_self_map,
    json_field,
)
from .rng import Lcg
from .words import (
    MAX_EXPONENT,
    MAX_SYLLABLES,
    FreeWord,
    exp_sum,
    inv_syllables,
    mul_syllables,
    pow_syllables,
    sample_word,
    syllables_to_text,
    word_from_text,
)


class RbCheck(namedtuple("RbCheck", "ok witness")):
    """Whether a map is Rota-Baxter, and the first failing pair when it is not; true when it is."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def derived_table(group: FiniteGroup, b_map) -> list:
    """The table of g o h = g B(g) h B(g)^-1, as bytes rows."""
    b = bytes(b_map)
    t, inv, cols = group.table, group.inverse, group.columns
    return [t[row[bg]].translate(_lut(cols[inv[bg]])) for row, bg in zip(t, b)]


def is_rb(group: FiniteGroup, b_map) -> RbCheck:
    """Exhaustively check the Rota-Baxter identity; the witness is the first failing pair.

    The identity B(g) B(h) = B(g o h) is hom_witness from the rows of
    derived_table to (G, .).
    """
    b = bytes(b_map)
    witness = hom_witness(derived_table(group, b), group.table, b)
    return RbCheck(witness is None, witness)


def rb_brace(group: FiniteGroup, b_map) -> SkewBrace:
    """The skew brace (G, ., o) of a Rota-Baxter operator, built from lambda_g = conjugation by B(g).

    Asserts the facts this operation carries: its table is the closed form
    g o h = g B(g) h B(g)^-1 of derived_table, B is again Rota-Baxter on
    (G, o), and B is a homomorphism (G, o) -> (G, .). The derived table is
    built once, for is_rb's Rota-Baxter check and the closed form.
    """
    b = bytes(b_map)
    derived = derived_table(group, b)
    witness = hom_witness(derived, group.table, b)
    if witness is not None:
        raise NotRotaBaxter(witness)
    conj = list(map(group.inner.__getitem__, b))     # h -> B(g) h B(g)^-1
    brace = SkewBrace.from_lambda(LambdaMap.of_automorphisms(group, conj))
    if brace.circ.table != tuple(derived):
        raise CriterionMismatch("the table built from conjugation by B is not g B(g) h B(g)^-1")
    if not is_rb(brace.circ, b).ok:
        raise CriterionMismatch("operator is not Rota-Baxter on the derived group")
    if not is_multiplicative(brace.circ, group.table, b):
        raise CriterionMismatch("operator is not a homomorphism out of the derived group")
    return brace


def rb_symmetry_check(brace: SkewBrace, b_map) -> dict:
    """Symmetry of the brace rb_brace(G, B) versus centrality of the anti-homomorphism defect.

    The defect B(c)^-1 B(a)^-1 B(c a) is central iff B(c a) and B(a) B(c)
    lie in one coset of Z(G): B is multiplicative modulo Z(G) from the
    opposite group, hom_witness on the center's coset labels.
    """
    group = brace.add
    symmetric = brace.classification.symmetric
    center_condition = hom_witness(group.columns, group.table, bytes(b_map),
                                   labels=group.center_labels) is None
    if symmetric != center_condition:
        raise CriterionMismatch("symmetry and the central-defect condition must agree")
    return {"symmetric": symmetric, "center_condition": center_condition}


def rb_lambda_hom_check(brace: SkewBrace, b_map) -> dict:
    """Lambda-homomorphy of the brace rb_brace(G, B) versus the homomorphism defect of B.

    The defect B(a c)^-1 B(a) B(c) is central iff B(a c) and B(a) B(c) lie
    in one coset of Z(G): hom_witness modulo Z(G), as in rb_symmetry_check.
    """
    group = brace.add
    lam_hom = brace.lam.homomorphic_on_add
    center_condition = hom_witness(group.table, group.table, bytes(b_map),
                                   labels=group.center_labels) is None
    if lam_hom != center_condition:
        raise CriterionMismatch("lambda-homomorphy and the defect condition must agree")
    return {"lambda_homomorphic": lam_hom, "center_condition": center_condition}


# ---------------------------------------------------------------------------
# Searches


MAX_SELF_MAP_ORDER = 6
"""The largest group whose Rota-Baxter self-maps ``rb_self_maps`` lists; ``rb search`` lists endomorphisms above it."""


def rb_self_maps(group: FiniteGroup) -> list:
    """All Rota-Baxter operators among the self-maps of a small group, in lexicographic order.

    They are the regular subgroups of G x| G, with x acting by conjugation:
    (x, g)(y, h) = (x y, g x h x^-1). If B is Rota-Baxter, then
    (B(g), g)(B(h), h) = (B(g) B(h), g B(g) h B(g)^-1) = (B(g o h), g o h),
    so the pairs (B(g), g) are closed and, one over each g, regular.
    Conversely a regular subgroup gives B(g) = the S-part over g, and its
    closure is exactly the identity B(g) B(h) = B(g B(g) h B(g)^-1). So the
    operators are the assignments groups._regular_assignments walks, with
    S = G. Keep carriers at order <= MAX_SELF_MAP_ORDER.
    """
    if group.order > MAX_SELF_MAP_ORDER:
        raise PreconditionFails(
            f"exhaustive self-map search is capped at order {MAX_SELF_MAP_ORDER}")
    t = group.table
    return [bytes(b) for b in _regular_assignments(group, group.inner, lambda x, y: t[x][y])]


def rb_endomorphisms(group: FiniteGroup, endos) -> list:
    """The endomorphisms among ``endos``, a list of the group's, that satisfy the Rota-Baxter identity."""
    return [e for e in endos if is_rb(group, e).ok]


def rb_orbits(automorphisms, operators) -> list:
    """The sorted operators of a search split into Aut(G)-orbits under B -> psi B psi^-1.

    psi B psi^-1 is again Rota-Baxter, and psi is an isomorphism from the
    brace of B onto the brace of psi B psi^-1 (Bardakov-Gubarev 2022).
    groups.automorphism_orbits walks the orbits, least operator first, and
    its closure invariant holds the search's output to be Aut(G)-stable.
    """
    return automorphism_orbits(automorphisms, conjugation_by, operators, "Rota-Baxter operator {} has "
                               "an Aut(G)-conjugate that the search did not find")


def rb_search(group: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> dict:
    """Every Rota-Baxter operator with the symmetric and lambda_homomorphic flags of its brace.

    The self-maps up to MAX_SELF_MAP_ORDER, the endomorphisms under
    ``max_order`` above it. Both flags are isomorphism invariants of the
    brace, so only the least operator of each Aut(G)-orbit of rb_orbits
    goes through rb_brace and both checks, and the rest of its orbit gets
    its flags. Above MAX_SELF_MAP_ORDER Aut(G) is the bijective endomorphisms,
    in the sorted order of automorphism_group; up to it Aut(G) is searched
    under the larger of ``max_order`` and MAX_GROUP_ORDER, so it never stops
    a search that ``max_order`` lets run.
    """
    if group.order <= MAX_SELF_MAP_ORDER:
        found, scope = rb_self_maps(group), "self-maps"
        auts = automorphism_group(group, max(max_order, MAX_GROUP_ORDER))
    else:
        endos = endomorphisms(group, max_order)
        found, scope = rb_endomorphisms(group, endos), "endomorphisms"
        auts = [e for e in endos if len(set(e)) == group.order]
    flags = {}
    for orbit in rb_orbits(auts, found):
        brace = rb_brace(group, orbit[0])
        row = {"symmetric": rb_symmetry_check(brace, orbit[0])["symmetric"],
               "lambda_homomorphic": rb_lambda_hom_check(brace, orbit[0])["lambda_homomorphic"]}
        flags.update(dict.fromkeys(orbit, row))
    return {"order": group.order, "scope": scope, "count": len(found),
            "operators": [{"map": list(op), **flags[op]} for op in found]}


# ---------------------------------------------------------------------------
# The free-group operator B(w) = x1^{exp_sum(w)}


class FreeRb(CheckedRecord, namedtuple("FreeRb", "rank images")):
    """A homomorphic operator on a free group, given by generator images: ``images``, a FreeWord per generator."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if any(w.rank != self.rank for w in self.images):
            raise RankMismatch(f"an image's rank differs from the operator rank {self.rank}")
        return self

    def action(self):
        """B as a map of reduced syllable tuples of this rank: the product of the images' powers."""
        images = (None,) + tuple(w.syllables for w in self.images)

        def image(syllables):
            out = ()
            for g, e in syllables:
                out = mul_syllables(out, pow_syllables(images[g], e))
            return out
        return image


def _rb_identity_holds(b, g, h):
    """B(g) B(h) = B(g B(g) h B(g)^-1) for an operator ``b`` on syllable tuples."""
    b_g = b(g)
    return mul_syllables(b_g, b(h)) == b(
        mul_syllables(mul_syllables(mul_syllables(g, b_g), h), inv_syllables(b_g)))


def free_is_rb(op: FreeRb, sampling: SampleConfig = DEFAULT_SAMPLING) -> dict:
    """Sampled Rota-Baxter identity check for a free-group operator, on syllable tuples."""
    rank = op.rank
    b = op.action()
    rng = Lcg(sampling.seed)
    failures = []
    for trial in range(sampling.samples):
        g = sample_word(rng, rank, MAX_SYLLABLES, MAX_EXPONENT)
        h = sample_word(rng, rank, MAX_SYLLABLES, MAX_EXPONENT)
        if not _rb_identity_holds(b, g, h):
            failures.append({"trial": trial, "g": syllables_to_text(rank, g),
                             "h": syllables_to_text(rank, h)})
    return {"rank": rank, "samples": sampling.samples, "seed": sampling.seed,
            "failure_count": len(failures), "failures": failures}


def _level_mul(a, k, b):
    """a x1^k b x1^-k on syllable tuples: the level-m product of the rank-2 example when k = m l(a).

    With a empty and k = -m l(g), b = g^-1 gives x1^-k g^-1 x1^k, the level-m inverse of g.
    """
    if not k:
        return mul_syllables(a, b)
    return mul_syllables(mul_syllables(mul_syllables(a, ((1, k),)), b), ((1, -k),))

def free_rb_report(m: int, sampling: SampleConfig = DEFAULT_SAMPLING) -> dict:
    """Sampled checks for the rank-2 operator x -> x, y -> x.

    Verifies the Rota-Baxter identity for B(w) = x1^{l(w)} and the
    consecutive tower condition between levels m and m+1, where level i
    multiplies a o_i b = a x1^{i l(a)} b x1^{-i l(a)}. The words are syllable
    tuples throughout, and l of each drawn word is computed once per trial.
    """
    x1 = FreeWord.generator(2, 1)
    b = FreeRb(2, (x1, x1)).action()
    rng = Lcg(sampling.seed)
    failures = []
    for trial in range(sampling.samples):
        g, h, c = (sample_word(rng, 2, MAX_SYLLABLES, MAX_EXPONENT) for _ in range(3))
        if not _rb_identity_holds(b, g, h):
            failures.append({"trial": trial, "kind": "rb_identity",
                             "g": syllables_to_text(2, g), "h": syllables_to_text(2, h)})
        lg = exp_sum(g)
        up = (m + 1) * lg
        g_h = _level_mul(g, up, h)
        left = _level_mul(g, up, _level_mul(h, m * exp_sum(h), c))
        right_a = _level_mul(g_h, m * exp_sum(g_h), _level_mul((), -m * lg, inv_syllables(g)))
        right = _level_mul(right_a, m * exp_sum(right_a), _level_mul(g, up, c))
        if left != right:
            failures.append({"trial": trial, "kind": "tower_condition",
                             "g": syllables_to_text(2, g), "h": syllables_to_text(2, h),
                             "c": syllables_to_text(2, c)})
    return {
        "m": m,
        "samples": sampling.samples,
        "seed": sampling.seed,
        "failure_count": len(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# File format


def rb_from_json(data, group: FiniteGroup | None = None):
    """Load an operator: {"order": n, "map": [...]} or {"rank": 2, "images": [...]}.

    A "map" must be a list, and with ``group`` given a self-map of it; the
    "images" must be one word string per generator. ValueError otherwise.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if "map" in data:
        values = data["map"]
        if not isinstance(values, list):
            raise ValueError('"map" must be a list of elements')
        if "order" in data and (type(data["order"]) is not int or data["order"] != len(values)):
            raise ValueError("declared order does not match the map length")
        if group is not None and not is_self_map(values, group.order):
            raise ValueError(f'"map" must list {group.order} elements in 0..{group.order - 1}')
        return tuple(values)
    if "images" in data:
        rank = json_field(data, "rank", "operator file")
        images = data["images"]
        if type(rank) is not int:
            raise ValueError('"rank" must be an integer')
        if not isinstance(images, list) or not all(isinstance(s, str) for s in images):
            raise ValueError('"images" must be a list of words, each a string')
        op = FreeRb(rank, tuple(word_from_text(rank, s) for s in images))
        if len(op.images) != rank:
            raise ValueError(f'"images" must give one word per generator, {rank} in all')
        return op
    raise ValueError("unrecognized operator payload")
