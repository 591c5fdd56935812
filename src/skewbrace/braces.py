"""Skew braces: two group structures on one carrier tied by the left brace law.

A pair of tables (add, circ) on {0..n-1} is a skew brace when
``a o (b . c) = (a o b) . a^-1 . (a o c)`` for all a, b, c, writing ``.`` for
the additive and ``o`` for the multiplicative operation.  Braces are stored as
labeled tables; equality is entrywise table equality.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from math import lcm

from .errors import (
    CriterionMismatch,
    ImageNotAbelianModCenter,
    InvalidGroup,
    KernelConditionFails,
    LambdaNotAutomorphism,
    NotAntiHomomorphism,
    NotAutomorphism,
    NotBilinear,
    NotEndomorphismModCenter,
    NotExactFactorization,
    NotHomomorphism,
)
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    _lut,
    _regular_assignments,
    automorphism_orbits,
    compose,
    conjugation_by,
    coset_labels,
    derived_subgroup,
    hom_witness,
    holomorph_automorphisms,
    identity_map,
    invert_permutation,
    is_multiplicative,
    is_self_map,
    permutation_order,
    subgroup_closure_in,
    table_field,
    transpose,
    verify_group,
)


class LambdaMap(namedtuple("LambdaMap", "group maps which products kernel image_order image_exponent "
                           "hom_witness anti_witness image_abelian image_cyclic")):
    """Facts about an assignment a -> lambda_a of automorphisms of (G, .) = ``group``, computed once.

    For a brace, lambda_a(b) = a^-1 . (a o b).

    maps          lambda_a per element a, an automorphism's image array
    which         which[a]: the index of lambda_a among the sorted distinct values
    products      products[i][j]: the index of value i after value j (_index_row)
    kernel        sorted elements with lambda_a = id
    hom_witness   first (a, b) with lambda_{a.b} != lambda_a lambda_b, or None
    anti_witness  first (a, b) with lambda_{a.b} != lambda_b lambda_a, or None
    image_cyclic  some lambda_a has order image_order
    """

    __slots__ = ()

    @property
    def homomorphic_on_add(self) -> bool:
        return self.hom_witness is None

    @property
    def anti_homomorphic_on_add(self) -> bool:
        return self.anti_witness is None

    @staticmethod
    def of(group: FiniteGroup, lam) -> "LambdaMap":
        """The facts of an untrusted assignment given per element as an image array.

        Raises ValueError when ``lam`` is not a list of exactly n maps or a
        map is not a list of n images in 0..n-1, and NotAutomorphism for the first
        element whose value is not an automorphism of the group.
        """
        n = group.order
        if type(lam) not in (list, tuple):
            raise ValueError("lambda must be a list of maps")
        if len(lam) != n:
            raise ValueError(f"lambda has {len(lam)} maps, the group has {n} elements")
        arrays = []
        for a, img in enumerate(lam):
            if not is_self_map(img, n):
                raise ValueError(f"lambda map of element {a} must list {n} images in 0..{n - 1}")
            img = bytes(img)
            if len(set(img)) != n or not is_multiplicative(group, group.table, img):
                raise NotAutomorphism(a)
            arrays.append(img)
        return LambdaMap.of_automorphisms(group, arrays)

    @staticmethod
    def of_automorphisms(group: FiniteGroup, arrays) -> "LambdaMap":
        """The facts of an assignment of n automorphisms as image arrays, taken on trust."""
        n = group.order
        distinct = sorted(set(arrays))
        index = {img: i for i, img in enumerate(distinct)}
        which = bytes(index[img] for img in arrays)
        composites = [[g.translate(lut) for g in distinct] for lut in map(_lut, distinct)]   # f after g
        prod = tuple(_index_row([index.get(fg, -1) for fg in row]) for row in composites)
        hom = _first_unequal_pair(group.table, which, prod)
        anti = _first_unequal_pair(group.table, which, tuple(map(_index_row, zip(*prod))))
        orders = {permutation_order(img) for img in distinct}
        ident = identity_map(n)
        return LambdaMap(
            group=group,
            maps=tuple(arrays),
            which=which,
            products=prod,
            kernel=tuple(a for a in range(n) if arrays[a] == ident),
            image_order=len(distinct),
            image_exponent=lcm(*orders),
            hom_witness=hom,
            anti_witness=anti,
            image_abelian=all(composites[i][j] == composites[j][i]
                              for i in range(len(distinct)) for j in range(i)),
            image_cyclic=len(distinct) in orders,
        )

    def kernel_witness(self, kernel, conjugated: bool = False) -> tuple | None:
        """First (a, b) with b^-1 . lambda_a(b) outside the subgroup K = ``kernel``, or None.

        b^-1 x is in K iff x is in b K, iff x and b share a coset_labels(G, K)
        label, so each a is one row compare. ``conjugated`` tests
        a . lambda_a(b) . a^-1 . b^-1 instead, for a normal K: with c_a the
        conjugation by a, it is in K iff c_a lambda_a(b) is in K b = b K. A row
        that fails is scanned for its first b, so the witness is the first in order.
        """
        labels = coset_labels(self.group, kernel)
        lut, inner = _lut(labels), self.group.inner
        for a, images in enumerate(self.maps):
            if conjugated:
                images = images.translate(_lut(inner[a]))
            if images.translate(lut) != labels:
                return a, next(b for b, x in enumerate(images) if lut[x] != labels[b])
        return None


def _index_row(indices) -> bytes | tuple:
    """A row of a product table of lambda values: bytes, or a tuple when it holds -1 for "none"."""
    return tuple(indices) if -1 in indices else bytes(indices)


def _first_unequal_pair(table, which: bytes, prod) -> tuple | None:
    """First (a, b) with which[a b] != prod[which[a]][which[b]], or None: hom_witness(table, prod, which).

    A row of ``prod`` that holds -1, a product of lambda values that is none of
    them, is a tuple; then every pair is scanned.
    """
    if all(type(row) is bytes for row in prod):
        return hom_witness(table, prod, which)
    n = len(table)
    return next(((a, b) for a in range(n) for b in range(n)
                 if which[table[a][b]] != prod[which[a]][which[b]]), None)


class SkewBrace:
    """One carrier, an additive and a multiplicative group table, both with identity 0."""

    __slots__ = ("add", "circ", "_lam_images", "_lam", "_classification")

    def __init__(self, add: FiniteGroup, circ: FiniteGroup):
        if add.order != circ.order:
            raise InvalidGroup(("carrier orders differ",))
        arrays, witness = _lambda_arrays(add, circ)
        if witness is not None:
            a, b, c = witness
            raise LambdaNotAutomorphism(a, (b, c))
        self.add = add
        self.circ = circ
        self._lam_images = arrays   # lambda_a per a, automorphisms by the left law just checked
        self._lam = None
        self._classification = None

    @classmethod
    def from_lambda(cls, lam: LambdaMap) -> "SkewBrace":
        """The brace (G, ., o) with a o b = a . lambda_a(b), for the assignment ``lam`` on (G, .).

        The one builder of a table from lambda values. It checks, exactly and
        without verify_group: (1) lambda_{a o b} = lambda_a lambda_b for all
        a, b, off lam's product table of its distinct values; (2) each value
        is a bijection; (3) lambda_g is multiplicative at each generator g of
        (G, o). Proof that then (G, o) is a group and the left law holds: for
        n > 1, lambda_g(0) = 0 by (3), so g o 0 = g and lambda_g = lambda_g
        lambda_0 by (1), hence lambda_0 = id by (2) and 0 is a left identity.
        By (1) the a with lambda_a multiplicative are closed under o, and the
        generator walk reaches every element from 0, so all lambda_a are
        automorphisms. Then (a o b) o c = a . lambda_a(b) . lambda_a lambda_b(c)
        = a o (b o c), a o 0 = a, a o lambda_a^-1(a^-1) = 0, and
        a o (b . c) = (a o b) . a^-1 . (a o c). Conversely a brace passes all
        three. A failure raises CriterionMismatch: the library passes only
        assignments that must give braces.
        """
        add, maps, n = lam.group, lam.maps, lam.group.order
        table = tuple(m.translate(_lut(row)) for m, row in zip(maps, add.table))
        witness = _first_unequal_pair(table, lam.which, lam.products)
        if witness is not None:
            raise CriterionMismatch(f"lambda_(a o b) is not lambda_a lambda_b at {witness}")
        bad = next((m for m in dict.fromkeys(maps) if len(set(m)) != n), None)
        if bad is not None:
            raise CriterionMismatch(f"lambda of element {maps.index(bad)} is not a bijection")
        circ = FiniteGroup(table)
        bad = next((g for g in circ.generators if not is_multiplicative(add, add.table, maps[g])), None)
        if bad is not None:
            raise CriterionMismatch(f"lambda of element {bad} is not multiplicative")
        brace = cls.__new__(cls)
        brace.add, brace.circ = add, circ
        brace._lam_images, brace._lam, brace._classification = maps, lam, None
        return brace

    @property
    def order(self) -> int:
        return self.add.order

    @property
    def lam(self) -> LambdaMap:
        if self._lam is None:
            self._lam = LambdaMap.of_automorphisms(self.add, self._lam_images)
        return self._lam

    @property
    def classification(self) -> "Classification":
        if self._classification is None:
            self._classification = classify(self)
        return self._classification

    @property
    def is_trivial(self) -> bool:
        return self.add.table == self.circ.table

    @property
    def is_natural(self) -> bool:
        """a o b = b . a for all a, b: circ is the opposite of the additive table."""
        return self.circ.table == self.add.columns

    def __eq__(self, other):
        return (isinstance(other, SkewBrace)
                and self.add.table == other.add.table
                and self.circ.table == other.circ.table)

    def __hash__(self):
        return hash((self.add.table, self.circ.table))

    def __repr__(self):
        return f"SkewBrace(order={self.order}, trivial={self.is_trivial})"


def trivial_brace(group: FiniteGroup) -> SkewBrace:
    return SkewBrace(group, group)


def op_brace(group: FiniteGroup) -> SkewBrace:
    """The brace (G, ., .^op): a o b = b a, lambda_a = conjugation b -> a^-1 b a."""
    return SkewBrace(group, group.opposite())


# ---------------------------------------------------------------------------
# Law checks


def _lambda_arrays(add: FiniteGroup, circ: FiniteGroup) -> tuple:
    """(arrays, None) with arrays[a] = lambda_a, or (None, the first left-law triple).

    At a fixed a the law says lambda_a(x) = a^-1 . (a o x) is multiplicative.
    If lambda_a and lambda_b are, then (a o b) o x = a o (b . lambda_b(x)) =
    (a o b) . lambda_a lambda_b(x), so lambda_{a o b} = lambda_a lambda_b is
    too: the a where the law holds are closed under o, hence all of the
    finite G once they hold the generators of (G, o), with no shared identity
    needed. Only when a generator fails is every a tried in order, and
    hom_witness gives the first (b, c) of the first a that fails.
    """
    at = add.table
    arrays = [row.translate(_lut(at[add.inverse[a]])) for a, row in enumerate(circ.table)]
    if all(is_multiplicative(add, at, arrays[a]) for a in circ.generators):
        return arrays, None
    a = next(a for a, images in enumerate(arrays) if not is_multiplicative(add, at, images))
    return None, (a, *hom_witness(at, at, arrays[a]))


def left_law_witness(add: FiniteGroup, circ: FiniteGroup) -> tuple | None:
    """First triple violating a o (b . c) = (a o b) . a^-1 . (a o c), or None."""
    return _lambda_arrays(add, circ)[1]


def right_law_witness(add: FiniteGroup, circ: FiniteGroup) -> tuple | None:
    """First triple violating (a . b) o c = (a o c) . c^-1 . (b o c), or None.

    At a fixed c the law says rho_c(x) = (x o c) . c^-1 is multiplicative.
    As for the left law, x o (c o d) = rho_d rho_c(x) . (c o d) gives
    rho_{c o d} = rho_d rho_c, so the c where the law holds are closed under
    o and it is checked only for the generators c of (G, o). When one fails, the
    witness is the least (a, b, c) over all c, (a, b) from rho_c's hom_witness.
    """
    at, ccols, acols, ainv = add.table, circ.columns, add.columns, add.inverse

    def rho(c):
        return ccols[c].translate(_lut(acols[ainv[c]]))

    if all(is_multiplicative(add, at, rho(c)) for c in circ.generators):
        return None
    first = None
    for c in range(add.order):
        # a later c gives a lesser triple only at a lesser pair, in the rows up to first's a
        witness = hom_witness(at, at, rho(c), range(first[0] + 1) if first else None)
        if witness is not None:
            first = min(first or (add.order,), (*witness, c))
            if first[:2] == (0, 0):
                break
    return first


class BraceReport(namedtuple("BraceReport", "left_ok right_ok two_sided left_witness right_witness brace")):
    """Both brace laws on a pair of tables; ``brace`` is on the normalized labels, when the left law holds."""

    __slots__ = ()

    def as_report(self) -> dict:
        return {
            "left_ok": self.left_ok,
            "right_ok": self.right_ok,
            "two_sided": self.two_sided,
            "witness": list(self.left_witness or self.right_witness or []) or None,
        }


def _checked_pair(add_table, circ_table) -> tuple:
    """verify_group's checks of two raw tables; InvalidGroup unless both are groups of one order.

    The violations of the first table that fails are raised. Each check's
    relabeling depends only on its table's identity, so the relabelings agree
    exactly when the identities do.
    """
    add_check, circ_check = verify_group(add_table).or_raise(), verify_group(circ_table).or_raise()
    if add_check.group.order != circ_check.group.order:
        raise InvalidGroup(("carrier orders differ",))
    return add_check, circ_check


def verify_brace(add_table, circ_table) -> BraceReport:
    """Check both brace laws on a pair of group tables; failures are data, not errors."""
    add_check, circ_check = _checked_pair(add_table, circ_table)
    # scan on the original labels: the laws only use each operation's own inverse
    add = FiniteGroup(add_table)
    circ = FiniteGroup(circ_table)
    lw = left_law_witness(add, circ)
    rw = right_law_witness(add, circ)
    # the left law forces one identity, so both tables were relabeled alike
    brace = SkewBrace(add_check.group, circ_check.group) if lw is None else None
    return BraceReport(lw is None, rw is None, lw is None and rw is None, lw, rw, brace)


# ---------------------------------------------------------------------------
# Lambda maps and classification


class Classification(namedtuple("Classification", "lambda_homomorphic lambda_anti_homomorphic "
                                 "symmetric lambda_cyclic natural")):
    """The five structural flags of a brace, all isomorphism invariants."""

    __slots__ = ()


def classify(brace: SkewBrace) -> Classification:
    """Compute the five structural flags of a brace.

    A brace is symmetric when lambda_{a o b} = lambda_{b . a}; as
    lambda_{a o b} = lambda_a lambda_b, that is lambda being an
    anti-homomorphism of (G, .). The flag is read off that witness and must
    agree with directly checking that swapping the two operations again gives
    a brace.
    """
    lam = brace.lam
    symmetric = lam.anti_homomorphic_on_add
    direct = left_law_witness(brace.circ, brace.add) is None
    if symmetric != direct:
        raise CriterionMismatch(
            f"symmetry criterion ({symmetric}) disagrees with direct check ({direct})")
    return Classification(lam.homomorphic_on_add, symmetric, symmetric,
                          lam.homomorphic_on_add and lam.image_cyclic, brace.is_natural)


# ---------------------------------------------------------------------------
# Constructions


def construct_from_lambda(group: FiniteGroup, lam, mode: str) -> SkewBrace:
    """Build (G, ., o) with a o b = a . lambda_a(b) from an explicit lambda assignment.

    ``mode`` is "homomorphic" or "anti_homomorphic"; the map law and the
    matching kernel condition are both checked before the tables are built.
    """
    if mode not in ("homomorphic", "anti_homomorphic"):
        raise ValueError(f"unknown mode {mode!r}")
    facts = LambdaMap.of(group, lam)
    anti = mode == "anti_homomorphic"
    if not anti and facts.hom_witness is not None:
        raise NotHomomorphism(*facts.hom_witness)
    if anti and facts.anti_witness is not None:
        raise NotAntiHomomorphism(*facts.anti_witness)
    # Ker lambda is a subgroup, normal when lambda is an anti-homomorphism
    witness = facts.kernel_witness(facts.kernel, conjugated=anti)
    if witness is not None:
        raise KernelConditionFails(*witness)
    return SkewBrace.from_lambda(facts)


def construct_exact_factorization(group: FiniteGroup, a_part, b_part) -> SkewBrace:
    """Brace from an exact factorization G = A B: (a1 b1) o (a2 b2) = a1 a2 b2 b1.

    It is built from lambda_(a1 b1) = conjugation x -> b1^-1 x b1, and its
    table must be that closed form.
    """
    A, B = tuple(a_part), tuple(b_part)
    n, t = group.order, group.table
    if not all(0 <= x < n for x in A + B):
        raise ValueError(f"the parts must list elements in 0..{n - 1}")
    for name, part in (("A", A), ("B", B)):
        repeated = [x for x in set(part) if part.count(x) > 1]
        if repeated:
            raise NotExactFactorization(f"{name} lists element {min(repeated)} more than once")
    A, B = tuple(sorted(A)), tuple(sorted(B))
    if subgroup_closure_in(group, A) != A or subgroup_closure_in(group, B) != B:
        raise NotExactFactorization("A and B must be subgroups")
    if set(A) & set(B) != {0}:
        raise NotExactFactorization("A and B must intersect trivially")
    if len(A) * len(B) != group.order:
        raise NotExactFactorization("|A| * |B| must equal |G|")
    # a1 b1 = a2 b2 gives a2^-1 a1 = b2 b1^-1 in A & B = {0}: each g is one a b
    decomp = {t[a][b]: (a, b) for a in A for b in B}
    parts = [decomp[g] for g in range(n)]
    conj = [group.inner[group.inverse[b1]] for _, b1 in parts]     # x -> b1^-1 x b1
    brace = SkewBrace.from_lambda(LambdaMap.of_automorphisms(group, conj))
    closed = tuple(bytes(t[t[t[a1][a2]][b2]][b1] for a2, b2 in parts) for a1, b1 in parts)
    if brace.circ.table != closed:
        raise CriterionMismatch("the table built from conjugation by the B part is not a1 a2 b2 b1")
    return brace


def construct_unification(group: FiniteGroup, f_images, alpha, epsilon: int = 1) -> SkewBrace:
    """Symmetric brace from lambda_a(b) = f(a)^-e b f(a)^e alpha(a,b).

    ``f_images`` maps the carrier into a subgroup whose image mod the center
    is abelian and which induces an endomorphism mod the center;  ``alpha``
    is a bilinear pairing into the center vanishing on central arguments.
    Raises ValueError naming "f", "alpha" or epsilon when one is misshapen;
    epsilon must be the integer 1 or -1, not a boolean.
    """
    if type(epsilon) is not int or epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    n = group.order
    if not is_self_map(f_images, n):
        raise ValueError(f'"f" must list {n} elements in 0..{n - 1}')
    if not (type(alpha) in (list, tuple) and len(alpha) == n
            and all(is_self_map(row, n) for row in alpha)):
        raise ValueError(f'"alpha" must be a {n}x{n} table of elements in 0..{n - 1}')
    f = bytes(f_images)
    alpha = tuple(map(bytes, alpha))
    center = set(group.center)
    t, inv = group.table, group.inverse

    a_part = subgroup_closure_in(group, tuple(f) + tuple(center))
    for u in a_part:
        for v in a_part:
            if group.commutator(u, v) not in center:
                raise ImageNotAbelianModCenter(f"[{u}, {v}] is not central")
    # f(a b) (f(a) f(b))^-1 is central iff f(a b) Z = f(a) f(b) Z
    witness = hom_witness(t, t, f, labels=group.center_labels)
    if witness is not None:
        raise NotEndomorphismModCenter(f"f fails at pair {witness}")

    for a in range(n):
        for b in range(n):
            if alpha[a][b] not in center:
                raise NotBilinear(f"alpha({a},{b}) is not central")
    # additive on the left at (a, b, c) iff alpha(., c) is multiplicative at (a, b)
    left = min(((*w, c) for c, col in enumerate(transpose(alpha)) if (w := hom_witness(t, t, col))),
               default=None)
    right = next(((a, *w) for a, row in enumerate(alpha) if (w := hom_witness(t, t, row))), None)
    if left and (right is None or left <= right):
        raise NotBilinear("alpha not additive on the left at ({},{},{})".format(*left))
    if right:
        raise NotBilinear("alpha not additive on the right at ({},{},{})".format(*right))
    for z in center:
        for b in range(n):
            if alpha[z][b] != 0 or alpha[b][z] != 0:
                raise NotBilinear(f"alpha must vanish on central arguments ({z},{b})")
    for g in derived_subgroup(group):
        for b in range(n):
            if alpha[g][b] != 0 or alpha[b][g] != 0:
                raise CriterionMismatch("bilinearity must force alpha to vanish on commutators")

    arrays = []
    for a in range(n):
        fa = f[a] if epsilon == 1 else inv[f[a]]
        fa_inv = inv[fa]
        arrays.append(tuple(t[t[t[fa_inv][b]][fa]][alpha[a][b]] for b in range(n)))
    brace = construct_from_lambda(group, arrays, "homomorphic")
    flags = brace.classification
    if not (flags.lambda_homomorphic and flags.symmetric):
        raise CriterionMismatch("unification brace must be homomorphic and symmetric")
    return brace


def opposite(brace: SkewBrace) -> SkewBrace:
    """The opposite brace (G, .^op, o); always a skew brace (checked exhaustively)."""
    return SkewBrace(brace.add.opposite(), brace.circ)


# ---------------------------------------------------------------------------
# Linking two braces over one additive group


def link_conditions(lam1: LambdaMap, lam2: LambdaMap) -> tuple:
    """(images_commute, cond_i, cond_ii) for two assignments on one group.

    cond_i is [[G, lambda2(G)]] contained in Ker lambda1, cond_ii the same
    with the roles swapped.
    """
    d1, d2 = set(lam1.maps), set(lam2.maps)
    images_commute = all(compose(f, g) == compose(g, f) for f in d1 for g in d2)
    return (images_commute, lam2.kernel_witness(lam1.kernel) is None,
            lam1.kernel_witness(lam2.kernel) is None)


# ---------------------------------------------------------------------------
# Enumeration via regular subgroups of the holomorph


@lru_cache(maxsize=1)
def _walk_root(base: FiniteGroup, auts: tuple) -> tuple:
    """(a0, keep): where the census walk starts, and the automorphisms it tries there.

    a0 is a non-identity element of largest order, then of smallest
    Aut(G)-orbit, then the least; keep holds the least automorphism of each
    class f -> psi f psi^-1 under Stab(a0) = {psi : psi(a0) = a0}. If a
    regular subgroup H holds (f, a0), some psi in Stab(a0) conjugates f to
    the least r of its class, and psi.H holds (r, a0): every Aut(G)-orbit
    meets the walk. Cached for the last group, as regular_subgroups and
    assignment_orbits both read it.
    """
    a0 = min(range(1, base.order), default=0,
             key=lambda a: (-base.element_order(a), len({f[a] for f in auts}), a))
    classes = automorphism_orbits([f for f in auts if f[a0] == a0], conjugation_by, auts,
                                  "automorphism {} has a conjugate outside Aut(G)")
    return a0, frozenset(leader for leader, *_ in classes)


def regular_subgroups(base: FiniteGroup, automorphisms) -> list:
    """The regular subgroups of Hol G = Aut G x| G with f_a0 in keep, as sorted lambda assignments.

    ``automorphisms`` are indexed as automorphism_group gives them, identity
    first. A regular subgroup holds one pair (f_a, a) over each a in G, so
    it is an assignment a -> f_a, given as the tuple of the f_a: the lambda
    of its brace. groups._regular_assignments walks them with S = Aut G
    acting by evaluation, rooted at (a0, keep) of _walk_root, so the walk
    meets every Aut(G)-orbit; assignment_orbits rebuilds the orbits. An
    automorphism is fixed by its images of the generators of G, its key, so
    f g is the automorphism whose key is g's key mapped through f.
    """
    auts = automorphisms
    a0, keep = _walk_root(base, tuple(auts))
    gens = bytes(base.generators)
    luts = [_lut(f) for f in auts]
    keys = [gens.translate(lut) for lut in luts]
    index = {key: i for i, key in enumerate(keys)}
    root = a0, {i for i, f in enumerate(auts) if f in keep}
    return sorted(tuple(auts[f] for f in found) for found in
                  _regular_assignments(base, auts, lambda f, g: index[keys[g].translate(luts[f])], root))


def brace_from_regular_subgroup(base: FiniteGroup, maps) -> SkewBrace:
    """The brace with a o b = a f_a(b), for the regular subgroup with lambda assignment ``maps``."""
    return SkewBrace.from_lambda(LambdaMap.of_automorphisms(base, maps))


def assignment_orbits(base: FiniteGroup, automorphisms, assignments) -> list:
    """The Aut(G)-orbits of all regular subgroups, from the sorted output of ``regular_subgroups``.

    psi in Aut G moves an assignment f to psi.f, with (psi.f)_{psi(a)} =
    psi f_a psi^-1: the lambda of f's brace relabeled along psi, so the orbits
    are the isomorphism classes (Guarnieri-Vendramin). groups.automorphism_orbits
    walks them from the walked assignments, each psi conjugating through one
    memo of |Aut| entries, each orbit led by its least member. Its closure
    invariant holds the walked assignments to be exactly the orbit members
    whose f_a0 is in keep, for (a0, keep) of _walk_root.
    """
    a0, keep = _walk_root(base, tuple(automorphisms))

    def action(psi):
        psi_inv = invert_permutation(psi)
        conj = dict(zip(automorphisms, map(conjugation_by(psi), automorphisms))).__getitem__
        return lambda maps: tuple(map(conj, map(maps.__getitem__, psi_inv)))

    return automorphism_orbits(automorphisms, action, assignments, "regular subgroup {} has "
                               "an Aut(G)-conjugate that the walk did not find",
                               lambda maps: maps[a0] in keep)


def _carried_brace(add: FiniteGroup, pads, maps, flags: Classification) -> SkewBrace:
    """The brace a o b = a . maps[a](b), an automorphic image of a checked brace with flags ``flags``.

    ``pads[a]`` is _lut(add.table[a]); lambda stays lazy.
    """
    brace = SkewBrace.__new__(SkewBrace)
    brace.add, brace.circ = add, FiniteGroup(tuple(map(bytes.translate, maps, pads)))
    brace._lam_images, brace._lam, brace._classification = maps, None, flags
    return brace


def enumerate_circ_ops(group: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> list:
    """One skew brace per regular subgroup of Hol G, sorted by multiplicative table.

    regular_subgroups walks part of each Aut(G)-orbit, and assignment_orbits
    rebuilds the orbits from it. One brace per orbit, its least member, is
    built and checked exactly by brace_from_regular_subgroup and classified.
    The rest of the orbit is carried over by automorphism, under
    assignment_orbits' closure invariant: each other member is that brace
    relabeled along an automorphism, its table built from its own lambda,
    with the representative's flags, all five of which are isomorphism
    invariants.
    """
    auts = holomorph_automorphisms(group, max_order)
    pads = [_lut(row) for row in group.table]
    braces = []
    for rep, *others in assignment_orbits(group, auts, regular_subgroups(group, auts)):
        brace = brace_from_regular_subgroup(group, rep)
        flags = brace.classification
        braces += [brace] + [_carried_brace(group, pads, maps, flags) for maps in others]
    return sorted(braces, key=lambda b: b.circ.table)


# ---------------------------------------------------------------------------
# File format


def brace_tables(data) -> tuple:
    """The "add" and "circ" tables of a brace file; a missing or misshapen table raises.

    So does a declared "order" that is not the integer size of the tables.
    """
    for key in ("add", "circ"):
        if key not in data:
            raise ValueError(f'brace file has no "{key}" table')
    add, circ = table_field(data, "add"), table_field(data, "circ")
    if "order" in data and (type(data["order"]) is not int or data["order"] != len(add)):
        raise InvalidGroup(("declared order does not match the tables",))
    return add, circ


def brace_from_json(data) -> SkewBrace:
    """The brace of a brace file, on the labels that move its identity to 0."""
    if isinstance(data, str):
        data = json.loads(data)
    add_check, circ_check = _checked_pair(*brace_tables(data))
    if circ_check.relabeling != add_check.relabeling:
        raise InvalidGroup(("identities of the two operations differ",))
    return SkewBrace(add_check.group, circ_check.group)


def brace_to_json(brace: SkewBrace) -> dict:
    return {
        "order": brace.order,
        "add": [list(r) for r in brace.add.table],
        "circ": [list(r) for r in brace.circ.table],
    }
