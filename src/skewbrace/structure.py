"""Ideals, quotient braces, triviality chains and brace automorphism groups."""

from __future__ import annotations

from collections import namedtuple

from .braces import LambdaMap, SkewBrace
from .errors import CriterionMismatch, NotAnIdeal, NotAntiHomomorphism, OrderCapExceeded
from .groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    _homomorphisms,
    _lut,
    _right_closure,
    coset_labels,
    hom_witness,
    subgroup_closure_in,
)


class IdealReport(namedtuple("IdealReport", "elements lambda_invariant normal_add normal_circ witness",
                              defaults=(None,))):
    """The three ideal conditions on the sorted ``elements``, and the witness of the first that fails."""

    __slots__ = ()

    @property
    def is_ideal(self) -> bool:
        return self.lambda_invariant and self.normal_add and self.normal_circ


def _is_normal_subgroup(group: FiniteGroup, members: set):
    """(True, None) when ``members``, which hold 0, are a normal subgroup; else (False, witness).

    Closure is decided by the generator walk and conjugation by the group's
    generators alone, since the g with g H g^-1 in H are closed under
    products. Only a failure runs the scans that find the first witness.
    """
    inner = group.inner
    if subgroup_closure_in(group, members) == tuple(sorted(members)) and all(
            inner[g][a] in members for g in group.generators for a in members):
        return True, None
    for a in members:
        for b in members:
            if group.table[a][b] not in members:
                return False, ("closure", a, b)
    for g in range(group.order):
        for a in members:
            if inner[g][a] not in members:
                return False, ("conjugation", g, a)
    return True, None


def is_ideal(brace: SkewBrace, elements) -> IdealReport:
    """Check the three ideal conditions; failures carry a witness.

    Since lambda_{a o b} = lambda_a lambda_b, the a with lambda_a(I) in I
    are closed under o, so lambda-invariance is checked on the generators of
    (G, o) and scanned over every a, for the first witness, only on failure.
    """
    members = set(elements)
    if 0 not in members:
        return IdealReport(tuple(sorted(members)), False, False, False, ("identity",))
    maps = brace.lam.maps
    witness = None
    if not all(maps[a][x] in members for a in brace.circ.generators for x in members):
        witness = next(("lambda", a, x) for a in range(brace.order) for x in sorted(members)
                       if maps[a][x] not in members)
    add_ok, add_w = _is_normal_subgroup(brace.add, members)
    circ_ok, circ_w = _is_normal_subgroup(brace.circ, members)
    return IdealReport(tuple(sorted(members)), witness is None, add_ok, circ_ok,
                       witness or add_w or circ_w)


def kernel_ideal(brace: SkewBrace) -> IdealReport:
    """Ker lambda as an ideal; the sub-brace on it is trivial by construction.

    Ker lambda is always a subgroup of (G, .), but an ideal only in some
    braces; it is one in every lambda-anti-homomorphic brace. It must be the
    set of a whose o row equals their . row.
    """
    kernel = brace.lam.kernel
    report = is_ideal(brace, kernel)
    if not report.is_ideal:
        if brace.lam.anti_homomorphic_on_add:
            raise CriterionMismatch("the kernel of lambda must be an ideal")
        raise NotAnIdeal(f"Ker lambda {list(kernel)} fails {report.witness}")
    circ, add = brace.circ.table, brace.add.table
    pointwise = tuple(a for a in range(brace.order) if circ[a] == add[a])
    if pointwise != kernel:
        raise CriterionMismatch("kernel must equal the set where both products agree")
    return report


def quotient_brace(brace: SkewBrace, ideal: IdealReport) -> SkewBrace:
    """The brace on the cosets of an ideal I, indexed by their least elements in increasing order.

    The cosets are those of coset_labels(G, I), with [a] . [b] = [a . b]. For
    k in I, a . k = a o k' with k' = lambda_a^-1(k) in I, and lambda_k'(b) =
    k'^-1 . (k' o b) is in b I, I being normal in both groups; with
    lambda_a(I) = I, lambda-bar_[a]([b]) = [lambda_a(b)] is well defined and
    gives [a] o [b] = [a . lambda_a(b)] = [a o b]. As a cross-check the map
    to cosets must be multiplicative for both operations (hom_witness).
    ``ideal`` is the IdealReport of is_ideal; NotAnIdeal when its is_ideal is false.
    """
    if not ideal.is_ideal:
        raise NotAnIdeal(f"{list(ideal.elements)} fails {ideal.witness}")
    labels = coset_labels(brace.add, ideal.elements)
    reps = sorted(set(labels))
    coset = bytes(map(reps.index, labels))       # coset[x]: the index of the coset of x
    to_cosets = _lut(coset)
    add, lam = ([bytes(map(table[a].__getitem__, reps)).translate(to_cosets) for a in reps]
                for table in (brace.add.table, brace.lam.maps))
    quotient = SkewBrace.from_lambda(LambdaMap.of_automorphisms(FiniteGroup(add), lam))
    for big, small in ((brace.add, quotient.add), (brace.circ, quotient.circ)):
        if hom_witness(big.table, small.table, coset) is not None:
            raise CriterionMismatch("quotient operations are not well-defined")
    return quotient


# ---------------------------------------------------------------------------
# Ideal lattice and triviality chains


def all_subgroups(group: FiniteGroup) -> list:
    """Every subgroup, sorted by size, then by members.

    Each subgroup H found is extended by one seed g per right coset Hg other
    than H, since <H, h g> = <H, g>; each extension is closed by the
    generator walk from the seeds that generate H, followed by g.
    """
    t = group.table
    seen = {(0,)}
    frontier = [((0,), ())]
    while frontier:
        nxt = []
        for members, gens in frontier:
            covered = set(members)
            for g in range(1, group.order):
                if g in covered:
                    continue
                covered.update(t[h][g] for h in members)
                closure = subgroup_closure_in(group, gens + (g,))
                if closure not in seen:
                    seen.add(closure)
                    nxt.append((closure, gens + (g,)))
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def _ideal_moves(brace: SkewBrace) -> tuple:
    """(automorphisms of (G, .), o-conjugations) that _ideal_closure applies, as image arrays.

    The automorphisms are conjugation by each generator of (G, .) and
    lambda_c for each generator c of (G, o); the o-conjugations are by each c.
    """
    circ_gens = brace.circ.generators
    return ([brace.add.inner[g] for g in brace.add.generators] + [brace.lam.maps[c] for c in circ_gens],
            [brace.circ.inner[c] for c in circ_gens])


def _ideal_closure(brace: SkewBrace, seed: int, moves: tuple) -> tuple:
    """The ideal generated by ``seed``, as a sorted tuple; ``moves`` is _ideal_moves(brace).

    The fixpoint of three closures: the subgroup of (G, .) by the generator
    walk, conjugation by the generators of (G, .), and lambda_a and
    o-conjugation by a for each generator a of (G, o). The first two make a
    normal subgroup of (G, .), and lambda_a(I) in I for the generators a
    gives it for all a, since lambda_{a o b} = lambda_a lambda_b; a
    lambda-invariant normal subgroup is a subgroup of (G, o), normal once
    the generators of (G, o) conjugate it into itself. Conjugation in (G, .)
    and lambda_a are automorphisms of (G, .), so they are applied to the
    walk's generators only; o-conjugation once to each member.
    """
    t, (add_autos, circ_inner) = brace.add.table, moves
    members, gens, _ = _right_closure(t, 0, (seed,))
    done_gens = done = 0
    while True:
        reached = set(members)
        new = [y for x in gens[done_gens:] for f in add_autos if (y := f[x]) not in reached]
        new += [y for x in members[done:] for c in circ_inner if (y := c[x]) not in reached]
        if not new:
            return tuple(sorted(members))
        done_gens, done = len(gens), len(members)
        members, gens, _ = _right_closure(t, 0, gens + new)


def _ideal_seeds(brace: SkewBrace, moves: tuple) -> list:
    """The a > 0 that no move sends below a: one seed at least for each principal ideal.

    The moves are those of ``moves`` = _ideal_moves(brace) and the inverse
    of (G, .). Each is a permutation that keeps the ideal an element
    generates, so by induction on labels the ideal of every a is that of a
    seed. A seed may share its move class with a smaller one; walking the
    classes to keep only their least elements costs more than the
    closures it saves.
    """
    low = bytes(map(min, range(brace.order), *moves[0], *moves[1], brace.add.inverse))   # a and its moves
    return [a for a in range(1, brace.order) if low[a] == a]


MAX_IDEAL_SEARCH_ORDER = 16
"""The largest brace whose ideals ``all_ideals`` lists, and so whose triviality chain is built."""


def all_ideals(brace: SkewBrace) -> list:
    """Every ideal, sorted by size, then by members.

    A product I J of ideals is an ideal and every ideal is the product of
    the ideals its elements generate (Guarnieri-Vendramin 2017), so {0} is
    closed under products with the principal ideals, each closed from one
    seed of _ideal_seeds.
    """
    if brace.order > MAX_IDEAL_SEARCH_ORDER:
        raise OrderCapExceeded(f"ideal search capped at order {MAX_IDEAL_SEARCH_ORDER}")
    t = brace.add.table
    moves = _ideal_moves(brace)
    principal = sorted(set(_ideal_closure(brace, a, moves) for a in _ideal_seeds(brace, moves)))
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for ideal in frontier:
            members = set(ideal)
            for p in principal:
                if members.issuperset(p):
                    continue
                product = tuple(sorted({t[x][y] for x in ideal for y in p}))
                if product not in seen:
                    seen.add(product)
                    nxt.append(product)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


class TrivialityChain(namedtuple("TrivialityChain", "chain step")):
    """A ``chain`` of ascending ideals from {0} to the carrier, of ``step`` steps."""

    __slots__ = ()


def trivial_quotient(brace: SkewBrace, gens, labels: bytes) -> bool:
    """True iff a . b and a o b agree modulo an ideal I for all a, b in an ideal J.

    ``gens`` is (generators of (J, .), generators of (J, o)) and ``labels``
    is coset_labels(G, I). (a . b)^-1 (a o b) = b^-1 lambda_a(b). At a fixed
    a the b where it lies in I form a subgroup of (J, .), as I is normal in
    (G, .); the a where it does for every b are closed under o, as J is
    lambda-invariant. So a runs over generators of (J, o) and b over
    generators of (J, .). b^-1 lambda_a(b) is in I iff lambda_a(b) and b
    share a label.
    """
    add_gens, circ_gens = gens
    maps = brace.lam.maps
    return all(labels[maps[a][b]] == labels[b] for a in circ_gens for b in add_gens)


def triviality_step(brace: SkewBrace, ideals) -> TrivialityChain | None:
    """Shortest chain of ideals with trivial successive quotients, or None.

    ``ideals`` is the list from all_ideals(brace). Breadth-first over ideals:
    a step from I to J > I is allowed when every pair from J multiplies the
    same way under both operations modulo I (trivial_quotient, on I's coset
    labels). Each J's generators in both groups are walked once, on its first test.
    """
    everything = tuple(range(brace.order))
    if brace.order == 1:
        return TrivialityChain(((0,),), 0)
    add, circ = brace.add.table, brace.circ.table
    sets = {ideal: set(ideal) for ideal in ideals}
    gens = {}
    start = (0,)
    parents = {start: None}
    layer = [start]
    while layer:
        nxt = []
        for current in layer:
            cset = sets[current]
            labels = coset_labels(brace.add, current)
            for candidate, members in sets.items():
                if candidate in parents or not cset < members:
                    continue
                if candidate not in gens:
                    gens[candidate] = (_right_closure(add, 0, candidate)[1],
                                       _right_closure(circ, 0, candidate)[1])
                if trivial_quotient(brace, gens[candidate], labels):
                    parents[candidate] = current
                    if candidate == everything:
                        chain = [candidate]
                        while parents[chain[-1]] is not None:
                            chain.append(parents[chain[-1]])
                        chain.reverse()
                        return TrivialityChain(tuple(chain), len(chain) - 1)
                    nxt.append(candidate)
        layer = nxt
    return None


# ---------------------------------------------------------------------------
# Naturality


def naturality_report(brace: SkewBrace) -> dict:
    """For anti-homomorphic braces: either the brace or its kernel quotient is natural."""
    if not brace.lam.anti_homomorphic_on_add:
        raise NotAntiHomomorphism(*brace.lam.anti_witness)
    is_natural = brace.is_natural
    quotient_natural = quotient_brace(brace, kernel_ideal(brace)).is_natural
    if not (is_natural or quotient_natural):
        raise CriterionMismatch(
            "an anti-homomorphic brace or its kernel quotient must be natural")
    return {"is_natural": is_natural, "quotient_natural": quotient_natural}


# ---------------------------------------------------------------------------
# Brace automorphisms


def brace_automorphisms(brace: SkewBrace, max_order: int = MAX_GROUP_ORDER) -> list:
    """Image tuples of the permutations that are automorphisms of both operation tables, sorted.

    One search over the automorphisms of (G, .) that also keep o-orders and
    products. For a homomorphic brace with abelian image every lambda value
    must be in the list (asserted).
    """
    if brace.order > max_order:
        raise OrderCapExceeded(f"order {brace.order} exceeds automorphism cap {max_order}")
    out = _homomorphisms(brace.add, brace.add, True, brace.circ)
    lam = brace.lam
    if lam.homomorphic_on_add and lam.image_abelian:
        listed = set(out)
        if any(mp not in listed for mp in lam.maps):
            raise CriterionMismatch("lambda values must be brace automorphisms here")
    return out
