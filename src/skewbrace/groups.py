"""Finite groups as multiplication tables, with 0-based indexing and identity 0.

The table convention is ``table[a][b] = a * b`` (row = left factor).  All
values emitted by this module are immutable and safe to share across threads.

A table is a tuple of ``bytes`` rows and a map on the carrier (an
automorphism, a lambda value, an operator) is a ``bytes`` image array, so
``table[a][b]`` and ``images[x]`` are ints and a whole row is mapped through
an image array by one ``bytes.translate`` in C. One byte holds a label, so a
table has at most MAX_TABLE_ORDER elements.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import cache
from math import inf, lcm

from .errors import CriterionMismatch, InvalidGroup, OrderCapExceeded


MAX_TABLE_ORDER = 256
"""The largest group table: a label is one byte of a ``bytes`` row."""

_LABELS = bytes(range(MAX_TABLE_ORDER))


def _lut(images: bytes) -> bytes:
    """An image array as the 256-byte table of bytes.translate: x -> images[x] for x < len(images)."""
    return images.ljust(MAX_TABLE_ORDER, b"\0")


def transpose(table) -> tuple:
    """The columns of a table as bytes rows: transpose(t)[b][a] = t[a][b]."""
    return tuple(map(bytes, zip(*table)))


class FiniteGroup:
    """A group on {0,...,order-1} given by its multiplication table, a tuple of bytes rows.

    Every group the library builds has identity 0; use :func:`verify_group`
    to validate untrusted tables and move their identity there. The identity
    and the inverses are read off the table, so the brace-law scans of
    ``verify_brace`` can run on a valid table in its raw labels.
    """

    __slots__ = ("order", "table", "identity", "inverse", "name",
                 "_columns", "_generators", "_center", "_center_labels", "_inner")

    def __init__(self, table, name: str = ""):
        self.table = tuple(map(bytes, table))
        self.order = len(self.table)
        self.name = name
        self.identity = e = self.table[0].index(0)    # 0 e = 0
        self.inverse = bytes(row.index(e) for row in self.table)
        self._columns = None
        self._generators = None
        self._center = None
        self._center_labels = None
        self._inner = None

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        t = self.table
        return t[t[t[self.inverse[a]][self.inverse[b]]][a]][b]

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.table[x][a]
            n += 1
        return n

    @property
    def columns(self) -> tuple:
        """transpose(table): ``columns[b]`` is the map a -> a b, right multiplication by b."""
        if self._columns is None:
            self._columns = transpose(self.table)
        return self._columns

    @property
    def inner(self) -> tuple:
        """``inner[g]`` is the image array of the conjugation x -> g x g^-1."""
        if self._inner is None:
            cols, inv = self.columns, self.inverse
            self._inner = tuple(row.translate(_lut(cols[inv[g]])) for g, row in enumerate(self.table))
        return self._inner

    @property
    def generators(self) -> tuple:
        """The seeds kept by the greedy right-product walk over all elements: at most log2(order).

        Every element is a left-normed product of them, so a law that holds
        against each generator holds everywhere.
        """
        if self._generators is None:
            self._generators = tuple(_right_closure(self.table, self.identity, range(self.order))[1])
        return self._generators

    @property
    def center(self) -> tuple:
        """The elements that commute with every element, in increasing order."""
        if self._center is None:
            self._center = tuple(a for a, (row, col) in enumerate(zip(self.table, self.columns))
                                 if row == col)
        return self._center

    @property
    def center_labels(self) -> bytes:
        """coset_labels(self, self.center): a and b share a label iff they lie in one coset of the center."""
        if self._center_labels is None:
            self._center_labels = coset_labels(self, self.center)
        return self._center_labels

    def opposite(self) -> "FiniteGroup":
        """The opposite group: a *op b = b * a (same carrier, same inverses)."""
        return FiniteGroup(self.columns, name=f"{self.name}^op" if self.name else "")

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def hom_witness(src, dst, images: bytes, rows=None, labels: bytes | None = None) -> tuple | None:
    """First (a, b) with images[src[a][b]] != dst[images[a]][images[b]], a over ``rows``, or None.

    ``rows`` defaults to every row of src. Each a is one row compare, the row of
    a mapped through the images against the images mapped through the row of
    images[a], and only a row that differs is scanned for its b. Compared through
    ``labels = coset_labels(G, K)``, it tests images[a b] in images[a] images[b] K.
    """
    lut = _lut(images)
    if labels is not None:      # both sides taken to their labels
        to_labels = _lut(labels)
        lut, dst = lut.translate(to_labels), [row.translate(to_labels) for row in dst]
    for a in range(len(src)) if rows is None else rows:
        lhs, rhs = src[a].translate(lut), images.translate(_lut(dst[images[a]]))
        if lhs != rhs:
            return a, next(b for b, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    return None


def is_multiplicative(src: FiniteGroup, dst_table, images: bytes) -> bool:
    """True iff images[a b] = images[a] images[b] for all a, b, with the right side in dst_table.

    hom_witness on the generator rows of src (row 0 for the trivial group): the a
    where it holds are closed under products, so in groups it then holds everywhere.
    """
    return hom_witness(src.table, dst_table, images, src.generators or (0,)) is None


def is_self_map(values, n: int) -> bool:
    """True iff ``values`` is exactly a bytes, list or tuple (no record) of n ints in 0..n-1 (no bools)."""
    return (type(values) in (bytes, list, tuple) and len(values) == n
            and all(type(x) is int and 0 <= x < n for x in values))


def identity_map(n: int) -> bytes:
    return _LABELS[:n]


def compose(f: bytes, g: bytes) -> bytes:
    """Composition f after g on image arrays."""
    return g.translate(_lut(f))


def invert_permutation(p) -> bytes:
    return bytes(map(p.index, range(len(p))))


def conjugation_by(psi: bytes):
    """The map f -> psi f psi^-1 of image arrays, for the permutation ``psi``."""
    psi_inv, lut = invert_permutation(psi), _lut(psi)
    return lambda f: psi_inv.translate(_lut(f)).translate(lut)


def permutation_order(p) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            order = lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# Validation


class Violation(namedtuple("Violation", "code witness")):
    """A failed axiom and its witness; ``code`` is one of not_square, entry_out_of_range,
    not_latin_square, no_identity, no_inverse and not_associative.
    """

    __slots__ = ()


class GroupCheck(namedtuple("GroupCheck", "ok group relabeling violations")):
    """verify_group's verdict: the relabeled group, relabeling[old_label] = new_label, or the violations."""

    __slots__ = ()

    def as_report(self) -> dict:
        return {
            "group_ok": self.ok,
            "order": self.group.order if self.group else None,
            "relabeling": list(self.relabeling) if self.relabeling else None,
            "violations": [{"code": v.code, "witness": list(v.witness)} for v in self.violations],
        }

    def or_raise(self) -> "GroupCheck":
        """This check when it passed; InvalidGroup with its violations otherwise."""
        if not self.ok:
            raise InvalidGroup(self.violations)
        return self


def verify_group(table, name: str = "") -> GroupCheck:
    """Check the group axioms on a raw table.

    On success the identity is relabeled to index 0 and the relabeling
    permutation (old label -> new label) is reported so external labels
    round-trip.  On failure every violated axiom is reported with a witness.

    Entries, rows and columns are checked with whole-row set operations, and
    only a row that fails them is scanned entry by entry for its witness.
    Light's test: the g with (x g) y = x (g y) for all x, y are closed under
    products, so associativity is checked on generators, one row x at a
    time, and scanned only on failure. A table of more than MAX_TABLE_ORDER
    rows raises OrderCapExceeded before any of this.
    """
    if len(table) > MAX_TABLE_ORDER:
        raise OrderCapExceeded(f"table order {len(table)} exceeds the bound of {MAX_TABLE_ORDER}")
    rows = [list(r) for r in table]
    n = len(rows)
    if any(len(r) != n for r in rows) or n == 0:
        return GroupCheck(False, None, None, (Violation("not_square", (n,)),))
    labels = _LABELS[:n]
    in_range = set(labels)
    for a, r in enumerate(rows):
        if set(map(type, r)) == {int} and in_range.issuperset(r):
            continue
        for b, v in enumerate(r):
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
                return GroupCheck(False, None, None, (Violation("entry_out_of_range", (a, b)),))
    rows = list(map(bytes, rows))
    cols = transpose(rows)

    violations = []
    bad_row = next((a for a, r in enumerate(rows) if len(set(r)) != n), None)
    bad_col = None if bad_row is not None else next(
        (b for b, col in enumerate(cols) if len(set(col)) != n), None)
    if bad_row is not None:
        violations.append(Violation("not_latin_square", ("row", bad_row)))
    elif bad_col is not None:
        violations.append(Violation("not_latin_square", ("col", bad_col)))

    identity = next((e for e, r in enumerate(rows) if r == labels == cols[e]), None)
    if identity is None:
        violations.append(Violation("no_identity", ()))
    else:
        no_inverse = next((a for a, r in enumerate(rows) if identity not in r), None)
        if no_inverse is not None:
            violations.append(Violation("no_inverse", (no_inverse,)))

    gens = () if violations else _right_closure(rows, identity, range(n))[1]
    light = not violations and all(
        rows[row[g]] == rows[g].translate(lut)
        for row, lut in zip(rows, map(_lut, rows)) for g in gens)
    assoc_witness = None if light else next(
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
         if rows[rows[a][b]][c] != rows[a][rows[b][c]]), None)
    if assoc_witness:
        violations.append(Violation("not_associative", assoc_witness))

    if violations:
        return GroupCheck(False, None, None, tuple(violations))

    if identity == 0:
        group = FiniteGroup(rows, name=name)
        group._columns = cols
        return GroupCheck(True, group, tuple(labels), ())
    old_order = bytes([identity]) + labels.replace(bytes([identity]), b"")
    relabel = invert_permutation(old_order)
    return GroupCheck(True, FiniteGroup(relabeled(rows, relabel), name=name), tuple(relabel), ())


def relabeled(table, relabel: bytes) -> list:
    """The table with every label x renamed relabel[x], as bytes rows."""
    old = invert_permutation(relabel)      # old[new label] = old label
    lut = _lut(relabel)
    return [bytes(map(table[a].__getitem__, old)).translate(lut) for a in old]


# ---------------------------------------------------------------------------
# Constructors


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), name="1")


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(
        tuple(tuple((a + b) % n for b in range(n)) for a in range(n)), name=f"Z{n}"
    )


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str = "") -> FiniteGroup:
    m = h.order
    n = g.order * m
    table = [[0] * n for _ in range(n)]
    for a1 in range(g.order):
        for b1 in range(m):
            for a2 in range(g.order):
                for b2 in range(m):
                    table[a1 * m + b1][a2 * m + b2] = g.table[a1][a2] * m + h.table[b1][b2]
    return FiniteGroup(table, name=name or f"{g.name}x{h.name}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group D{2n} of order 2n; element r^i s^j has index i + n*j."""
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in (0, 1):
            for k in range(n):
                for l in (0, 1):
                    rot = (i + (k if j == 0 else -k)) % n
                    table[i + n * j][k + n * l] = rot + n * ((j + l) % 2)
    return FiniteGroup(table, name=f"D{2 * n}")


def dicyclic_group(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n, named Q{4n} when n is a power of 2 (generalized quaternion), else Dic{4n}."""
    m = 2 * n
    table = [[0] * (4 * n) for _ in range(4 * n)]
    for i in range(m):
        for j in (0, 1):
            for k in range(m):
                for l in (0, 1):
                    if j == 0:
                        rot, flip = (i + k) % m, l
                    else:
                        rot, flip = (i - k) % m, 1 + l
                    if flip == 2:
                        rot, flip = (rot + n) % m, 0
                    table[i + m * j][k + m * l] = rot + m * flip
    return FiniteGroup(table, name=f"Q{4 * n}" if n & (n - 1) == 0 else f"Dic{4 * n}")


def _perm_group_from(perms, name: str) -> FiniteGroup:
    """The group of a set of bytes permutations closed under composition; the identity sorts first, as 0."""
    elems = sorted(perms)
    index = {p: i for i, p in enumerate(elems)}
    return FiniteGroup([bytes(index[compose(p, q)] for q in elems) for p in elems], name=name)


def symmetric_group(n: int) -> FiniteGroup:
    from itertools import permutations

    return _perm_group_from(map(bytes, permutations(range(n))), name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    from itertools import permutations

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    return _perm_group_from([bytes(p) for p in permutations(range(n)) if sign(p) == 1], name=f"A{n}")


MAX_GROUP_ORDER = 24
"""The default ``max_order``: the largest group the closure and homomorphism searches take."""

MAX_PERMUTATION_DEGREE = MAX_TABLE_ORDER
"""The largest degree of a permutation group: a point is one byte of a ``bytes`` permutation."""


def _checked_degree(degree: int) -> int:
    """``degree``, or ValueError when it exceeds MAX_PERMUTATION_DEGREE."""
    if degree > MAX_PERMUTATION_DEGREE:
        raise ValueError(f'"degree" {degree} exceeds the bound of {MAX_PERMUTATION_DEGREE} points')
    return degree


def _permutation_closure(identity: bytes, seeds, max_order: float = inf) -> tuple:
    """(members, kept seeds) of the group that the bytes permutations ``seeds`` generate.

    _right_closure's walk, in the same order, on image arrays with x s =
    compose(x, s); the kept seeds generate the group. OrderCapExceeded at
    the first member past ``max_order``.
    """
    reached, members, gens = {identity}, [identity], []
    for s in seeds:
        if s in reached:
            continue
        gens.append(s)
        queue = [(x, s) for x in members]
        for x, g in queue:
            if (y := compose(x, g)) not in reached:
                if len(members) >= max_order:
                    raise OrderCapExceeded(f"the generated group has order above the cap {max_order}")
                reached.add(y)
                members.append(y)
                queue += [(y, h) for h in gens]
    return members, gens


def automorphism_orbits(automorphisms, action, members, missing: str, must=None) -> list:
    """The orbits of the group ``automorphisms``, identity first, through the sorted list ``members``.

    ``action(psi)`` is the map x -> psi.x of one automorphism psi. From the
    least member no earlier orbit holds, each orbit is walked breadth first
    under a generating set, the seeds _permutation_closure keeps from the
    automorphisms by decreasing order. Every image, or each one for which
    ``must`` holds, must be one of ``members``, else CriterionMismatch with
    ``missing`` formatted with the index of the member walked from; so is an
    orbit whose size does not divide |automorphisms|. Each orbit is sorted,
    and they come in the order of their least members.
    """
    by_order = sorted(automorphisms, key=permutation_order, reverse=True)
    moves = list(map(action, _permutation_closure(automorphisms[0], by_order)[1]))
    found, seen, orbits = set(members), set(), []
    for rep in members:
        if rep in seen:
            continue
        seen.add(rep)
        orbit = [rep]
        for x in orbit:
            for move in moves:
                if (image := move(x)) not in seen:
                    if image not in found and (must is None or must(image)):
                        raise CriterionMismatch(missing.format(members.index(rep)))
                    seen.add(image)
                    orbit.append(image)
        if len(automorphisms) % len(orbit):
            raise CriterionMismatch(f"the orbit of member {members.index(rep)} has {len(orbit)} members, "
                                    f"but {len(orbit)} does not divide |Aut| = {len(automorphisms)}")
        orbits.append(sorted(orbit))
    return sorted(orbits)


def group_from_permutations(generators, degree: int, name: str = "",
                            max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """Closure of permutation generators on {0..degree-1}; elements sorted lexicographically.

    The closure stops with OrderCapExceeded as soon as it holds more than
    ``max_order`` elements, or MAX_TABLE_ORDER if that is less, before any
    table is built. A degree above MAX_PERMUTATION_DEGREE is a ValueError.
    """
    identity = bytes(range(_checked_degree(degree)))
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(identity):
            raise InvalidGroup((Violation("entry_out_of_range", g),))
    members = _permutation_closure(identity, map(bytes, gens), min(max_order, MAX_TABLE_ORDER))[0]
    return _perm_group_from(members, name=name)


def small_group_catalog(max_order: int) -> list:
    """One representative per isomorphism class of groups of order <= max_order (max 12)."""
    if max_order > 12:
        raise OrderCapExceeded(f"catalog covers orders <= 12, asked for {max_order}")
    z = cyclic_group
    groups = [
        trivial_group(), z(2), z(3), z(4), direct_product(z(2), z(2)), z(5),
        z(6), symmetric_group(3), z(7),
        z(8), direct_product(z(4), z(2)),
        direct_product(direct_product(z(2), z(2)), z(2), name="Z2xZ2xZ2"),
        dihedral_group(4), dicyclic_group(2),
        z(9), direct_product(z(3), z(3)), z(10), dihedral_group(5), z(11),
        z(12), direct_product(z(6), z(2)), dihedral_group(6), alternating_group(4),
        dicyclic_group(3),
    ]
    return [g for g in groups if g.order <= max_order]


# ---------------------------------------------------------------------------
# Subgroups: closure, cosets, the derived subgroup


def _right_closure(table, identity, seeds) -> tuple:
    """(members, generators, steps) of the subgroup generated by ``seeds`` in a group table.

    A seed the walk has not reached yet is kept as a generator: the members
    found before it are multiplied on the right by it, and each new member by
    every generator kept so far. That closes in O(|H| * |gens|), and since a
    kept seed at least doubles a subgroup, at most log2 |H| seeds are kept.
    Members come in the order reached, each a left-normed product of the kept
    seeds, so the walk also covers tables not yet known to be associative.
    ``steps[i]`` is the pair (x, g) by which ``members[i + 1]`` was reached:
    it equals x g, where x is an earlier member and g a kept generator.
    """
    reached = [False] * len(table)
    reached[identity] = True
    members, gens, steps = [identity], [], []
    for s in seeds:
        if reached[s]:
            continue
        gens.append(s)
        start = len(members)
        for x in members[:start]:
            y = table[x][s]
            if not reached[y]:
                reached[y] = True
                members.append(y)
                steps.append((x, s))
        i = start
        while i < len(members):
            x = members[i]
            row = table[x]
            i += 1
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
                    steps.append((x, g))
    return members, gens, steps


def subgroup_closure_in(group: FiniteGroup, seeds) -> tuple:
    """Subgroup generated by the seed elements, as a sorted index tuple."""
    return tuple(sorted(_right_closure(group.table, 0, seeds)[0]))


def coset_labels(group: FiniteGroup, subgroup) -> bytes:
    """labels[x] = the least element of the left coset x K: x^-1 y is in K iff labels[x] = labels[y].

    Cosets are met in increasing order, so each x not yet labeled is the least of its coset.
    """
    labels = [None] * group.order
    for x, row in enumerate(group.table):
        if labels[x] is None:
            for y in map(row.__getitem__, subgroup):
                labels[y] = x
    return bytes(labels)


def derived_subgroup(group: FiniteGroup) -> tuple:
    """The subgroup the commutators generate, as a sorted index tuple."""
    n = group.order
    return subgroup_closure_in(group, {group.commutator(a, b) for a in range(n) for b in range(n)})


# ---------------------------------------------------------------------------
# Automorphisms and isomorphisms


def _homomorphisms(src: FiniteGroup, dst: FiniteGroup, bijective: bool,
                   circ: FiniteGroup | None = None, limit: float = inf) -> list:
    """Homomorphisms src -> dst (only the bijective ones if asked), as sorted image arrays.

    Backtracks over images of the generators of src, in the order of the
    generator walk. An image must have the generator's order (for
    bijections) or an order dividing it. Choosing the image of the k-th
    generator fixes the map on the subgroup H_k the walk has closed by then,
    along the walk's steps, the only possible extension. The choice is
    dropped unless that map is multiplicative on the pairs new to H_k: each
    old member times the new generator (a step of the walk, so it holds by
    construction) and each new member times each generator so far. Then the
    map is a homomorphism on H_k, by the induction of is_multiplicative, and
    for bijections it is injective there iff no new member maps to 0.

    With ``circ``, a second group on the carrier of src = dst (for
    bijections), only maps that are also automorphisms of circ are kept:
    every image keeps its o-order, checked at each level, and a full map is
    kept iff it is multiplicative for circ. The search stops at ``limit`` maps.
    """
    members, gens, steps = _right_closure(src.table, 0, range(src.order))
    n, st, dt = src.order, src.table, dst.table
    dst_orders = [dst.element_order(x) for x in range(dst.order)]
    circ_orders = [circ.element_order(x) for x in range(n)] if circ else None
    starts = [members.index(g) for g in gens] + [n]
    levels = []
    for k, g in enumerate(gens):
        new = members[starts[k]:starts[k + 1]]
        walk = [(y, x, s) for y, (x, s) in zip(new, steps[starts[k] - 1:starts[k + 1] - 1])]
        stepped = {(x, s) for _, x, s in walk}
        checks = [(y, s, st[y][s]) for y in new for s in gens[:k + 1] if (y, s) not in stepped]
        order = src.element_order(g)
        choices = [h for h, o in enumerate(dst_orders)
                   if (o == order if bijective else order % o == 0)
                   and (circ is None or circ_orders[h] == circ_orders[g])]
        levels.append((g, choices, walk[1:], checks, new))
    images = [0] * n
    found = []

    def extend(level):
        if level == len(levels):
            image = bytes(images)
            if circ is None or is_multiplicative(circ, circ.table, image):
                found.append(image)
            return
        g, choices, walk, checks, new = levels[level]
        for h in choices:
            if len(found) >= limit:
                return
            images[g] = h
            for y, x, s in walk:
                images[y] = dt[images[x]][images[s]]
            if any(images[p] != dt[images[y]][images[s]] for y, s, p in checks):
                continue
            if bijective and 0 in map(images.__getitem__, new):
                continue
            if circ is not None and any(circ_orders[images[y]] != circ_orders[y] for y in new):
                continue
            extend(level + 1)

    extend(0)
    return sorted(found)


def _regular_assignments(base: FiniteGroup, action, mult, root=None) -> list:
    """Regular subgroups of G x| S, as sorted tuples of S-indices, for G = ``base``.

    S is {0, ..., len(action) - 1} with identity 0 and product ``mult(s, u)``.
    It acts on G through ``action[s]``, an image array (``action[0]`` is the
    identity map), and (s, x)(u, y) = (s u, x . action[s](y)). A regular
    subgroup holds one pair (s_a, a) over each a in G, so it is the
    assignment a -> s_a, given as the tuple of the s_a. The walk takes a0 =
    1, or the a0 of ``root`` = (a0, keep), then the least unassigned a, and
    tries each s_a whose pair generates a cyclic subgroup meeting each
    G-coordinate at most once, of order dividing |G|, and at a0 only those in
    ``keep``. It closes the grown subgroup by right multiplication with its
    generators and backtracks on a repeated coordinate or an order not
    dividing |G|. It yields each regular subgroup with s_a0 in ``keep``
    (every one, without ``root``), each along exactly one path.
    """
    n, t = base.order, base.table

    def cyclic_ok(s, a):
        coords, h, c = set(), s, a
        while c != 0 and c not in coords:    # (h, c) = (s, a)^k, k = |coords| + 1
            coords.add(c)
            h, c = mult(h, s), t[c][action[h][a]]
        return c == 0 and h == 0 and n % (len(coords) + 1) == 0

    @cache
    def candidates(a):
        return [s for s in range(len(action)) if cyclic_ok(s, a)]

    a0, keep = root or (1, range(len(action)))

    def walk(s_of, members, gens):
        if len(members) == n:
            yield tuple(s_of)
            return
        a = s_of.index(-1) if len(members) > 1 else a0
        for sa in candidates(a):
            if a == a0 and sa not in keep:
                continue
            grown, new, gens_now = s_of[:], [a], gens + [(sa, a)]
            grown[a] = sa
            queue = [(x, sa, a) for x in members] + [(a, u, y) for u, y in gens_now]
            while queue:
                x, u, y = queue.pop()        # the product (s_x, x)(u, y)
                sx = grown[x]
                sz, z = mult(sx, u), t[x][action[sx][y]]
                if grown[z] == -1:
                    grown[z] = sz
                    new.append(z)
                    queue += [(z, v, w) for v, w in gens_now]
                elif grown[z] != sz:
                    break
            else:
                if n % (len(members) + len(new)) == 0:
                    yield from walk(grown, members + new, gens_now)

    return sorted(walk([0] + [-1] * (n - 1), [0], []))


def group_isomorphisms(src: FiniteGroup, dst: FiniteGroup, max_order: int = MAX_GROUP_ORDER,
                       limit: float = inf) -> list:
    """All isomorphisms src -> dst as image arrays, sorted lexicographically; at most ``limit`` of them."""
    if src.order != dst.order:
        return []
    if src.order > max_order:
        raise OrderCapExceeded(f"order {src.order} exceeds automorphism cap {max_order}")
    return _homomorphisms(src, dst, True, limit=limit)


def automorphism_group(group: FiniteGroup, max_order: int = MAX_GROUP_ORDER,
                       limit: float = inf) -> tuple:
    """All automorphisms as image arrays, identity first, in lexicographic order; at most ``limit``."""
    return tuple(group_isomorphisms(group, group, max_order, limit))


def endomorphisms(group: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> list:
    """All endomorphisms of the group as image arrays, sorted."""
    if group.order > max_order:
        raise OrderCapExceeded(f"order {group.order} exceeds cap {max_order}")
    return _homomorphisms(group, group, False)


# ---------------------------------------------------------------------------
# Holomorph


class Holomorph(namedtuple("Holomorph", "base automorphisms group")):
    """Hol G = Aut G x| G with product (f,a)(g,b) = (fg, a f(b)), as the ``group`` on pairs over ``base``.

    Pairs (f, a) are indexed as f_index * |G| + a, so the identity pair is 0;
    ``automorphisms`` lists Aut G in that index order.
    """

    __slots__ = ()


MAX_HOLOMORPH_ORDER = 10000
"""The largest |Hol G| = |Aut G| |G| whose regular subgroups the census walks."""


def holomorph_automorphisms(base: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> tuple:
    """automorphism_group(base), stopped at the first automorphism that puts |Aut G| |G| over the cap."""
    most = MAX_HOLOMORPH_ORDER // base.order
    auts = automorphism_group(base, max_order, most + 1)
    if len(auts) > most:
        raise OrderCapExceeded(f"holomorph order exceeds cap {MAX_HOLOMORPH_ORDER}: "
                               f"Aut(G) has more than {most} automorphisms")
    return auts


def build_holomorph(base: FiniteGroup, max_order: int = MAX_GROUP_ORDER) -> Holomorph:
    """Hol G with its multiplication table; OrderCapExceeded when |Hol G| exceeds MAX_TABLE_ORDER."""
    auts = holomorph_automorphisms(base, max_order)
    n = base.order
    total = len(auts) * n
    if total > MAX_TABLE_ORDER:
        raise OrderCapExceeded(f"holomorph order {total} exceeds the table bound of {MAX_TABLE_ORDER}")
    aut_index = {f: i for i, f in enumerate(auts)}
    comp = [[aut_index[compose(f, g)] for g in auts] for f in auts]
    table = [[0] * total for _ in range(total)]
    for fi, f in enumerate(auts):
        for a in range(n):
            row = table[fi * n + a]
            arow = base.table[a]
            for gi in range(len(auts)):
                block = comp[fi][gi] * n
                for b in range(n):
                    row[gi * n + b] = block + arow[f[b]]
    hol = FiniteGroup(table, name=f"Hol({base.name})" if base.name else "Hol")
    return Holomorph(base, auts, hol)


# ---------------------------------------------------------------------------
# File format


_CYCLE_RE = re.compile(r"\(([^()]*)\)")

def parse_cycles(text: str, degree: int) -> tuple:
    """Parse cycle notation like "(1 2)(3 4)" on points 1..degree into a 0-based permutation."""
    images = list(range(degree))
    body = text.strip()
    if body in ("", "()", "e", "id"):
        return tuple(images)
    if _CYCLE_RE.sub("", body).strip():
        raise InvalidGroup((Violation("entry_out_of_range", (text,)),))
    for cycle in _CYCLE_RE.findall(body):
        points = [int(tok) - 1 for tok in re.split(r"[,\s]+", cycle.strip()) if tok]
        if any(not (0 <= p < degree) for p in points) or len(set(points)) != len(points):
            raise InvalidGroup((Violation("entry_out_of_range", (text,)),))
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
    return tuple(images)


def table_field(data, key: str):
    """The table under ``key`` of a loaded file, when it is a list of rows that are lists.

    Raises ValueError naming the field and the expected shape otherwise; the
    entries themselves are checked by verify_group.
    """
    table = data[key]
    lists = (list, tuple)
    if type(table) not in lists or not all(type(row) in lists for row in table):
        raise ValueError(f'"{key}" must be a list of rows, each a list of integers')
    return table


_JSON_KINDS = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def json_field(data: dict, key: str, what: str):
    """``data[key]`` of a loaded file; a missing field is a ValueError naming the file and field."""
    if key not in data:
        raise ValueError(f'the {what} has no "{key}" field')
    return data[key]


def json_object(data, what: str) -> dict:
    """``data`` when it is a JSON object; ValueError naming ``what`` and the kind found otherwise."""
    if not isinstance(data, dict):
        found = _JSON_KINDS.get(type(data), type(data).__name__)
        raise ValueError(f"the {what} must be a JSON object, not {found}")
    return data


def group_check_from_json(data, max_order: int = MAX_GROUP_ORDER) -> GroupCheck:
    """The check of a group file, the one reader of the JSON group format.

    Either {"name", "order", "table"} with an arbitrary labeling, checked by
    verify_group (which moves the identity to 0), or {"name", "order",
    "degree", "generators"} with cycle notation on points 1..degree. A
    declared "order" that is not the integer size of the table or of the
    generated group, a misshapen field, a degree above
    MAX_PERMUTATION_DEGREE, generators of a group above ``max_order``
    or neither form raises.
    """
    if isinstance(data, str):
        data = json.loads(data)
    data = json_object(data, "group file")
    name = data.get("name", "")
    if "table" in data:
        table = table_field(data, "table")
        order = len(table)
    elif "generators" in data:
        degree = json_field(data, "degree", "group file")
        if type(degree) is not int or degree < 1:
            raise ValueError('"degree" must be a positive integer')
        _checked_degree(degree)
        texts = data["generators"]
        if not isinstance(texts, list) or not all(isinstance(g, str) for g in texts):
            raise ValueError('"generators" must be a list of permutations, each a string')
        gens = [parse_cycles(g, degree) for g in texts]
        group = group_from_permutations(gens, degree, name, max_order)
        order = group.order
    else:
        raise InvalidGroup((Violation("no_identity", ()),))
    if "order" in data and (type(data["order"]) is not int or data["order"] != order):
        raise InvalidGroup((Violation("not_square", (data["order"],)),))
    return verify_group(table, name=name) if "table" in data else GroupCheck(True, group, None, ())


def group_from_json(data, max_order: int = MAX_GROUP_ORDER) -> FiniteGroup:
    """The group of a group file; InvalidGroup when group_check_from_json finds none."""
    return group_check_from_json(data, max_order).or_raise().group
