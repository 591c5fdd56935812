"""Independent brute-force oracles used to cross-check library output.

Everything here deliberately avoids the code paths it is checking: tables
are enumerated directly from the axioms. The library keeps tables as bytes
rows and maps as bytes image arrays; the oracles work on int tuples, one
subscript at a time, and ``tuples`` converts the library's values for a
comparison. It also keeps, with their tests, what no command reaches: the
word expansions and the word-level operator applies, and the paper's lemma
checks (opposite symmetry, linking, cross compatibility) with the brace
isomorphism search, relabeling and group file writer their tests use.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product

from skewbrace import lattice
from skewbrace.braces import (
    Classification,
    SkewBrace,
    classify,
    left_law_witness,
    link_conditions,
    opposite,
)
from skewbrace.config import DEFAULT_SAMPLING
from skewbrace.errors import (
    AlgebraError,
    CriterionMismatch,
    InvalidGroup,
    NotRotaBaxter,
    PreconditionFails,
    RankMismatch,
)
from skewbrace.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupCheck,
    Violation,
    automorphism_group,
    compose,
    direct_product,
    endomorphisms,
    group_isomorphisms,
    invert_permutation,
    is_multiplicative,
    is_self_map,
    relabeled,
    subgroup_closure_in,
    verify_group,
)
from skewbrace.lattice import lattice_lambda, mat_mul
from skewbrace.rng import Lcg
from skewbrace.rota import (
    MAX_SELF_MAP_ORDER,
    is_rb,
    rb_brace,
    rb_endomorphisms,
    rb_lambda_hom_check,
    rb_self_maps,
    rb_symmetry_check,
)
from skewbrace.structure import IdealReport, all_subgroups
from skewbrace.words import FreeWord, GeneratorCycle


def tuples(maps) -> list:
    """Library image arrays or table rows as int tuples, the representation of these oracles."""
    return [tuple(m) for m in maps]


# The names the suite first gave groups, with dihedral_group(n) as Dn and dicyclic_group(n) as Dicn,
# where they differ from the library's names by order.
CASE_KEYS = {"D8": "D4", "D10": "D5", "D12": "D6", "D16": "D8", "Dic12": "Dic3", "Q16": "Dic4", "D8xZ2": "D4xZ2"}


def case_key(group) -> str:
    """The key a group's test cases are known by, their pytest id and the seed of their draws.

    It keeps the suite's first names (CASE_KEYS), so ids and drawn data stay
    put when the library renames a group.
    """
    return CASE_KEYS.get(group.name, group.name) or str(group.order)


def compose_by_index(f, g):
    """f after g, one subscript at a time: the reference for groups.compose."""
    return tuple(f[x] for x in g)


def invert_by_index(p):
    """The inverse permutation, one assignment at a time."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def lambda_by_index(add, circ):
    """lambda_a(b) = a^-1 . (a o b) for every a and b, read off two tables with identity 0."""
    n = len(add)
    inv = [list(add[a]).index(0) for a in range(n)]
    return [tuple(add[inv[a]][circ[a][b]] for b in range(n)) for a in range(n)]


def rb_first_failure_by_index(table, b):
    """First (g, h) with B(g) B(h) != B(g B(g) h B(g)^-1) in a table with identity 0, or None."""
    n = len(table)
    inv = [list(table[a]).index(0) for a in range(n)]
    return next(((g, h) for g in range(n) for h in range(n)
                 if table[b[g]][b[h]] != b[table[table[table[g][b[g]]][h]][inv[b[g]]]]), None)


def rb_operators_by_graph_subgroups(group):
    """Every Rota-Baxter operator of the group, as sorted int tuples, read off subgroups of G x G.

    B is Rota-Baxter iff the pairs (B(g), g B(g)) form a subgroup of the
    direct product G x G (Guo-Lang-Sheng), and a subgroup of order |G| is
    such a graph iff (x, y) -> y x^-1 is a bijection onto G; then
    B(y x^-1) = x. The subgroups come from structure.all_subgroups on
    direct_product(G, G), with (x, y) at x |G| + y, so nothing is shared
    with the walk of the semidirect product G x| G.
    """
    n, t, inv = group.order, group.table, group.inverse
    found = []
    for members in all_subgroups(direct_product(group, group)):
        if len(members) != n:
            continue
        b = [None] * n
        for p in members:
            x, y = divmod(p, n)
            b[t[y][inv[x]]] = x
        if None not in b:
            found.append(tuple(b))
    return sorted(found)


def inversion_operator(group) -> bytes:
    """g -> g^-1, a Rota-Baxter operator on every group, read off each row's identity."""
    return bytes(row.index(0) for row in group.table)


def constant_operator(group) -> bytes:
    """g -> e, a Rota-Baxter operator on every group."""
    return bytes(group.order)


def rb_anti_hom_lemma_check(group, b_map) -> bool:
    """For an anti-homomorphic Rota-Baxter operator B: [B(b), B(B(a)) B(a)] is trivial for all a, b.

    NotRotaBaxter at the first pair where the identity fails, and
    PreconditionFails unless B(g h) = B(h) B(g) for all g, h.
    """
    t, b = group.table, tuple(b_map)
    n = len(t)
    witness = rb_first_failure_by_index(t, b)
    if witness is not None:
        raise NotRotaBaxter(witness)
    if any(b[t[g][h]] != t[b[h]][b[g]] for g in range(n) for h in range(n)):
        raise PreconditionFails("operator must be an anti-homomorphism")
    return all(t[b[x]][u] == t[u][b[x]] for u in (t[b[b[a]]][b[a]] for a in range(n))
               for x in range(n))


def rb_search_rows_by_operator(group, max_order=MAX_GROUP_ORDER):
    """The "operators" rows of rb search, with one rb_brace and both checks for every operator.

    The search lists self-maps up to MAX_SELF_MAP_ORDER and endomorphisms
    under ``max_order`` above it, as rb search does; nothing is carried over
    between operators.
    """
    if group.order <= MAX_SELF_MAP_ORDER:
        found = rb_self_maps(group)
    else:
        found = rb_endomorphisms(group, endomorphisms(group, max_order))
    rows = []
    for op in found:
        brace = rb_brace(group, op)
        rows.append({"map": list(op), "symmetric": rb_symmetry_check(brace, op)["symmetric"],
                     "lambda_homomorphic": rb_lambda_hom_check(brace, op)["lambda_homomorphic"]})
    return rows


def rb_center_conditions_by_scan(table, b):
    """(B(c)^-1 B(a)^-1 B(c a), B(a c)^-1 B(a) B(c)) central for all a, c, in a table with identity 0."""
    n = len(table)
    inv = [list(table[a]).index(0) for a in range(n)]
    center = {z for z in range(n) if all(table[z][x] == table[x][z] for x in range(n))}
    pairs = [(a, c) for a in range(n) for c in range(n)]
    return (all(table[table[inv[b[c]]][inv[b[a]]]][b[table[c][a]]] in center for a, c in pairs),
            all(table[table[inv[b[table[a][c]]]][b[a]]][b[c]] in center for a, c in pairs))


def derived_table_by_index(table, b):
    """The table of g o h = g B(g) h B(g)^-1, in a table with identity 0."""
    n = len(table)
    inv = [list(table[a]).index(0) for a in range(n)]
    return tuple(tuple(table[table[table[g][b[g]]][h]][inv[b[g]]] for h in range(n))
                 for g in range(n))


@lru_cache(maxsize=None)
def group_tables_identity_zero(n):
    """All group multiplication tables on {0..n-1} with identity 0, as a tuple."""
    if n == 1:
        return (((0,),),)
    rows_by_first = {}
    for a in range(1, n):
        rows_by_first[a] = [
            (a,) + p for p in permutations([x for x in range(n) if x != a])
        ]
    tables = []

    def clash(row, other):
        return any(x == y for x, y in zip(row, other))

    def fill(rows, pools):
        """pools[k]: the candidates for row len(rows) + k that keep every column latin."""
        if not pools:
            t = tuple(rows)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if t[t[a][b]][c] != t[a][t[b][c]]:
                            return
            tables.append(t)
            return
        for cand in pools[0]:
            rest = [[r for r in pool if not clash(r, cand)] for pool in pools[1:]]
            if all(rest):
                fill(rows + [cand], rest)

    first = tuple(range(n))
    fill([first], [[r for r in rows_by_first[a] if not clash(r, first)] for a in range(1, n)])
    return tuple(tables)


def left_law_holds(add_table, circ_table, add_inverse):
    n = len(add_table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = circ_table[a][add_table[b][c]]
                rhs = add_table[add_table[circ_table[a][b]][add_inverse[a]]][circ_table[a][c]]
                if lhs != rhs:
                    return False
    return True


def brute_force_circ_tables(group):
    """Every group table with identity 0 forming a skew brace over the given addition."""
    inv = group.inverse
    return [
        t for t in group_tables_identity_zero(group.order)
        if left_law_holds(group.table, t, inv)
    ]


def isomorphism_classes_by_orbit(braces):
    """Partition labeled braces into isomorphism classes by brute-force relabeling.

    A brace isomorphism fixes the identity, so the classes are the orbits of
    the census set under pushforward along all permutations fixing 0.
    """
    n = braces[0].order
    tables = {(tuple(tuples(b.add.table)), tuple(tuples(b.circ.table))): i
              for i, b in enumerate(braces)}
    perms = [(0,) + p for p in permutations(range(1, n))]
    unassigned = set(range(len(braces)))
    classes = []
    while unassigned:
        seed = min(unassigned)
        brace = braces[seed]
        orbit = set()
        for p in perms:
            inv = invert_by_index(p)
            add = tuple(tuple(p[brace.add.table[inv[a]][inv[b]]] for b in range(n))
                        for a in range(n))
            circ = tuple(tuple(p[brace.circ.table[inv[a]][inv[b]]] for b in range(n))
                         for a in range(n))
            hit = tables.get((add, circ))
            if hit is not None:
                orbit.add(hit)
        classes.append(sorted(orbit))
        unassigned -= orbit
    return classes


def circ_orbits_by_relabeling(group, circ_tables):
    """The circ tables of labeled braces over ``group`` split into Aut(G)-orbits, as sets.

    Two labeled braces over one addition are isomorphic iff an automorphism
    psi of the addition relabels one circ table into the other, psi(a) o'
    psi(b) = psi(a o b). Each orbit is every relabeling of the least table
    not yet placed, with the automorphisms found by homomorphisms_by_extension.
    """
    n = group.order
    auts = homomorphisms_by_extension(group, group, True)
    unseen = {tuple(tuples(t)) for t in circ_tables}
    orbits = []
    while unseen:
        circ = min(unseen)
        orbit = set()
        for phi in auts:
            inv = invert_by_index(phi)
            orbit.add(tuple(tuple(phi[circ[inv[a]][inv[b]]] for b in range(n)) for a in range(n)))
        orbits.append(orbit)
        unseen -= orbit
    return orbits


def regular_subgroup_count_by_lambda_walk(group):
    """Count regular subgroups of Hol G by assigning an automorphism to each element.

    A regular subgroup is exactly a total assignment a -> f_a with f_e = id
    that is closed under the holomorph product; the walk branches per element
    and propagates the assignments forced by all pairwise products and
    inverses, where the library's walk closes under right multiplication by
    generators and returns the subgroups themselves.
    """
    auts = tuples(automorphism_group(group))
    aut_index = {img: i for i, img in enumerate(auts)}
    n = group.order
    table = group.table
    comp_cache = {}

    def comp(i, j):
        key = (i, j)
        if key not in comp_cache:
            comp_cache[key] = aut_index[compose_by_index(auts[i], auts[j])]
        return comp_cache[key]

    inv_cache = {}

    def aut_inv(i):
        if i not in inv_cache:
            inv_cache[i] = aut_index[invert_by_index(auts[i])]
        return inv_cache[i]

    # (f, a) must generate a cyclic group meeting each coordinate at most once
    identity = tuple(range(n))
    allowed = {0: [0]} if n == 1 else {}
    for a in range(1, n):
        ok = []
        for fi, img in enumerate(auts):
            coords = set()
            x, fk = a, img  # the pair (f, a)^k is (fk, x)
            size = 1
            good = True
            while True:
                if x == 0:
                    good = fk == identity  # else (fk, 0) collides with the identity pair
                    break
                if x in coords:
                    good = False
                    break
                coords.add(x)
                x = table[x][fk[a]]
                fk = compose_by_index(fk, img)
                size += 1
            if good and n % size == 0:
                ok.append(fi)
        allowed[a] = ok

    def propagate(f):
        changed = True
        while changed:
            changed = False
            items = list(f.items())
            for a, fa in items:
                fa_img = auts[fa]
                for b, fb in items:
                    c = table[a][fa_img[b]]
                    fc = comp(fa, fb)
                    if c in f:
                        if f[c] != fc:
                            return False
                    else:
                        f[c] = fc
                        changed = True
                ci = auts[aut_inv(fa)][group.inverse[a]]
                if ci in f:
                    if f[ci] != aut_inv(fa):
                        return False
                else:
                    f[ci] = aut_inv(fa)
                    changed = True
        return True

    count = 0

    def dfs(f):
        nonlocal count
        if len(f) == n:
            count += 1
            return
        a = min(x for x in range(n) if x not in f)
        for fi in allowed[a]:
            g = dict(f)
            g[a] = fi
            if propagate(g):
                dfs(g)

    dfs({0: 0})
    return count


def _cyclic_candidates(table, n):
    """Holomorph elements whose cyclic subgroup could sit inside a regular subgroup."""
    out = []
    for g in range(1, len(table)):
        coords = {0}
        x = g
        ok = True
        steps = 0
        while x != 0:
            c = x % n
            if c in coords:
                ok = False
                break
            coords.add(c)
            x = table[x][g]
            steps += 1
        if ok and n % (steps + 1) == 0:
            out.append(g)
    return out


def _closure_within(table, base_members, new_elem, n, coords):
    """Closure of a subgroup plus one element, aborting on any repeated coordinate."""
    members = set(base_members)
    coord_set = set(coords)
    c = new_elem % n
    if c in coord_set:
        return None
    members.add(new_elem)
    coord_set.add(c)
    queue = [new_elem]
    while queue:
        a = queue.pop()
        for b in tuple(members):
            for p in (table[a][b], table[b][a]):
                if p not in members:
                    cp = p % n
                    if cp in coord_set:
                        return None
                    members.add(p)
                    coord_set.add(cp)
                    queue.append(p)
    return tuple(sorted(members))


def holomorph_table(group):
    """The table of Hol G = Aut G x| G, (f, a)(g, b) = (f g, a f(b)), with (f, a) at f_index * |G| + a.

    Built from the automorphism list as int tuples: Hol G can have more
    elements than a bytes row has labels.
    """
    auts = tuples(automorphism_group(group))
    n = group.order
    index = {f: i for i, f in enumerate(auts)}
    comp = [[index[compose_by_index(f, g)] * n for g in auts] for f in auts]
    return tuple(tuple(comp[fi][gi] + group.table[a][f[b]]
                       for gi in range(len(auts)) for b in range(n))
                 for fi, f in enumerate(auts) for a in range(n))


def holomorph_members(assignments, automorphisms):
    """Each lambda assignment a -> f_a as its regular subgroup: the sorted f_index * |G| + a, sorted."""
    index = {tuple(f): i for i, f in enumerate(automorphisms)}
    return sorted(tuple(sorted(index[tuple(f)] * len(maps) + a for a, f in enumerate(maps)))
                  for maps in assignments)


@lru_cache(maxsize=None)
def regular_subgroups_by_closure(group):
    """All regular subgroups of Hol G, a sorted tuple of sorted f_index * |G| + a tuples.

    Grows subgroups inside the materialised holomorph table by closing seed
    extensions under all pairwise products, discarding closures already seen
    and pruning any partial subgroup with a repeated second coordinate.  It
    shares nothing with the library's assignment walk but the automorphism
    list.  Cached per group, since two census tests ask for the same groups.
    """
    n = group.order
    if n == 1:
        return ((0,),)
    hol = holomorph_table(group)
    cands = _cyclic_candidates(hol, n)
    seen = {(0,)}
    complete = []
    frontier = [(0,)]
    while frontier:
        nxt = []
        for members in frontier:
            mset = set(members)
            coords = {x % n for x in members}
            for g in cands:
                if g in mset:
                    continue
                closure = _closure_within(hol, mset, g, n, coords)
                if closure is None or closure in seen:
                    continue
                seen.add(closure)
                if len(closure) == n:
                    complete.append(closure)
                elif n % len(closure) == 0:
                    nxt.append(closure)
        frontier = nxt
    return tuple(sorted(complete))


def transported_closure(group, relabel):
    """``regular_subgroups_by_closure`` of ``group`` relabeled x -> relabel[x], carried over from ``group``'s.

    Relabeling by pi sends the regular subgroup {(f, a)} to {(pi f pi^-1, pi(a))};
    the automorphisms of the relabeled group are the pi f pi^-1, indexed in
    lexicographic order as ``holomorph_members`` indexes them.
    """
    n = group.order
    back = invert_permutation(relabel)
    moved = [tuple(relabel[f[b]] for b in back) for f in tuples(automorphism_group(group))]
    index = {f: i for i, f in enumerate(sorted(moved))}
    new = [index[f] * n for f in moved]
    return tuple(sorted(tuple(sorted(new[x // n] + relabel[x % n] for x in members))
                        for members in regular_subgroups_by_closure(group)))


# --- full scans: references for the checks the library makes on generators only ---


def _inverses(table):
    """Inverses in a group table whose identity may sit at any label."""
    n = len(table)
    e = next(x for x in range(n) if all(table[x][a] == a == table[a][x] for a in range(n)))
    return [list(table[a]).index(e) for a in range(n)]


def left_law_first_witness(add, circ):
    """First (a, b, c) in lexicographic order with a o (b . c) != (a o b) . a^-1 . (a o c)."""
    inv = _inverses(add)
    for a, b, c in product(range(len(add)), repeat=3):
        if circ[a][add[b][c]] != add[add[circ[a][b]][inv[a]]][circ[a][c]]:
            return (a, b, c)
    return None


def right_law_first_witness(add, circ):
    """First (a, b, c) in lexicographic order with (a . b) o c != (a o c) . c^-1 . (b o c)."""
    inv = _inverses(add)
    for a, b, c in product(range(len(add)), repeat=3):
        if circ[add[a][b]][c] != add[add[circ[a][c]][inv[c]]][circ[b][c]]:
            return (a, b, c)
    return None


def first_associativity_triple(table):
    """First (a, b, c) in lexicographic order with (a b) c != a (b c)."""
    for a, b, c in product(range(len(table)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def verify_group_by_full_scan(table):
    """The group check scanned entry by entry, with associativity tried on every triple.

    Violations, witnesses and the relabeling (identity to 0, the other labels
    in order) are those verify_group reports.
    """
    rows = [list(r) for r in table]
    n = len(rows)
    violations = []
    if any(len(r) != n for r in rows) or n == 0:
        return GroupCheck(False, None, None, (Violation("not_square", (n,)),))
    for a in range(n):
        for b in range(n):
            v = rows[a][b]
            if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
                return GroupCheck(False, None, None, (Violation("entry_out_of_range", (a, b)),))
    for a in range(n):
        if len(set(rows[a])) != n:
            violations.append(Violation("not_latin_square", ("row", a)))
            break
    else:
        for b in range(n):
            if len({rows[a][b] for a in range(n)}) != n:
                violations.append(Violation("not_latin_square", ("col", b)))
                break
    identity = next((e for e in range(n)
                     if all(rows[e][a] == a and rows[a][e] == a for a in range(n))), None)
    if identity is None:
        violations.append(Violation("no_identity", ()))
    else:
        missing = next((a for a in range(n) if identity not in rows[a]), None)
        if missing is not None:
            violations.append(Violation("no_inverse", (missing,)))
    triple = first_associativity_triple(rows)
    if triple:
        violations.append(Violation("not_associative", triple))
    if violations:
        return GroupCheck(False, None, None, tuple(violations))
    order = [identity] + [x for x in range(n) if x != identity]
    relabel = [0] * n
    for new, old in enumerate(order):
        relabel[old] = new
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[relabel[a]][relabel[b]] = relabel[rows[a][b]]
    return GroupCheck(True, FiniteGroup(out), tuple(relabel), ())


def _normal_by_full_scan(table, members):
    """(True, None), or (False, the first closure or conjugation failure) over every pair."""
    n = len(table)
    inv = _inverses(table)
    for a in members:
        for b in members:
            if table[a][b] not in members:
                return False, ("closure", a, b)
    for g in range(n):
        for a in members:
            if table[table[g][a]][inv[g]] not in members:
                return False, ("conjugation", g, a)
    return True, None


def is_ideal_by_full_scan(brace, elements):
    """The IdealReport of ``elements`` with lambda-invariance tried at every a of the brace."""
    members = set(elements)
    if 0 not in members:
        return IdealReport(tuple(sorted(members)), False, False, False, ("identity",))
    add, circ, n = brace.add.table, brace.circ.table, brace.order
    inv = _inverses(add)
    witness = next((("lambda", a, x) for a in range(n) for x in sorted(members)
                    if add[inv[a]][circ[a][x]] not in members), None)
    add_ok, add_w = _normal_by_full_scan(add, members)
    circ_ok, circ_w = _normal_by_full_scan(circ, members)
    return IdealReport(tuple(sorted(members)), witness is None, add_ok, circ_ok,
                       witness or add_w or circ_w)


def trivial_quotient_by_all_pairs(brace, small, big):
    """(a . b)^-1 (a o b) in ``small`` for every pair a, b of ``big``, read off the tables."""
    add, circ = brace.add.table, brace.circ.table
    inv = _inverses(add)
    return all(add[inv[add[a][b]]][circ[a][b]] in small for a in big for b in big)


def kernel_witness_by_scan(table, maps, kernel):
    """First (a, b) in order with b^-1 . lambda_a(b) outside ``kernel``: LambdaMap.kernel_witness's reference."""
    inv, kernel, n = _inverses(table), set(kernel), len(table)
    return next(((a, b) for a in range(n) for b in range(n)
                 if table[inv[b]][maps[a][b]] not in kernel), None)


def anti_kernel_witness_by_scan(table, maps, kernel):
    """First (a, b) in order with a . lambda_a(b) . a^-1 . b^-1 outside ``kernel``.

    The reference for the anti-homomorphic kernel condition of
    construct_from_lambda, LambdaMap.kernel_witness with ``conjugated``.
    """
    inv, kernel, n = _inverses(table), set(kernel), len(table)
    return next(((a, b) for a in range(n) for b in range(n)
                 if table[table[table[a][maps[a][b]]][inv[a]]][inv[b]] not in kernel), None)


def endomorphism_mod_center_failure_by_scan(table, center, f):
    """First (a, b) in order with f(a b) (f(a) f(b))^-1 outside ``center``: construct_unification's check."""
    inv, center, n = _inverses(table), set(center), len(table)
    return next(((a, b) for a in range(n) for b in range(n)
                 if table[f[table[a][b]]][inv[table[f[a]][f[b]]]] not in center), None)


def sub_brace_by_verify_group(brace, elements):
    """Both tables restricted to ``elements``, each checked by verify_group, then by SkewBrace."""
    members = sorted(set(elements))
    index = {x: i for i, x in enumerate(members)}
    add = [[index[brace.add.table[a][b]] for b in members] for a in members]
    circ = [[index[brace.circ.table[a][b]] for b in members] for a in members]
    return SkewBrace(verify_group(add).or_raise().group, verify_group(circ).or_raise().group)


def quotient_brace_by_verify_group(brace, ideal):
    """Both operations on the cosets of ``ideal``, each indexed by its least element.

    Each coset is listed from its least element, every pair of elements is
    checked to give the same product coset, and both tables go through
    verify_group and SkewBrace.
    """
    n, members = brace.order, set(ideal)
    coset_of, reps = {}, []
    for a in range(n):
        if a not in coset_of:
            for y in (brace.add.table[a][x] for x in members):
                coset_of[y] = len(reps)
            reps.append(a)
    add = [[coset_of[brace.add.table[a][b]] for b in reps] for a in reps]
    circ = [[coset_of[brace.circ.table[a][b]] for b in reps] for a in reps]
    for a in range(n):
        for b in range(n):
            i, j = coset_of[a], coset_of[b]
            if coset_of[brace.add.table[a][b]] != add[i][j] \
                    or coset_of[brace.circ.table[a][b]] != circ[i][j]:
                raise ValueError("quotient operations are not well-defined")
    return SkewBrace(verify_group(add).or_raise().group, verify_group(circ).or_raise().group)


def _permutation_order(p):
    k, q = 1, tuple(p)
    while any(x != i for i, x in enumerate(q)):
        k, q = k + 1, tuple(p[x] for x in q)
    return k


def classification_by_scan(brace):
    """classify's five flags, each scanned over every element, pair or triple of the tables.

    lambda_a(b) = a^-1 . (a o b) is read off the tables. Symmetry is the
    criterion lambda_{a o b} = lambda_{b . a} over all pairs, which must
    agree with the left law of (G, o, .) scanned over all triples; cyclicity
    asks, for a homomorphic lambda, whether some lambda_a has the order of
    the image.
    """
    add, circ = brace.add.table, brace.circ.table
    n, inv = len(add), _inverses(add)
    lam = [tuple(add[inv[a]][circ[a][b]] for b in range(n)) for a in range(n)]

    def after(f, g):
        return tuple(f[g[x]] for x in range(n))

    pairs = list(product(range(n), repeat=2))
    hom = all(lam[add[a][b]] == after(lam[a], lam[b]) for a, b in pairs)
    anti = all(lam[add[a][b]] == after(lam[b], lam[a]) for a, b in pairs)
    criterion = all(lam[circ[a][b]] == lam[add[b][a]] for a, b in pairs)
    direct = left_law_first_witness(circ, add) is None
    assert criterion == direct, "symmetry criterion disagrees with the direct check"
    image_order = len(set(lam))
    cyclic = hom and any(_permutation_order(m) == image_order for m in lam)
    natural = all(circ[a][b] == add[b][a] for a, b in pairs)
    return Classification(hom, anti, criterion, cyclic, natural)


def multiplicative_by_full_scan(src, dst, images):
    """images[a b] == images[a] images[b] for every pair, products in the tables src and dst."""
    n = len(src)
    return all(images[src[a][b]] == dst[images[a]][images[b]]
               for a in range(n) for b in range(n))


def hom_witness_by_full_scan(src, dst, images, rows=None, labels=None):
    """First (a, b), a over ``rows`` (all rows by default), with images[a b] != images[a] images[b].

    Products are read in the tables src and dst, one subscript at a time;
    with ``labels`` the two sides are compared by their labels.
    """
    n = len(src)
    label = (lambda x: x) if labels is None else labels.__getitem__
    return next(((a, b) for a in (range(n) if rows is None else rows) for b in range(n)
                 if label(images[src[a][b]]) != label(dst[images[a]][images[b]])), None)


def bilinearity_failure_by_scan(table, alpha):
    """((left, right), (a, b, c)) at the first triple where alpha is not additive on a side, or None.

    Left: alpha(a b, c) = alpha(a, c) alpha(b, c); right: alpha(a, b c) = alpha(a, b) alpha(a, c).
    """
    n = len(table)
    for a, b, c in product(range(n), repeat=3):
        sides = (alpha[table[a][b]][c] != table[alpha[a][c]][alpha[b][c]],
                 alpha[a][table[b][c]] != table[alpha[a][b]][alpha[a][c]])
        if any(sides):
            return sides, (a, b, c)
    return None


def subgroup_closure_all_pairs(table, seeds):
    """Close {0} and the seeds under every product of two members, both ways round."""
    members = {0} | set(seeds)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (table[a][b], table[b][a]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(members))


@lru_cache(maxsize=None)
def _symmetric_group_by_index(degree):
    """Every permutation of {0..degree-1}, identity first, their index and the table of p after q."""
    perms = list(permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    return perms, index, [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def permutation_closure_all_products(seeds, degree):
    """The sorted tuples of the group that ``seeds`` generate, by all-pairs closure in S_degree."""
    perms, index, table = _symmetric_group_by_index(degree)
    return [perms[i] for i in subgroup_closure_all_pairs(table, [index[tuple(s)] for s in seeds])]


def conjugation_by_index(table, g):
    """The tuple x -> g x g^-1 in a group table with identity 0, one subscript at a time."""
    g_inv = list(table[g]).index(0)
    return tuple(table[table[g][x]][g_inv] for x in range(len(table)))


def all_subgroups_by_all_pairs_closure(table):
    """Every subgroup: each one found is extended by every element outside it."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for members in frontier:
            for g in range(1, len(table)):
                if g not in members:
                    closure = subgroup_closure_all_pairs(table, members + (g,))
                    if closure not in seen:
                        seen.add(closure)
                        nxt.append(closure)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


@lru_cache(maxsize=None)
def loop_tables(n):
    """Every Latin square on {0..n-1} with identity 0: the labeled loops, groups among them."""
    rows = [tuple(range(n))]
    found = []

    def fill(r):
        if r == n:
            found.append(tuple(rows))
            return
        for rest in permutations([x for x in range(n) if x != r]):
            row = (r,) + rest
            if all(row[c] != rows[k][c] for k in range(r) for c in range(n)):
                rows.append(row)
                fill(r + 1)
                rows.pop()

    fill(1)
    return tuple(found)


def switched_cyclic_loop(n, a, b):
    """Z_n, n even, with the intercalate on rows a, a + n/2 and columns b, b + n/2 switched.

    The result is a Latin square with identity 0 for 1 <= a, b < n/2, and in
    general not associative.
    """
    h = n // 2
    t = [[(x + y) % n for y in range(n)] for x in range(n)]
    for r in (a, a + h):
        t[r][b], t[r][b + h] = t[r][b + h], t[r][b]
    return tuple(tuple(row) for row in t)


def endomorphisms_by_brute_force(table):
    """Every self-map of the group table, all n^n of them, that respects every product."""
    n = len(table)
    return [images for images in product(range(n), repeat=n)
            if multiplicative_by_full_scan(table, table, images)]



def _extend_by_closure(src, dst, gens, chosen):
    """The map with m[0] = 0 and m[g] = h for the chosen pairs, or None on a conflict.

    Extended breadth-first with a check of m[a g] = m[a] m[g] at every reached
    a and generator g, so a returned map is a homomorphism by induction on
    word length.
    """
    m = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, h in zip(gens, chosen):
                b, mb = src.table[a][g], dst.table[m[a]][h]
                if b not in m:
                    m[b] = mb
                    nxt.append(b)
                elif m[b] != mb:
                    return None
        frontier = nxt
    return tuple(m[a] for a in range(src.order)) if len(m) == src.order else None


def homomorphisms_by_extension(src, dst, bijective):
    """Homomorphisms src -> dst (only the bijective ones if asked), sorted, by closure.

    Every choice of images for the generators of src is extended, without
    pruning the choices by element order.
    """
    gens = src.generators
    found = []
    for chosen in product(range(dst.order), repeat=len(gens)):
        images = _extend_by_closure(src, dst, gens, chosen)
        if images is not None and (not bijective or len(set(images)) == src.order):
            found.append(images)
    return sorted(found)


def linear_level_by_recomposing(group, maps, i):
    """The table of a o_i b = a . lambda_a^i(b), each power recomposed from the identity.

    A negative i powers the inverse of each lambda_a.
    """
    n = group.order
    table = []
    for a in range(n):
        step = maps[a] if i >= 0 else tuple(maps[a].index(x) for x in range(n))
        power = tuple(range(n))
        for _ in range(abs(i)):
            power = tuple(step[x] for x in power)
        table.append(tuple(group.table[a][power[b]] for b in range(n)))
    return tuple(table)


# --- the sampling stream, one textbook LCG step per draw ------------------


def lcg_draws_by_stepping(seed):
    """Yield (draw, state) forever: state -> (state * a + c) mod 2^64, one step per draw, draw = state >> 33.

    The multiplier and increment are Knuth's MMIX constants, written out here
    rather than read from the library.
    """
    state = (seed ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        yield state >> 33, state


# --- free words, reduced by FreeWord's validating reducer ------------------
# The samplers multiply reduced syllable tuples at the seam (words.mul_syllables);
# these formulas reduce whole concatenations letter run by letter run instead.


def word_product(*words):
    """The product of free words of one rank, the concatenation reduced by FreeWord's validating reducer."""
    return FreeWord(words[0].rank, [syllable for w in words for syllable in w.syllables])


def word_power(w, k):
    """w^k as |k| copies of w, or of its inverse when k < 0, reduced once."""
    step = w.syllables if k >= 0 else [(g, -e) for g, e in reversed(w.syllables)]
    return FreeWord(w.rank, list(step) * abs(k))


def exponent_sum(w):
    return sum(e for _, e in w.syllables)


def theta_power(theta, u, k):
    """theta^k(u): a GeneratorCycle relabels every letter, an Inner conjugates by its word^k."""
    if isinstance(theta, GeneratorCycle):
        shift = theta.shift * k
        return FreeWord(u.rank, [((g - 1 + shift) % u.rank + 1, e) for g, e in u.syllables])
    conjugator = word_power(theta.word, k)
    return word_product(conjugator, u, word_power(conjugator, -1))


def circ_eval(a, b, theta):
    """a o b = a . theta^{l(a)}(b): the multiplication graded by exponent sum."""
    return word_product(a, theta_power(theta, b, exponent_sum(a)))


def free_rb_example(m, a, b):
    """Level-m multiplication of the rank-2 example: a x1^{m l(a)} b x1^{-m l(a)}."""
    if a.rank != 2 or b.rank != 2:
        raise ValueError("the example lives on the free group of rank 2")
    k = m * exponent_sum(a)
    return word_product(a, FreeWord(2, [(1, k)]), b, FreeWord(2, [(1, -k)]))


def free_rb_level_inverse(m, a):
    """The level-m inverse x1^{-m l(a)} a^-1 x1^{m l(a)} of a in the rank-2 example."""
    k = m * exponent_sum(a)
    return word_product(FreeWord(2, [(1, -k)]), word_power(a, -1), FreeWord(2, [(1, k)]))


# --- word expansion, fold vs closed form, and words through operator actions ---
# No command evaluates circle-words or applies an operator to a FreeWord: the
# library acts on syllable tuples (``theta.action(k)``, ``FreeRb.action()``).


def apply_power(theta, u, k=1):
    """theta^k applied to the FreeWord u through ``theta.action(k)``; k < 0 applies the inverse."""
    if u.rank != theta.rank:
        raise RankMismatch(f"word rank {u.rank} != automorphism rank {theta.rank}")
    return FreeWord._reduced(theta.rank, theta.action(k)(u.syllables))


def free_rb_apply(op, w):
    """The free operator ``op`` applied to the FreeWord w through ``op.action()``."""
    if w.rank != op.rank:
        raise RankMismatch(f"word rank {w.rank} != operator rank {op.rank}")
    return FreeWord._reduced(op.rank, op.action()(w.syllables))


def _fold_vs_formula(mul, invert, identity, b_of, letters):
    """Evaluate a product of circle-powers two ways and insist they agree.

    Fold: repeated derived products g o h = g B(g) h B(g)^-1, with the
    circle inverse B(a)^-1 a^-1 B(a).  Formula: the closed rewriting
    prod (a_i B(a_i))^{k_i} . prod_reversed B(a_i)^{-k_i}.
    """
    def circ(g, h):
        bg = b_of(g)
        return mul(mul(mul(g, bg), h), invert(bg))

    def circ_inv(a):
        ba = b_of(a)
        out = mul(mul(invert(ba), invert(a)), ba)
        if circ(a, out) != identity or circ(out, a) != identity:
            raise CriterionMismatch("closed-form circle inverse failed")
        return out

    def gpow(x, k):
        out = identity
        step = x if k >= 0 else invert(x)
        for _ in range(abs(k)):
            out = mul(out, step)
        return out

    def circ_pow(a, k):
        out = identity
        step = a if k >= 0 else circ_inv(a)
        for _ in range(abs(k)):
            out = circ(out, step)
        return out

    folded = identity
    for a, k in letters:
        folded = circ(folded, circ_pow(a, k))

    formula = identity
    for a, k in letters:
        formula = mul(formula, gpow(mul(a, b_of(a)), k))
    for a, k in reversed(letters):
        formula = mul(formula, gpow(b_of(a), -k))

    if folded != formula:
        raise CriterionMismatch(f"fold {folded!r} differs from closed form {formula!r}")
    return folded


def circ_word_expand(group, b_map, letters):
    """Evaluate a circle-operation word on a finite carrier, fold vs closed form."""
    check = is_rb(group, b_map)
    if not check.ok:
        raise NotRotaBaxter(check.witness)
    b = tuple(b_map)
    return _fold_vs_formula(
        lambda x, y: group.table[x][y],
        lambda x: group.inverse[x],
        0,
        lambda x: b[x],
        list(letters),
    )


def circ2_expansion_report(group, b_map) -> dict:
    """Check the stated flat expansion of the second derived operation.

    The second operation of the operator-built tower is compared entrywise
    with x B(x)^2 B(B(x)) y B(y) ... (the printed flat form); any mismatch is
    reported rather than assumed away.
    """
    circ1 = rb_brace(group, b_map).circ
    b = tuple(b_map)
    n, t, inv = group.order, group.table, group.inverse
    c1, i1 = circ1.table, circ1.inverse

    def circ2(x, y):
        return c1[c1[c1[x][b[x]]][y]][i1[b[x]]]

    def flat(x, y):
        bx, b2x = b[x], b[b[x]]
        out = x
        for v in (bx, bx, b2x, y, b[y], inv[b2x], inv[bx], b2x, inv[b[y]], inv[b2x], inv[bx]):
            out = t[out][v]
        return out

    witness = next(((x, y) for x in range(n) for y in range(n) if flat(x, y) != circ2(x, y)), None)
    return {"matches_printed": witness is None, "witness": witness}


def free_circ_word_expand(op, letters):
    """Fold-vs-formula evaluation of a circle word on a free carrier."""
    return _fold_vs_formula(
        lambda x, y: x.mul(y),
        lambda x: x.inv(),
        FreeWord(op.rank),
        lambda w: free_rb_apply(op, w),
        list(letters),
    )


# --- the lattice levels, one formula per call ----------------------------


def mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def vec_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def vec_neg(v):
    return (-v[0], -v[1])


def grading(v):
    """The coordinate sum s(v) = v1 + v2, the homomorphism that powers the automorphism."""
    return v[0] + v[1]


def auto_circ(auto, a, b, level=1):
    """a o_i b = a + M^{i s(a)} b through ``auto.power``, the definition of the level-i product."""
    return vec_add(a, mat_vec(auto.power(level * grading(a)), b))


def auto_circ_inverse(auto, a, level=1):
    """M^{-i s(a)} (-a), the inverse of a under o_i."""
    return mat_vec(auto.power(-level * grading(a)), vec_neg(a))


def lattice_circ(a, b, p, level=1):
    """a o_i b = a + M^{i s(a)} b, the level-i multiplication."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return auto_circ(lattice_lambda(p), a, b, level)


def lattice_circ_inverse(a, p, level=1):
    return auto_circ_inverse(lattice_lambda(p), a, level)


def lattice_circ_iterated(a, b, auto, level):
    """The same multiplication through the recursion o_{i+1}(a, b) = o_i(a, M^{s(a)} b)."""
    for _ in range(level):
        b = mat_vec(auto.power(grading(a)), b)
    return vec_add(a, b)


def next_in(rng, lo, hi):
    """An integer in the inclusive range [lo, hi], from one ``next_int`` draw."""
    return lo + rng.next_int(hi - lo + 1)


def sample_vec(rng, bound=9):
    return (next_in(rng, -bound, bound), next_in(rng, -bound, bound))


def lattice_system_check_by_products(p, depth=3, sampling=DEFAULT_SAMPLING):
    """``lattice.lattice_system_check`` with every product computed from the matrix, a + M^{i s(a)} b.

    ``auto.power(k)`` is I + k (M - I) for every matrix, so a matrix off the
    family gives the counts of that affine form, as the library's kernel does.

    It reads ``lattice.lattice_lambda`` when called, so a test that replaces
    it replaces it here too; the checks, counters and draws are the library's.
    """
    if depth > lattice.MAX_LATTICE_DEPTH:
        raise ValueError(f"depth is capped at {lattice.MAX_LATTICE_DEPTH}")
    if depth < 0:
        raise ValueError("depth must not be negative")
    rng = Lcg(sampling.seed)
    auto = lattice.lattice_lambda(p)
    failures = {
        "associativity": 0, "identity": 0, "inverse": 0, "commutativity": 0,
        "closed_form": 0, "compatibility": 0, "torsion": 0, "generation": 0,
        "lambda_homomorphism": 0, "kernel_containment": 0,
    }

    def circ(a, b, i):
        return auto_circ(auto, a, b, i)

    def circ_inv(a, i):
        return auto_circ_inverse(auto, a, i)

    def circ_pow(a, k, i):
        out = (0, 0)
        step = a if k >= 0 else circ_inv(a, i)
        for _ in range(abs(k)):
            out = circ(out, step, i)
        return out

    x1_powers = {}

    for _ in range(sampling.samples):
        a, b, c = sample_vec(rng), sample_vec(rng), sample_vec(rng)
        b_c, inv_a = [], []
        m_a, b_step = auto.power(grading(a)), b
        for i in range(depth + 1):
            a_b = circ(a, b, i)
            b_c.append(circ(b, c, i))
            inv_a.append(circ_inv(a, i))
            if circ(a_b, c, i) != circ(a, b_c[i], i):
                failures["associativity"] += 1
            if circ((0, 0), a, i) != a or circ(a, (0, 0), i) != a:
                failures["identity"] += 1
            if circ(a, inv_a[i], i) != (0, 0) or circ(inv_a[i], a, i) != (0, 0):
                failures["inverse"] += 1
            if a_b != circ(b, a, i):
                failures["commutativity"] += 1
            if i <= 4:
                if vec_add(a, b_step) != a_b:
                    failures["closed_form"] += 1
                b_step = mat_vec(m_a, b_step)
            a_c = circ(a, c, i)
            for j in range(i):
                lhs = circ(a, b_c[j], i)
                rhs = circ(circ(a_b, inv_a[j], j), a_c, j)
                if lhs != rhs:
                    failures["compatibility"] += 1
        if mat_mul(m_a, auto.power(grading(b))) != auto.power(grading(a) + grading(b)):
            failures["lambda_homomorphism"] += 1
        if grading(vec_add(mat_vec(m_a, b), vec_neg(b))) != 0:
            failures["kernel_containment"] += 1
        if a != (0, 0):
            for i in range(depth + 1):
                power = (0, 0)
                for _ in range(4):
                    power = circ(power, a, i)
                    if power == (0, 0):
                        failures["torsion"] += 1
        sigma = grading(a)
        for i in range(depth + 1):
            power = x1_powers.get((sigma, i))
            if power is None:
                g = circ_pow((1, 0), sigma, i)
                power = x1_powers[sigma, i] = g, circ_inv(g, i)
            g, inv_g = power
            u = circ(a, inv_g, i)
            if grading(u) != 0 or u[0] != -u[1] or circ(u, g, i) != a:
                failures["generation"] += 1
    return {
        "p": p,
        "depth": depth,
        "samples": sampling.samples,
        "seed": sampling.seed,
        "failures": failures,
        "failure_count": sum(failures.values()),
    }


# --- the paper's lemma checks and the helpers of their tests, which no command runs ---


class AdditiveTablesDiffer(AlgebraError):
    """link_check was given two braces over different additive tables."""


def opposite_symmetry_check(brace: SkewBrace) -> dict:
    """Compare symmetry of the opposite brace with the inner-centralizer condition.

    Both booleans are computed independently; the proved direction
    (centralizing inners force a symmetric opposite) is asserted, a failure
    of the unproved converse is reported instead of assumed away.
    """
    lam = brace.lam
    if not lam.homomorphic_on_add:
        raise PreconditionFails("brace must be lambda-homomorphic")
    op_sym = classify(opposite(brace)).symmetric
    inner = set(brace.add.inner)
    distinct = set(lam.maps)
    inn_cent = all(compose(i, l) == compose(l, i) for i in inner for l in distinct)
    if inn_cent and not op_sym:
        raise CriterionMismatch("inner automorphisms centralize lambda but opposite is not symmetric")
    return {
        "opposite_symmetric": op_sym,
        "inn_centralizes_lambda": inn_cent,
        "iff_holds": op_sym == inn_cent,
    }


class LinkReport(namedtuple("LinkReport", "is_brace is_symmetric cond_i cond_ii images_commute "
                             "hypothesis_met advisory", defaults=(None,))):
    """The verdicts of link_check; ``advisory`` says why the criterion was not applied, if it was not."""

    __slots__ = ()


def link_check(brace1: SkewBrace, brace2: SkewBrace) -> LinkReport:
    """Decide whether (G, o, *) is a (symmetric) brace for two braces over one addition.

    cond_i is [[G, lambda*(G)]] contained in Ker lambda-o, cond_ii the same
    with the roles swapped.  Under the hypotheses (both anti-homomorphic,
    commuting images) the direct verdicts must match the conditions; without
    them the direct results are still returned, with an advisory.
    """
    if brace1.add.table != brace2.add.table:
        raise AdditiveTablesDiffer("link check needs one shared additive table")
    lam1, lam2 = brace1.lam, brace2.lam
    images_commute, cond_i, cond_ii = link_conditions(lam1, lam2)
    is_brace = left_law_witness(brace1.circ, brace2.circ) is None
    is_symmetric = is_brace and left_law_witness(brace2.circ, brace1.circ) is None
    hypothesis_met = (images_commute
                      and lam1.anti_homomorphic_on_add and lam2.anti_homomorphic_on_add)
    advisory = None
    if hypothesis_met:
        if is_brace != cond_i or is_symmetric != (cond_i and cond_ii):
            raise CriterionMismatch("link criterion disagrees with direct verification")
    else:
        advisory = "hypotheses not met; direct results returned without the criterion"
    return LinkReport(is_brace, is_symmetric, cond_i, cond_ii, images_commute,
                      hypothesis_met, advisory)


def cross_compatibility_check(add: FiniteGroup, circ_i_table, circ_j_table) -> dict:
    """One-directional compatibility test between two braces over one addition.

    Checks the pointwise identity expressing the mixed brace law of
    (G, o_i, o_j) through the two lambda maps, and independently verifies the
    law itself; the identity must imply the law. A circ table whose
    identity is not 0, the identity of ``add``, raises InvalidGroup.
    """
    checks = [verify_group(table).or_raise() for table in (circ_i_table, circ_j_table)]
    if any(check.relabeling[0] for check in checks):   # verify_group moved the identity to 0
        raise InvalidGroup(("identities of the two operations differ",))
    brace_i, brace_j = (SkewBrace(add, check.group) for check in checks)
    lam, mu = brace_i.lam, brace_j.lam
    n = add.order
    t, inv = add.table, add.inverse

    def identity_holds():
        for a in range(n):
            mu_a = mu.maps[a]
            ai = invert_permutation(lam.maps[a])[inv[a]]   # inverse of a in (G, o_i)
            for b in range(n):
                s = t[a][mu_a[b]]                       # a . mu_a(b)
                u = lam.maps[s][ai]                     # lambda_s(a^{o_i(-1)})
                lam_v, lam_b = lam.maps[t[s][u]], lam.maps[b]
                if any(mu_a[lam_b[c]] != t[u][lam_v[t[a][mu_a[c]]]] for c in range(n)):
                    return False
        return True

    condition = identity_holds()
    is_brace = left_law_witness(brace_i.circ, brace_j.circ) is None
    if condition and not is_brace:
        raise CriterionMismatch("compatibility identity held but the mixed law failed")
    return {"condition_holds": condition, "is_brace": is_brace}


def brace_isomorphic(brace1: SkewBrace, brace2: SkewBrace,
                     max_order: int = MAX_GROUP_ORDER) -> tuple | None:
    """The image array of a simultaneous isomorphism of both operations, or None.

    Searches additive-group isomorphisms; for a pair of lambda-homomorphic
    braces the conjugacy criterion phi lambda_a phi^-1 = mu_{phi(a)} filters
    candidates and any accepted phi is re-checked as a multiplicative
    isomorphism.
    """
    if brace1.order != brace2.order:
        return None
    isos = group_isomorphisms(brace1.add, brace2.add, max_order)
    lam, mu = brace1.lam, brace2.lam
    use_criterion = lam.homomorphic_on_add and mu.homomorphic_on_add
    for phi in isos:
        if use_criterion:
            phi_inv = invert_permutation(phi)
            if any(compose(phi, compose(lam.maps[a], phi_inv)) != mu.maps[phi[a]]
                   for a in range(brace1.order)):
                continue
        if is_multiplicative(brace1.circ, brace2.circ.table, phi):
            return phi
        if use_criterion:
            raise CriterionMismatch("conjugacy criterion accepted a non-isomorphism")
    return None


def pushforward(brace: SkewBrace, perm) -> SkewBrace:
    """Relabel a brace along a permutation of the carrier fixing 0: x becomes perm[x].

    ValueError unless ``perm`` is a permutation of 0..n-1 with perm[0] = 0.
    """
    n = brace.order
    if not (is_self_map(perm, n) and len(set(perm)) == n and perm[0] == 0):
        raise ValueError(f"pushforward needs a permutation of 0..{n - 1} that fixes 0")
    return SkewBrace(*(FiniteGroup(relabeled(g.table, bytes(perm))) for g in (brace.add, brace.circ)))


def nilpotency_class(group: FiniteGroup) -> int | None:
    """Length of the lower central series, or None for non-nilpotent groups."""
    current = tuple(range(group.order))
    k = 0
    while len(current) > 1:
        step = {group.commutator(a, b) for a in range(group.order) for b in current}
        nxt = subgroup_closure_in(group, step)
        if nxt == current:
            return None
        current = nxt
        k += 1
        if k > group.order:
            return None
    return k


def group_to_json(group: FiniteGroup) -> dict:
    return {"name": group.name, "order": group.order, "table": [list(r) for r in group.table]}


IDENTITY = ((1, 0), (0, 1))
"""The 2x2 identity matrix, the automorphism of lattice level 0."""
