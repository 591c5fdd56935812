"""Reference algebra for the benchmark's inputs and output checks.

Nothing here imports skewbrace: groups are built from their presentations,
automorphisms and skew braces are found by methods unrelated to the
library's (a breadth-first word extension and a lambda-assignment walk
rather than generator backtracking and holomorph subgroup closure), so a
check that passes is evidence, not an echo.
"""

from __future__ import annotations

from itertools import permutations
from math import lcm

# ---------------------------------------------------------------------------
# Groups as tuples of rows, identity 0, table[a][b] = a*b


def _from_elements(elements, mul, identity):
    """Table of a group listed as elements, with the identity moved to index 0."""
    elements = [identity] + [x for x in elements if x != identity]
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


def cyclic(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def product(g, h):
    m = len(h)
    return tuple(
        tuple(g[a // m][b // m] * m + h[a % m][b % m] for b in range(len(g) * m))
        for a in range(len(g) * m))


def dihedral(n):
    """Order 2n: pairs (r, s) meaning x^r y^s with y x y^-1 = x^-1."""
    elements = [(r, s) for s in (0, 1) for r in range(n)]
    return _from_elements(
        elements, lambda p, q: ((p[0] + (q[0] if p[1] == 0 else -q[0])) % n, (p[1] + q[1]) % 2),
        (0, 0))


def dicyclic(n):
    """Order 4n: x^r y^s with x^2n = 1, y^2 = x^n, y x y^-1 = x^-1."""
    m = 2 * n

    def mul(p, q):
        r = (p[0] + (q[0] if p[1] == 0 else -q[0])) % m
        s = p[1] + q[1]
        if s == 2:
            r, s = (r + n) % m, 0
        return (r, s)

    return _from_elements([(r, s) for s in (0, 1) for r in range(m)], mul, (0, 0))


def alternating4():
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    ident = (0, 1, 2, 3)
    return _from_elements([p for p in permutations(range(4)) if even(p)],
                          lambda p, q: tuple(p[q[x]] for x in range(4)), ident)


def small_groups():
    """Every group of order 2 to 11 other than order 8."""
    z = cyclic
    return {2: {"Z2": z(2)}, 3: {"Z3": z(3)}, 4: {"Z4": z(4), "Z2xZ2": product(z(2), z(2))},
            5: {"Z5": z(5)}, 6: {"Z6": z(6), "S3": dihedral(3)}, 7: {"Z7": z(7)},
            9: {"Z9": z(9), "Z3xZ3": product(z(3), z(3))}, 10: {"Z10": z(10), "D10": dihedral(5)},
            11: {"Z11": z(11)}}


def catalog():
    """Every group of order 8 and 12, and the order-16 groups the benchmark uses."""
    z2, z4 = cyclic(2), cyclic(4)
    return {
        8: {"Z8": cyclic(8), "Z4xZ2": product(z4, z2), "Z2xZ2xZ2": product(product(z2, z2), z2),
            "D8": dihedral(4), "Q8": dicyclic(2)},
        12: {"Z12": cyclic(12), "Z6xZ2": product(cyclic(6), z2), "D12": dihedral(6),
             "A4": alternating4(), "Dic12": dicyclic(3)},
        16: {"Z16": cyclic(16), "Z8xZ2": product(cyclic(8), z2), "D16": dihedral(8),
             "Q16": dicyclic(4)},
    }


def identity_of(t):
    return next(e for e in range(len(t)) if t[e][e] == e)


def inverses(t):
    e = identity_of(t)
    return tuple(row.index(e) for row in t)


def relabel(t, perm):
    """The table of the same operation after renaming element x to perm[x]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return tuple(tuple(r) for r in out)


def random_perm(rng, n, fix_zero=True):
    rest = list(range(1, n)) if fix_zero else list(range(n))
    rng.shuffle(rest)
    return tuple([0] + rest) if fix_zero else tuple(rest)


def normalized(t, *others):
    """Tables relabeled so that the identity of ``t`` becomes 0, the rest in order."""
    e = identity_of(t)
    order = [e] + [x for x in range(len(t)) if x != e]
    perm = [0] * len(t)
    for new, old in enumerate(order):
        perm[old] = new
    return [relabel(u, perm) for u in (t,) + others]


def subgroups(t):
    """Every subgroup, as frozensets, by joining one element at a time."""
    n = len(t)

    def join(members, x):
        members = set(members)
        members.add(x)
        frontier = list(members)
        while frontier:
            nxt = []
            for a in frontier:
                for b in tuple(members):
                    for c in (t[a][b], t[b][a]):
                        if c not in members:
                            members.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(members)

    found = {frozenset((0,))}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            for x in range(n):
                if x not in h:
                    k = join(h, x)
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
        frontier = nxt
    return found


def is_group_table(t):
    """Group axioms with identity 0, checked directly."""
    n = len(t)
    if any(len(r) != n for r in t):
        return False
    if any(t[0][a] != a or t[a][0] != a for a in range(n)):
        return False
    if any(sorted(r) != list(range(n)) for r in t):
        return False
    if any(sorted(t[a][b] for a in range(n)) != list(range(n)) for b in range(n)):
        return False
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def element_order(t, a):
    k, x = 1, a
    while x != 0:
        x = t[x][a]
        k += 1
    return k


def power_exponent(perms):
    """Least common multiple of the orders of the given permutations."""
    out = 1
    for p in perms:
        k, q = 1, p
        while q != tuple(range(len(p))):
            q = tuple(p[x] for x in q)
            k += 1
        out = lcm(out, k)
    return out


# ---------------------------------------------------------------------------
# Automorphisms: extend generator images along a breadth-first word tree


def _generators(t):
    """Elements of largest order first until they generate the group."""
    n = len(t)
    by_order = sorted(range(1, n), key=lambda x: (-element_order(t, x), x))
    gens, span = [], {0}
    for x in by_order:
        if x in span:
            continue
        gens.append(x)
        span = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    if t[a][g] not in span:
                        span.add(t[a][g])
                        nxt.append(t[a][g])
            frontier = nxt
        if len(span) == n:
            break
    return gens


def automorphisms(t):
    """All automorphisms of the group table, as image tuples, sorted."""
    return _homomorphisms(t, bijective=True)


def endomorphisms(t):
    """All endomorphisms of the group table, as image tuples, sorted."""
    return _homomorphisms(t, bijective=False)


def _homomorphisms(t, bijective):
    n = len(t)
    if n == 1:
        return [(0,)]
    gens = _generators(t)
    # word tree: each element reached as parent * generator
    route = {0: None}
    order = [0]
    for a in order:
        for gi, g in enumerate(gens):
            b = t[a][g]
            if b not in route:
                route[b] = (a, gi)
                order.append(b)
    orders = [element_order(t, x) for x in range(n)]
    if bijective:
        choices = [[y for y in range(1, n) if orders[y] == orders[g]] for g in gens]
    else:
        choices = [[y for y in range(n) if orders[g] % orders[y] == 0] for g in gens]
    found = []

    def extend(images):
        f = [None] * n
        f[0] = 0
        for b in order[1:]:
            a, gi = route[b]
            f[b] = t[f[a]][images[gi]]
        if bijective and len(set(f)) != n:
            return
        if all(f[t[a][b]] == t[f[a]][f[b]] for a in range(n) for b in range(n)):
            found.append(tuple(f))

    def pick(i, images):
        if i == len(gens):
            extend(images)
            return
        for y in choices[i]:
            pick(i + 1, images + [y])

    pick(0, [])
    return sorted(found)


def subgroup_generators(elements, compose_fn, identity):
    """A generating subset of a finite group of maps, chosen greedily."""
    gens, span = [], {identity}
    for x in elements:
        if x in span:
            continue
        gens.append(x)
        frontier = list(span)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    c = compose_fn(a, g)
                    if c not in span:
                        span.add(c)
                        nxt.append(c)
            frontier = nxt
    return gens


def compose(f, g):
    """f after g."""
    return tuple(f[x] for x in g)


# ---------------------------------------------------------------------------
# Skew braces


def left_law_first(add, circ):
    """Lexicographically first (a, b, c) with a o (b + c) != (a o b) - a + (a o c)."""
    n = len(add)
    inv = inverses(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if circ[a][add[b][c]] != add[add[circ[a][b]][inv[a]]][circ[a][c]]:
                    return (a, b, c)
    return None


def right_law_first(add, circ):
    """Lexicographically first (a, b, c) with (a + b) o c != (a o c) - c + (b o c)."""
    n = len(add)
    inv = inverses(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if circ[add[a][b]][c] != add[add[circ[a][c]][inv[c]]][circ[b][c]]:
                    return (a, b, c)
    return None


def lambda_maps(add, circ):
    """lambda_a(b) = a^-1 . (a o b), one image tuple per element."""
    n = len(add)
    inv = inverses(add)
    return [tuple(add[inv[a]][circ[a][b]] for b in range(n)) for a in range(n)]


def lambda_walk(add, auts):
    """Every skew brace over the additive table, as multiplicative tables.

    A skew brace with additive group G is an assignment a -> f_a in Aut(G)
    with f_0 = id and f_{a f_a(b)} = f_a f_b; the walk fixes f on the least
    unassigned element, propagates what the rule forces, and backtracks on a
    clash.
    """
    n = len(add)
    index = {f: i for i, f in enumerate(auts)}
    comp = [[index[compose(f, g)] for g in auts] for f in auts]
    ident = index[tuple(range(n))]
    found = []

    def close(assign, start):
        assigned = [x for x in range(n) if assign[x] is not None]
        queue = [start]
        while queue:
            x = queue.pop()
            fx = assign[x]
            for y in list(assigned):
                fy = assign[y]
                for a, fa, b, fb in ((x, fx, y, fy), (y, fy, x, fx)):
                    c = add[a][auts[fa][b]]
                    fc = comp[fa][fb]
                    if assign[c] is None:
                        assign[c] = fc
                        assigned.append(c)
                        queue.append(c)
                    elif assign[c] != fc:
                        return False
        return n % len(assigned) == 0

    def walk(assign):
        try:
            x = assign.index(None)
        except ValueError:
            found.append(tuple(tuple(add[a][auts[assign[a]][b]] for b in range(n))
                               for a in range(n)))
            return
        for fi in range(len(auts)):
            trial = list(assign)
            trial[x] = fi
            if close(trial, x):
                walk(trial)

    start = [None] * n
    start[0] = ident
    walk(start)
    return found


def orbit_representatives(tables, aut_gens):
    """The first table of each Aut(G)-orbit on multiplicative tables over a fixed G.

    The orbits are the isomorphism classes of skew braces with that additive
    group, since an isomorphism of braces is an automorphism of (G, +).
    """
    seen = set()
    reps = []
    pool = set(tables)
    for t in tables:
        if t in seen:
            continue
        reps.append(t)
        seen.add(t)
        frontier = [t]
        while frontier:
            nxt = []
            for u in frontier:
                for phi in aut_gens:
                    v = relabel(u, phi)
                    if v not in seen:
                        if v not in pool:
                            raise ValueError("Aut(G) image of a brace is missing from the list")
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
    return reps


def brace_product(add1, circ1, add2, circ2):
    return product(add1, add2), product(circ1, circ2)


# ---------------------------------------------------------------------------
# Free groups: words as tuples of nonzero integers, +-i meaning x_i^(+-1)


def reduce_letters(letters):
    """Free reduction of a letter sequence by cancelling adjacent inverse pairs."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def letters_of(text):
    """Letters of the CLI word syntax, e.g. "x1 x2^-1 x1^3"."""
    text = text.strip()
    if text in ("", "1", "e"):
        return ()
    out = []
    for token in text.split():
        base, _, exp = token.partition("^")
        g, e = int(base[1:]), int(exp) if exp else 1
        out.extend([g if e > 0 else -g] * abs(e))
    return reduce_letters(out)


def word_text(w):
    """The CLI word syntax for a letter tuple, e.g. (1, -2, -2) -> "x1 x2^-2"."""
    if not w:
        return "1"
    out, i = [], 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        e = (j - i) * (1 if w[i] > 0 else -1)
        out.append(f"x{abs(w[i])}" if e == 1 else f"x{abs(w[i])}^{e}")
        i = j
    return " ".join(out)


def word_inverse(w):
    return tuple(-x for x in reversed(w))


def word_power(w, k):
    if k < 0:
        w, k = word_inverse(w), -k
    return reduce_letters(w * k)


def exponent_sum(w):
    return sum(1 if x > 0 else -1 for x in w)


def cycle_generators(w, rank, shift):
    """Image of a word under x_i -> x_{i+shift}, indices mod rank."""
    return tuple((1 if x > 0 else -1) * ((abs(x) - 1 + shift) % rank + 1) for x in w)


def conjugate_by(w, u, k):
    """u^k w u^-k."""
    uk = word_power(u, k)
    return reduce_letters(uk + w + word_inverse(uk))
