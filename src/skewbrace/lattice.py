"""The rank-2 integer lattice with the one-parameter family of graded multiplications.

The grading is the coordinate sum s(a) = a1 + a2; the automorphism attached
to every basis vector is the unipotent matrix M(p) with (M - I)^2 = 0, so
powers are exact: M^k = I + k (M - I).  Products use that affine form
directly, a o_i b = a + b + i s(a) D b with D = M - I, with no matrix built
per product.  The sampled system check writes its products inline and
computes the image D v of each vector v that a product takes on the right
once, for every level and check that uses it; it reads D from the matrix, so
a matrix off the family gives the same counts as one call per product.  All
arithmetic is exact big-integer arithmetic, so the algebraic identities hold
on the nose.
"""

from __future__ import annotations

from collections import namedtuple

from .config import DEFAULT_SAMPLING, SampleConfig
from .errors import CriterionMismatch
from .rng import Lcg

Mat = tuple  # ((m11, m12), (m21, m22)) acting on column vectors


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


class LatticeAuto(namedtuple("LatticeAuto", "matrix")):
    """A 2x2 integer ``matrix`` M of determinant +-1 with (M - I)^2 = 0."""

    __slots__ = ()

    def power(self, k: int) -> Mat:
        m = self.matrix
        # nilpotency of M - I makes powers affine in k
        return (
            (1 + k * (m[0][0] - 1), k * m[0][1]),
            (k * m[1][0], 1 + k * (m[1][1] - 1)),
        )


def lattice_lambda(p: int) -> LatticeAuto:
    """The basis action x1 -> (1+p, -p), x2 -> (p, 1-p), as a matrix on columns."""
    m: Mat = ((1 + p, p), (-p, 1 - p))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise CriterionMismatch("lattice automorphism must have determinant +-1")
    d = ((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1))
    if mat_mul(d, d) != ((0, 0), (0, 0)):
        raise CriterionMismatch("the matrix family must satisfy (M - I)^2 = 0")
    return LatticeAuto(m)


MAX_LATTICE_DEPTH = 8
"""The highest level ``lattice_system_check`` builds: each sample checks every ordered pair of levels."""


def lattice_system_check(p: int, depth: int = 3,
                         sampling: SampleConfig = DEFAULT_SAMPLING) -> dict:
    """Sampled verification that the level tower is a commutative brace system.

    For every level up to ``depth``: group laws, commutativity, the closed
    form versus the recursion, compatibility of every ordered level pair, and
    the desk-scale content of freeness (no sampled torsion, every sampled
    vector splits over the two generators).
    """
    if depth > MAX_LATTICE_DEPTH:
        raise ValueError(f"depth is capped at {MAX_LATTICE_DEPTH}")
    if depth < 0:
        raise ValueError("depth must not be negative")
    rng = Lcg(sampling.seed)
    auto = lattice_lambda(p)
    (m11, m12), (m21, m22) = auto.matrix
    d11, d22 = m11 - 1, m22 - 1

    # sigma -> x1^{o_i sigma} and its o_i-inverse with the D-images of both, at every level i
    x1_powers = {}
    levels = range(depth + 1)
    z1 = z2 = dz1 = dz2 = 0   # the identity (0, 0) and its D-image
    assoc = ident = inverse = commut = closed = compat = torsion = generation = hom = kernel = 0

    # Every product is a o_i v = a + v + i s(a) D v with D = M - I, and each vector v
    # that a product takes on the right has its image D v computed once: x1, x2 are
    # the coordinates of a vector x and dx1, dx2 those of D x.
    for _ in range(sampling.samples):
        draws, k = rng.take(6)
        a1, a2, b1, b2, c1, c2 = [x % 19 - 9 for x in draws[k:k + 6]]   # six next_in(-9, 9)
        sa, sb = a1 + a2, b1 + b2
        da1, da2 = d11 * a1 + m12 * a2, m21 * a1 + d22 * a2
        db1, db2 = d11 * b1 + m12 * b2, m21 * b1 + d22 * b2
        dc1, dc2 = d11 * c1 + m12 * c2, m21 * c1 + d22 * c2
        m_a = auto.power(sa)
        (p11, p12), (p21, p22) = m_a
        step1, step2 = b1, b2
        below = []   # (j, b o_j c, the o_j-inverse of a), with D-images, for every level j below i
        for i in levels:
            ka, kb = i * sa, i * sb
            ab1, ab2 = a1 + b1 + ka * db1, a2 + b2 + ka * db2
            sab = ab1 + ab2
            bc1, bc2 = b1 + c1 + kb * dc1, b2 + c2 + kb * dc2
            dbc1, dbc2 = d11 * bc1 + m12 * bc2, m21 * bc1 + d22 * bc2
            ia1, ia2 = -a1 + ka * da1, -a2 + ka * da2
            dia1, dia2 = d11 * ia1 + m12 * ia2, m21 * ia1 + d22 * ia2
            kab, kz, ki = i * sab, i * (z1 + z2), i * (ia1 + ia2)
            # (a o_i b) o_i c = a o_i (b o_i c)
            if (ab1 + c1 + kab * dc1 != a1 + bc1 + ka * dbc1
                    or ab2 + c2 + kab * dc2 != a2 + bc2 + ka * dbc2):
                assoc += 1
            # 0 o_i a = a = a o_i 0
            if (z1 + a1 + kz * da1 != a1 or z2 + a2 + kz * da2 != a2
                    or a1 + z1 + ka * dz1 != a1 or a2 + z2 + ka * dz2 != a2):
                ident += 1
            # a o_i a^{-1} = 0 = a^{-1} o_i a
            if (a1 + ia1 + ka * dia1 or a2 + ia2 + ka * dia2
                    or ia1 + a1 + ki * da1 or ia2 + a2 + ki * da2):
                inverse += 1
            # a o_i b = b o_i a
            if ab1 != b1 + a1 + kb * da1 or ab2 != b2 + a2 + kb * da2:
                commut += 1
            if i <= 4:
                # the recursion o_{i+1}(a, b) = o_i(a, M^{s(a)} b), one step per level
                if a1 + step1 != ab1 or a2 + step2 != ab2:
                    closed += 1
                step1, step2 = p11 * step1 + p12 * step2, p21 * step1 + p22 * step2
            if below:
                ac1, ac2 = a1 + c1 + ka * dc1, a2 + c2 + ka * dc2
                dac1, dac2 = d11 * ac1 + m12 * ac2, m21 * ac1 + d22 * ac2
                # a o_i (b o_j c) against ((a o_i b) o_j a^{-1}) o_j (a o_i c), the inverse in o_j
                for j, x1, x2, dx1, dx2, y1, y2, dy1, dy2 in below:
                    kj = j * sab
                    u1, u2 = ab1 + y1 + kj * dy1, ab2 + y2 + kj * dy2
                    ku = j * (u1 + u2)
                    if (a1 + x1 + ka * dx1 != u1 + ac1 + ku * dac1
                            or a2 + x2 + ka * dx2 != u2 + ac2 + ku * dac2):
                        compat += 1
            below.append((i, bc1, bc2, dbc1, dbc2, ia1, ia2, dia1, dia2))
        # exactness facts about the grading
        if mat_mul(m_a, auto.power(sb)) != auto.power(sa + sb):
            hom += 1
        if (p11 * b1 + p12 * b2 - b1) + (p21 * b1 + p22 * b2 - b2):   # s(M^{s(a)} b - b)
            kernel += 1
        # torsion: circle powers of a nonzero vector never vanish
        if a1 or a2:
            for i in levels:
                x1 = x2 = 0
                for _ in range(4):   # a^{o_i k} for k = 1..4
                    kx = i * (x1 + x2)
                    x1, x2 = x1 + a1 + kx * da1, x2 + a2 + kx * da2
                    if not (x1 or x2):
                        torsion += 1
        # generation: v = (t, -t) o_i x1^{o_i sigma} with sigma = s(v)
        powers = x1_powers.get(sa)
        if powers is None:
            powers = x1_powers[sa] = []
            for i in levels:
                # g = x1^{o_i sigma}: sigma o_i-steps of x1, or -sigma of its o_i-inverse
                # -x1 + i D x1; then h = -g + i s(g) D g, the o_i-inverse of g
                s1, s2 = (1, 0) if sa >= 0 else (i * d11 - 1, i * m21)
                ds1, ds2 = d11 * s1 + m12 * s2, m21 * s1 + d22 * s2
                g1 = g2 = 0
                for _ in range(abs(sa)):
                    kg = i * (g1 + g2)
                    g1, g2 = g1 + s1 + kg * ds1, g2 + s2 + kg * ds2
                kg = i * (g1 + g2)
                h1, h2 = -g1 + kg * (d11 * g1 + m12 * g2), -g2 + kg * (m21 * g1 + d22 * g2)
                powers.append((g1, g2, d11 * g1 + m12 * g2, m21 * g1 + d22 * g2,
                               h1, h2, d11 * h1 + m12 * h2, m21 * h1 + d22 * h2))
        for i, (g1, g2, dg1, dg2, h1, h2, dh1, dh2) in zip(levels, powers):
            ka = i * sa
            u1, u2 = a1 + h1 + ka * dh1, a2 + h2 + ka * dh2
            ku = i * (u1 + u2)
            if u1 + u2 or u1 != -u2 or u1 + g1 + ku * dg1 != a1 or u2 + g2 + ku * dg2 != a2:
                generation += 1
    failures = {
        "associativity": assoc, "identity": ident, "inverse": inverse, "commutativity": commut,
        "closed_form": closed, "compatibility": compat, "torsion": torsion, "generation": generation,
        "lambda_homomorphism": hom, "kernel_containment": kernel,
    }
    return {
        "p": p,
        "depth": depth,
        "samples": sampling.samples,
        "seed": sampling.seed,
        "failures": failures,
        "failure_count": sum(failures.values()),
    }
