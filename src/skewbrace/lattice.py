"""The rank-2 integer lattice with the one-parameter family of graded multiplications.

The grading is the coordinate sum s(a) = a1 + a2; the automorphism attached
to every basis vector is the unipotent matrix M(p) with (M - I)^2 = 0, so
powers are exact: M^k = I + k (M - I).  Products use that affine form
directly, a o_i b = a + b + i s(a) (M - I) b, with no matrix built per
product.  All arithmetic is exact big-integer arithmetic, so the algebraic
identities hold on the nose.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .config import DEFAULT_SAMPLING, SampleConfig
from .errors import CriterionMismatch
from .rng import Lcg

Vec = tuple  # (v1, v2)
Mat = tuple  # ((m11, m12), (m21, m22)) acting on column vectors


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def vec_add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def vec_neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def grading(v: Vec) -> int:
    """The coordinate-sum homomorphism that powers the automorphism."""
    return v[0] + v[1]


class LatticeAuto(namedtuple("LatticeAuto", "matrix")):
    """A 2x2 integer ``matrix`` M of determinant +-1 with (M - I)^2 = 0.

    It keeps an instance __dict__, no __slots__, for its cached_property values.
    """

    def power(self, k: int) -> Mat:
        m = self.matrix
        # nilpotency of M - I makes powers affine in k
        return (
            (1 + k * (m[0][0] - 1), k * m[0][1]),
            (k * m[1][0], 1 + k * (m[1][1] - 1)),
        )

    @cached_property
    def circ(self):
        """(a, b, level=1) -> a o_level b = a + M^{level s(a)} b = a + b + level s(a) (M - I) b, M read once."""
        (m11, m12), (m21, m22) = self.matrix
        d11, d22 = m11 - 1, m22 - 1

        def circ(a: Vec, b: Vec, level: int = 1) -> Vec:
            a1, a2 = a
            b1, b2 = b
            k = level * (a1 + a2)
            return (a1 + b1 + k * (d11 * b1 + m12 * b2), a2 + b2 + k * (m21 * b1 + d22 * b2))
        return circ

    @cached_property
    def circ_inverse(self):
        """(a, level=1) -> M^{-level s(a)} (-a) = -a + level s(a) (M - I) a, the inverse under o_level, M read once."""
        (m11, m12), (m21, m22) = self.matrix
        d11, d22 = m11 - 1, m22 - 1

        def circ_inverse(a: Vec, level: int = 1) -> Vec:
            a1, a2 = a
            k = level * (a1 + a2)
            return (-a1 + k * (d11 * a1 + m12 * a2), -a2 + k * (m21 * a1 + d22 * a2))
        return circ_inverse


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


def sample_vec(rng: Lcg, bound: int = 9) -> Vec:
    return (rng.next_in(-bound, bound), rng.next_in(-bound, bound))


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
    failures = {
        "associativity": 0, "identity": 0, "inverse": 0, "commutativity": 0,
        "closed_form": 0, "compatibility": 0, "torsion": 0, "generation": 0,
        "lambda_homomorphism": 0, "kernel_containment": 0,
    }

    circ, circ_inv = auto.circ, auto.circ_inverse

    def circ_pow(a, k, i):
        out = (0, 0)
        step = a if k >= 0 else circ_inv(a, i)
        for _ in range(abs(k)):
            out = circ(out, step, i)
        return out

    # (sigma, i) -> x1^{o_i sigma} and its o_i-inverse, each computed by repeated products once
    x1_powers = {}

    for _ in range(sampling.samples):
        a, b, c = sample_vec(rng), sample_vec(rng), sample_vec(rng)
        b_c, inv_a = [], []   # b o_j c and the o_j-inverse of a at every level j up to i
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
                # the recursion o_{i+1}(a, b) = o_i(a, M^{s(a)} b), one step per level
                if vec_add(a, b_step) != a_b:
                    failures["closed_form"] += 1
                b_step = mat_vec(m_a, b_step)
            a_c = circ(a, c, i)
            for j in range(i):
                lhs = circ(a, b_c[j], i)
                rhs = circ(circ(a_b, inv_a[j], j), a_c, j)
                if lhs != rhs:
                    failures["compatibility"] += 1
        # exactness facts about the grading
        if mat_mul(m_a, auto.power(grading(b))) != auto.power(grading(a) + grading(b)):
            failures["lambda_homomorphism"] += 1
        if grading(vec_add(mat_vec(m_a, b), vec_neg(b))) != 0:
            failures["kernel_containment"] += 1
        # torsion: circle powers of a nonzero vector never vanish
        if a != (0, 0):
            for i in range(depth + 1):
                power = (0, 0)
                for _ in range(4):   # a^{o_i k} for k = 1..4
                    power = circ(power, a, i)
                    if power == (0, 0):
                        failures["torsion"] += 1
        # generation: v = (t, -t) o_i x1^{o_i sigma} with sigma = s(v)
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
