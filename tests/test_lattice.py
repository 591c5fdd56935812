import json

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import IDENTITY, lattice_circ, lattice_circ_inverse, lattice_circ_iterated

from skewbrace.config import SampleConfig
from skewbrace.lattice import (
    LatticeAuto,
    grading,
    lattice_lambda,
    lattice_system_check,
    mat_mul,
    mat_vec,
    vec_add,
    vec_neg,
)

vecs = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
params = st.integers(-5, 5)


def test_p_zero_is_identity():
    assert lattice_lambda(0).matrix == IDENTITY


def test_p_one_matrix():
    assert lattice_lambda(1).matrix == ((2, 1), (-1, 0))


@given(params)
def test_nilpotency(p):
    m = lattice_lambda(p).matrix
    d = ((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1))
    assert mat_mul(d, d) == ((0, 0), (0, 0))


@given(params, st.integers(-6, 6))
def test_closed_form_powers(p, k):
    auto = lattice_lambda(p)
    expected = IDENTITY
    step = auto.matrix if k >= 0 else auto.power(-1)
    for _ in range(abs(k)):
        expected = mat_mul(step, expected)
    assert auto.power(k) == expected


def test_power_example_p2():
    auto = lattice_lambda(2)
    assert auto.power(3) == mat_mul(auto.matrix, mat_mul(auto.matrix, auto.matrix))


def test_circ_identity_left():
    assert lattice_circ((0, 0), (5, -3), p=1) == (5, -3)


def test_circ_example_p1():
    # x1 o x2 at p = 1: lambda(x2) = p x1 + (1 - p) x2 = (1, 0)
    assert lattice_circ((1, 0), (0, 1), p=1, level=1) == (2, 0)


@given(vecs, params, st.integers(0, 4))
def test_kernel_vectors_add_plainly(b, p, level):
    a = (3, -3)  # grading zero
    assert lattice_circ(a, b, p, level) == (3 + b[0], -3 + b[1])


@given(vecs, vecs, params)
def test_lambda_is_graded_homomorphism(a, b, p):
    auto = lattice_lambda(p)
    assert mat_mul(auto.power(grading(a)), auto.power(grading(b))) \
        == auto.power(grading(a) + grading(b))


@given(vecs, vecs, params, st.integers(0, 4))
def test_closed_form_equals_iteration(a, b, p, level):
    assert lattice_circ(a, b, p, level) == lattice_circ_iterated(a, b, lattice_lambda(p), level)


small_vecs = st.tuples(params, params)
levels = st.integers(0, 8)


@st.composite
def unipotent_autos(draw):
    """M = I + c u w^T with w = (-u2, u1), so (M - I)^2 = 0: the p family and the rest."""
    if draw(st.booleans()):
        return lattice_lambda(draw(params))
    (x, y), c = draw(small_vecs), draw(st.integers(-3, 3))
    return LatticeAuto(((1 - c * x * y, c * x * x), (-c * y * y, 1 + c * x * y)))


@given(small_vecs, small_vecs, unipotent_autos(), levels)
def test_closed_form_product_matches_the_matrix_power(a, b, auto, level):
    expected = vec_add(a, mat_vec(auto.power(level * grading(a)), b))
    assert auto.circ(a, b, level) == expected


@given(small_vecs, small_vecs, params, levels)
def test_lattice_circ_matches_the_matrix_power(a, b, p, level):
    auto = lattice_lambda(p)
    assert lattice_circ(a, b, p, level) == vec_add(a, mat_vec(auto.power(level * grading(a)), b))


@given(small_vecs, unipotent_autos(), levels)
def test_closed_form_inverse_matches_the_matrix_power(a, auto, level):
    expected = mat_vec(auto.power(-level * grading(a)), vec_neg(a))
    assert auto.circ_inverse(a, level) == expected
    assert auto.circ(a, expected, level) == (0, 0)


@given(small_vecs, params, levels)
def test_closed_form_inverse_matches_lattice_circ_inverse(a, p, level):
    auto = lattice_lambda(p)
    assert auto.circ_inverse(a, level) == lattice_circ_inverse(a, p, level) \
        == mat_vec(auto.power(-level * grading(a)), vec_neg(a))


@given(vecs, vecs, params, st.integers(0, 3))
def test_commutativity_exact(a, b, p, level):
    assert lattice_circ(a, b, p, level) == lattice_circ(b, a, p, level)


@given(vecs, params, st.integers(0, 3))
def test_inverse(a, p, level):
    inv = lattice_circ_inverse(a, p, level)
    assert lattice_circ(a, inv, p, level) == (0, 0)
    assert lattice_circ(inv, a, p, level) == (0, 0)


@given(vecs, vecs, params)
def test_commutator_values_in_kernel(a, b, p):
    auto = lattice_lambda(p)
    moved = mat_vec(auto.power(grading(a)), b)
    assert grading((moved[0] - b[0], moved[1] - b[1])) == 0


def test_system_check_p0():
    report = lattice_system_check(0, depth=2, sampling=SampleConfig(samples=100))
    assert report["failure_count"] == 0


def test_system_check_p1():
    report = lattice_system_check(1, depth=3, sampling=SampleConfig(samples=500))
    assert report["failure_count"] == 0
    assert report["failures"]["associativity"] == 0
    assert report["failures"]["compatibility"] == 0


def test_system_check_deterministic():
    r1 = lattice_system_check(1, depth=2, sampling=SampleConfig(samples=150))
    r2 = lattice_system_check(1, depth=2, sampling=SampleConfig(samples=150))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_depth_cap():
    with pytest.raises(ValueError):
        lattice_system_check(1, depth=9)


def test_level_must_be_nonnegative():
    with pytest.raises(ValueError):
        lattice_circ((1, 0), (0, 1), p=1, level=-1)
