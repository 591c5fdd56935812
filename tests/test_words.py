import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import apply_power, circ_eval, exponent_sum, next_in, theta_power, word_power, word_product

from skewbrace.config import SampleConfig
from skewbrace.errors import CriterionMismatch, NotInKernel, RankMismatch, WindowTooSmall
from skewbrace.rng import Lcg
from skewbrace.words import (
    MAX_EXPONENT,
    MAX_RANK,
    MAX_SYLLABLES,
    FreeWord,
    GeneratorCycle,
    Inner,
    SchreierRewriter,
    exp_sum,
    inv_syllables,
    mul_syllables,
    pow_syllables,
    sample_word,
    sampled_brace_check,
    verify_cyclic1,
    verify_t4,
    word_from_text,
    word_to_text,
)


def w(rank, text):
    return word_from_text(rank, text)


words_strategy = st.builds(
    FreeWord,
    st.just(3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=8),
)


# --- normal form -----------------------------------------------------------


def test_cancellation():
    assert w(2, "x1").mul(w(2, "x1^-1")).is_identity


def test_merge_across_seam():
    assert w(2, "x1 x2").mul(w(2, "x2^-1 x1")) == w(2, "x1^2")


def test_pow_inverse():
    assert w(2, "x1 x2").pow(-1) == w(2, "x2^-1 x1^-1")


def test_parse_format_roundtrip():
    for text in ("1", "x1", "x1 x2^-1 x1^3", "x2^-2"):
        assert word_to_text(w(3, text)) == text


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        w(2, "x1").mul(w(3, "x1"))
    with pytest.raises(RankMismatch):
        w(2, "x3")


@given(words_strategy, words_strategy, words_strategy)
def test_mul_associative(u, v, t):
    assert u.mul(v).mul(t) == u.mul(v.mul(t))


@given(words_strategy)
def test_inv_involutive(u):
    assert u.inv().inv() == u
    assert u.mul(u.inv()).is_identity


@given(words_strategy)
def test_normal_form_idempotent(u):
    assert FreeWord(u.rank, u.syllables) == u


@given(words_strategy, words_strategy)
def test_exp_sum_additive(u, v):
    assert u.mul(v).exp_sum() == u.exp_sum() + v.exp_sum()


@given(words_strategy, st.integers(-4, 4))
def test_pow_matches_repeated_mul(u, k):
    expected = FreeWord(3)
    step = u if k >= 0 else u.inv()
    for _ in range(abs(k)):
        expected = expected.mul(step)
    assert u.pow(k) == expected


def test_exp_sum_additive_seeded_samples():
    rng = Lcg(0)
    for _ in range(500):
        u = drawn_word(rng, 2, 8, 3)
        v = drawn_word(rng, 2, 8, 3)
        assert u.mul(v).exp_sum() == u.exp_sum() + v.exp_sum()


def drawn_word(rng, rank, max_syllables, max_exp):
    """sample_word's syllable tuple as a FreeWord, not reduced again."""
    return FreeWord._reduced(rank, sample_word(rng, rank, max_syllables, max_exp))


def reference_sample_word(rng, rank, max_syllables, max_exp):
    """The oracle for sample_word: one Lcg method call per draw, then the validating reducer."""
    count = rng.next_int(max_syllables + 1)
    syllables = []
    for _ in range(count):
        g = 1 + rng.next_int(rank)
        e = next_in(rng, 1, max_exp)
        if rng.next_int(2):
            e = -e
        syllables.append((g, e))
    return FreeWord(rank, syllables), count


@pytest.mark.parametrize("rank,max_syllables,max_exp",
                         [(1, 8, 3), (1, 0, 3), (2, 0, 1), (2, 8, 3), (3, 6, 1), (4, 12, 5)])
def test_sample_word_draws_like_the_reference(rank, max_syllables, max_exp):
    merged = cancelled = False
    for seed in range(40):
        rng, ref = Lcg(seed), Lcg(seed)
        for _ in range(25):
            u = drawn_word(rng, rank, max_syllables, max_exp)
            expected, count = reference_sample_word(ref, rank, max_syllables, max_exp)
            assert u == expected and is_normal(u)
            assert rng.state == ref.state
            merged |= len(u.syllables) < count
            cancelled |= count > 0 and u.is_identity
    if rank == 1 and max_syllables:
        # every drawn run of one generator merges, and some cancel to the empty word
        assert merged and cancelled


def test_sample_word_merges_runs_of_two_generators():
    rng, ref = Lcg(3), Lcg(3)
    merged = 0
    for _ in range(2000):
        u = drawn_word(rng, 2, 8, 1)
        expected, count = reference_sample_word(ref, 2, 8, 1)
        assert u == expected and rng.state == ref.state
        merged += len(u.syllables) < count
    assert merged > 1000


@pytest.mark.parametrize("max_syllables", [0, 8])
def test_sample_word_needs_positive_rank(max_syllables):
    with pytest.raises(ValueError, match="rank must be at least 1"):
        sample_word(Lcg(0), 0, max_syllables, 3)


def test_generator_cycle_rank_is_bounded():
    assert GeneratorCycle(MAX_RANK).apply(w(MAX_RANK, f"x{MAX_RANK}")) == w(MAX_RANK, "x1")
    with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} exceeds the bound of {MAX_RANK}"):
        GeneratorCycle(MAX_RANK + 1)


@pytest.mark.parametrize("max_exp", [0, -2])
def test_sample_word_needs_positive_exponent_bound(max_exp):
    with pytest.raises(ValueError, match="max_exp must be at least 1"):
        sample_word(Lcg(0), 2, 8, max_exp)


# --- the seam product and the operations that keep words reduced -----------


def reduce_fully(rank, syllables):
    """The validating reducer, the oracle for every trusted construction."""
    return FreeWord(rank, tuple(syllables))


def is_normal(u):
    return FreeWord(u.rank, u.syllables) == u and all(e for _, e in u.syllables) and all(
        g != h for (g, _), (h, _) in zip(u.syllables, u.syllables[1:]))


@given(words_strategy, words_strategy)
def test_seam_product_matches_full_reduction(u, v):
    product = u.mul(v)
    assert product == reduce_fully(3, u.syllables + v.syllables)
    assert is_normal(product)


@given(words_strategy, words_strategy)
def test_seam_product_cancels_across_the_seam(u, t):
    # v = u^-1 t cancels all of u, and t u^-1 times u cancels all of u^-1
    v = u.inv().mul(t)
    assert u.mul(v) == reduce_fully(3, u.syllables + v.syllables) == t
    v = t.mul(u.inv())
    assert v.mul(u) == reduce_fully(3, v.syllables + u.syllables) == t


@given(words_strategy, words_strategy, st.integers(0, 8))
def test_seam_product_cancels_part_of_the_seam(u, t, keep):
    # v starts with the inverse of the last syllables of u only
    v = reduce_fully(3, u.inv().syllables[:keep] + t.syllables)
    assert u.mul(v) == reduce_fully(3, u.syllables + v.syllables)
    assert v.inv().mul(u.inv()) == reduce_fully(3, v.inv().syllables + u.inv().syllables)


@given(words_strategy, words_strategy, st.integers(-4, 4))
def test_seam_product_merges_syllables(u, t, e):
    # v starts with the generator u ends with: the seam syllables merge or cancel
    assume(not u.is_identity)
    v = reduce_fully(3, ((u.syllables[-1][0], e),) + t.syllables)
    product = u.mul(v)
    assert product == reduce_fully(3, u.syllables + v.syllables)
    assert is_normal(product)


@given(words_strategy)
def test_seam_product_with_empty_operands(u):
    empty = FreeWord(3)
    assert u.mul(empty) == empty.mul(u) == u
    assert empty.mul(empty).is_identity


@given(words_strategy, words_strategy)
def test_seam_product_keeps_rank_mismatch(u, t):
    other = FreeWord(2, tuple((min(g, 2), e) for g, e in t.syllables))
    with pytest.raises(RankMismatch):
        u.mul(other)
    with pytest.raises(RankMismatch):
        other.mul(u)


@given(words_strategy)
def test_inv_is_already_reduced(u):
    inverse = u.inv()
    assert is_normal(inverse)
    assert inverse == reduce_fully(3, [(g, -e) for g, e in reversed(u.syllables)])


@given(words_strategy, st.integers(-4, 4))
def test_generator_cycle_image_is_already_reduced(u, shift):
    image = GeneratorCycle(3, shift).apply(u)
    assert is_normal(image)
    assert image == reduce_fully(3, [((g - 1 + shift) % 3 + 1, e) for g, e in u.syllables])


@given(st.integers(1, 3), st.integers(-3, 3).filter(bool), st.integers(-5, 5))
def test_one_syllable_pow_is_already_reduced(gen, exp, k):
    power = FreeWord.generator(3, gen, exp).pow(k)
    assert is_normal(power)
    step = (gen, exp) if k >= 0 else (gen, -exp)
    assert power == reduce_fully(3, [step] * abs(k))


# --- automorphisms ----------------------------------------------------------


def test_cycle_apply():
    theta = GeneratorCycle(3)
    assert theta.apply(w(3, "x1 x2^-1")) == w(3, "x2 x3^-1")


def test_inner_apply():
    assert apply_power(Inner(w(2, "x1")), w(2, "x2")) == w(2, "x1 x2 x1^-1")


@given(words_strategy)
def test_cycle_power_is_identity(u):
    theta = GeneratorCycle(3)
    assert theta.apply(theta.apply(theta.apply(u))) == u
    assert theta.apply(u, 3) == u


@given(words_strategy, words_strategy)
def test_autos_are_homomorphisms(u, v):
    cycle, inner = GeneratorCycle(3), Inner(w(3, "x2"))
    for apply in (cycle.apply, lambda x: apply_power(Inner(w(3, "x1 x2")), x),
                  lambda x: cycle.apply(apply_power(inner, x))):
        assert apply(u.mul(v)) == apply(u).mul(apply(v))


@given(words_strategy)
def test_inverse_really_inverts(u):
    for theta in (GeneratorCycle(3), Inner(w(3, "x1 x3^-1")), GeneratorCycle(3, 2)):
        assert apply_power(theta, apply_power(theta, u), -1) == u


def repeated_application(theta, inverse, u, k):
    """theta applied k times, or its inverse |k| times when k < 0."""
    for _ in range(abs(k)):
        u = apply_power(theta if k > 0 else inverse, u)
    return u


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_cycle_apply_power_matches_repeated_application(rank):
    rng = Lcg(rank)
    for shift in range(rank + 1):
        theta, inverse = GeneratorCycle(rank, shift), GeneratorCycle(rank, -shift)
        for k in range(-7, 8):
            for _ in range(6):
                u = drawn_word(rng, rank, 6, 3)
                image = theta.apply(u, k)
                assert image == repeated_application(theta, inverse, u, k)
                assert is_normal(image)
                if shift * k % rank == 0:
                    assert image is u


@pytest.mark.parametrize("text", ["x1", "x1 x2^-1", "x2 x1^-2 x3", "x3^2 x1 x3^-2"])
def test_inner_apply_power_matches_repeated_application(text):
    rng = Lcg(len(text))
    theta = Inner(w(3, text))
    inverse = Inner(theta.word.inv())
    for k in range(-7, 8):
        for _ in range(6):
            u = drawn_word(rng, 3, 6, 3)
            image = apply_power(theta, u, k)
            assert image == repeated_application(theta, inverse, u, k)
            assert is_normal(image)


def test_apply_power_keeps_rank_mismatch():
    inner = Inner(w(3, "x1"))
    for apply in (GeneratorCycle(3, 0).apply, lambda u, k: apply_power(inner, u, k)):
        for k in (0, 1, -2):
            with pytest.raises(RankMismatch):
                apply(w(2, "x1"), k)


# --- graded multiplication ---------------------------------------------------


def test_circ_with_identity_left():
    theta = GeneratorCycle(2)
    b = w(2, "x1 x2^-1")
    assert circ_eval(FreeWord(2), b, theta) == b


def test_circ_swap_example():
    theta = GeneratorCycle(2)
    assert circ_eval(w(2, "x1"), w(2, "x2"), theta) == w(2, "x1^2")


def test_circ_inverse_identity_seeded():
    rng = Lcg(1)
    for theta in (GeneratorCycle(2), Inner(w(2, "x1 x2"))):
        for _ in range(200):
            a = drawn_word(rng, 2, 6, 3)
            inverse = apply_power(theta, a.inv(), -a.exp_sum())    # theta^{-l(a)}(a^-1)
            assert circ_eval(a, inverse, theta).is_identity


@pytest.mark.parametrize("theta", [GeneratorCycle(3), GeneratorCycle(3, 2), GeneratorCycle(3, 0),
                                   Inner(w(3, "x1 x2")), Inner(w(3, "x2^-1 x3^2 x1"))])
def test_sampler_kernel_products_match_the_oracles(theta):
    # each product the sampler forms on syllable tuples, against the FreeWord-level formula
    rng = Lcg(18)
    for _ in range(200):
        a, b = (sample_word(rng, 3, MAX_SYLLABLES, MAX_EXPONENT) for _ in range(2))
        u, v = FreeWord(3, a), FreeWord(3, b)
        k = exp_sum(a)
        assert k == exponent_sum(u)
        assert mul_syllables(a, b) == word_product(u, v).syllables
        assert inv_syllables(a) == word_power(u, -1).syllables
        for j in (-3, 0, 1, 2):
            assert pow_syllables(a, j) == word_power(u, j).syllables
        assert theta.action(k)(b) == theta_power(theta, v, k).syllables
        assert mul_syllables(a, theta.action(k)(b)) == circ_eval(u, v, theta).syllables


class AppendPower(GeneratorCycle):
    """u -> u x1^k for the k-th power: not a homomorphism, and it moves the exponent sum."""

    def action(self, k=1):
        return lambda u: mul_syllables(u, ((1, k),) if k else ())


def test_sampled_brace_check_witnesses_reproduce_the_failures():
    theta = AppendPower(2)
    report = sampled_brace_check(theta, SampleConfig(samples=60, seed=5))
    assert {f["kind"] for f in report["failures"]} == {"left_law", "symmetry_criterion"}
    for f in report["failures"]:
        a, b = w(2, f["a"]), w(2, f["b"])
        k = a.exp_sum()
        a_b = a.mul(theta.apply(b, k))
        if f["kind"] == "left_law":
            c = w(2, f["c"])
            assert a.mul(theta.apply(b.mul(c), k)) != a_b.mul(a.inv()).mul(a.mul(theta.apply(c, k)))
        else:
            probe = w(2, f["probe"])
            assert theta.apply(probe, a_b.exp_sum()) != theta.apply(probe, b.mul(a).exp_sum())


def test_sampled_brace_check_identity_theta():
    report = sampled_brace_check(GeneratorCycle(2, shift=0), SampleConfig(samples=100))
    assert report["failure_count"] == 0


def test_sampled_brace_check_swap():
    report = sampled_brace_check(GeneratorCycle(2), SampleConfig(samples=500))
    assert report["failure_count"] == 0
    assert report["samples"] == 500 and report["seed"] == 0


def test_sampled_brace_check_inner():
    report = sampled_brace_check(Inner(word_from_text(3, "x1 x2")), SampleConfig(samples=500))
    assert report["failure_count"] == 0


def test_sampled_brace_check_deterministic():
    r1 = sampled_brace_check(GeneratorCycle(2), SampleConfig(samples=200))
    r2 = sampled_brace_check(GeneratorCycle(2), SampleConfig(samples=200))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# --- schreier rewriting -------------------------------------------------------


def test_rewrite_empty():
    rw = SchreierRewriter(2, 2)
    assert rw.rewrite(FreeWord(2)) == []


def test_rewrite_z_generator():
    rw = SchreierRewriter(2, 2)
    assert rw.rewrite(w(2, "x2 x1^-1")) == [(("z", 2, 0), 1)]


def test_rewrite_y_generator():
    rw = SchreierRewriter(2, 2)
    assert rw.rewrite(w(2, "x1 x2")) == [(("y", 2), 1)]


def test_rewrite_rejects_non_kernel():
    with pytest.raises(NotInKernel):
        SchreierRewriter(2, 2).rewrite(w(2, "x1"))
    with pytest.raises(NotInKernel):
        SchreierRewriter(2, None).rewrite(w(2, "x1^2"))


def test_rewrite_roundtrip_seeded():
    rng = Lcg(7)
    for modulus in (2, 3, None):
        rw = SchreierRewriter(3, modulus)
        for _ in range(200):
            u = drawn_word(rng, 3, 6, 3)
            total = u.exp_sum()
            # project into the kernel by appending a power of x1
            if modulus is None:
                fix = -total
            else:
                fix = -(total % modulus)
            kernel_word = u.mul(FreeWord.generator(3, 1, fix)) if fix else u
            if modulus is not None and kernel_word.exp_sum() % modulus != 0:
                continue
            tokens = rw.rewrite(kernel_word)  # raises internally if it fails to round-trip
            expansion = FreeWord(3)
            for token, e in tokens:
                expansion = expansion.mul(rw.token_word(token).pow(e))
            assert expansion == kernel_word


def test_token_names():
    rw = SchreierRewriter(3, 3)
    assert rw.token_name(("z", 2, 1)) == "z_{2,1}"
    assert rw.token_name(("y", 3)) == "y_3"


# --- cycle-graded verification ---------------------------------------------------


def test_cyclic_rank_2():
    report = verify_cyclic1(2)
    assert report["kernel_rank"] == 3
    assert report["mismatch_count"] == 0
    assert report["rank_consistent"]
    # s^2 reduces to x1 x2 = y_2
    s_power = next(c for c in report["checks"] if c["id"] == "s_power")
    assert s_power["lhs"] == "x1 x2" and s_power["ok"]


def test_cyclic_conj_y1_instance():
    report = verify_cyclic1(2)
    conj_y1 = next(c for c in report["checks"] if c["id"] == "conj_y1")
    assert conj_y1["ok"]
    assert conj_y1["lhs"] == "x2^2"  # conjugate of x1^2 under the swap grading


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cyclic_larger_ranks(n):
    report = verify_cyclic1(n)
    assert report["mismatch_count"] == 0
    assert report["kernel_rank"] == n * n - n + 1
    assert report["rank_consistent"]


def test_cyclic_raw_forms_flagged():
    report = verify_cyclic1(4)
    raw = {d["id"]: d for d in report["raw_deviations"]}
    assert raw["s_power_raw"]["raw_equals_lhs"] is False
    assert any(d["id"] == "conj_yi_raw" and d["raw_equals_lhs"] is False
               for d in report["raw_deviations"])
    assert len(report["interpretations"]) == 2


def test_cyclic_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_cyclic1(1)
    with pytest.raises(ValueError):
        verify_cyclic1(9)


def test_cyclic_raises_when_theta_to_the_n_is_not_the_identity(monkeypatch):
    # the check stays under python -O: it raises, it does not assert
    apply = GeneratorCycle.apply

    def off_by_one(self, word, k=1):
        return apply(self, word, k + 1 if k == self.rank else k)

    monkeypatch.setattr(GeneratorCycle, "apply", off_by_one)
    with pytest.raises(CriterionMismatch, match="theta\\^3 is not the identity"):
        verify_cyclic1(3)


# --- conjugation-graded verification ----------------------------------------------


def test_t4_shift_by_two():
    report = verify_t4(2, w(2, "x1"))
    assert report["m"] == 1 and report["shift"] == 2
    assert report["modified_shift_ok"] and report["raw_conjugation_ok"]
    assert report["fundamental_domain_count"] == 2
    assert report["rank"] == 3
    assert report["rank_formula_consistent"]


def test_t4_nontrivial_w0():
    report = verify_t4(2, w(2, "x2 x1 x2^-1"))
    assert report["m"] == 1
    assert report["w0"] != "1"
    assert report["modified_shift_ok"] and report["raw_conjugation_ok"]


def test_t4_direct_product_regime():
    report = verify_t4(2, w(2, "x1^-1"))
    assert report["direct_product_regime"]
    assert report["modified_shift_ok"]
    assert "fundamental_domain_count" not in report


def test_t4_zero_exponent_sum():
    report = verify_t4(2, w(2, "x2 x1^-1"))
    assert report["m"] == 0 and report["shift"] == 1
    assert report["modified_shift_ok"]
    assert report["fundamental_domain_count"] == 1


def test_t4_recurrence_flagged():
    report = verify_t4(2, w(2, "x1"))
    assert report["printed_recurrence"] == {"r0": 2, "rule": "r_{k+1} = 2*r_k + 1"}
    assert report["printed_recurrence_consistent"] is False


def test_t4_window_too_small():
    with pytest.raises(WindowTooSmall):
        verify_t4(2, w(2, "x1^3"), window=2)


def test_t4_rejects_identity_word():
    with pytest.raises(ValueError):
        verify_t4(2, FreeWord(2))


def test_t4_range_of_m():
    for m in (-3, -2, 2, 3):
        report = verify_t4(3, w(3, f"x1^{m}"))
        assert report["modified_shift_ok"] and report["raw_conjugation_ok"]
        if m != -1:
            assert report["fundamental_domain_count"] == abs(m + 1) * 2


def test_schreier_rewrite_modulus_2_round_trips():
    rw = SchreierRewriter(2, 2)
    expansion = FreeWord(2)
    for token, e in rw.rewrite(w(2, "x2 x1^-1")):
        expansion = expansion.mul(rw.token_word(token).pow(e))
    assert expansion == w(2, "x2 x1^-1")


def test_generator_cycle_sends_x1_to_x2():
    assert GeneratorCycle(3).apply(w(3, "x1")) == w(3, "x2")
