import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lgrass
from lgrass import (LaurentPolynomial, bar_var_h, bar_var_k, divisible_by_k_root,
                    divisible_by_root_h, lowest_degree_form)
from lgrass.laurent import HALF, _pack, _unpack, root_images
from lgrass.restriction import positive_roots

from helpers import exp_series_lowest_form, x_expansion_lowest_form


def P(n, terms):
    return LaurentPolynomial(n, terms)


def var(i, n=3, power=1):
    return LaurentPolynomial.var(n, i, power)


exponents = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 2))
polys = st.dictionaries(exponents, st.integers(min_value=-5, max_value=5),
                        max_size=5).map(lambda d: LaurentPolynomial(2, d))
# small exponents, which collide, and exponents at the packed field's limit |e| < HALF
wide_exponents = (st.integers(min_value=-3, max_value=3)
                  | st.integers(min_value=HALF - 3, max_value=HALF - 1)
                  | st.integers(min_value=-HALF + 1, max_value=-HALF + 3))


class TestArithmetic:
    def test_hand_expansion(self):
        one = LaurentPolynomial.one(1)
        t1 = LaurentPolynomial.var(1, 1)
        t1_inv = LaurentPolynomial.var(1, 1, -1)
        got = (t1_inv - one) * (t1 - one)
        assert got == P(1, {(1,): -1, (-1,): -1, (0,): 2})

    def test_additive_inverse(self):
        p = P(2, {(1, 0): 3, (-2, 1): -4})
        assert (p + (-p)).is_zero()

    def test_zero_terms_pruned(self):
        p = P(2, {(1, 0): 2}) + P(2, {(1, 0): -2})
        assert p.terms() == [] and p.is_zero()

    def test_int_mixing(self):
        p = var(1)
        assert p - 1 == P(3, {(1, 0, 0): 1, (0, 0, 0): -1})
        assert 2 * p == P(3, {(1, 0, 0): 2})
        assert (1 - p) == -(p - 1)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.one(2) + LaurentPolynomial.one(3)

    @pytest.mark.parametrize("expr,op", [
        (lambda p: p + 2.0, "+"), (lambda p: 2.0 + p, "+"),
        (lambda p: p * 2.5, "*"), (lambda p: 2.5 * p, "*"),
        (lambda p: p - 2.0, "-"), (lambda p: 2.0 - p, "-"),
        (lambda p: p + "x", "+"), (lambda p: p - "x", "-"),
    ], ids=["p+2.0", "2.0+p", "p*2.5", "2.5*p", "p-2.0", "2.0-p", "p+str", "p-str"])
    def test_foreign_operand_type_error(self, expr, op):
        # neither an int nor a polynomial: Python's TypeError naming the operator
        with pytest.raises(TypeError, match=re.escape(f"operand type(s) for {op}:")):
            expr(var(1) + 1)

    def test_pow(self):
        t1 = LaurentPolynomial.var(2, 1)
        assert (t1 - 1) ** 2 == P(2, {(2, 0): 1, (1, 0): -2, (0, 0): 1})

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=30)
    @given(st.lists(polys, max_size=6))
    def test_sum_of_matches_repeated_add(self, ps):
        total = LaurentPolynomial.zero(2)
        for p in ps:
            total = total + p
        assert LaurentPolynomial.sum_of(2, ps) == total

    def test_sum_of_mismatched_n(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.sum_of(2, [LaurentPolynomial.one(3)])

    @settings(max_examples=30)
    @given(polys)
    def test_json_round_trip(self, p):
        data = json.loads(json.dumps(p.to_json()))
        assert LaurentPolynomial.from_json(data) == p

    def test_json_sorted_lex(self):
        p = P(3, {(0, 0, 0): 1, (-2, 0, 0): 1, (0, -1, 1): -1})
        assert [t["e"] for t in p.to_json()["terms"]] == [
            [-2, 0, 0], [0, -1, 1], [0, 0, 0]]


def no_zero_coefficient(p):
    return all(p._terms.values())


def raised(call):
    """(type, message) of the exception call raises."""
    with pytest.raises((ValueError, OverflowError)) as info:
        call()
    return info.type, str(info.value)


class TestOnePassKernels:
    """``*``, ``sum_of`` and ``sum_of_products`` drop zeros as they accumulate."""

    @settings(max_examples=80)
    @given(st.lists(st.tuples(polys, polys), max_size=5))
    def test_sum_of_products_matches_sum_of_mul(self, pairs):
        got = LaurentPolynomial.sum_of_products(2, pairs)
        assert got == LaurentPolynomial.sum_of(2, (a * b for a, b in pairs))
        assert no_zero_coefficient(got)

    @pytest.mark.parametrize("pairs", [
        [],
        [(LaurentPolynomial.zero(2), P(2, {(1, 0): 2}))],
        [(P(2, {(1, 0): 2, (0, 1): 1}), LaurentPolynomial.zero(2)),
         (P(2, {(0, 0): 3}), P(2, {(1, -1): 1}))],
        [(P(2, {(1, 0): 1, (0, 0): -1}), P(2, {(0, 1): 1})),
         (P(2, {(1, 0): -1, (0, 0): 1}), P(2, {(0, 1): 1}))],
        # cancels to zero, then a later pair brings one of the deleted keys back
        [(P(2, {(1, 0): 1}), P(2, {(0, 1): 1})), (P(2, {(1, 0): -1}), P(2, {(0, 1): 1})),
         (P(2, {(0, 1): 1}), P(2, {(1, 0): 4, (1, -1): 1}))],
    ], ids=["empty", "zero-operand", "zero-then-more", "cancel-to-zero", "cancel-then-reappear"])
    def test_sum_of_products_named_cases(self, pairs):
        got = LaurentPolynomial.sum_of_products(2, pairs)
        want = LaurentPolynomial.zero(2)
        for a, b in pairs:
            want = want + a * b
        assert got == want and no_zero_coefficient(got)

    def test_sum_of_products_raises_as_mul(self):
        two, three = LaurentPolynomial.one(2), LaurentPolynomial.one(3)
        big = LaurentPolynomial.var(2, 2, HALF - 1)
        t = LaurentPolynomial.var(2, 1)
        for a, b in [(two, three), (three, two), (big, t), (t, big), (big - big, t)]:
            want = raised(lambda: a * b)
            assert raised(lambda: LaurentPolynomial.sum_of_products(2, [(a, b)])) == want
            # the same error when the bad pair comes after a good one
            assert raised(lambda: LaurentPolynomial.sum_of_products(2, [(t, t), (a, b)])) == want
        # both operands in the wrong variable count: as sum_of of their product
        assert (raised(lambda: LaurentPolynomial.sum_of_products(2, [(three, three)]))
                == raised(lambda: LaurentPolynomial.sum_of(2, [three * three])))

    def test_sum_of_products_bound_is_the_largest_pair_bound(self):
        t = LaurentPolynomial.var(2, 1)
        p = LaurentPolynomial.sum_of_products(2, [(t, t), (LaurentPolynomial.var(2, 2, 5), t)])
        with pytest.raises(OverflowError):
            p * LaurentPolynomial.var(2, 1, HALF - 6)
        assert (p * LaurentPolynomial.var(2, 1, HALF - 7)).coefficient((HALF - 5, 0)) == 1

    @settings(max_examples=80)
    @given(polys, polys, st.lists(polys, max_size=5))
    def test_no_zero_coefficient_stored(self, a, b, ps):
        assert no_zero_coefficient(a * b)
        assert no_zero_coefficient(a * b - b * a)
        assert no_zero_coefficient(LaurentPolynomial.sum_of(2, ps + [-p for p in ps] + [a]))
        assert no_zero_coefficient(LaurentPolynomial.sum_of_products(2, [(a, b), (-a, b), (b, a)]))

    def test_cross_terms_cancel(self):
        t = LaurentPolynomial.var(1, 1)
        p = (t - 1) * (t + 1)
        assert p._terms and no_zero_coefficient(p)
        assert p.terms() == [((0,), -1), ((2,), 1)]

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_unpack_round_trip(self, n):
        for v in (HALF - 1, -(HALF - 1), 0):
            e = (v,) * n
            assert _unpack(_pack(e, n), n) == e
        mixed = tuple((HALF - 1, -(HALF - 1), 0, 1, -1)[i % 5] for i in range(n))
        assert _unpack(_pack(mixed, n), n) == mixed


@st.composite
def wide_terms(draw):
    """(n, {exponents: coefficient}) with n in 1..4, zero coefficients included."""
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*([wide_exponents] * n))
    return n, draw(st.dictionaries(exps, st.integers(min_value=-40, max_value=40), max_size=8))


class TestPackedKeys:
    """Exponent vectors are stored as packed ints; the API still speaks tuples."""

    @settings(max_examples=150)
    @given(wide_terms())
    def test_tuple_api(self, nd):
        n, d = nd
        p = LaurentPolynomial(n, d)
        assert p.terms() == sorted((e, c) for e, c in d.items() if c)
        for e, c in d.items():
            assert p.coefficient(e) == c
        assert LaurentPolynomial.from_json(json.loads(json.dumps(p.to_json()))) == p
        degs = [sum(e) for e, _ in p.terms()]
        assert p.total_degrees() == ((min(degs), max(degs)) if degs else (0, 0))
        assert p.is_homogeneous() == (len(set(degs)) <= 1)
        assert p.has_negative_exponent() == any(x < 0 for e, _ in p.terms() for x in e)

    @pytest.mark.parametrize("e", [HALF, -HALF, HALF + 1, -HALF - 1])
    def test_out_of_range_exponent_raises(self, e):
        with pytest.raises(OverflowError):
            LaurentPolynomial(2, {(0, e): 1})
        with pytest.raises(OverflowError):
            LaurentPolynomial.monomial(2, (e, 0))
        with pytest.raises(OverflowError):
            LaurentPolynomial.var(2, 1, e)
        with pytest.raises(OverflowError):
            LaurentPolynomial.one(2).coefficient((e, 0))

    @pytest.mark.parametrize("s", [1, -1])
    def test_product_at_the_limit(self, s):
        top = s * (HALF - 1)
        # the last field reaches the limit without carrying into the first
        p = LaurentPolynomial.var(2, 2, s * (HALF - 2)) * LaurentPolynomial.var(2, 2, s)
        assert p.terms() == [((0, top), 1)]
        assert LaurentPolynomial.var(2, 1, top) == LaurentPolynomial.monomial(2, (top, 0))
        with pytest.raises(OverflowError):
            LaurentPolynomial.var(2, 2, top) * LaurentPolynomial.var(2, 1, s)

    def test_bound_carried_through_sums(self):
        t = LaurentPolynomial.var(2, 1)
        big = LaurentPolynomial.var(2, 2, HALF - 1)
        for p in (t + big, big - t, 1 - big, 3 * big, LaurentPolynomial.sum_of(2, [t, big])):
            with pytest.raises(OverflowError):
                p * t
        # the bound is of the operands, not of the result: t^(HALF-1) * t^-1 is refused too
        with pytest.raises(OverflowError):
            big * LaurentPolynomial.var(2, 2, -1)

    def test_pow_at_the_limit(self):
        assert HALF - 1 == 151 * 217
        t = LaurentPolynomial.var(1, 1, 151)
        assert (t ** 217).terms() == [((HALF - 1,), 1)]
        with pytest.raises(OverflowError):
            t ** 218

    def test_substitution_and_lowest_form_limits(self):
        p = LaurentPolynomial.var(2, 1, HALF // 2 - 1)
        assert p._substitute(1, 1, 2, -1) == LaurentPolynomial.var(2, 2, -(HALF // 2 - 1))
        with pytest.raises(OverflowError):
            LaurentPolynomial.var(2, 1, HALF // 2)._substitute(1, 1, 2, -1)
        with pytest.raises(OverflowError):
            lowest_degree_form(LaurentPolynomial.var(2, 1) - 1, order=HALF)

    def test_guard_survives_optimize_flag(self):
        code = ("from lgrass import LaurentPolynomial as L\n"
                "from lgrass.laurent import HALF\n"
                "try:\n"
                "    L.var(1, 1, HALF - 1) * L.var(1, 1, 1)\n"
                "except OverflowError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lgrass.__file__)))
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


class TestBarVariables:
    def test_k_theory(self):
        assert bar_var_k(4, 3) == var(3, power=-1)  # label bar(3)
        assert bar_var_k(2, 3) == var(2)
        # bar twice returns the original monomial
        assert bar_var_k(6, 3) == var(1, power=-1)
        assert bar_var_k(1, 3) == var(1)

    def test_cohomology(self):
        assert bar_var_h(4, 3) == -var(3)
        assert bar_var_h(1, 3) == var(1)

    def test_antisymmetry(self):
        for k in range(1, 7):
            assert (bar_var_h(k, 3) + bar_var_h(7 - k, 3)).is_zero()


class TestLowestDegreeForm:
    def test_single_length_one_value(self):
        # the K restriction of a length-one class: 1 - 1/(t_a t_b)
        p = 1 - var(1, power=-1) * var(2, power=-1)
        assert lowest_degree_form(p) == -var(1) - var(2)

    def test_constant(self):
        assert lowest_degree_form(LaurentPolynomial.one(2)) == LaurentPolynomial.one(2)

    def test_zero(self):
        assert lowest_degree_form(LaurentPolynomial.zero(2)).is_zero()

    def test_quadratic(self):
        # t - 2 + 1/t expands to u^2 + higher order
        p = P(1, {(1,): 1, (0,): -2, (-1,): 1})
        assert lowest_degree_form(p) == P(1, {(2,): 1})

    def test_retry_beyond_initial_order(self):
        p = P(1, {(1,): 1, (0,): -2, (-1,): 1})
        assert lowest_degree_form(p, order=1) == P(1, {(2,): 1})

    def test_multiplicative_without_cancellation(self):
        p = 1 - var(1, power=-1) * var(2, power=-1)
        q = 1 - var(2, power=-2)
        got = lowest_degree_form(p * q)
        assert got == lowest_degree_form(p) * lowest_degree_form(q)
        assert got == (-var(1) - var(2)) * (-2 * var(2))

    def test_exact_bound_retry_polynomial(self):
        assert lowest_degree_form((1 - var(1)) ** 6, order=1) == var(1) ** 6

    def test_exact_bound_retry_laurent(self):
        p = (var(1) - 1) ** 3 * var(2, power=-2)
        assert lowest_degree_form(p, order=1) == -var(1) ** 3

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_exp_series(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        exps = st.tuples(*([st.integers(min_value=-3, max_value=3)] * n))
        base = LaurentPolynomial(n, data.draw(st.dictionaries(
            exps, st.integers(min_value=-5, max_value=5), max_size=5)))
        # each factor 1 - t_i^(+-1) is O(x), so the low degrees cancel
        factors = data.draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
                                     max_size=4))
        p = base
        for i, s in factors:
            p = p * (1 - LaurentPolynomial.var(n, i, s))
        p = p + LaurentPolynomial(n, data.draw(st.dictionaries(
            exps, st.integers(min_value=-2, max_value=2), max_size=2)))
        order = data.draw(st.none() | st.integers(min_value=0, max_value=6))
        assert lowest_degree_form(p, order) == exp_series_lowest_form(p, order)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_x_expansion(self, data):
        """The per-variable choice of t = 1 - x or 1/t = 1 + y gives the x-only result."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        # mostly negative exponents, so that 1/t = 1 + y is chosen for most variables
        exps = st.tuples(*([st.integers(min_value=-4, max_value=2)] * n))
        p = LaurentPolynomial(n, data.draw(st.dictionaries(
            exps, st.integers(min_value=-5, max_value=5), max_size=6)))
        for i, s in data.draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
                                       max_size=4)):
            p = p * (1 - LaurentPolynomial.var(n, i, s))
        # order 0 takes the fallback whenever the lowest part lies above degree 0
        order = data.draw(st.none() | st.integers(min_value=0, max_value=6))
        assert lowest_degree_form(p, order) == x_expansion_lowest_form(p, order)

    def test_fallback_with_inverse_expansion(self):
        # 1/t1 - 1 is y1 exactly: the lowest part is y1^3, found only past order 1
        p = (var(1, power=-1) - 1) ** 3 * var(2, power=-2)
        assert lowest_degree_form(p, order=1) == var(1) ** 3
        assert x_expansion_lowest_form(p, order=1) == var(1) ** 3


class TestDivisibility:
    def test_h_difference_of_squares(self):
        p = var(1) * var(1) - var(2) * var(2)
        assert divisible_by_root_h(p, var(1) - var(2))
        assert divisible_by_root_h(p, var(1) + var(2))

    def test_h_negative(self):
        assert not divisible_by_root_h(var(1), var(1) - var(2))

    def test_h_double_root(self):
        assert divisible_by_root_h(var(1) * var(2), 2 * var(1))
        assert not divisible_by_root_h(var(2), 2 * var(1))

    def test_h_rejects_zero_root(self):
        with pytest.raises(ValueError):
            divisible_by_root_h(var(1), LaurentPolynomial.zero(3))

    def test_k_equal_substitution(self):
        p = var(1) * var(2, power=-1) - 1
        assert divisible_by_k_root(p, var(1) - var(2))

    def test_k_inverse_substitution(self):
        p = var(1) * var(2) - 1
        assert divisible_by_k_root(p, var(1) + var(2))

    def test_k_parity(self):
        p = var(1, power=2) - 1
        assert divisible_by_k_root(p, 2 * var(1))
        assert not divisible_by_k_root(var(1) - 2, 2 * var(1))
        assert not divisible_by_k_root(var(1) - 2, var(1) - var(2))
        assert not divisible_by_k_root(var(1) - 2, var(1) + var(2))


exponents3 = st.tuples(*([st.integers(min_value=-2, max_value=2)] * 3))
polys3 = st.dictionaries(exponents3, st.integers(min_value=-4, max_value=4),
                         max_size=4).map(lambda d: LaurentPolynomial(3, d))
nonneg3 = st.dictionaries(st.tuples(*([st.integers(min_value=0, max_value=2)] * 3)),
                          st.integers(min_value=-4, max_value=4),
                          max_size=4).map(lambda d: LaurentPolynomial(3, d))
# every (i, s, j, p) of t_i -> s * t_j^p that the divisibility tests use at n=3
SUBSTITUTIONS = ([(i, s) for i in range(1, 4) for s in (1, -1)]
                 + [(i, s, j, p) for i in range(1, 4) for j in range(1, 4) if i != j
                    for s, p in ((1, 1), (-1, 1), (1, -1))])


class TestSubstitution:
    @settings(max_examples=80)
    @given(polys3, polys3, st.sampled_from(SUBSTITUTIONS))
    def test_ring_homomorphism(self, a, b, args):
        assert (a + b)._substitute(*args) == a._substitute(*args) + b._substitute(*args)
        assert (a * b)._substitute(*args) == a._substitute(*args) * b._substitute(*args)

    @settings(max_examples=40)
    @given(nonneg3, nonneg3, st.integers(min_value=1, max_value=3))
    def test_zero_ring_homomorphism(self, a, b, i):
        assert (a + b)._substitute(i, 0) == a._substitute(i, 0) + b._substitute(i, 0)
        assert (a * b)._substitute(i, 0) == a._substitute(i, 0) * b._substitute(i, 0)

    @settings(max_examples=40)
    @given(polys3, nonneg3, st.sampled_from(positive_roots(3)))
    def test_multiples_of_every_root_divisible(self, p, q, root):
        theta = root.form_h(3)
        assert divisible_by_k_root(p * (1 - root.exp_k(3)), theta)
        assert divisible_by_root_h(q * theta, theta)

    def test_parity_with_negative_exponent(self):
        assert divisible_by_k_root(var(1, power=-1) - var(1), 2 * var(1))
        image = P(3, {(-1, 0, 0): 1, (-3, 1, 0): 2})._substitute(1, -1)
        assert image == P(3, {(0, 0, 0): -1, (0, 1, 0): -2})
        assert all(type(c) is int for _, c in image.terms())

    def test_double_root_needs_both_signs(self):
        # t1 - 1 vanishes at t1 = 1 but not at t1 = -1
        assert not divisible_by_k_root(var(1) - 1, 2 * var(1))
        assert divisible_by_k_root(var(1) - var(1, power=3), 2 * var(1))

    def test_cancelling_pairs_build_zero(self):
        pairs = [((1, 0), 3), ((0, 1), 2), ((1, 0), -3), ((0, 1), -2)]
        assert LaurentPolynomial(2, pairs).is_zero()
        assert LaurentPolynomial(2, pairs + [((1, 0), 4)]) == P(2, {(1, 0): 4})

    def test_zero_on_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            (var(2) + var(1, power=-1))._substitute(1, 0)

    def test_sign_outside_range_raises(self):
        with pytest.raises(ValueError):
            var(1)._substitute(1, 2)

    def test_root_images(self):
        # the variable eliminated is the root's first in lexicographic term order
        assert root_images(var(1) - var(2), "K") == ((2, 1, 1, 1),)
        assert root_images(var(1) + var(3), "K") == ((3, 1, 1, -1),)
        assert root_images(2 * var(2), "K") == ((2, 1), (2, -1))
        assert root_images(var(1) - var(2), "H") == ((2, 1, 1),)
        assert root_images(var(1) + var(3), "H") == ((3, -1, 1),)
        assert root_images(2 * var(2), "H") == ((2, 0),)


class TestPretty:
    def test_constant_and_inverse(self):
        p = P(3, {(-2, 0, 0): 1, (0, 0, 0): -1})
        assert p.pretty() == "1/t1^2 - 1"

    def test_products(self):
        p = P(3, {(0, -1, 1): 1})
        assert p.pretty() == "t3/t2"
        q = P(3, {(-1, -1, 0): -1})
        assert q.pretty() == "-1/(t1*t2)"

    def test_zero(self):
        assert LaurentPolynomial.zero(2).pretty() == "0"

    def test_coefficients(self):
        p = P(2, {(2, 0): 2, (0, 1): -3})
        assert p.pretty() == "-3*t2 + 2*t1^2"


def pretty_reference(p):
    """The rendering pretty() gave before it shared monomial text, term by term."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, c in p.terms():
        num = [f"t{i + 1}" + (f"^{e}" if e > 1 else "")
               for i, e in enumerate(exps) if e > 0]
        den = [f"t{i + 1}" + (f"^{-e}" if e < -1 else "")
               for i, e in enumerate(exps) if e < 0]
        mono = "*".join(num)
        if den:
            dstr = "*".join(den)
            if len(den) > 1:
                dstr = f"({dstr})"
            mono = (mono or "1") + "/" + dstr
        if mono:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        else:
            body = str(abs(c))
        pieces.append(("- " if c < 0 else "+ ") + body)
    first = pieces[0]
    first = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    return " ".join([first] + pieces[1:])


@st.composite
def poly_batches(draw):
    """Polynomials in one n in 1..4, zero and constants included, to share one memo."""
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*([wide_exponents] * n))
    coeffs = st.sampled_from([-7, -2, -1, 1, 2, 7]) | st.integers(min_value=-40, max_value=40)
    batch = st.lists(st.dictionaries(exps, coeffs, max_size=6), min_size=1, max_size=6)
    return [LaurentPolynomial(n, terms) for terms in draw(batch)]


class TestTableRenderers:
    """The table's memoized renderers give the bytes of the per-polynomial ones."""

    @settings(max_examples=150)
    @given(poly_batches())
    def test_json_text_is_json_dumps(self, batch):
        memo = {}
        for p in batch + batch:
            assert p._json_text(memo) == json.dumps(p.to_json())

    @settings(max_examples=150)
    @given(poly_batches())
    def test_memoized_pretty(self, batch):
        memo = {}
        for p in batch + batch:
            assert p.pretty(memo) == pretty_reference(p)
            assert p.pretty() == pretty_reference(p)

    @pytest.mark.parametrize("p", [
        LaurentPolynomial.zero(1),
        LaurentPolynomial.zero(3),
        LaurentPolynomial.constant(1, -5),
        P(1, {(0,): 1, (-1,): -1, (2,): 3}),
        P(3, {(0, 0, 0): -1, (2, -1, 0): 1, (-1, -2, 1): -12, (1, 1, -1): 2}),
    ], ids=["zero-n1", "zero-n3", "constant", "n1", "mixed"])
    def test_named_cases(self, p):
        memo_json, memo_text = {}, {}
        assert p._json_text(memo_json) == json.dumps(p.to_json())
        assert p.pretty(memo_text) == pretty_reference(p)
        assert len(memo_json) == len(memo_text) == len(p.terms())


@pytest.mark.parametrize("call,match", [
    (lambda: P(2, {(1,): 1}), "wrong length"),
    (lambda: LaurentPolynomial(-1), "variable count"),
    (lambda: LaurentPolynomial.constant(-1, 1), "variable count"),
    (lambda: var(4), "out of range"),
    (lambda: var(0), "out of range"),
    (lambda: (var(1) + 1) ** -1, "negative powers"),
    (lambda: root_images(var(1) ** 2, "H"), "not a linear form"),
    (lambda: root_images(var(1) + var(2) + var(3), "K"), "rank-one"),
    (lambda: root_images(3 * var(1), "H"), "unexpected root coefficient "),
    (lambda: root_images(2 * var(1) + var(2), "K"), "unexpected root coefficients"),
    (lambda: divisible_by_root_h(var(1, power=-1), var(1)), "nonnegative"),
], ids=["vector-length", "n-negative", "constant-n-negative", "var-high", "var-zero",
        "negative-power", "root-not-linear", "root-three-terms", "root-coefficient",
        "root-coefficients", "h-negative-exponent"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
