import json

import pytest
from hypothesis import given, settings, strategies as st

from lgrass import (LaurentPolynomial, bar_var_h, bar_var_k, divisible_by_k_root,
                    divisible_by_root_h, lowest_degree_form)


def P(n, terms):
    return LaurentPolynomial(n, terms)


def var(i, n=3, power=1):
    return LaurentPolynomial.var(n, i, power)


exponents = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 2))
polys = st.dictionaries(exponents, st.integers(min_value=-5, max_value=5),
                        max_size=5).map(lambda d: LaurentPolynomial(2, d))


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
