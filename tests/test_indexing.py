import itertools

import pytest
from hypothesis import given, strategies as st

from lgrass import (IsotropicIndex, bar, enumerate_isotropic, eta_of, is_strict,
                    is_symmetric, length, normalize_partition, pi, rho, sigma,
                    sigma_inverse, symmetric_double, transpose)
from helpers import isotropic_subsets


def idx(n, *values):
    return IsotropicIndex(n, values)


class TestBar:
    def test_values(self):
        assert bar(1, 3) == 6
        assert bar(2, 3) == 5

    def test_involution(self):
        assert all(bar(bar(k, 4), 4) == k for k in range(1, 9))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bar(0, 3)
        with pytest.raises(ValueError):
            bar(7, 3)


class TestIsotropicIndex:
    def test_n1(self):
        assert [a.values for a in enumerate_isotropic(1)] == [(1,), (2,)]

    def test_n2_matches_brute_force(self):
        assert [a.values for a in enumerate_isotropic(2)] == isotropic_subsets(2)
        assert isotropic_subsets(2) == [(1, 2), (1, 3), (2, 4), (3, 4)]

    def test_cardinality(self):
        for n in range(1, 6):
            got = enumerate_isotropic(n)
            assert len(got) == 2 ** n
            assert [a.values for a in got] == isotropic_subsets(n)

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            IsotropicIndex(2, (1, 4))  # both 1 and bar(1)
        with pytest.raises(ValueError):
            IsotropicIndex(2, (2, 3))  # both 2 and bar(2)
        with pytest.raises(ValueError):
            IsotropicIndex(2, (1, 1))

    def test_signed_round_trip(self):
        a = idx(3, 3, 5, 6)
        assert a.signed == (3, -2, -1)
        assert IsotropicIndex.from_signed(3, (3, -2, -1)) == a
        assert str(a) == "3,-2,-1"


class TestComplement:
    def test_known_values(self):
        assert idx(3, 3, 5, 6).complement().values == (1, 2, 4)
        assert idx(4, 1, 4, 6, 7).complement().values == (2, 3, 5, 8)

    def test_involution(self):
        for a in enumerate_isotropic(3):
            assert a.complement().complement() == a

    def test_bar_reversal(self):
        for a in enumerate_isotropic(3):
            mirrored = tuple(bar(v, 3) for v in reversed(a.values))
            assert a.complement().values == mirrored


class TestPartitionMaps:
    def test_pi(self):
        assert pi(idx(3, 1, 3, 5)) == (2, 1)
        assert pi(idx(3, 3, 5, 6)) == (3, 3, 2)
        assert pi(idx(2, 1, 2)) == ()

    def test_rho(self):
        assert rho((3, 3, 2)) == (3, 2)
        assert rho((2, 1)) == (2,)
        assert rho(()) == ()
        assert rho((1, 1)) == (1,)  # trailing zero dropped

    def test_sigma(self):
        assert sigma(idx(3, 1, 3, 5)) == (2,)
        assert sigma(idx(3, 3, 5, 6)) == (3, 2)

    def test_sigma_injective_n4(self):
        images = {sigma(a) for a in enumerate_isotropic(4)}
        assert len(images) == 16

    def test_sigma_bijective_onto_strict(self):
        for n in range(1, 6):
            images = {sigma(a) for a in enumerate_isotropic(n)}
            assert len(images) == 2 ** n
            for lam in images:
                assert is_strict(lam)
                assert not lam or lam[0] <= n

    def test_pi_lands_in_symmetric(self):
        for n in range(1, 6):
            for a in enumerate_isotropic(n):
                p = pi(a)
                assert is_symmetric(p)
                assert not p or p[0] <= n

    def test_sigma_inverse(self):
        assert sigma_inverse((2,), 3) == idx(3, 1, 3, 5)
        assert sigma_inverse((), 2) == idx(2, 1, 2)
        for a in enumerate_isotropic(3):
            assert sigma_inverse(sigma(a), 3) == a

    def test_symmetric_double_length_is_first_part(self):
        # why sigma_inverse needs no check on len(eta) beyond lam[0] <= n
        for bits in range(1 << 8):
            lam = tuple(k for k in range(8, 0, -1) if bits >> (k - 1) & 1)
            assert len(symmetric_double(lam)) == (lam[0] if lam else 0)

    def test_sigma_inverse_rejects(self):
        with pytest.raises(ValueError):
            sigma_inverse((2, 2), 3)
        with pytest.raises(ValueError):
            sigma_inverse((4,), 3)


class TestLength:
    def test_known_value(self):
        assert length(idx(3, 1, 3, 5)) == 2

    def test_identity(self):
        assert length(idx(3, 1, 2, 3)) == 0

    def test_derived_value(self):
        # sigma({3,4}) = rho((2,2)) = (2,1)
        assert sigma(idx(2, 3, 4)) == (2, 1)
        assert length(idx(2, 3, 4)) == 3


class TestTranspose:
    def test_counting_formula(self):
        assert transpose((3, 3, 2)) == (3, 3, 2)
        assert is_symmetric((3, 3, 2))
        assert transpose(()) == ()
        assert transpose((4, 2, 1)) == (3, 2, 1, 1)

    def test_strictness(self):
        assert is_strict((3, 1))
        assert not is_strict((2, 2))
        assert is_strict(())

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=6))
    def test_transpose_involution(self, parts):
        lam = normalize_partition(sorted(parts, reverse=True))
        assert transpose(transpose(lam)) == lam


class TestSymmetricDouble:
    def test_examples(self):
        assert symmetric_double((3, 2)) == (3, 3, 2)
        assert symmetric_double((5, 3, 2, 1)) == (5, 4, 4, 4, 1)
        assert symmetric_double(()) == ()

    def test_inverse_of_rho(self):
        for n in range(1, 6):
            for a in enumerate_isotropic(n):
                assert rho(symmetric_double(sigma(a))) == sigma(a)
                assert symmetric_double(sigma(a)) == pi(a)


class TestEta:
    def test_counting_formula(self):
        assert eta_of(idx(3, 3, 5, 6)) == (3, 3, 2)
        assert eta_of(idx(2, 1, 2)) == ()

    def test_matches_pi(self):
        for n in range(1, 6):
            for b in enumerate_isotropic(n):
                assert eta_of(b) == pi(b)

    def test_index_inequality(self):
        # i <= eta_j iff beta'(i) < beta(n+1-j), exhaustively for n <= 4
        for n in range(1, 5):
            for b in enumerate_isotropic(n):
                eta = eta_of(b) + (0,) * n
                bp = b.complement().values
                for i, j in itertools.product(range(1, n + 1), repeat=2):
                    assert (i <= eta[j - 1]) == (bp[i - 1] < b.values[n - j])


class TestNormalization:
    def test_zero_stripping(self):
        assert normalize_partition((3, 2, 0, 0)) == (3, 2)
        assert normalize_partition(()) == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            normalize_partition((1, 2))
        with pytest.raises(ValueError):
            normalize_partition((2, -1))


@pytest.mark.parametrize("call,match", [
    (lambda: IsotropicIndex(0, ()), "rank must be"),
    (lambda: IsotropicIndex.from_signed(2, (3, 1)), "out of range"),
    (lambda: IsotropicIndex.from_signed(2, (0, 1)), "out of range"),
    (lambda: IsotropicIndex(2, (0, 1)), "label 0 out of range 1..4"),
    (lambda: IsotropicIndex(2, (1, 5)), "label 5 out of range 1..4"),
    (lambda: idx(1, 1) < idx(2, 1, 2), "different rank"),
], ids=["rank-0", "signed-too-big", "signed-zero", "label-zero", "label-too-big",
        "compare-ranks"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("other", [3, "x", (1, 2)], ids=["int", "str", "tuple"])
def test_order_against_a_foreign_type(other):
    with pytest.raises(TypeError, match="not supported between instances"):
        idx(2, 1, 2) < other
    with pytest.raises(TypeError, match="not supported between instances"):
        other > idx(2, 1, 2)
