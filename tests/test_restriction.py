import functools

import pytest
from hypothesis import given, settings, strategies as st

from lgrass import (CertificateError, IsotropicIndex, LaurentPolynomial, PositiveRoot,
                    coordinate_weight_h, coordinate_weight_k,
                    enumerate_isotropic, enumerate_ssvt, enumerate_ssyt, length,
                    positive_roots, positivity_certificate, restrict, restrict_h,
                    restrict_k, root_for_entry, sigma)
from lgrass import restriction
from lgrass.chart import tableau_cut_pairs
from lgrass.restriction import _root_at, _walk, column_values

from helpers import live_polynomials

ALPHA = IsotropicIndex(3, (1, 3, 5))
BETA = IsotropicIndex(3, (3, 5, 6))


def mono(exps, n=3):
    return LaurentPolynomial.monomial(n, exps)


def t(i, n=3):
    return LaurentPolynomial.var(n, i)


# the five products, from factors 1/t1^2-1, 1/(t1 t2)-1, t3/t2-1, 1/t2^2-1
A = mono((-2, 0, 0)) - 1
B = mono((-1, -1, 0)) - 1
C = mono((0, -1, 1)) - 1
D = mono((0, -2, 0)) - 1
K_EXPECTED = A * B + A * C + D * C + A * D * C + A * B * C
H_EXPECTED = ((-2 * t(1)) * (-t(1) - t(2)) + (-2 * t(1)) * (-t(2) + t(3))
              + (-2 * t(2)) * (-t(2) + t(3)))


class TestRestrictK:
    def test_worked_example(self):
        got = restrict_k(ALPHA, BETA)
        assert got.value == K_EXPECTED
        assert got.term_count == 5

    def test_identity_class(self):
        for n in (1, 2, 3):
            ident = IsotropicIndex(n, range(1, n + 1))
            for beta in enumerate_isotropic(n):
                res = restrict_k(ident, beta)
                assert res.value == LaurentPolynomial.one(n)
                assert res.term_count == 1

    def test_vanishing(self):
        res = restrict_k(IsotropicIndex(2, (3, 4)), IsotropicIndex(2, (1, 3)))
        assert res.value.is_zero()
        assert res.term_count == 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            restrict_k(IsotropicIndex(2, (1, 2)), IsotropicIndex(3, (1, 2, 3)))

    def test_sign_free_sum_of_products(self):
        # the value is (-1)^l times a sum of per-tableau products, each a
        # product of (e^theta - 1) over the certified roots
        for alpha in enumerate_isotropic(3):
            certs = positivity_certificate(alpha, BETA, "K")
            total = LaurentPolynomial.zero(3)
            for roots in certs:
                prod = LaurentPolynomial.one(3)
                for root in roots:
                    prod = prod * (root.exp_k(3) - 1)
                total = total + prod
            if length(alpha) % 2:
                total = -total
            assert total == restrict_k(alpha, BETA).value


class TestRestrictH:
    def test_worked_example(self):
        got = restrict_h(ALPHA, BETA)
        assert got.value == H_EXPECTED
        assert got.term_count == 3

    def test_identity_class(self):
        ident = IsotropicIndex(3, (1, 2, 3))
        assert restrict_h(ident, BETA).value == LaurentPolynomial.one(3)

    def test_vanishing(self):
        res = restrict_h(IsotropicIndex(2, (3, 4)), IsotropicIndex(2, (1, 3)))
        assert res.value.is_zero()

    def test_homogeneous_of_degree_length(self):
        for n in (2, 3):
            for alpha in enumerate_isotropic(n):
                for beta in enumerate_isotropic(n):
                    value = restrict_h(alpha, beta).value
                    assert value.is_homogeneous(length(alpha)) or value.is_zero()
                    assert not value.has_negative_exponent()

    def test_diagonal_nonzero(self):
        for n in (1, 2, 3):
            for alpha in enumerate_isotropic(n):
                assert not restrict_h(alpha, alpha).value.is_zero()
                assert not restrict_k(alpha, alpha).value.is_zero()

    def test_restrict_dispatcher(self):
        assert restrict(ALPHA, BETA, "K") == restrict_k(ALPHA, BETA)
        assert restrict(ALPHA, BETA, "H") == restrict_h(ALPHA, BETA)
        with pytest.raises(ValueError):
            restrict(ALPHA, BETA, "HH")


def contained(lam, mu):
    return len(lam) <= len(mu) and all(a <= b for a, b in zip(lam, mu))


class TestVanishingPattern:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_support_is_sigma_containment(self, n):
        for alpha in enumerate_isotropic(n):
            for beta in enumerate_isotropic(n):
                expect = contained(sigma(alpha), sigma(beta))
                assert (not restrict_h(alpha, beta).value.is_zero()) == expect
                assert (not restrict_k(alpha, beta).value.is_zero()) == expect


class TestPositiveRoots:
    def test_count(self):
        assert len(positive_roots(3)) == 9  # n^2 roots in type C_n

    def test_example_factors(self):
        # the factor -2t1 comes from entry x=1, z=1
        root = root_for_entry(1, 1, BETA)
        assert root.kind == "double" and root.i == 1
        assert root.factor_h(3) == -2 * t(1)
        # the factor -t2+t3 comes from x=2, z=3
        root = root_for_entry(2, 3, BETA)
        assert (root.kind, root.i, root.j) == ("diff", 2, 3)
        assert root.factor_h(3) == -t(2) + t(3)

    def test_exp_k(self):
        root = root_for_entry(1, 2, BETA)  # factor -t1-t2, e^theta = 1/(t1 t2)
        assert root.exp_k(3) == mono((-1, -1, 0))

    def test_certificates_exhaustive(self):
        allowed = set(positive_roots(3))
        for alpha in enumerate_isotropic(3):
            for beta in enumerate_isotropic(3):
                for theory in ("K", "H"):
                    for roots in positivity_certificate(alpha, beta, theory):
                        for root in roots:
                            assert root in allowed

    def test_certificate_shape(self):
        certs = positivity_certificate(ALPHA, BETA, "H")
        assert len(certs) == 3
        assert all(len(roots) == length(ALPHA) for roots in certs)

    def test_invalid_entry_rejected(self):
        with pytest.raises(CertificateError):
            root_for_entry(1, 4, BETA)  # z exceeds the rank

    @pytest.mark.parametrize("a,c", [(2, 4), (2, 2)], ids=["a > bar(c)", "a >= c"])
    def test_coordinate_off_the_inequalities_rejected(self, a, c):
        with pytest.raises(CertificateError, match="violates"):
            _root_at(a, c, 2)

    def test_entry_off_sigma_beta_rejected(self):
        # (2, 1) lies below the diagonal of sigma(BETA) = (3, 2), as entry_cut_pairs says
        with pytest.raises(ValueError, match="not on sigma"):
            root_for_entry(2, 1, BETA)

    @pytest.mark.parametrize("kind,i,j,match", [
        ("half", 1, 2, "unknown root kind"),
        ("double", 1, 2, "i == j"),
        ("diff", 2, 1, "i < j"),
        ("sum", 2, 2, "i < j"),
        ("diff", -3, 2, "index -3 below 1"),
        ("double", 0, 0, "index 0 below 1"),
    ])
    def test_bad_root_rejected(self, kind, i, j, match):
        with pytest.raises(ValueError, match=match):
            PositiveRoot(kind, i, j)

    def test_equal_roots_hash_equal(self):
        a, b = PositiveRoot("sum", 1, 3), PositiveRoot("sum", 1, 3)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, PositiveRoot("diff", 1, 3)}) == 2
        assert str(a) == "t1+t3"


@pytest.mark.parametrize("value,field", [
    (PositiveRoot("diff", 1, 2), "i"),
    (restrict(ALPHA, BETA, "H"), "value"),
], ids=["PositiveRoot", "RestrictionResult"])
def test_fields_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def restriction_table(n, theory):
    points = enumerate_isotropic(n)
    return {(a, b): restrict(a, b, theory).value for a in points for b in points}


class TestTable:
    """The 2^n x 2^n table of values, read one restrict at a time."""

    def test_shape_and_determinism(self):
        table = restriction_table(2, "H")
        assert len(table) == 16
        assert table == restriction_table(2, "H")

    def test_rank_one_h_table(self):
        table = restriction_table(1, "H")
        one_pt = IsotropicIndex(1, (1,))
        bar_pt = IsotropicIndex(1, (2,))
        one = LaurentPolynomial.one(1)
        assert table[(one_pt, one_pt)] == one
        assert table[(one_pt, bar_pt)] == one
        assert table[(bar_pt, one_pt)].is_zero()
        assert table[(bar_pt, bar_pt)] == -2 * LaurentPolynomial.var(1, 1)


def literal_sum(alpha, beta, theory):
    """The literal tableau sum, one product per tableau, and its tableau count.

    K: (-1)^l(alpha) times the sum over set-valued tableaux of prod (w - 1);
    H: the sum over single-entry tableaux of products of linear forms.
    """
    n = beta.n
    lam, mu = sigma(alpha), sigma(beta)
    tableaux = enumerate_ssvt(lam, mu) if theory == "K" else enumerate_ssyt(lam, mu)
    total = LaurentPolynomial.zero(n)
    for s in tableaux:
        prod = LaurentPolynomial.one(n)
        for a, b in tableau_cut_pairs(s, beta):
            if theory == "K":
                prod = prod * (coordinate_weight_k(a, b, n) - 1)
            else:
                prod = prod * coordinate_weight_h(a, b, n)
        total = total + prod
    if theory == "K" and length(alpha) % 2:
        total = -total
    return total, len(tableaux)


def assert_matches_literal(alpha, beta):
    for theory in ("K", "H"):
        got = restrict(alpha, beta, theory)
        value, count = literal_sum(alpha, beta, theory)
        assert got.value.terms() == value.terms()
        assert got.term_count == count


class TestLiteralSum:
    """The sum over box maxima against the literal tableau sums."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair(self, n):
        points = enumerate_isotropic(n)
        for alpha in points:
            for beta in points:
                assert_matches_literal(alpha, beta)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(enumerate_isotropic(5)),
           st.sampled_from(enumerate_isotropic(5)))
    def test_sampled_pairs_n5(self, alpha, beta):
        assert_matches_literal(alpha, beta)


@functools.lru_cache(maxsize=None)
def walked_column(beta, theory):
    return dict(_walk(beta, theory))


def assert_pruned_matches_walk(alpha, beta, theory):
    """restrict, pruned to sigma(alpha), against the unpruned walk, terms and count."""
    zero = (LaurentPolynomial.zero(beta.n), 0)
    value, count = walked_column(beta, theory).get(sigma(alpha), zero)
    got = restrict(alpha, beta, theory)
    assert got.value.terms() == value.terms()
    assert got.term_count == count


class TestRestrictionColumn:
    """One row DP per beta holds the restriction at every alpha."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_keys_are_contained_shapes(self, monkeypatch, n):
        def no_walk(*args):
            raise AssertionError("walked toward a shape outside sigma(beta)")

        # restrict must return 0 outside sigma(beta) without walking;
        # walked_column keeps its own reference to the real _walk
        monkeypatch.setattr(restriction, "_walk", no_walk)
        points = enumerate_isotropic(n)
        for beta in points:
            inside = {sigma(a) for a in points if contained(sigma(a), sigma(beta))}
            for theory in ("K", "H"):
                assert set(walked_column(beta, theory)) == inside
                for alpha in points:
                    if sigma(alpha) not in inside:
                        res = restrict(alpha, beta, theory)
                        assert res.value.is_zero() and res.term_count == 0

    @pytest.mark.parametrize("theory", ["K", "H"])
    def test_pruned_restrict_matches_walk(self, theory):
        for n in (1, 2, 3, 4):
            points = enumerate_isotropic(n)
            for beta in points:
                for alpha in points:
                    assert_pruned_matches_walk(alpha, beta, theory)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(enumerate_isotropic(5)), st.sampled_from(enumerate_isotropic(5)),
           st.sampled_from("KH"))
    def test_pruned_restrict_matches_walk_sampled_n5(self, alpha, beta, theory):
        assert_pruned_matches_walk(alpha, beta, theory)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.sampled_from(enumerate_isotropic(6)), st.sampled_from(enumerate_isotropic(6)),
           st.sampled_from("KH"))
    def test_pruned_restrict_matches_walk_sampled_n6(self, alpha, beta, theory):
        assert_pruned_matches_walk(alpha, beta, theory)

    def test_restrict_leaves_the_oracle_memo_empty(self):
        # no memo, in oracles or here, keeps a value once its result is dropped
        before = live_polynomials()
        points = enumerate_isotropic(3)
        for alpha in points:
            for beta in points:
                for theory in ("K", "H"):
                    restrict(alpha, beta, theory)
        assert live_polynomials() == before

    @pytest.mark.parametrize("theory", ["K", "H"])
    def test_column_values_match_restrict_and_cache_nothing(self, theory):
        points = enumerate_isotropic(3)
        before = live_polynomials()
        for beta in points:
            got = column_values(beta, theory, points)
            assert got == [restrict(a, beta, theory).value for a in points]
        del got
        assert live_polynomials() == before

    def test_h_column_matches_literal_n5(self):
        points = enumerate_isotropic(5)
        for alpha in points:
            for beta in points:
                got = restrict_h(alpha, beta)
                value, count = literal_sum(alpha, beta, "H")
                assert got.value.terms() == value.terms()
                assert got.term_count == count


# each entry point that takes (alpha, beta, theory); column_values gets beta
# first, so a bad alpha in second place must still be caught
ENTRY_POINTS = {
    "restrict": restrict,
    "column_values": lambda alpha, beta, theory: column_values(beta, theory, [beta, alpha]),
    "positivity_certificate": positivity_certificate,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
class TestArgumentChecks:
    def test_unknown_theory_rejected(self, name):
        # any theory but "K" once took the H branch: "k" returned H values
        with pytest.raises(ValueError, match="theory must be 'K' or 'H', got 'k'"):
            ENTRY_POINTS[name](IsotropicIndex(2, (1, 3)), IsotropicIndex(2, (3, 4)), "k")

    def test_rank_mismatch_rejected(self, name):
        # sigma(alpha) = (1) is a shape of the n=2 column, which once gave
        # -1/(t1^2*t2^2) + 1 here
        with pytest.raises(ValueError, match="rank mismatch: 3 vs 2"):
            ENTRY_POINTS[name](IsotropicIndex(3, (1, 2, 4)), IsotropicIndex(2, (3, 4)), "K")


def later_only_pair(theory):
    """A rank-3 (alpha, beta, (a, b)) whose pair (a, b) is not in the first tableau.

    A certificate that skipped every entry after the first tableau's would
    miss a perturbation of that pair.
    """
    tableaux_of = enumerate_ssvt if theory == "K" else enumerate_ssyt
    for alpha in enumerate_isotropic(3):
        for beta in enumerate_isotropic(3):
            tableaux = tableaux_of(sigma(alpha), sigma(beta))
            if not tableaux:
                continue
            first = set(tableau_cut_pairs(tableaux[0], beta))
            later = {p for s in tableaux[1:] for p in tableau_cut_pairs(s, beta)} - first
            if later:
                return alpha, beta, min(later)
    raise AssertionError("no pair first used after the first tableau")


class TestPositivityMemo:
    """Each distinct (x, z) is checked in full once; the certificate is unchanged."""

    @pytest.mark.parametrize("theory", ["K", "H"])
    def test_matches_per_entry_roots(self, theory):
        tableaux_of = enumerate_ssvt if theory == "K" else enumerate_ssyt
        for alpha in enumerate_isotropic(3):
            for beta in enumerate_isotropic(3):
                expected = [[root_for_entry(e.x, e.z, beta) for e in s.entries()]
                            for s in tableaux_of(sigma(alpha), sigma(beta))]
                assert positivity_certificate(alpha, beta, theory) == expected

    @pytest.mark.parametrize("theory,name,weight", [
        ("K", "coordinate_weight_k", coordinate_weight_k),
        ("H", "coordinate_weight_h", coordinate_weight_h)])
    def test_perturbed_weight_detected(self, monkeypatch, theory, name, weight):
        alpha, beta, target = later_only_pair(theory)
        positivity_certificate(alpha, beta, theory)

        def perturbed(a, b, n):
            w = weight(a, b, n)
            return w + 1 if (a, b) == target else w

        monkeypatch.setattr(f"lgrass.restriction.{name}", perturbed)
        with pytest.raises(CertificateError):
            positivity_certificate(alpha, beta, theory)
