"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Everything is exact; the two timed criteria assert their wall
budgets on cold caches.
"""

import time

from lgrass import (ChartIndexSet, IsotropicIndex, LaurentPolynomial,
                    SetValuedShiftedTableau, billey_restrict_h, chart_matrix_pattern,
                    chern_consistency, enumerate_isotropic, enumerate_ssvt,
                    enumerate_ssyt, family_to_subset, gkm_check,
                    kclass_union_oracle, positivity_certificate,
                    restrict_h, restrict_k, sigma, subset_to_family,
                    subset_to_tableau, tableau_to_subset)
import lgrass.restriction

ALPHA = IsotropicIndex(3, (1, 3, 5))
BETA = IsotropicIndex(3, (3, 5, 6))


def _cold_caches():
    lgrass.restriction._restriction_column.cache_clear()


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def tab(*rows):
    return SetValuedShiftedTableau(rows)


def test_c01_worked_restriction_pair():
    _cold_caches()
    start = time.perf_counter()
    got_k = restrict_k(ALPHA, BETA)
    got_h = restrict_h(ALPHA, BETA)
    elapsed = time.perf_counter() - start

    mono = lambda e: LaurentPolynomial.monomial(3, e)
    t = lambda i: LaurentPolynomial.var(3, i)
    a, b, c, d = (mono((-2, 0, 0)) - 1, mono((-1, -1, 0)) - 1,
                  mono((0, -1, 1)) - 1, mono((0, -2, 0)) - 1)
    k_expected = a * b + a * c + d * c + a * d * c + a * b * c
    h_expected = ((-2 * t(1)) * (-t(1) - t(2))
                  + (-2 * t(1)) * (-t(2) + t(3))
                  + (-2 * t(2)) * (-t(2) + t(3)))

    assert got_k.value == k_expected and got_k.term_count == 5
    assert got_h.value == h_expected and got_h.term_count == 3
    assert elapsed < 1.0
    _report(1, f"five-term K sum and three-term H sum exact ({elapsed:.3f}s)")


def test_c02_seven_tableaux():
    got = enumerate_ssvt((2, 1), (5, 3, 2))
    expected = {
        tab(((1,), (1,)), ((2,),)),
        tab(((1,), (1,)), ((3,),)),
        tab(((1,), (2,)), ((3,),)),
        tab(((2,), (2,)), ((3,),)),
        tab(((1,), (1,)), ((2, 3),)),
        tab(((1,), (1, 2)), ((3,),)),
        tab(((1, 2), (2,)), ((3,),)),
    }
    assert len(got) == 7 and set(got) == expected
    _report(2, "shape (2,1) on (5,3,2) enumerates exactly the 7 tableaux")


def test_c03_three_models_commute():
    lam, mu = (3, 1), (5, 3, 2, 1)
    tableaux = enumerate_ssyt(lam, mu)
    subsets = [tableau_to_subset(p, mu) for p in tableaux]
    families = [subset_to_family(d) for d in subsets]
    assert len(tableaux) == len(subsets) == len(families) == 10
    for p, d, f in zip(tableaux, subsets, families):
        assert subset_to_tableau(tableau_to_subset(p, mu), lam) == p
        assert subset_to_family(family_to_subset(f)) == f
        assert tableau_to_subset(subset_to_tableau(d, lam), mu) == d
    _report(3, "10 elements per model, round trips are identities")


def test_c04_chart_pattern():
    beta = IsotropicIndex(4, (1, 4, 6, 7))
    pairs = ChartIndexSet(beta).pairs
    assert pairs == ((2, 1), (2, 4), (2, 6), (2, 7), (3, 1), (3, 4), (3, 6),
                     (5, 1), (5, 4), (8, 1))
    expected = [
        [("one",), ("zero",), ("zero",), ("zero",)],
        [("y", -1, 2, 1), ("y", -1, 2, 4), ("y", -1, 2, 6), ("y", -1, 2, 7)],
        [("y", -1, 3, 1), ("y", -1, 3, 4), ("y", -1, 3, 6), ("y", -1, 2, 6)],
        [("zero",), ("one",), ("zero",), ("zero",)],
        [("y", 1, 5, 1), ("y", 1, 5, 4), ("y", 1, 3, 4), ("y", 1, 2, 4)],
        [("zero",), ("zero",), ("one",), ("zero",)],
        [("zero",), ("zero",), ("zero",), ("one",)],
        [("y", 1, 8, 1), ("y", 1, 5, 1), ("y", 1, 3, 1), ("y", 1, 2, 1)],
    ]
    assert chart_matrix_pattern(beta) == expected
    _report(4, "10 chart pairs and the full matrix pattern, signs included")


def test_c05_union_oracle_agreement():
    _cold_caches()
    start = time.perf_counter()
    points = enumerate_isotropic(3)
    for a in points:
        for b in points:
            assert kclass_union_oracle(a, b) == restrict_k(a, b).value
    sweep = time.perf_counter() - start
    assert sweep < 30.0

    points4 = enumerate_isotropic(4)
    for a in points4:
        for b in points4:
            assert kclass_union_oracle(a, b) == restrict_k(a, b).value
    _report(5, f"Stanley-Reisner face sum matches on all 64 n=3 pairs "
               f"({sweep:.2f}s) and all 256 n=4 pairs")


def test_c06_chern_consistency():
    checked = 0
    for n in (1, 2, 3):
        for a in enumerate_isotropic(n):
            for b in enumerate_isotropic(n):
                assert chern_consistency(a, b)
                checked += 1
    _report(6, f"lowest-order form of K equals H on all {checked} pairs, n <= 3")


def test_c07_gkm_divisibility():
    for n in (1, 2, 3):
        for theory in ("H", "K"):
            for a in enumerate_isotropic(n):
                assert gkm_check(a, n, theory).ok
    corrupted = gkm_check(ALPHA, 3, "H", corrupt=True)
    assert len(corrupted.failures) >= 1
    _report(7, "edge divisibility clean for n <= 3 in both theories; "
               "corrupted table detected")


def test_c08_positivity_certificates():
    factors = 0
    for n in (1, 2, 3):
        for a in enumerate_isotropic(n):
            for b in enumerate_isotropic(n):
                for theory in ("K", "H"):
                    for roots in positivity_certificate(a, b, theory):
                        factors += len(roots)
    _report(8, f"{factors} factors certified as opposite-positive roots, zero violations")


def test_c09_subword_oracle():
    points = enumerate_isotropic(3)
    mismatches = [(a, b) for a in points for b in points
                  if billey_restrict_h(a, b) != restrict_h(a, b).value]
    assert not mismatches
    _report(9, "subword formula equals the tableau formula on all 64 pairs of I_3")


def test_c10_structural_properties():
    from lgrass import ChartIndexSet as R

    for n in range(1, 6):
        images = {sigma(a) for a in enumerate_isotropic(n)}
        assert len(images) == 2 ** n
        for beta in enumerate_isotropic(n):
            assert len(R(beta)) == n * (n + 1) // 2

    for beta in enumerate_isotropic(3):
        ident = IsotropicIndex(3, (1, 2, 3))
        assert restrict_k(ident, beta).value == LaurentPolynomial.one(3)
        assert restrict_h(ident, beta).value == LaurentPolynomial.one(3)

    def contained(lam, mu):
        return len(lam) <= len(mu) and all(x <= y for x, y in zip(lam, mu))

    for n in range(1, 5):
        for a in enumerate_isotropic(n):
            for b in enumerate_isotropic(n):
                expect = contained(sigma(a), sigma(b))
                assert (not restrict_h(a, b).value.is_zero()) == expect
                assert (not restrict_k(a, b).value.is_zero()) == expect
    _report(10, "sigma bijective (n <= 5), chart sizes n(n+1)/2, identity class 1, "
                "support = componentwise containment (n <= 4)")
