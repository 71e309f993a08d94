import pytest

from lgrass import (ChartIndexSet, IsotropicIndex, LaurentPolynomial,
                    SetValuedShiftedTableau, SubspaceSpec, chart_matrix_pattern,
                    coordinate_weight_h, coordinate_weight_k, enumerate_isotropic,
                    enumerate_ssyt, subspace_of_tableau)

BETA4 = IsotropicIndex(4, (1, 4, 6, 7))  # {1, 4, bar(3), bar(2)}
BETA3 = IsotropicIndex(3, (3, 5, 6))     # {3, bar(2), bar(1)}

# the full 8x4 chart matrix for BETA4, cell for cell
EXPECTED_MATRIX = [
    [("one",), ("zero",), ("zero",), ("zero",)],
    [("y", -1, 2, 1), ("y", -1, 2, 4), ("y", -1, 2, 6), ("y", -1, 2, 7)],
    [("y", -1, 3, 1), ("y", -1, 3, 4), ("y", -1, 3, 6), ("y", -1, 2, 6)],
    [("zero",), ("one",), ("zero",), ("zero",)],
    [("y", 1, 5, 1), ("y", 1, 5, 4), ("y", 1, 3, 4), ("y", 1, 2, 4)],
    [("zero",), ("zero",), ("one",), ("zero",)],
    [("zero",), ("zero",), ("zero",), ("one",)],
    [("y", 1, 8, 1), ("y", 1, 5, 1), ("y", 1, 3, 1), ("y", 1, 2, 1)],
]


def mono(n, exps):
    return LaurentPolynomial.monomial(n, exps)


class TestChartIndexSet:
    def test_known_pairs(self):
        got = ChartIndexSet(BETA4)
        assert len(got) == 10
        assert got.pairs == ((2, 1), (2, 4), (2, 6), (2, 7), (3, 1), (3, 4),
                             (3, 6), (5, 1), (5, 4), (8, 1))

    def test_rank_one(self):
        got = ChartIndexSet(IsotropicIndex(1, (1,)))
        assert got.pairs == ((2, 1),)

    def test_cardinality(self):
        for n in range(1, 6):
            for beta in enumerate_isotropic(n):
                assert len(ChartIndexSet(beta)) == n * (n + 1) // 2


class TestWeights:
    def test_k_building_block(self):
        # pair (beta'(1), bar(beta'(2))) = (1, 5) for BETA3: weight 1/(t1 t2)
        assert coordinate_weight_k(1, 5, 3) == mono(3, (-1, -1, 0))
        # (1, bar(1)) = (1, 6): 1/t1^2
        assert coordinate_weight_k(1, 6, 3) == mono(3, (-2, 0, 0))
        # (2, 3): t3/t2
        assert coordinate_weight_k(2, 3, 3) == mono(3, (0, -1, 1))

    def test_h_factors(self):
        t = lambda i: LaurentPolynomial.var(3, i)
        assert coordinate_weight_h(1, 5, 3) == -t(1) - t(2)
        assert coordinate_weight_h(1, 6, 3) == -2 * t(1)
        assert coordinate_weight_h(2, 3, 3) == t(3) - t(2)

    def test_h_is_lowest_form_of_k_factor(self):
        from lgrass import lowest_degree_form
        for a, b in ChartIndexSet(BETA3):
            factor = 1 - coordinate_weight_k(a, b, 3)
            assert lowest_degree_form(factor) == coordinate_weight_h(a, b, 3)


class TestMatrixPattern:
    def test_full_matrix(self):
        assert chart_matrix_pattern(BETA4) == EXPECTED_MATRIX

    def test_rank_one(self):
        assert chart_matrix_pattern(IsotropicIndex(1, (1,))) == [
            [("one",)], [("y", 1, 2, 1)]]

    def test_mirror_cells_share_base_coordinate(self):
        # every cell of a beta'-row carries a pair from the index set
        for beta in enumerate_isotropic(3):
            pairs = set(ChartIndexSet(beta).pairs)
            for row in chart_matrix_pattern(beta):
                for cell in row:
                    if cell[0] == "y":
                        assert (cell[2], cell[3]) in pairs

    def test_mirror_cells_share_weight(self):
        # the raw (row, column) pair and the base coordinate it mirrors to
        # carry the same torus character
        for beta in enumerate_isotropic(3):
            pattern = chart_matrix_pattern(beta)
            for r in range(1, 7):
                for j in range(1, 4):
                    cell = pattern[r - 1][j - 1]
                    if cell[0] != "y":
                        continue
                    raw = coordinate_weight_k(r, beta.values[j - 1], 3)
                    assert raw == coordinate_weight_k(cell[2], cell[3], 3)


class TestSubspaces:
    def test_derived_cut(self):
        s = SetValuedShiftedTableau((((1,), (1,)),))
        spec = subspace_of_tableau(s, BETA3)
        assert spec.cut == ((1, 5), (1, 6))

    def test_empty_tableau_full_chart(self):
        spec = subspace_of_tableau(SetValuedShiftedTableau(()), BETA3)
        assert spec.cut == ()
        assert spec.class_k() == LaurentPolynomial.one(3)

    def test_three_distinct_cuts(self):
        cuts = {subspace_of_tableau(s, BETA3).cut
                for s in enumerate_ssyt((2,), (3, 2))}
        assert len(cuts) == 3
        assert all(len(c) == 2 for c in cuts)

    def test_not_on_shape_rejected(self):
        too_big = SetValuedShiftedTableau((((1,), (1,), (1,), (1,)),))
        with pytest.raises(ValueError):
            subspace_of_tableau(too_big, BETA3)

    def test_cut_size_counts_entries(self):
        from lgrass import enumerate_ssvt
        for s in enumerate_ssvt((2,), (3, 2)):
            spec = subspace_of_tableau(s, BETA3)
            assert len(spec.cut) == s.entry_count()

    def test_cut_outside_chart_rejected(self):
        # (5, 1) has a in beta, not in its complement
        with pytest.raises(ValueError, match="outside the chart"):
            SubspaceSpec(ChartIndexSet(BETA3), [(5, 1)])

    def test_entry_cut_pairs(self):
        from lgrass.chart import entry_cut_pairs, tableau_cut_pairs
        s = SetValuedShiftedTableau((((1,), (1, 2)),))
        assert entry_cut_pairs([(1, 1), (1, 2), (2, 3)], BETA3) == tableau_cut_pairs(s, BETA3)
        with pytest.raises(ValueError):
            entry_cut_pairs([(1, 4)], BETA3)
        # inside the n x n square but off sigma(beta) = () resp. (1,)
        empty, single = IsotropicIndex(3, (1, 2, 3)), IsotropicIndex(3, (1, 2, 4))
        with pytest.raises(ValueError):
            entry_cut_pairs([(1, 1)], empty)
        with pytest.raises(ValueError):
            entry_cut_pairs([(1, 2)], single)
        with pytest.raises(ValueError):
            tableau_cut_pairs(SetValuedShiftedTableau((((1,),),)), empty)
