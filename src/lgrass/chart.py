"""The affine chart at a fixed point: coordinates, weights, matrix pattern.

The chart at the fixed point indexed by beta is an affine space of dimension
n(n+1)/2 whose coordinates y_ab are indexed by pairs (a, b) with a in the
complement beta', b in beta, and a <= bar(b).  The torus scales y_ab by
t_b / t_a (with t_bar(k) = 1/t_k), and coordinate subspaces cut out by
tableau-indexed coordinate sets carry the classes summed by the restriction
formulas.
"""

from __future__ import annotations

from .indexing import IsotropicIndex, bar, sigma
from .laurent import LaurentPolynomial, bar_var_h
from .tableaux import SetValuedShiftedTableau, ShiftedDiagram


class ChartIndexSet:
    """The coordinate index pairs of the chart at beta, in (a, b) order."""

    __slots__ = ("beta", "pairs")

    def __init__(self, beta: IsotropicIndex) -> None:
        n = beta.n
        bp = beta.complement().values
        self.beta = beta
        self.pairs = tuple((a, b) for a in bp for b in beta.values
                           if a <= bar(b, n))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"ChartIndexSet(beta={self.beta}, pairs={self.pairs})"


def chart_index_set(beta: IsotropicIndex) -> ChartIndexSet:
    return ChartIndexSet(beta)


def coordinate_weight_k(a: int, b: int, n: int) -> LaurentPolynomial:
    """Torus character t_b / t_a of the coordinate y_ab, bar labels resolved."""
    exps = [0] * n
    for label, sign in ((b, 1), (a, -1)):
        if label > n:  # t_bar(k) = 1/t_k
            label, sign = bar(label, n), -sign
        exps[label - 1] += sign
    return LaurentPolynomial.monomial(n, exps)


def coordinate_weight_h(a: int, b: int, n: int) -> LaurentPolynomial:
    """Linear form t_b - t_a with the cohomology convention t_bar(k) = -t_k."""
    return bar_var_h(b, n) - bar_var_h(a, n)


def chart_matrix_pattern(beta: IsotropicIndex) -> list[list[tuple]]:
    """Cell-for-cell symbolic 2n x n matrix of the chart.

    Cells are ("zero",), ("one",), or ("y", sign, a, b): rows indexed by beta
    carry the identity, rows indexed by beta' carry the coordinates with the
    antidiagonal mirror (a, b) -> (bar(b), bar(a)) filling pairs outside the
    index set, and row signs come from the diagonal sign matrix (-1 on rows
    r <= n not in beta).
    """
    n = beta.n
    in_beta = set(beta.values)
    index_set = set(chart_index_set(beta).pairs)
    rows = []
    for r in range(1, 2 * n + 1):
        row = []
        for j in range(1, n + 1):
            b = beta.values[j - 1]
            if r in in_beta:
                row.append(("one",) if r == b else ("zero",))
                continue
            a = r
            pair = (a, b) if (a, b) in index_set else (bar(b, n), bar(a, n))
            sign = 1 if (r in in_beta or r > n) else -1
            row.append(("y", sign, pair[0], pair[1]))
        rows.append(row)
    return rows


class SubspaceSpec:
    """A coordinate subspace of the chart, given by the coordinates set to zero."""

    __slots__ = ("chart", "cut")

    def __init__(self, chart: ChartIndexSet, cut) -> None:
        cut = tuple(sorted(set(map(tuple, cut))))
        pairs = set(chart.pairs)
        for pair in cut:
            if pair not in pairs:
                raise ValueError(f"cut pair {pair} outside the chart index set")
        self.chart = chart
        self.cut = cut

    def class_k(self) -> LaurentPolynomial:
        """Product of (1 - weight) over the cut coordinates; the chart itself is 1."""
        n = self.chart.beta.n
        out = LaurentPolynomial.one(n)
        for a, b in self.cut:
            out = out * (LaurentPolynomial.one(n) - coordinate_weight_k(a, b, n))
        return out

    def __repr__(self) -> str:
        return f"SubspaceSpec(beta={self.chart.beta}, cut={self.cut})"


def entry_cut_pairs(entries, beta: IsotropicIndex) -> list[tuple[int, int]]:
    """Coordinate pairs (beta'(x), bar(beta'(z))) of entries given as (x, z).

    Raises ValueError if some (x, z) lies outside the shifted diagram of
    sigma(beta).
    """
    n = beta.n
    diagram = ShiftedDiagram(sigma(beta))
    bp = beta.complement().values
    pairs = []
    for x, z in entries:
        if (x, z) not in diagram:
            raise ValueError(f"entry x={x}, z={z} not on sigma(beta) for beta={beta}")
        pairs.append((bp[x - 1], bar(bp[z - 1], n)))
    return pairs


def tableau_cut_pairs(s: SetValuedShiftedTableau, beta: IsotropicIndex) -> list[tuple[int, int]]:
    """Coordinate pairs (beta'(x), bar(beta'(z(x)))) over the entries of s.

    Raises ValueError if some image box (x, z(x)) lies outside the shifted
    diagram of sigma(beta), that is, if s is not on that shape.
    """
    return entry_cut_pairs(((e.x, e.z) for e in s.entries()), beta)


def subspace_of_tableau(s: SetValuedShiftedTableau, beta: IsotropicIndex) -> SubspaceSpec:
    """The coordinate subspace cut out by the entries of a tableau on sigma(beta)."""
    return SubspaceSpec(chart_index_set(beta), tableau_cut_pairs(s, beta))
