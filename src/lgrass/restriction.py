"""Fixed-point restrictions of Schubert classes, in K-theory and cohomology.

For alpha, beta with lam = sigma(alpha) and mu = sigma(beta):

  K:  (-1)^{l(alpha)} * sum over semistandard set-valued shifted tableaux S
      on mu of shape lam of prod over entries x of
      (1/(t_{beta'(x)} t_{beta'(z(x))}) - 1),

  H:  sum over single-entry tableaux of prod over entries of
      (-t_{beta'(x)} - t_{beta'(z(x))}),

with bar labels resolved by t_bar(k) = 1/t_k resp. -t_k.  Every factor is
e^theta - 1 (resp. theta) for a root theta that is positive for the opposite
Borel; ``positivity_certificate`` materializes and checks that root.

Both sums run over the single-entry fillings by box maxima.  Write w_x for
the K factor of entry x plus one.  A set-valued box whose neighbours allow
entries >= lo, with maximum m, may hold {m} plus any subset of [lo, m), and
since 1 + (w - 1) = w those 2^(m - lo) sets sum to

  (w_m - 1) * prod_{lo <= x < m} w_x,

so the K sum is a sum over fillings of products of these box factors.
``RestrictionResult.term_count`` still counts the tableaux of the literal
sum: set-valued tableaux in K (the sum over fillings of prod 2^(m - lo)),
single-entry tableaux in H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .chart import coordinate_weight_h, coordinate_weight_k, entry_cut_pairs
from .chart import tableau_cut_pairs  # noqa: F401  bench/tracer.py wraps it here
from .indexing import IsotropicIndex, bar, enumerate_isotropic, length, sigma
from .laurent import LaurentPolynomial
from .tableaux import SetValuedShiftedTableau, enumerate_ssvt, enumerate_ssyt


@dataclass(frozen=True)
class RestrictionResult:
    """A computed restriction: the exact class and the number of tableaux summed."""

    alpha: IsotropicIndex
    beta: IsotropicIndex
    theory: str
    value: LaurentPolynomial
    term_count: int


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root of type C_n: t_i - t_j, t_i + t_j (i < j <= n), or 2t_i.

    Stored in the standard (upper Borel) normal form; the restriction factors
    equal minus this form in cohomology, matching positivity for the opposite
    Borel.
    """

    kind: str  # "diff", "sum", or "double"
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("diff", "sum", "double"):
            raise ValueError(f"unknown root kind {self.kind}")
        if self.kind == "double":
            if self.i != self.j:
                raise ValueError("2t_i roots need i == j")
        elif not self.i < self.j:
            raise ValueError(f"need i < j in {self}")

    def form_h(self, n: int) -> LaurentPolynomial:
        """The root as a linear form in t_1..t_n."""
        ti = LaurentPolynomial.var(n, self.i)
        if self.kind == "double":
            return 2 * ti
        tj = LaurentPolynomial.var(n, self.j)
        return ti - tj if self.kind == "diff" else ti + tj

    def factor_h(self, n: int) -> LaurentPolynomial:
        """The literal cohomology factor: minus the standard form."""
        return -self.form_h(n)

    def exp_k(self, n: int) -> LaurentPolynomial:
        """The monomial e^theta for theta = factor_h: the K factor is this - 1."""
        exps = [0] * n
        for e, c in self.factor_h(n).terms():
            exps[next(k for k, v in enumerate(e) if v)] = c
        return LaurentPolynomial.monomial(n, tuple(exps))

    def label_map(self, n: int) -> dict[int, int]:
        """The reflection in this root as a permutation of the letters 1..2n."""
        i, j = self.i, self.j
        if self.kind == "diff":
            return {i: j, j: i, bar(i, n): bar(j, n), bar(j, n): bar(i, n)}
        if self.kind == "sum":
            return {i: bar(j, n), bar(j, n): i, j: bar(i, n), bar(i, n): j}
        return {i: bar(i, n), bar(i, n): i}

    def __str__(self) -> str:
        if self.kind == "double":
            return f"2t{self.i}"
        op = "-" if self.kind == "diff" else "+"
        return f"t{self.i}{op}t{self.j}"


def positive_roots(n: int) -> list[PositiveRoot]:
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(PositiveRoot("diff", i, j))
            out.append(PositiveRoot("sum", i, j))
        out.append(PositiveRoot("double", i, i))
    return out


class CertificateError(RuntimeError):
    """A restriction factor failed the positive-root case analysis."""


def root_for_entry(x: int, z: int, beta: IsotropicIndex) -> PositiveRoot:
    """The certified root for an entry with value x and z(x) = z.

    With a = beta'(x) and b = beta'(z) the factor is -t_a - t_b; the case
    inequalities a <= b, a < bar(b), a <= n must all hold, and then the
    standard form is t_a + t_b (b <= n, a < b), 2t_a (a = b), or t_a - t_c
    with c = bar(b) (b > n).
    """
    n = beta.n
    bp = beta.complement().values
    if x > n or z > n:
        raise CertificateError(f"entry indices ({x}, {z}) exceed rank {n}")
    a, b = bp[x - 1], bp[z - 1]
    if not (a <= b and a < bar(b, n) and a <= n):
        raise CertificateError(
            f"factor (a, b) = ({a}, {b}) violates a <= b, a < bar(b), a <= n")
    if b <= n:
        return PositiveRoot("double", a, a) if a == b else PositiveRoot("sum", a, b)
    return PositiveRoot("diff", a, bar(b, n))


def _check_ranks(alpha: IsotropicIndex, beta: IsotropicIndex) -> int:
    if alpha.n != beta.n:
        raise ValueError(f"rank mismatch: {alpha.n} vs {beta.n}")
    return alpha.n


def _box_bounds(s: SetValuedShiftedTableau, set_valued: bool) -> list[tuple[int, int, int]]:
    """(lo, m, d) per box of a single-entry filling s by box maxima m.

    d = c - r is the box's offset from the diagonal, so an entry x there has
    z(x) = x + d.  A set-valued box may hold any set with maximum m and minimum
    >= lo = max(1, left box's m, above box's m + 1); a single-entry box holds
    only {m}, so lo = m.
    """
    bounds = []
    above = ()
    for row in s.rows:
        left = 1
        for d, (m,) in enumerate(row):
            lo = m
            if set_valued:
                lo = max(left, above[d + 1][0] + 1) if above else left
            bounds.append((lo, m, d))
            left = m
        above = row
    return bounds


def _restriction_sum(alpha: IsotropicIndex, beta: IsotropicIndex,
                     theory: str) -> tuple[LaurentPolynomial, int]:
    """The unsigned tableau sum and the number of tableaux in it.

    Sums over the fillings by box maxima; a box (lo, m, d) contributes the
    sum over its entry sets, which is prod_{lo<=x<m} w_x * (w_m - 1) in K
    (since 1 + (w - 1) = w) over 2^(m - lo) sets, and the linear form of m in H.
    """
    n = _check_ranks(alpha, beta)
    set_valued = theory == "K"
    factors: dict[tuple[int, int, int], LaurentPolynomial] = {}

    def factor(lo: int, m: int, d: int) -> LaurentPolynomial:
        key = (lo, m, d)
        f = factors.get(key)
        if f is None:
            *lower, top = entry_cut_pairs(((x, x + d) for x in range(lo, m + 1)), beta)
            if set_valued:
                f = coordinate_weight_k(*top, n) - 1
                for a, b in lower:
                    f = f * coordinate_weight_k(a, b, n)
            else:
                f = coordinate_weight_h(*top, n)
            factors[key] = f
        return f

    fillings = [_box_bounds(s, set_valued)
                for s in enumerate_ssyt(sigma(alpha), sigma(beta))]
    count = sum(1 << sum(m - lo for lo, m, _ in boxes) for boxes in fillings)
    one = LaurentPolynomial.one(n)
    value = LaurentPolynomial.sum_of(
        n, (math.prod((factor(*box) for box in boxes), start=one) for boxes in fillings))
    return value, count


@functools.lru_cache(maxsize=None)
def restrict_k(alpha: IsotropicIndex, beta: IsotropicIndex) -> RestrictionResult:
    """Restriction of the K-theory Schubert class of alpha at the fixed point beta."""
    value, count = _restriction_sum(alpha, beta, "K")
    if length(alpha) % 2:
        value = -value
    return RestrictionResult(alpha, beta, "K", value, count)


@functools.lru_cache(maxsize=None)
def restrict_h(alpha: IsotropicIndex, beta: IsotropicIndex) -> RestrictionResult:
    """Restriction of the cohomology Schubert class of alpha at beta."""
    value, count = _restriction_sum(alpha, beta, "H")
    return RestrictionResult(alpha, beta, "H", value, count)


def restrict(alpha: IsotropicIndex, beta: IsotropicIndex, theory: str) -> RestrictionResult:
    if theory not in ("K", "H"):
        raise ValueError(f"theory must be 'K' or 'H', got {theory!r}")
    return restrict_k(alpha, beta) if theory == "K" else restrict_h(alpha, beta)


def positivity_certificate(alpha: IsotropicIndex, beta: IsotropicIndex,
                           theory: str) -> list[list[PositiveRoot]]:
    """Per tableau, per entry: the certified positive root of each factor.

    Also re-derives each factor from its root and compares it with the factor
    actually used by the restriction, so a certificate that returns is a
    proof that every factor has the form e^theta - 1 (K) resp. theta (H).
    """
    n = _check_ranks(alpha, beta)
    lam, mu = sigma(alpha), sigma(beta)
    tableaux = enumerate_ssvt(lam, mu) if theory == "K" else enumerate_ssyt(lam, mu)
    bp = beta.complement().values
    certificates = []
    for s in tableaux:
        roots = []
        for e in s.entries():
            root = root_for_entry(e.x, e.z, beta)
            a, b = bp[e.x - 1], bar(bp[e.z - 1], n)
            if theory == "K":
                expected = root.exp_k(n) - 1
                actual = coordinate_weight_k(a, b, n) - 1
            else:
                expected = root.factor_h(n)
                actual = coordinate_weight_h(a, b, n)
            if expected != actual:
                raise CertificateError(
                    f"factor mismatch for entry {e}: {actual} vs root {root}")
            roots.append(root)
        certificates.append(roots)
    return certificates


def restriction_table(n: int, theory: str) -> dict[tuple[IsotropicIndex, IsotropicIndex], LaurentPolynomial]:
    """All 2^n x 2^n restriction values, keyed by (alpha, beta)."""
    points = enumerate_isotropic(n)
    return {(a, b): restrict(a, b, theory).value for a in points for b in points}
