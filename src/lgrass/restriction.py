"""Fixed-point restrictions of Schubert classes, in K-theory and cohomology.

For alpha, beta with lam = sigma(alpha) and mu = sigma(beta):

  K:  (-1)^{l(alpha)} * sum over semistandard set-valued shifted tableaux S
      on mu of shape lam of prod over entries x of
      (1/(t_{beta'(x)} t_{beta'(z(x))}) - 1),

  H:  sum over single-entry tableaux of prod over entries of
      (-t_{beta'(x)} - t_{beta'(z(x))}),

with bar labels resolved by t_bar(k) = 1/t_k resp. -t_k.  Every factor is
e^theta - 1 (resp. theta) for a root theta that is positive for the opposite
Borel; ``positivity_certificate`` materializes and checks that root per
tableau entry, and ``certify_cells`` once per cell of sigma(beta).

Both sums run over the single-entry fillings by box maxima.  Write w_x for
the K factor of entry x plus one.  A set-valued box whose neighbours allow
entries >= lo, with maximum m, may hold {m} plus any subset of [lo, m), and
since 1 + (w - 1) = w those 2^(m - lo) sets sum to

  (w_m - 1) * prod_{lo <= x < m} w_x,

so the K sum is a sum over fillings of products of these box factors.  The
DP multiplies 1 - w_m in place of w_m - 1: a filling of lam = sigma(alpha)
has |lam| = l(alpha) boxes, so its product carries the sign (-1)^{l(alpha)}
by itself.
``RestrictionResult.term_count`` still counts the tableaux of the literal
sum: set-valued tableaux in K (the sum over fillings of prod 2^(m - lo)),
single-entry tableaux in H.

The fillings are summed row by row, by one DP per fixed point beta
(``_walk``).  A box's bound lo depends only on its left neighbour and on the
box above it, so the rows filled so far enter the next row only through the
maxima of the last one: a DP state is (shape prefix, maxima of its last row),
and the value at alpha is the sum of the states whose prefix is sigma(alpha).
The DP is a forest over prefixes, walked depth first: ``column_values`` walks
all of it, ``restrict`` only the prefixes of sigma(alpha).  Nothing is cached.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

# enumerate_isotropic, length and tableau_cut_pairs are unused here but stay
# importable: bench/tracer.py patches them by name
from .chart import (coordinate_weight_h, coordinate_weight_k, entry_cut_pairs,  # noqa: F401
                    tableau_cut_pairs)
from .indexing import (IsotropicIndex, bar, enumerate_isotropic, length,  # noqa: F401
                       sigma, transpose)
from .laurent import LaurentPolynomial
from .tableaux import EntryContext, ShiftedDiagram, entry_context, enumerate_ssvt, enumerate_ssyt


class RestrictionResult(namedtuple("RestrictionResult", "alpha beta theory value term_count")):
    """A computed restriction: the exact class and the number of tableaux summed."""

    __slots__ = ()


def check_theory(theory: str) -> None:
    """Raise ValueError unless theory is "K" (K-theory) or "H" (cohomology)."""
    if theory not in ("K", "H"):
        raise ValueError(f"theory must be 'K' or 'H', got {theory!r}")


class PositiveRoot(namedtuple("PositiveRoot", "kind i j")):
    """A positive root of type C_n: t_i - t_j, t_i + t_j (i < j <= n), or 2t_i.

    ``kind`` is "diff", "sum" or "double".  Stored in the standard (upper
    Borel) normal form; the restriction factors equal minus this form in
    cohomology, matching positivity for the opposite Borel.
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int):
        if kind not in ("diff", "sum", "double"):
            raise ValueError(f"unknown root kind {kind}")
        if i < 1:
            raise ValueError(f"root index {i} below 1")
        if kind == "double":
            if i != j:
                raise ValueError("2t_i roots need i == j")
        elif not i < j:
            raise ValueError(f"need i < j in t{i}{'-' if kind == 'diff' else '+'}t{j}")
        return super().__new__(cls, kind, i, j)

    def _check_rank(self, n: int) -> None:
        """Raise ValueError unless the indices fit t_1..t_n; each method taking n calls it."""
        if self.j > n:
            raise ValueError(f"root {self} has index {self.j} past the {n} variables")

    def form_h(self, n: int) -> LaurentPolynomial:
        """The root as a linear form in t_1..t_n."""
        self._check_rank(n)
        ti, tj = LaurentPolynomial.var(n, self.i), LaurentPolynomial.var(n, self.j)
        return ti - tj if self.kind == "diff" else ti + tj  # 2t_i is t_i + t_i

    def factor_h(self, n: int) -> LaurentPolynomial:
        """The literal cohomology factor: minus the standard form."""
        return -self.form_h(n)

    def exp_k(self, n: int) -> LaurentPolynomial:
        """The monomial e^theta for theta = factor_h: the K factor is this - 1."""
        self._check_rank(n)
        exps = [0] * n  # -t_i + t_j, -t_i - t_j, or -t_i - t_i for 2t_i
        exps[self.i - 1] -= 1
        exps[self.j - 1] += 1 if self.kind == "diff" else -1
        return LaurentPolynomial.monomial(n, exps)

    def images(self, theory: str) -> tuple[tuple, ...]:
        """``_substitute`` arguments whose images of p all vanish iff this root divides p.

        In H ("divides" means theta | p, p with nonnegative exponents) they
        solve theta = 0: t_j -> t_i for t_i - t_j, t_j -> -t_i for t_i + t_j,
        t_i -> 0 for 2t_i.  In K (p in the ideal (1 - e^{-theta}) of the
        Laurent ring) they cover the subtorus e^theta = 1: t_j -> t_i,
        t_j -> 1/t_i, and both t_i -> 1 and t_i -> -1 for 2t_i (over the
        integers, p = A + t_i B mod t_i^2 - 1 vanishes iff A + B and A - B do).
        Each image is a ring homomorphism, so p1 - p2 is divisible iff p1 and
        p2 have equal images.  A theory other than "K" or "H" raises ValueError.
        """
        check_theory(theory)
        i, j = self.i, self.j
        if self.kind == "double":
            return ((i, 1), (i, -1)) if theory == "K" else ((i, 0),)
        sign = 1 if self.kind == "diff" else -1
        return ((j, 1, i, sign),) if theory == "K" else ((j, sign, i),)

    def label_map(self, n: int) -> dict[int, int]:
        """The reflection in this root as a permutation of the letters 1..2n."""
        self._check_rank(n)
        i = self.i
        k = self.j if self.kind == "diff" else bar(self.j, n)  # the letter i goes to
        return {i: k, k: i, bar(i, n): bar(k, n), bar(k, n): bar(i, n)}

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
    with c = bar(b) (b > n).  Raises CertificateError if x or z exceeds the
    rank, and ValueError if (x, z) is off sigma(beta), as ``entry_cut_pairs``.
    """
    n = beta.n
    if x > n or z > n:
        raise CertificateError(f"entry indices ({x}, {z}) exceed rank {n}")
    (pair,) = entry_cut_pairs(((x, z),), beta)
    return _root_at(*pair, n)


def _root_at(a: int, c: int, n: int) -> PositiveRoot:
    """``root_for_entry`` at the chart coordinate (a, c) = (beta'(x), bar(beta'(z)))."""
    b = bar(c, n)
    if not (a <= b and a < c and a <= n):
        raise CertificateError(
            f"factor (a, b) = ({a}, {b}) violates a <= b, a < bar(b), a <= n")
    if b <= n:
        return PositiveRoot("double", a, a) if a == b else PositiveRoot("sum", a, b)
    return PositiveRoot("diff", a, c)


def _check_args(theory: str, beta: IsotropicIndex, *alphas: IsotropicIndex) -> int:
    """beta's rank, after checking that theory is "K" or "H" and that every alpha has it."""
    check_theory(theory)
    for alpha in alphas:
        if alpha.n != beta.n:
            raise ValueError(f"rank mismatch: {alpha.n} vs {beta.n}")
    return beta.n


def _rows_below(prev: tuple[int, ...], caps: tuple[int, ...]
                ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every row of box maxima that fits below the row prev, with its lower bounds.

    Yields (row, los) for each weakly increasing row of length l < len(prev)
    with prev[d + 1] < row[d] <= caps[d]; los[d] = max(row[d - 1], prev[d + 1] + 1)
    (1 for the left neighbour of d = 0) bounds the entries a set-valued box
    may hold.  A row's prefixes are rows too, so they are yielded on the way.
    """
    stack = [((), (), 1)]
    while stack:
        row, los, left = stack.pop()
        d = len(row)
        if d + 1 < len(prev):
            lo = max(left, prev[d + 1] + 1)
            for m in range(lo, caps[d] + 1):
                grown = (row + (m,), los + (lo,))
                yield grown
                stack.append((*grown, m))


def _walk(beta: IsotropicIndex, theory: str, target: tuple[int, ...] | None = None
          ) -> Iterator[tuple[tuple[int, ...], tuple[LaurentPolynomial, int]]]:
    """(lam, (signed restriction value, tableau count)) for each shape lam of beta's DP.

    A row DP over the shifted shape: a state is (shape prefix (l_1..l_r),
    box maxima of row r) and holds the summed products of the box factors of
    the rows so far, and the number of tableaux they stand for.  A next row
    is one of ``_rows_below``; a box (lo, m, d) contributes
    (1 - w_m) * prod_{lo<=x<m} w_x in K, minus the sum over its 2^(m - lo)
    entry sets, so that the states of lam carry the sign (-1)^{|lam|}; in H
    it contributes the linear form of m (lo = m).  Parents reaching one
    (prefix, row) key with the same lower bounds are summed, and each key's
    (summed parents, row factor) pairs go through one ``sum_of_products``.
    A key's parents all share one prefix, so the walk goes depth first: a
    shape is yielded once its states are built and freed once its extensions
    are done.  The shapes are those contained in sigma(beta); a target shape
    among them limits the walk to its prefixes and the yield to itself.
    """
    n = beta.n
    mu = sigma(beta)
    set_valued = theory == "K"
    # entry x fits at offset d = c - r iff d < mu_x, i.e. x <= caps[d]
    caps = transpose(mu)
    one = LaurentPolynomial.one(n)
    products: dict[tuple[tuple[int, int], ...], LaurentPolynomial] = {(): one}

    def row_factor(boxes: tuple[tuple[int, int], ...]) -> LaurentPolynomial:
        f = products.get(boxes)
        if f is None:
            d = len(boxes) - 1
            lo, m = boxes[d]
            *lower, top = entry_cut_pairs(((x, x + d) for x in range(lo, m + 1)), beta)
            if set_valued:
                f = 1 - coordinate_weight_k(*top, n)
                for a, b in lower:
                    f = f * coordinate_weight_k(a, b, n)
            else:
                f = coordinate_weight_h(*top, n)
            f = row_factor(boxes[:d]) * f
            products[boxes] = f
        return f

    def extended(group: dict) -> dict:  # (row, los) -> parents, to row -> (value, count)
        merged: dict[tuple[int, ...], list] = {}
        counts: dict[tuple[int, ...], int] = {}
        for (row, los), parents in group.items():
            value, count = _summed(n, parents)
            merged.setdefault(row, []).append((value, row_factor(tuple(zip(los, row)))))
            counts[row] = counts.get(row, 0) + (count << (sum(row) - sum(los)))
        return {row: (LaurentPolynomial.sum_of_products(n, pairs), counts[row])
                for row, pairs in merged.items()}

    def grow(prefix: tuple[int, ...], states: dict):
        r = len(prefix)
        if target is None or r == len(target):
            yield prefix, _summed(n, list(states.values()))
            if target is not None:
                return
        groups: dict[int, dict] = {}  # row length -> (row, los) -> parent states
        for prev, state in states.items():
            for row, los in _rows_below(prev, caps):
                if target is None or len(row) == target[r]:
                    groups.setdefault(len(row), {}).setdefault(
                        (row, los if set_valued else row), []).append(state)
        for part, group in groups.items():
            yield from grow(prefix + (part,), extended(group))

    # the first row sits below a virtual row of zeros one box longer than mu_1
    yield from grow((), {(0,) * (len(caps) + 1): (one, 1)})


def _summed(n: int, states: list[tuple[LaurentPolynomial, int]]
            ) -> tuple[LaurentPolynomial, int]:
    """The sums of the values and of the counts of (value, count) states."""
    if len(states) == 1:
        return states[0]
    return (LaurentPolynomial.sum_of(n, (v for v, _ in states)),
            sum(c for _, c in states))


def restrict(alpha: IsotropicIndex, beta: IsotropicIndex, theory: str) -> RestrictionResult:
    """Restriction of the Schubert class of alpha at beta, by beta's DP pruned to sigma(alpha).

    One uncached ``_walk`` along the prefixes of sigma(alpha), not beta's
    whole column; 0 from 0 tableaux, with no walk, where sigma(alpha) is not
    contained in sigma(beta).
    """
    _check_args(theory, beta, alpha)
    lam, mu = sigma(alpha), sigma(beta)
    if len(lam) > len(mu) or any(a > b for a, b in zip(lam, mu)):
        return RestrictionResult(alpha, beta, theory, LaurentPolynomial.zero(beta.n), 0)
    ((_, (value, count)),) = _walk(beta, theory, lam)
    return RestrictionResult(alpha, beta, theory, value, count)


def column_values(beta: IsotropicIndex, theory: str, alphas) -> list[LaurentPolynomial]:
    """The restriction values at beta of each of alphas, from one unpruned, uncached walk.

    For a caller that reads many alphas at one beta, such as ``table``.
    """
    alphas = list(alphas)
    _check_args(theory, beta, *alphas)
    column = {shape: value for shape, (value, _) in _walk(beta, theory)}
    zero = LaurentPolynomial.zero(beta.n)
    return [column.get(sigma(alpha), zero) for alpha in alphas]


def restrict_k(alpha: IsotropicIndex, beta: IsotropicIndex) -> RestrictionResult:
    """Restriction of the K-theory Schubert class of alpha at the fixed point beta."""
    return restrict(alpha, beta, "K")


def restrict_h(alpha: IsotropicIndex, beta: IsotropicIndex) -> RestrictionResult:
    """Restriction of the cohomology Schubert class of alpha at beta."""
    return restrict(alpha, beta, "H")


def _certified_root(entry: EntryContext, a: int, c: int, n: int, theory: str) -> PositiveRoot:
    """The root of an entry's factor, read off its chart coordinate (a, c) and checked.

    e^theta (K) resp. theta (H) of the root is compared with the weight w of
    the coordinate, whose factor is w - 1 resp. w; CertificateError, naming
    the entry, if the case analysis or the comparison fails.
    """
    root = _root_at(a, c, n)
    if theory == "K":
        expected, weight = root.exp_k(n), coordinate_weight_k(a, c, n)
    else:
        expected, weight = root.factor_h(n), coordinate_weight_h(a, c, n)
    if expected != weight:
        raise CertificateError(f"weight mismatch for entry {entry}: {weight} vs root {root}")
    return root


def certify_cells(beta: IsotropicIndex, theory: str) -> dict[tuple[int, int], PositiveRoot]:
    """Cell (x, z) of sigma(beta) -> the certified root of an entry x with z(x) = z.

    Each cell is checked as ``positivity_certificate`` checks an entry there,
    as the entry x of box (x, z); the first failing cell raises.  One call
    covers every factor of every tableau of every pair at (beta, theory)
    (``oracles._positivity_job`` proves it).
    """
    n = _check_args(theory, beta)
    cells = list(ShiftedDiagram(sigma(beta)).boxes())
    return {cell: _certified_root(entry_context(cell[0], *cell), a, c, n, theory)
            for cell, (a, c) in zip(cells, entry_cut_pairs(cells, beta))}


def positivity_certificate(alpha: IsotropicIndex, beta: IsotropicIndex, theory: str,
                           checked: dict | None = None) -> list[list[PositiveRoot]]:
    """Per tableau, per entry: the certified positive root of each factor.

    Each entry's chart coordinate comes from ``entry_cut_pairs``, the call the
    restriction DP makes for its factors; the root is read off that
    coordinate, and e^theta (K) resp. theta (H) of the root is compared with
    the coordinate's weight w, whose factor is w - 1 resp. w, so a certificate
    that returns is a proof that every factor has the form e^theta - 1 (K)
    resp. theta (H).
    An entry's root and factor depend only on (x, z) for fixed beta and
    theory, so each distinct (x, z) is checked in full on its first
    occurrence and reused.  ``checked`` maps (x, z) to its certified root;
    a caller certifying many alphas at one (beta, theory) passes one dict to
    all of them, and without it every call starts afresh.  The verify suite
    runs ``certify_cells`` instead, which covers every pair at beta at once.
    """
    n = _check_args(theory, beta, alpha)
    lam, mu = sigma(alpha), sigma(beta)
    tableaux = enumerate_ssvt(lam, mu) if theory == "K" else enumerate_ssyt(lam, mu)
    if checked is None:
        checked = {}
    certificates = []
    for s in tableaux:
        roots = []
        for e in s.entries():
            root = checked.get((e.x, e.z))
            if root is None:
                ((a, c),) = entry_cut_pairs(((e.x, e.z),), beta)
                root = checked[e.x, e.z] = _certified_root(e, a, c, n, theory)
            roots.append(root)
        certificates.append(roots)
    return certificates
