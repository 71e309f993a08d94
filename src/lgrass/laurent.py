"""Exact sparse Laurent polynomials over the integers in t_1, ..., t_n.

One representation serves both theories: K-theory classes use arbitrary
integer exponents, cohomology classes are the sub-case with nonnegative
exponents.  The bar conventions t_bar(k) = 1/t_k (K) and t_bar(k) = -t_k
(cohomology) are provided as constructors.

Every result is built by one collector, ``_collect``, which sums
(exponents, coefficient) pairs and drops zeros: the constructor, ``sum_of``,
``+`` and ``*`` all feed it.  The divisibility tests needed for moment-graph
checks use one exact substitution, t_i -> s * t_j^p with s in {1, -1, 0}:
a root divides p when every image of p on the root's zero set vanishes.

The lowest-degree (Chern) form of p is the lowest homogeneous part of
p(e^{-u}) in u.  Since x_i = 1 - e^{-u_i} = u_i + O(u^2), it equals the
lowest part of p(1 - x) in x, which needs no exponential series: t_i = 1 - x_i
is expanded one variable at a time with exact binomial coefficients,
(1 - x)^e = sum_k (-1)^k C(e, k) x^k for e >= 0 and sum_k C(m + k - 1, k) x^k
for e = -m, dropping every term above a degree bound as soon as it appears.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import add

from .indexing import bar


class LaurentPolynomial:
    """Sparse map from exponent vectors in Z^n to nonzero integer coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms=None) -> None:
        if n < 0:
            raise ValueError("variable count must be >= 0")
        self.n = n
        self._terms = _collect(_checked_pairs(n, terms)) if terms else {}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPolynomial":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, c: int) -> "LaurentPolynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n: int, exps, coeff: int = 1) -> "LaurentPolynomial":
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def sum_of(cls, n: int, polys) -> "LaurentPolynomial":
        """The sum of an iterable of polynomials, accumulated in one dict."""
        def terms_of(p):
            if p.n != n:
                raise ValueError(f"variable counts differ: {n} vs {p.n}")
            return p._terms.items()

        return cls._from_pairs(n, chain.from_iterable(map(terms_of, polys)))

    @classmethod
    def _from_pairs(cls, n: int, pairs, start=()) -> "LaurentPolynomial":
        """The polynomial of trusted (exponents, coefficient) pairs, summed onto start."""
        out = cls(n)
        out._terms = _collect(pairs, start)
        return out

    @classmethod
    def var(cls, n: int, i: int, power: int = 1) -> "LaurentPolynomial":
        """The monomial t_i^power, i in 1..n."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = power
        return cls(n, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LaurentPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.n, other)
        self._check(other)
        return LaurentPolynomial._from_pairs(self.n, other._terms.items(), self._terms)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPolynomial(self.n)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            pairs = ((e, c * other) for e, c in self._terms.items())
        else:
            self._check(other)
            pairs = ((tuple(map(add, e1, e2)), c1 * c2)
                     for e1, c1 in self._terms.items()
                     for e2, c2 in other._terms.items())
        return LaurentPolynomial._from_pairs(self.n, pairs)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via explicit monomials")
        out = LaurentPolynomial.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted lexicographically on the exponent vectors."""
        return sorted(self._terms.items())

    def coefficient(self, exps) -> int:
        return self._terms.get(tuple(exps), 0)

    def total_degrees(self) -> tuple[int, int]:
        """(min, max) total degree over the support; (0, 0) for the zero poly."""
        if not self._terms:
            return (0, 0)
        degs = [sum(e) for e in self._terms]
        return (min(degs), max(degs))

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self._terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def has_negative_exponent(self) -> bool:
        return any(e < 0 for exps in self._terms for e in exps)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == LaurentPolynomial.constant(self.n, other)._terms
        return (isinstance(other, LaurentPolynomial)
                and self.n == other.n and self._terms == other._terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution ---------------------------------------------------

    def _substitute(self, i: int, s: int, j: int | None = None,
                    p: int = 1) -> "LaurentPolynomial":
        """Exact image under t_i -> s * t_j^p, or t_i -> s when j is None.

        s is 1, -1 or 0.  The sign of s^k is the parity of k, so the image
        stays in integers for negative k too; s = 0 needs k >= 0.
        """
        def image():
            for exps, c in self._terms.items():
                k = exps[i - 1]
                if k and s != 1:
                    if not s:
                        if k < 0:
                            raise ValueError("t_i -> 0 undefined on negative exponents")
                        continue
                    if k & 1:
                        c = -c
                e = list(exps)
                e[i - 1] = 0
                if j is not None:
                    e[j - 1] += p * k
                yield tuple(e), c

        return LaurentPolynomial._from_pairs(self.n, image())

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"e": list(e), "c": c} for e, c in self.terms()]}

    def _json_text(self, memo: dict) -> str:
        """The text of ``json.dumps(self.to_json())``.

        memo maps an exponent vector to its rendered ``{"e": [..], "c": ``
        prefix, so a caller writing many polynomials renders each vector once.
        """
        terms = self._terms
        parts = []
        for exps in sorted(terms):  # the order of terms(), without comparing pairs
            head = memo.get(exps)
            if head is None:
                head = memo[exps] = '{"e": [%s], "c": ' % ", ".join(map(str, exps))
            parts.append(f"{head}{terms[exps]}}}")
        return '{"n": %d, "terms": [%s]}' % (self.n, ", ".join(parts))

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        return cls(data["n"], {tuple(t["e"]): t["c"] for t in data["terms"]})

    def pretty(self, memo: dict | None = None) -> str:
        """Human-readable rendering: products of t_i, inverses as 1/t_i.

        memo, if given, maps an exponent vector to its monomial text and is
        filled as it goes, so a caller rendering many polynomials shares it.
        """
        if not self._terms:
            return "0"
        if memo is None:
            memo = {}
        terms = self._terms
        pieces = []
        for exps in sorted(terms):
            mono = memo.get(exps)
            if mono is None:
                mono = memo[exps] = _monomial_text(exps)
            c = terms[exps]
            a = abs(c)
            body = (mono if a == 1 else f"{a}*{mono}") if mono else str(a)
            pieces.append(("- " if c < 0 else "+ ") + body)
        first = pieces[0]
        first = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([first] + pieces[1:])

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"<laurent n={self.n} {self.pretty()}>"


def _monomial_text(exps) -> str:
    """t1^2*t3/(t2*t4) for (2, -1, 1, -1); the empty string for the constant 1."""
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
    return mono


def _checked_pairs(n: int, terms):
    """(exponents, coefficient) pairs of a dict or iterable, as int tuples of length n."""
    for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
        exps = tuple(int(e) for e in exps)
        if len(exps) != n:
            raise ValueError(f"exponent vector {exps} has wrong length")
        yield exps, int(coeff)


def _collect(pairs, start=()) -> dict[tuple[int, ...], int]:
    """Sum (exponents, coefficient) pairs into a copy of start, dropping zeros."""
    terms: dict[tuple[int, ...], int] = dict(start) if start else {}
    for exps, c in pairs:
        cur = terms.get(exps, 0) + c
        if cur:
            terms[exps] = cur
        else:
            terms.pop(exps, None)
    return terms


def bar_var_k(label: int, n: int) -> LaurentPolynomial:
    """K-theory variable for a letter in 1..2n: t_k, or 1/t_k for bar(k)."""
    if label <= n:
        return LaurentPolynomial.var(n, label)
    return LaurentPolynomial.var(n, bar(label, n), -1)


def bar_var_h(label: int, n: int) -> LaurentPolynomial:
    """Cohomology variable for a letter in 1..2n: t_k, or -t_k for bar(k)."""
    if label <= n:
        return LaurentPolynomial.var(n, label)
    return -LaurentPolynomial.var(n, bar(label, n))


def _binomial_row(e: int, order: int) -> list[int]:
    """Coefficients of x^0..x^order in (1 - x)^e, exact integers for any e."""
    if e >= 0:
        return [(-1) ** k * comb(e, k) for k in range(min(e, order) + 1)]
    return [comb(k - e - 1, k) for k in range(order + 1)]


def _lowest_part(p: LaurentPolynomial, order: int):
    """Lowest nonzero homogeneous part of p(1 - x) up to x-degree order, or None.

    Variable i is expanded at step i: positions before i of a key hold
    x-exponents, the rest still t-exponents, so terms sharing both merge.
    Terms of x-degree above ``order`` are dropped as soon as they appear.
    """
    terms = p._terms
    for i in range(p.n):
        rows = {e: _binomial_row(e, order) for e in {key[i] for key in terms}}
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for key, c in terms.items():
            head, tail = key[:i], key[i + 1:]
            for k, b in enumerate(rows[key[i]][:order + 1 - sum(head)]):
                x = head + (k,) + tail
                acc[x] = get(x, 0) + c * b
        terms = {x: c for x, c in acc.items() if c}
    if not terms:
        return None
    low = min(map(sum, terms))
    return LaurentPolynomial._from_pairs(
        p.n, ((x, c) for x, c in terms.items() if sum(x) == low))


def lowest_degree_form(p: LaurentPolynomial, order: int | None = None) -> LaurentPolynomial:
    """Lowest-order homogeneous term of p after t_i -> exp(-u_i), in t-variables.

    Computed as the lowest part of p(1 - x) in x, with x_i written as t_i.
    ``order`` is a guess at that degree; if every part up to it vanishes,
    the expansion runs once more up to the total degree of t^m p, where the
    monomial t^m clears the negative exponents.  A nonzero polynomial keeps
    its total degree under t -> 1 - x, and t^m = 1 + O(x) leaves the lowest
    part alone, so that degree bounds the one sought.
    """
    if p.is_zero():
        return p
    if order is not None:
        low = _lowest_part(p, max(order, 0))
        if low is not None:
            return low
    shift = sum(min(0, *col) for col in zip(*p._terms))
    return _lowest_part(p, max(map(sum, p._terms)) - shift)


def _parse_root(theta: LaurentPolynomial) -> list[tuple[int, int]]:
    """[(variable, coefficient)] of a root form +-c t_i (c in 1, 2) or +-t_i +- t_j."""
    entries = []
    for exps, c in theta.terms():
        if sum(1 for e in exps if e) != 1 or sum(exps) != 1:
            raise ValueError(f"not a linear form: {theta.pretty()}")
        i = next(k for k, e in enumerate(exps) if e) + 1
        entries.append((i, c))
    if not entries:
        raise ValueError("zero root")
    if len(entries) > 2:
        raise ValueError(f"not a rank-one root form: {theta.pretty()}")
    if len(entries) == 1 and abs(entries[0][1]) not in (1, 2):
        raise ValueError(f"unexpected root coefficient {entries[0][1]}")
    if len(entries) == 2 and {abs(c) for _, c in entries} != {1}:
        raise ValueError(f"unexpected root coefficients in {theta.pretty()}")
    return entries


def divisible_by_root_h(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether the linear form theta (a root +-t_i +- t_j or +-2t_i) divides p.

    Checked by exact elimination: p vanishes identically after substituting
    a solution of theta = 0, t_i -> 0 for c t_i and t_i -> -ab t_j for
    a t_i + b t_j.  Requires p to have nonnegative exponents.
    """
    if p.has_negative_exponent():
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    (i, a), *rest = _parse_root(theta)
    if rest:
        (j, b), = rest
        return p._substitute(i, -a * b, j).is_zero()
    return p._substitute(i, 0).is_zero()


def divisible_by_k_root(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether p lies in the ideal (1 - e^{-theta}) of the Laurent ring.

    Equivalent to vanishing on the subtorus e^theta = 1, which is checked by
    exact substitution: t_i -> t_j for +-(t_i - t_j), t_i -> 1/t_j for
    +-(t_i + t_j), t_i -> 1 for +-t_i, and both t_i -> 1 and t_i -> -1 for
    +-2t_i (over the integers, p = A + t_i B mod t_i^2 - 1 vanishes iff
    A + B and A - B do).
    """
    (i, a), *rest = _parse_root(theta)
    if rest:
        (j, b), = rest
        images = [(i, 1, j, -1 if a * b > 0 else 1)]
    else:
        images = [(i, 1), (i, -1)] if abs(a) == 2 else [(i, 1)]
    return all(p._substitute(*args).is_zero() for args in images)
