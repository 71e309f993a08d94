"""Exact sparse Laurent polynomials over the integers in t_1, ..., t_n.

One representation serves both theories: K-theory classes use arbitrary
integer exponents, cohomology classes are the sub-case with nonnegative
exponents.  The bar conventions t_bar(k) = 1/t_k (K) and t_bar(k) = -t_k
(cohomology) are provided as constructors.

A polynomial is a dict from packed exponent keys to nonzero coefficients.
The key of (e_1, ..., e_n) is one int holding each exponent in a W-bit
field, biased by HALF = 2^(W-1) and with the first variable most
significant: key = sum_i (e_i + HALF) << W(n - i).  Every field is then
nonnegative, so int order on keys is lexicographic order on exponent
vectors, and multiplying two monomials is one int add, k1 + k2 - bias(n).
Exponents must satisfy |e| < HALF: the constructors raise OverflowError
on a larger one, and so do ``*`` and ``**`` when the exponent bounds of
their operands could sum past a field.  Each polynomial carries such a
bound (the largest |e| it may hold), updated in O(1) by ``+``, ``*`` and
``sum_of``.  ``+``, ``*`` and ``sum_of`` accumulate straight into one dict
and drop zeros; the public API speaks exponent tuples.

The divisibility tests needed for moment-graph checks use one exact
substitution, t_i -> s * t_j^p with s in {1, -1, 0}: a root divides p when
every image of p on the root's zero set vanishes.

The lowest-degree (Chern) form of p is the lowest homogeneous part of
p(e^{-u}) in u.  Since x_i = 1 - e^{-u_i} = u_i + O(u^2), it equals the
lowest part of p(1 - x) in x, which needs no exponential series: t_i = 1 - x_i
is expanded one variable at a time with exact binomial coefficients,
(1 - x)^e = sum_k (-1)^k C(e, k) x^k for e >= 0 and sum_k C(m + k - 1, k) x^k
for e = -m, dropping every term above a degree bound as soon as it appears.
"""

from __future__ import annotations

from math import comb

from .indexing import bar

W = 16  # bits per exponent field of a packed key
HALF = 1 << (W - 1)  # the bias; an exponent e is stored as e + HALF
_MASK = (1 << W) - 1


def _bias(n: int) -> int:
    """The key of the zero exponent vector: HALF in each of n fields."""
    return HALF * ((1 << W * n) - 1) // _MASK


def _pack(exps, n: int) -> int:
    """The key of an exponent vector of length n with every |e| < HALF."""
    key = 0
    count = 0
    for e in exps:
        if not -HALF < e < HALF:
            raise OverflowError(f"exponent {e} outside the field range |e| < {HALF}")
        key = (key << W) | (e + HALF)
        count += 1
    if count != n:
        raise ValueError(f"exponent vector {tuple(exps)} has wrong length")
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of a key, first variable first."""
    return tuple(((key >> s) & _MASK) - HALF for s in range(W * (n - 1), -1, -W))


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    return {k: c for k, c in terms.items() if c}


class LaurentPolynomial:
    """Sparse map from exponent vectors in Z^n to nonzero integer coefficients."""

    __slots__ = ("n", "_terms", "_bound", "_hash")

    def __init__(self, n: int, terms=None) -> None:
        if n < 0:
            raise ValueError("variable count must be >= 0")
        acc: dict[int, int] = {}
        bound = 0
        for exps, coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            exps = [int(e) for e in exps]
            key = _pack(exps, n)
            acc[key] = acc.get(key, 0) + int(coeff)
            bound = max(bound, max(map(abs, exps), default=0))
        self.n = n
        self._terms = _nonzero(acc)
        self._bound = bound
        self._hash = None

    @classmethod
    def _of(cls, n: int, terms: dict[int, int], bound: int) -> "LaurentPolynomial":
        """The polynomial of trusted packed terms, all nonzero, |e| <= bound < HALF."""
        out = object.__new__(cls)
        out.n = n
        out._terms = terms
        out._bound = bound
        out._hash = None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPolynomial":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("variable count must be >= 0")
        c = int(c)
        return cls._of(n, {_bias(n): c} if c else {}, 0)

    @classmethod
    def monomial(cls, n: int, exps, coeff: int = 1) -> "LaurentPolynomial":
        exps = [int(e) for e in exps]
        key = _pack(exps, n)
        coeff = int(coeff)
        return cls._of(n, {key: coeff} if coeff else {}, max(map(abs, exps), default=0))

    @classmethod
    def sum_of(cls, n: int, polys) -> "LaurentPolynomial":
        """The sum of an iterable of polynomials, accumulated in one dict."""
        terms: dict[int, int] = {}
        get = terms.get
        bound = 0
        for p in polys:
            if p.n != n:
                raise ValueError(f"variable counts differ: {n} vs {p.n}")
            bound = max(bound, p._bound)
            if terms:
                for k, c in p._terms.items():
                    terms[k] = get(k, 0) + c
            else:  # the first nonzero summand is copied whole
                terms = dict(p._terms)
                get = terms.get
        return cls._of(n, _nonzero(terms), bound)

    @classmethod
    def var(cls, n: int, i: int, power: int = 1) -> "LaurentPolynomial":
        """The monomial t_i^power, i in 1..n."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        if not -HALF < power < HALF:
            raise OverflowError(f"exponent {power} outside the field range |e| < {HALF}")
        return cls._of(n, {_bias(n) + (power << W * (n - i)): 1}, abs(power))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LaurentPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.n, other)
        self._check(other)
        terms = dict(self._terms)
        get = terms.get
        for k, c in other._terms.items():
            c += get(k, 0)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return LaurentPolynomial._of(self.n, terms, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._of(self.n, {k: -c for k, c in self._terms.items()},
                                     self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: c * other for k, c in self._terms.items()} if other else {}
            return LaurentPolynomial._of(self.n, terms, self._bound)
        self._check(other)
        bound = self._bound + other._bound
        if bound >= HALF:
            raise OverflowError(f"product exponents may reach {bound}, past |e| < {HALF}")
        left, right = self._terms, other._terms
        if len(left) > len(right):
            left, right = right, left
        # k1 + k2 - bias is the product's key; take the bias off one side once
        bias = _bias(self.n)
        shifted = [(k - bias, c) for k, c in right.items()]
        terms: dict[int, int] = {}
        get = terms.get
        for k1, c1 in left.items():
            for k2, c2 in shifted:
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return LaurentPolynomial._of(self.n, _nonzero(terms), bound)

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
        terms, n = self._terms, self.n
        return [(_unpack(k, n), terms[k]) for k in sorted(terms)]

    def coefficient(self, exps) -> int:
        return self._terms.get(_pack([int(e) for e in exps], self.n), 0)

    def _degrees(self) -> set[int]:
        n = self.n
        return {sum(_unpack(k, n)) for k in self._terms}

    def total_degrees(self) -> tuple[int, int]:
        """(min, max) total degree over the support; (0, 0) for the zero poly."""
        degs = self._degrees()
        return (min(degs), max(degs)) if degs else (0, 0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self._degrees()
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def has_negative_exponent(self) -> bool:
        # a field holds e + HALF, so its top bit, HALF, is set iff e >= 0
        high = _bias(self.n)
        return any(k & high != high for k in self._terms)

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
        n = self.n
        shift = W * (n - i)
        bound = self._bound
        if j is not None:
            bound += abs(p) * bound
            if bound >= HALF:
                raise OverflowError(f"image exponents may reach {bound}, past |e| < {HALF}")
        terms: dict[int, int] = {}
        get = terms.get
        for key, c in self._terms.items():
            k = ((key >> shift) & _MASK) - HALF
            if k and s != 1:
                if not s:
                    if k < 0:
                        raise ValueError("t_i -> 0 undefined on negative exponents")
                    continue
                if k & 1:
                    c = -c
            key -= k << shift
            if j is not None:
                key += p * k << W * (n - j)
            terms[key] = get(key, 0) + c
        return LaurentPolynomial._of(n, _nonzero(terms), bound)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"e": list(e), "c": c} for e, c in self.terms()]}

    def _json_text(self, memo: dict) -> str:
        """The text of ``json.dumps(self.to_json())``.

        memo maps a packed exponent key to its rendered ``{"e": [..], "c": ``
        prefix, so a caller writing many polynomials renders each vector once.
        """
        terms, n = self._terms, self.n
        parts = []
        for key in sorted(terms):
            head = memo.get(key)
            if head is None:
                head = memo[key] = '{"e": [%s], "c": ' % ", ".join(map(str, _unpack(key, n)))
            parts.append(f"{head}{terms[key]}}}")
        return '{"n": %d, "terms": [%s]}' % (n, ", ".join(parts))

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        return cls(data["n"], {tuple(t["e"]): t["c"] for t in data["terms"]})

    def pretty(self, memo: dict | None = None) -> str:
        """Human-readable rendering: products of t_i, inverses as 1/t_i.

        memo, if given, maps a packed exponent key to its monomial text and is
        filled as it goes, so a caller rendering many polynomials shares it.
        """
        if not self._terms:
            return "0"
        if memo is None:
            memo = {}
        terms, n = self._terms, self.n
        pieces = []
        for key in sorted(terms):
            mono = memo.get(key)
            if mono is None:
                mono = memo[key] = _monomial_text(_unpack(key, n))
            c = terms[key]
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

    Variable i is expanded at step i: fields before i of a key hold
    x-exponents, the rest still t-exponents, so terms sharing both merge.
    One more field above the n exponent fields holds the x-degree so far,
    and terms of x-degree above ``order`` are dropped as soon as they appear.
    """
    if order >= HALF:
        raise OverflowError(f"x-degree bound {order} past |e| < {HALF}")
    n = p.n
    top = W * n
    terms = p._terms
    for i in range(n):
        shift = W * (n - 1 - i)
        step = (1 << shift) + (1 << top)  # x_i^1, and one more x-degree
        rows: dict[int, list[int]] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for key, c in terms.items():
            e = ((key >> shift) & _MASK) - HALF
            row = rows.get(e)
            if row is None:
                row = rows[e] = _binomial_row(e, order)
            x = key - (e << shift)
            for b in row[:order + 1 - (key >> top)]:
                acc[x] = get(x, 0) + c * b
                x += step
        terms = _nonzero(acc)
    if not terms:
        return None
    low = min(key >> top for key in terms)
    mask = (1 << top) - 1
    return LaurentPolynomial._of(
        n, {key & mask: c for key, c in terms.items() if key >> top == low}, low)


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
    exps = [_unpack(k, p.n) for k in p._terms]
    shift = sum(min(0, *col) for col in zip(*exps))
    return _lowest_part(p, max(map(sum, exps)) - shift)


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
