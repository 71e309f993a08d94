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
on a larger one, and so do ``*``, ``**`` and ``sum_of_products`` when the
exponent bounds of a pair of operands could sum past a field.  Each
polynomial carries such a bound (the largest |e| it may hold), updated in
O(1) by ``+``, ``*`` and the sums.  The public API speaks exponent tuples;
with W = 16 one struct call unpacks a key into its tuple.

``sum_of`` (which ``+`` is with two summands) and ``sum_of_products`` (a sum
of products, which ``*`` is with one pair) work in one pass: they accumulate
straight into one dict and delete a key as soon as its coefficient reaches
0, so no stored coefficient is 0 and no second pass filters them.  A
product takes the bias off its shorter operand, and the first of that
operand's terms builds the dict in one comprehension.

The divisibility tests needed for moment-graph checks use one exact
substitution, t_i -> s * t_j^p with s in {1, -1, 0}: a root divides p when
every image of p on the root's zero set vanishes.  ``root_images`` lists
those substitutions for one root, so a caller comparing many pairs of
polynomials along one root parses it once.

The lowest-degree (Chern) form of p is the lowest homogeneous part of
p(e^{-u}) in u.  Both x_i = 1 - e^{-u_i} and y_i = e^{u_i} - 1 are
u_i + O(u^2), so it equals the lowest part of p with each t_i written as
1 - x_i or as 1/(1 + y_i), which needs no exponential series.  Variables
are expanded one at a time with exact binomial coefficients, and each picks
the side whose rows are mostly finite: t^e = (1 - x)^e is a finite row for
e >= 0 and t^e = (1 + y)^(-e) for e <= 0, so y is taken when more terms
carry a negative exponent in t_i than a positive one.  Every term above a
degree bound is dropped as soon as it appears.
"""

from __future__ import annotations

import functools
import struct
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


@functools.lru_cache(maxsize=None)
def _decoder(n: int):
    """(bias(n), the unpack of n big-endian signed 16-bit fields); W = 16 makes them 'h'."""
    return _bias(n), struct.Struct(f">{n}h").unpack


def _unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of a key, first variable first.

    Flipping the top bit of each field turns e + HALF into e in two's
    complement, so one struct call reads all n fields.
    """
    bias, unpack = _decoder(n)
    return unpack((key ^ bias).to_bytes(2 * n, "big"))


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    return {k: c for k, c in terms.items() if c}


class LaurentPolynomial:
    """Sparse map from exponent vectors in Z^n to nonzero integer coefficients."""

    __slots__ = ("n", "_terms", "_bound")

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

    @classmethod
    def _of(cls, n: int, terms: dict[int, int], bound: int) -> "LaurentPolynomial":
        """The polynomial of trusted packed terms, all nonzero, |e| <= bound < HALF."""
        out = object.__new__(cls)
        out.n = n
        out._terms = terms
        out._bound = bound
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
                    c += get(k, 0)
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
            else:  # the first nonzero summand is copied whole
                terms = dict(p._terms)
                get = terms.get
        return cls._of(n, terms, bound)

    @classmethod
    def sum_of_products(cls, n: int, pairs) -> "LaurentPolynomial":
        """The sum of a * b over an iterable of pairs (a, b), accumulated in one dict.

        Raises as ``a * b`` does: ValueError on differing variable counts and
        OverflowError when a pair's exponent bounds could sum past a field.
        A key is deleted as soon as its coefficient reaches 0.
        """
        bias = _bias(n)
        terms: dict[int, int] = {}
        bound = 0
        for a, b in pairs:
            a._check(b)
            if a.n != n:
                raise ValueError(f"variable counts differ: {n} vs {a.n}")
            pair_bound = a._bound + b._bound
            if pair_bound >= HALF:
                raise OverflowError(
                    f"product exponents may reach {pair_bound}, past |e| < {HALF}")
            bound = max(bound, pair_bound)
            short, wide = a._terms, b._terms
            if len(short) > len(wide):
                short, wide = wide, short
            # k1 + k2 - bias is the product's key; take the bias off the short side
            items = iter(short.items())
            if not terms:  # the first short term's products hold distinct keys
                for k1, c1 in items:
                    k1 -= bias
                    terms = {k1 + k2: c1 * c2 for k2, c2 in wide.items()}
                    break
            get = terms.get
            for k1, c1 in items:
                k1 -= bias
                for k2, c2 in wide.items():
                    k = k1 + k2
                    c = get(k, 0) + c1 * c2
                    if c:
                        terms[k] = c
                    else:
                        del terms[k]
        return cls._of(n, terms, bound)

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
        elif not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return LaurentPolynomial.sum_of(self.n, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._of(self.n, {k: -c for k, c in self._terms.items()},
                                     self._bound)

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPolynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: c * other for k, c in self._terms.items()} if other else {}
            return LaurentPolynomial._of(self.n, terms, self._bound)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return LaurentPolynomial.sum_of_products(self.n, ((self, other),))

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
        return hash((self.n, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution ---------------------------------------------------

    def _substitute(self, i: int, s: int, j: int | None = None,
                    p: int = 1) -> "LaurentPolynomial":
        """Exact image under t_i -> s * t_j^p, or t_i -> s when j is None.

        s is 1, -1 or 0.  The sign of s^k is the parity of k, so the image
        stays in integers for negative k too; s = 0 needs k >= 0.  A term
        whose t_i-exponent is k moves by k * move: k fields down at i and,
        when j is given, p * k fields up at j.
        """
        n = self.n
        shift = W * (n - i)
        bound = self._bound
        move = -(1 << shift)
        if j is not None:
            bound += abs(p) * bound
            if bound >= HALF:
                raise OverflowError(f"image exponents may reach {bound}, past |e| < {HALF}")
            move += p << W * (n - j)
        source = self._terms
        terms: dict[int, int] = {}
        get = terms.get
        if s == 1:
            for key, c in source.items():
                key += (((key >> shift) & _MASK) - HALF) * move
                terms[key] = get(key, 0) + c
        elif s == -1:
            for key, c in source.items():
                k = ((key >> shift) & _MASK) - HALF
                key += k * move
                terms[key] = get(key, 0) + (-c if k & 1 else c)
        elif s == 0:
            for key, c in source.items():
                k = ((key >> shift) & _MASK) - HALF
                if k < 0:
                    raise ValueError("t_i -> 0 undefined on negative exponents")
                if not k:  # the key is unchanged, so no two of these collide
                    terms[key] = c
            return LaurentPolynomial._of(n, terms, bound)
        else:
            raise ValueError(f"substitution sign must be 1, -1 or 0, got {s}")
        if len(terms) < len(source):  # only terms that met can have cancelled
            terms = _nonzero(terms)
        return LaurentPolynomial._of(n, terms, bound)

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
            if head is None:  # the str of a list of ints is its JSON text
                head = memo[key] = '{"e": %s, "c": ' % list(_unpack(key, n))
            parts.append(f"{head}{terms[key]}}}")
        return '{"n": %d, "terms": [%s]}' % (n, ", ".join(parts))

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        return cls(data["n"], {tuple(t["e"]): t["c"] for t in data["terms"]})

    def pretty(self, memo: dict | None = None) -> str:
        """Human-readable rendering: products of t_i, inverses as 1/t_i.

        A monomial's text joins the pieces of its first n // 2 variables and
        of the others, and each distinct half is rendered once per call.
        memo, if given, maps a packed exponent key to its monomial text and is
        filled as it goes, so a caller rendering many polynomials shares it.
        """
        if not self._terms:
            return "0"
        terms, n = self._terms, self.n
        h = n // 2
        shift = W * (n - h)  # a key's low fields hold its last n - h variables
        mask = (1 << shift) - 1
        highs, lows = {}, {}  # each half's packed fields -> its ``_pieces``
        pieces = []
        for key in sorted(terms):
            mono = None if memo is None else memo.get(key)
            if mono is None:
                hi, lo = key >> shift, key & mask
                mono = _monomial_text(
                    highs.get(hi) or highs.setdefault(hi, _pieces(_unpack(hi, h), 0)),
                    lows.get(lo) or lows.setdefault(lo, _pieces(_unpack(lo, n - h), h)))
                if memo is not None:
                    memo[key] = mono
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


def _pieces(exps, first: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The numerator and the denominator factors of t_{first+1}^e_1 * ..., as texts."""
    return (tuple(f"t{first + i + 1}" + (f"^{e}" if e > 1 else "")
                  for i, e in enumerate(exps) if e > 0),
            tuple(f"t{first + i + 1}" + (f"^{-e}" if e < -1 else "")
                  for i, e in enumerate(exps) if e < 0))


def _monomial_text(head, tail) -> str:
    """t1^2*t3/(t2*t4) from the ``_pieces`` of (2, -1) and of (1, -1); "" for 1."""
    num, den = "*".join(head[0] + tail[0]), head[1] + tail[1]
    if not den:
        return num
    return (num or "1") + "/" + (den[0] if len(den) == 1 else f"({'*'.join(den)})")


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


def _binomial_row(e: int, order: int, s: int) -> list[int]:
    """Coefficients of z^0..z^order in (1 + s z)^e, s = +-1, exact for any integer e."""
    if e >= 0:
        return [s ** k * comb(e, k) for k in range(min(e, order) + 1)]
    return [(-s) ** k * comb(k - e - 1, k) for k in range(order + 1)]


def _lowest_part(p: LaurentPolynomial, order: int):
    """Lowest nonzero homogeneous part of p in x, y up to degree order, or None.

    Variable i is expanded at step i, as t_i = 1 - x_i, or as
    1/t_i = 1 + y_i when more terms then carry a negative exponent in it than
    a positive one, so that most of its rows are finite.  Fields before i of
    a key hold x- or y-exponents, the rest still t-exponents, so terms sharing
    both merge.  One more field above the n exponent fields holds the degree
    so far, and terms of degree above ``order`` are dropped as they appear.
    """
    if order >= HALF:
        raise OverflowError(f"x-degree bound {order} past |e| < {HALF}")
    n = p.n
    top = W * n
    terms = p._terms
    for i in range(n):
        shift = W * (n - 1 - i)
        step = (1 << shift) + (1 << top)  # x_i^1 or y_i^1, and one more degree
        fields = [(key >> shift) & _MASK for key in terms]
        # t^e = (1 - x)^e, or t^e = (1 + y)^(-e)
        f = -1 if sum(v < HALF for v in fields) > sum(v > HALF for v in fields) else 1
        rows: dict[int, list[int]] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for (key, c), v in zip(terms.items(), fields):
            row = rows.get(v)
            if row is None:
                row = rows[v] = _binomial_row(f * (v - HALF), order, -f)
            x = key - ((v - HALF) << shift)
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

    Computed as the lowest part of p in x_i = 1 - t_i or y_i = 1/t_i - 1,
    chosen per variable, with x_i and y_i written as t_i: both are u_i + O(u^2),
    so either choice gives the same lowest part.  ``order`` is a guess at its
    degree; if every part up to it vanishes, the expansion runs once more up
    to the total degree of t^m p, where the monomial t^m clears the negative
    exponents.  t^m = 1 + O(u) leaves the lowest part alone, and the
    polynomial t^m p keeps its total degree under t -> 1 - x, so that degree
    bounds the one sought.
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


def check_theory(theory: str) -> None:
    """Raise ValueError unless theory is "K" (K-theory) or "H" (cohomology)."""
    if theory not in ("K", "H"):
        raise ValueError(f"theory must be 'K' or 'H', got {theory!r}")


def root_images(theta: LaurentPolynomial, theory: str) -> tuple[tuple, ...]:
    """``_substitute`` arguments whose images of p all vanish iff theta divides p.

    theta is a root form +-t_i +- t_j or +-c t_i (c in 1, 2).  In H ("divides"
    means theta | p, p with nonnegative exponents) they solve theta = 0:
    t_i -> 0 for c t_i and t_i -> -ab t_j for a t_i + b t_j.  In K (p in the
    ideal (1 - e^{-theta}) of the Laurent ring) they cover the subtorus
    e^theta = 1: t_i -> t_j for +-(t_i - t_j), t_i -> 1/t_j for +-(t_i + t_j),
    t_i -> 1 for +-t_i, and both t_i -> 1 and t_i -> -1 for +-2t_i (over the
    integers, p = A + t_i B mod t_i^2 - 1 vanishes iff A + B and A - B do).
    Each image is a ring homomorphism, so p1 - p2 is divisible iff p1 and p2
    have equal images.  A theory other than "K" or "H" raises ValueError.
    """
    check_theory(theory)
    (i, a), *rest = _parse_root(theta)
    if theory == "H":
        if rest:
            (j, b), = rest
            return ((i, -a * b, j),)
        return ((i, 0),)
    if rest:
        (j, b), = rest
        return ((i, 1, j, -1 if a * b > 0 else 1),)
    return ((i, 1), (i, -1)) if abs(a) == 2 else ((i, 1),)


def divisible_by_root_h(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether the linear form theta (a root +-t_i +- t_j or +-2t_i) divides p.

    Checked by exact elimination on the images of ``root_images(theta, "H")``.
    Requires p to have nonnegative exponents.
    """
    if p.has_negative_exponent():
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    return all(p._substitute(*args).is_zero() for args in root_images(theta, "H"))


def divisible_by_k_root(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether p lies in the ideal (1 - e^{-theta}) of the Laurent ring.

    Equivalent to vanishing on the subtorus e^theta = 1, checked by exact
    substitution on the images of ``root_images(theta, "K")``.
    """
    return all(p._substitute(*args).is_zero() for args in root_images(theta, "K"))
