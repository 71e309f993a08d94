"""Exact sparse Laurent polynomials over the integers in t_1, ..., t_n.

One representation serves both theories: K-theory classes use arbitrary
integer exponents, cohomology classes are the sub-case with nonnegative
exponents.  The bar conventions t_bar(k) = 1/t_k (K) and t_bar(k) = -t_k
(cohomology) are provided as constructors, and the divisibility tests
needed for moment-graph checks are implemented by exact substitution.
"""

from __future__ import annotations

from operator import add

from .indexing import bar


class LaurentPolynomial:
    """Sparse map from exponent vectors in Z^n to nonzero integer coefficients."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms=None) -> None:
        if n < 0:
            raise ValueError("variable count must be >= 0")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} has wrong length")
                coeff = int(coeff)
                if coeff:
                    cur = clean.get(exps, 0) + coeff
                    if cur:
                        clean[exps] = cur
                    else:
                        clean.pop(exps, None)
        self._terms = clean
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
        terms: dict[tuple[int, ...], int] = {}
        for p in polys:
            if p.n != n:
                raise ValueError(f"variable counts differ: {n} vs {p.n}")
            for exps, c in p._terms.items():
                cur = terms.get(exps, 0) + c
                if cur:
                    terms[exps] = cur
                else:
                    del terms[exps]
        out = cls(n)
        out._terms = terms
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
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            cur = terms.get(exps, 0) + c
            if cur:
                terms[exps] = cur
            else:
                terms.pop(exps, None)
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

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
            out = LaurentPolynomial(self.n)
            if other:
                out._terms = {e: c * other for e, c in self._terms.items()}
            return out
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(add, e1, e2))
                cur = terms.get(e, 0) + c1 * c2
                if cur:
                    terms[e] = cur
                else:
                    terms.pop(e, None)
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

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

    # -- substitutions -------------------------------------------------

    def substitute_proportional(self, i: int, j: int, sign: int) -> "LaurentPolynomial":
        """Exact image under t_i -> sign * t_j (sign in {+1, -1}), i != j."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in self._terms.items():
            e = list(exps)
            k = e[i - 1]
            e[i - 1] = 0
            e[j - 1] += k
            c2 = c * (sign ** (k & 1) if sign < 0 else 1)
            key = tuple(e)
            cur = terms.get(key, 0) + c2
            if cur:
                terms[key] = cur
            else:
                terms.pop(key, None)
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

    def substitute_inverse(self, i: int, j: int) -> "LaurentPolynomial":
        """Exact image under t_i -> t_j^{-1}, i != j."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in self._terms.items():
            e = list(exps)
            k = e[i - 1]
            e[i - 1] = 0
            e[j - 1] -= k
            key = tuple(e)
            cur = terms.get(key, 0) + c
            if cur:
                terms[key] = cur
            else:
                terms.pop(key, None)
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

    def substitute_square_one(self, i: int) -> "LaurentPolynomial":
        """Reduction modulo t_i^2 = 1 (exponent parity)."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in self._terms.items():
            e = list(exps)
            e[i - 1] &= 1
            key = tuple(e)
            cur = terms.get(key, 0) + c
            if cur:
                terms[key] = cur
            else:
                terms.pop(key, None)
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

    def substitute_zero(self, i: int) -> "LaurentPolynomial":
        """Image under t_i -> 0; requires nonnegative exponents in t_i."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in self._terms.items():
            if exps[i - 1] < 0:
                raise ValueError("t_i -> 0 undefined on negative exponents")
            if exps[i - 1] == 0:
                terms[exps] = c
        out = LaurentPolynomial(self.n)
        out._terms = terms
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n,
                "terms": [{"e": list(e), "c": c} for e, c in self.terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolynomial":
        return cls(data["n"], {tuple(t["e"]): t["c"] for t in data["terms"]})

    def pretty(self) -> str:
        """Human-readable rendering: products of t_i, inverses as 1/t_i."""
        if not self._terms:
            return "0"
        pieces = []
        for exps, c in self.terms():
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
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            pieces.append(("- " if c < 0 else "+ ") + body)
        first = pieces[0]
        first = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([first] + pieces[1:])

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"<laurent n={self.n} {self.pretty()}>"


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


class TruncationError(RuntimeError):
    """Series truncation order was too small to see the lowest form."""


def _lowest_component(p: LaurentPolynomial, order: int):
    """Lowest nonzero homogeneous part of p under t_i -> exp(-u_i), or None.

    A monomial t^e maps to exp(L) with L = -sum e_i u_i, so the degree-d part
    of the image is (1/d!) sum_m c_m L_m^d.  The powers are raised degree by
    degree with integer coefficients; d! is divided out only when the first
    nonzero degree is found.
    """
    n = p.n
    zero = (0,) * n
    monomials = []
    for exps, c in p._terms.items():
        lin = {}
        for i, e in enumerate(exps):
            if e:
                key = tuple(1 if j == i else 0 for j in range(n))
                lin[key] = -e
        monomials.append((c, lin, {zero: 1}))
    factorial = 1
    for d in range(order + 1):
        if d:
            factorial *= d
        component: dict[tuple[int, ...], int] = {}
        for c, _, power in monomials:
            for m, v in power.items():
                cur = component.get(m, 0) + c * v
                if cur:
                    component[m] = cur
                else:
                    component.pop(m, None)
        if component:
            if any(v % factorial for v in component.values()):
                raise ValueError("lowest form has non-integer coefficients")
            return LaurentPolynomial(n, {m: v // factorial
                                         for m, v in component.items()})
        for idx, (c, lin, power) in enumerate(monomials):
            nxt: dict[tuple[int, ...], int] = {}
            for m1, c1 in power.items():
                for m2, c2 in lin.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            monomials[idx] = (c, lin, nxt)
    return None


def lowest_degree_form(p: LaurentPolynomial, order: int | None = None) -> LaurentPolynomial:
    """Lowest-order homogeneous term of p after t_i -> exp(-u_i), in t-variables.

    ``order`` is the initial truncation degree; on a miss the expansion is
    retried at doubled order (the substitution is injective, so a nonzero
    input always reveals a nonzero component eventually).
    """
    if p.is_zero():
        return p
    d = order if order and order > 0 else 4
    while True:
        comp = _lowest_component(p, d)
        if comp is not None:
            return comp
        if d > 512:
            raise TruncationError(f"no nonzero component up to order {d}")
        d *= 2


def _parse_linear_form(theta: LaurentPolynomial) -> list[tuple[int, int]]:
    """[(variable, coefficient)] for a form c_i t_i + c_j t_j; rejects the rest."""
    entries = []
    for exps, c in theta.terms():
        if sum(1 for e in exps if e) != 1 or sum(exps) != 1:
            raise ValueError(f"not a linear form: {theta.pretty()}")
        i = next(k for k, e in enumerate(exps) if e) + 1
        entries.append((i, c))
    if not entries:
        raise ValueError("zero root")
    return entries


def divisible_by_root_h(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether the linear form theta (a root +-t_i +- t_j or +-2t_i) divides p.

    Checked by exact elimination: p vanishes identically after substituting
    a solution of theta = 0.  Requires p to have nonnegative exponents.
    """
    if p.has_negative_exponent():
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    entries = _parse_linear_form(theta)
    if len(entries) == 1:
        (i, c), = entries
        if abs(c) not in (1, 2):
            raise ValueError(f"unexpected root coefficient {c}")
        return p.substitute_zero(i).is_zero()
    if len(entries) == 2:
        (i, a), (j, b) = entries
        if abs(a) != 1 or abs(b) != 1:
            raise ValueError(f"unexpected root coefficients in {theta.pretty()}")
        # theta = a t_i + b t_j = 0  <=>  t_i = -(b/a) t_j
        return p.substitute_proportional(i, j, -a * b).is_zero()
    raise ValueError(f"not a rank-one root form: {theta.pretty()}")


def divisible_by_k_root(p: LaurentPolynomial, theta: LaurentPolynomial) -> bool:
    """Whether p lies in the ideal (1 - e^{-theta}) of the Laurent ring.

    Equivalent to vanishing on the subtorus e^theta = 1, so the check is an
    exact quotient-ring reduction: t_i = t_j for +-(t_i - t_j), t_i = 1/t_j
    for +-(t_i + t_j), and exponent parity for +-2t_i.
    """
    entries = _parse_linear_form(theta)
    if len(entries) == 1:
        (i, c), = entries
        if abs(c) == 2:
            return p.substitute_square_one(i).is_zero()
        if abs(c) == 1:
            return _subs_one(p, i).is_zero()
        raise ValueError(f"unexpected root coefficient {c}")
    if len(entries) == 2:
        (i, a), (j, b) = entries
        if abs(a) != 1 or abs(b) != 1:
            raise ValueError(f"unexpected root coefficients in {theta.pretty()}")
        if a * b < 0:
            return p.substitute_proportional(i, j, 1).is_zero()
        return p.substitute_inverse(i, j).is_zero()
    raise ValueError(f"not a rank-one root form: {theta.pretty()}")


def _subs_one(p: LaurentPolynomial, i: int) -> LaurentPolynomial:
    """Image under t_i -> 1."""
    terms: dict[tuple[int, ...], int] = {}
    for exps, c in p._terms.items():
        e = list(exps)
        e[i - 1] = 0
        key = tuple(e)
        cur = terms.get(key, 0) + c
        if cur:
            terms[key] = cur
        else:
            terms.pop(key, None)
    out = LaurentPolynomial(p.n)
    out._terms = terms
    return out
