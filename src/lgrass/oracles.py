"""Independent verification of the restriction formulas.

Five suites, each returning a ``SuiteReport``.  The first three share no code
path with the tableau sums:

* oracle: the K-class of the union of the tableau-indexed coordinate
  subspaces as a Stanley-Reisner face sum, by one DP over the coordinates of
  the cut sets and their weights;
* subword: a subword (Billey-type) formula for the cohomology restriction,
  evaluated over reduced words in the hyperoctahedral Weyl group;
* gkm: along every edge of the fixed-point moment graph the difference of
  restrictions must be divisible by the edge root;
* chern: the lowest-order form of each K restriction equals the cohomology
  restriction;
* positivity: every factor of every tableau is e^theta - 1 (K) resp. theta
  (H) for a positive root theta, by ``positivity_certificate``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field

from .chart import coordinate_weight_k
from .indexing import IsotropicIndex, enumerate_isotropic, length, sigma
# the divisible_by_* wrappers are unused here but stay importable:
# bench/tracer.py patches them by name
from .laurent import (LaurentPolynomial, divisible_by_k_root,  # noqa: F401
                      divisible_by_root_h, lowest_degree_form, root_images)
from .restriction import (PositiveRoot, positive_roots, positivity_certificate,
                          restrict, restrict_h, restrict_k)
from .tableaux import enumerate_ssyt


# ---------------------------------------------------------------------------
# signed permutations (hyperoctahedral group, type C_n)
# ---------------------------------------------------------------------------

class SignedPermutation:
    """Window of signed images of 1..n; w(-i) = -w(i) is implicit."""

    __slots__ = ("window",)

    def __init__(self, window) -> None:
        self.window = tuple(int(v) for v in window)
        if sorted(abs(v) for v in self.window) != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a signed permutation window: {window}")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __call__(self, k: int) -> int:
        return self.window[k - 1] if k > 0 else -self.window[-k - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation(self(other(i)) for i in range(1, len(self.window) + 1))

    def apply_form(self, form: LaurentPolynomial) -> LaurentPolynomial:
        """Push a polynomial through t_k -> sign(w(k)) t_|w(k)|."""
        n = form.n

        def image():
            for exps, c in form.terms():
                e = [0] * n
                for k, p in enumerate(exps, start=1):
                    if p:
                        im = self(k)
                        e[abs(im) - 1] += p
                        if im < 0 and p % 2:
                            c = -c
                yield e, c

        return LaurentPolynomial(n, image())

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPermutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"SignedPermutation({self.window})"


def generators(n: int) -> list[SignedPermutation]:
    """s_1..s_{n-1} the adjacent transpositions, s_n the sign change on n."""
    out = []
    for i in range(1, n):
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        out.append(SignedPermutation(w))
    w = list(range(1, n + 1))
    w[-1] = -n
    out.append(SignedPermutation(w))
    return out


def simple_root(i: int, n: int) -> LaurentPolynomial:
    if i < n:
        return LaurentPolynomial.var(n, i) - LaurentPolynomial.var(n, i + 1)
    return 2 * LaurentPolynomial.var(n, n)


def coset_representative(alpha: IsotropicIndex) -> SignedPermutation:
    """The minimal-length representative of the coset indexed by alpha."""
    return SignedPermutation(alpha.signed)


@functools.lru_cache(maxsize=None)
def _weyl_table(n: int) -> dict[tuple[int, ...], int]:
    """Window -> length on the 2^n minimal coset representatives only.

    These are the windows increasing in the order 1 < ... < n < -n < ... < -1,
    one per alpha, of length l(alpha); the rest of the group is never built.
    """
    return {coset_representative(a).window: length(a) for a in enumerate_isotropic(n)}


def reduced_word(w: SignedPermutation) -> list[int]:
    """A reduced word (generator indices) for any w, by peeling right descents.

    n is a descent when w(n) < 0, and i < n when w(i) comes after w(i+1) in
    the order 1 < ... < n < -n < ... < -1, which is integer order on the
    labels k and 2n+1-k of k and -k.
    """
    n = len(w.window)
    labels = [v if v > 0 else 2 * n + 1 + v for v in w.window]
    word = []
    while True:
        if labels[-1] > n:
            labels[-1] = 2 * n + 1 - labels[-1]
            word.append(n)
            continue
        i = next((i for i in range(1, n) if labels[i - 1] > labels[i]), None)
        if i is None:
            return word[::-1]
        labels[i - 1], labels[i] = labels[i], labels[i - 1]
        word.append(i)


def weyl_length(w: SignedPermutation) -> int:
    return len(reduced_word(w))


@functools.lru_cache(maxsize=None)
def _subword_column(beta: IsotropicIndex) -> dict[IsotropicIndex, LaurentPolynomial]:
    """Unsigned subword sums at every fixed point alpha, for one beta.

    One DP over the subwords of a fixed reduced word of the beta
    representative, read right to left: a state is the window of a subword's
    suffix product u, reached only through length-additive left
    multiplications u -> s_i u, and holds the sum of the products of the
    prefix-reflected simple roots at the chosen positions.  Every suffix of a
    reduced word of a minimal coset representative spells one again (a right
    descent of a suffix is one of the whole), so only the 2^n states of
    ``_weyl_table`` are kept.  The DP never looks at alpha, so it runs once
    per beta.  Left multiplication acts on values: s_i swaps i <-> i+1 and
    -i <-> -(i+1), s_n swaps n <-> -n.
    """
    n = beta.n
    lens = _weyl_table(n)
    gens = generators(n)
    wb = coset_representative(beta)
    word = reduced_word(wb)
    prefix = SignedPermutation.identity(n)
    prefix_roots = []
    for gi in word:
        prefix_roots.append(prefix.apply_form(simple_root(gi, n)))
        prefix = prefix * gens[gi - 1]
    if prefix != wb or len(word) != lens[wb.window]:
        raise RuntimeError(f"{word} is not a reduced word for {wb}")

    states = {tuple(range(1, n + 1)): LaurentPolynomial.one(n)}
    for gi, root in zip(reversed(word), reversed(prefix_roots)):
        swap = ({n: -n, -n: n} if gi == n
                else {gi: gi + 1, gi + 1: gi, -gi: -gi - 1, -gi - 1: -gi})
        # left multiplication by s_gi is a bijection: each u2 has one source u
        updates: dict[tuple[int, ...], LaurentPolynomial] = {}
        for u, val in states.items():
            u2 = tuple(swap.get(v, v) for v in u)
            if lens.get(u2) == lens[u] + 1:
                updates[u2] = val * root
        for u2, add in updates.items():
            got = states.get(u2)
            states[u2] = add if got is None else got + add
    alphas = {coset_representative(a).window: a for a in enumerate_isotropic(n)}
    return {alphas[u]: value for u, value in states.items()}


def billey_restrict_h(alpha: IsotropicIndex, beta: IsotropicIndex) -> LaurentPolynomial:
    """Subword-formula value of the cohomology restriction at a fixed point.

    Sums, over reduced subwords of a fixed reduced word of the beta
    representative that multiply to the alpha representative, the products of
    prefix-reflected simple roots; the sum is read from ``_subword_column``,
    which runs the DP once per beta.  The opposite-Borel convention of the
    restriction classes enters as a global (-1)^{l(alpha)}, equivalently as
    negating every root; the dictionary is frozen by the rank-one point
    ({2}, {2}) -> -2 t_1 and validated against the tableau formula elsewhere.
    """
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    value = _subword_column(beta).get(alpha)
    if value is None:
        return LaurentPolynomial.zero(alpha.n)
    return -value if length(alpha) % 2 else value


# ---------------------------------------------------------------------------
# Stanley-Reisner union oracle
# ---------------------------------------------------------------------------

def kclass_union_oracle(alpha: IsotropicIndex, beta: IsotropicIndex,
                        limit=None) -> LaurentPolynomial:
    """K-class of the union of the tableau-cut coordinate subspaces.

    The union is a Stanley-Reisner scheme: its faces are the coordinate sets
    that miss some cut set, and its class is the face sum of
    prod_{c in F} w_c prod_{c not in F} (1 - w_c) (Miller-Sturmfels, Thm
    1.13).  Coordinates in no cut contribute w + (1 - w) = 1, so one DP runs
    over the others in sorted order; a state is the bitmask of cut sets not
    yet hit.  Excluding c multiplies by 1 - w_c, including it multiplies by
    w_c and clears the cuts that contain c, and a state whose mask reaches 0
    is not a face.  Independent of the set-valued sum, but must agree with
    it.  ``limit``, the old component guard that callers may still pass, is
    ignored: the DP has no guard.
    """
    from .chart import tableau_cut_pairs

    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    n = alpha.n
    cuts = [set(tableau_cut_pairs(p, beta))
            for p in enumerate_ssyt(sigma(alpha), sigma(beta))]
    states = {(1 << len(cuts)) - 1: LaurentPolynomial.one(n)} if cuts else {}
    for c in sorted(set().union(*cuts)):
        w = coordinate_weight_k(*c, n)
        hit = sum(1 << i for i, cut in enumerate(cuts) if c in cut)
        moves: dict[int, LaurentPolynomial] = {}
        for mask, value in states.items():
            included = value * w
            for to, add in ((mask, value - included), (mask & ~hit, included)):
                if to:
                    got = moves.get(to)
                    moves[to] = add if got is None else got + add
        states = moves
    return LaurentPolynomial.sum_of(n, states.values())


# ---------------------------------------------------------------------------
# moment graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GkmEdge:
    beta1: IsotropicIndex
    beta2: IsotropicIndex
    root: PositiveRoot


def reflect(beta: IsotropicIndex, root: PositiveRoot) -> IsotropicIndex:
    """Image of a fixed point under the reflection in a root."""
    mapping = root.label_map(beta.n)
    return IsotropicIndex(beta.n, (mapping.get(v, v) for v in beta.values))


@functools.lru_cache(maxsize=None)
def gkm_edges(n: int) -> tuple[GkmEdge, ...]:
    """All (fixed point, fixed point, root) edges of the moment graph, built once per n."""
    seen = {}
    for b in enumerate_isotropic(n):
        for root in positive_roots(n):
            b2 = reflect(b, root)
            if b2 == b:
                continue
            lo, hi = (b, b2) if b < b2 else (b2, b)
            seen[(lo, hi, root)] = GkmEdge(lo, hi, root)
    return tuple(seen[k] for k in sorted(seen, key=lambda k: (k[0].values, k[1].values,
                                                              k[2].kind, k[2].i, k[2].j)))


@functools.lru_cache(maxsize=None)
def _edge_images(n: int, theory: str) -> tuple[tuple[GkmEdge, tuple[tuple, ...]], ...]:
    """Each edge of ``gkm_edges(n)`` with its root's ``root_images``, built once per (n, theory)."""
    images = {root: root_images(root.form_h(n), theory) for root in positive_roots(n)}
    return tuple((edge, images[edge.root]) for edge in gkm_edges(n))


def gkm_check_table(table: dict[IsotropicIndex, LaurentPolynomial], n: int,
                    theory: str) -> SuiteReport:
    """Edge-divisibility check of one row of a restriction table.

    The root of an edge divides p1 - p2 iff p1 and p2 have equal images under
    each of its substitutions (each one is a ring homomorphism), so the
    difference is never built, and equal values pass without substituting.
    The report's ``checks`` counts the edges.
    """
    if theory == "H" and any(p.has_negative_exponent() for p in table.values()):
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    report = SuiteReport("gkm", n)
    for edge, images in _edge_images(n, theory):
        p1, p2 = table[edge.beta1], table[edge.beta2]
        report.checks += 1
        if p1 != p2 and any(p1._substitute(*args) != p2._substitute(*args)
                            for args in images):
            report.failures.append(
                f"edge {edge.beta1}|{edge.beta2} root {edge.root}")
    return report


def gkm_check(alpha: IsotropicIndex, n: int, theory: str,
              corrupt: bool = False) -> SuiteReport:
    """GKM divisibility for the full fixed-point row of one class.

    ``corrupt`` perturbs one table value by +1 as a negative control; the
    resulting report is expected to carry failures.
    """
    table = {b: restrict(alpha, b, theory).value for b in enumerate_isotropic(n)}
    if corrupt:
        victim = max(table)
        table[victim] = table[victim] + 1
    return gkm_check_table(table, n, theory)


# ---------------------------------------------------------------------------
# Chern-character consistency
# ---------------------------------------------------------------------------

def chern_consistency(alpha: IsotropicIndex, beta: IsotropicIndex) -> bool:
    """Lowest-order form of the K restriction equals the cohomology restriction."""
    k_value = restrict_k(alpha, beta).value
    h_value = restrict_h(alpha, beta).value
    return lowest_degree_form(k_value, order=length(alpha)) == h_value


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    n: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "n": self.n, "checks": self.checks,
                "ok": self.ok, "failures": self.failures}


def _pair_suite(suite: str, n: int, *checks) -> SuiteReport:
    """Every one of ``checks`` at every (alpha, beta) pair of rank n, in that order.

    A check ``check(a, b)`` returns None when it passes and the failure's
    message otherwise; each call counts as one check.
    """
    report = SuiteReport(suite, n)
    points = enumerate_isotropic(n)
    for a in points:
        for b in points:
            for check in checks:
                report.checks += 1
                failure = check(a, b)
                if failure is not None:
                    report.failures.append(failure)
    return report


def verify_oracle(n: int) -> SuiteReport:
    def check(a, b):
        if restrict_k(a, b).value != kclass_union_oracle(a, b):
            return f"oracle mismatch at ({a}; {b})"

    return _pair_suite("oracle", n, check)


def verify_gkm(n: int, corrupt: bool = False) -> SuiteReport:
    report = SuiteReport("gkm", n)
    for theory in ("H", "K"):
        for a in enumerate_isotropic(n):
            sub = gkm_check(a, n, theory, corrupt=corrupt)
            report.checks += sub.checks
            report.failures.extend(f"{theory} alpha={a}: {msg}" for msg in sub.failures)
    return report


def verify_chern(n: int) -> SuiteReport:
    def check(a, b):
        if not chern_consistency(a, b):
            return f"chern mismatch at ({a}; {b})"

    return _pair_suite("chern", n, check)


def verify_positivity(n: int) -> SuiteReport:
    checked = defaultdict(dict)  # one (x, z) -> root memo per (beta, theory), for this run

    def certify(theory, a, b):
        try:
            positivity_certificate(a, b, theory, checked[b, theory])
        except Exception as exc:  # CertificateError and anything it masks
            return f"{theory} ({a}; {b}): {exc}"

    return _pair_suite("positivity", n, functools.partial(certify, "K"),
                       functools.partial(certify, "H"))


def verify_subword(n: int) -> SuiteReport:
    def check(a, b):
        if billey_restrict_h(a, b) != restrict_h(a, b).value:
            return f"subword mismatch at ({a}; {b})"

    return _pair_suite("subword", n, check)


SUITES = {
    "oracle": verify_oracle,
    "gkm": verify_gkm,
    "chern": verify_chern,
    "positivity": verify_positivity,
    "subword": verify_subword,
}


def run_verification(n: int, suites=tuple(SUITES), corrupt: bool = False) -> list[SuiteReport]:
    """Run the named suites; ``corrupt`` turns the GKM run into a negative control."""
    if corrupt and "gkm" not in suites:
        raise ValueError(f"corrupt perturbs the gkm suite only, not run in {list(suites)}")
    reports = []
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if name == "gkm":
            reports.append(verify_gkm(n, corrupt=corrupt))
        else:
            reports.append(SUITES[name](n))
    return reports
