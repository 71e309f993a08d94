"""Independent verification of the restriction formulas.

Three cross-checks that share no code path with the tableau sums:

* an inclusion-exclusion oracle computing the K-class of the union of the
  tableau-indexed coordinate subspaces directly from cut sets and weights;
* a subword (Billey-type) formula for the cohomology restriction, evaluated
  over reduced words in the hyperoctahedral Weyl group;
* moment-graph divisibility: along every edge of the fixed-point graph the
  difference of restrictions must be divisible by the edge root.

Plus the Chern-character consistency between the two theories.
"""

from __future__ import annotations

import functools
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
# inclusion-exclusion arrangement oracle
# ---------------------------------------------------------------------------

class ComponentLimitExceeded(RuntimeError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} components exceed the 2^m guard of {limit}")
        self.count = count
        self.limit = limit


def kclass_union_oracle(alpha: IsotropicIndex, beta: IsotropicIndex,
                        limit: int = 20, classes: dict | None = None) -> LaurentPolynomial:
    """K-class of the union of the tableau-cut coordinate subspaces.

    Exact inclusion-exclusion over the single-entry tableau components: each
    union of cut sets contributes the product of (1 - weight) over its
    coordinates.  Independent of the set-valued sum, but must agree with it.
    Subtrees where a remaining cut set is already contained in the running
    union cancel pairwise and are pruned.  ``classes`` maps a cut set to its
    class at this rank; a caller running many pairs of one rank passes one
    dict to all of them, and without it every call starts afresh.
    """
    from .chart import tableau_cut_pairs

    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    n = alpha.n
    components = [frozenset(tableau_cut_pairs(p, beta))
                  for p in enumerate_ssyt(sigma(alpha), sigma(beta))]
    if len(components) > limit:
        raise ComponentLimitExceeded(len(components), limit)
    components.sort(key=sorted)

    one = LaurentPolynomial.one(n)
    if classes is None:
        classes = {}

    def subspace_class(cut: frozenset) -> LaurentPolynomial:
        got = classes.get(cut)
        if got is None:
            got = one
            for a, b in sorted(cut):
                got = got * (one - coordinate_weight_k(a, b, n))
            classes[cut] = got
        return got

    memo: dict[tuple[int, frozenset], LaurentPolynomial] = {}

    def signed_sum(idx: int, union: frozenset) -> LaurentPolynomial:
        # sum over subsets T of components[idx:] of (-1)^{|T|} class(union of cuts)
        if idx == len(components):
            return subspace_class(union)
        key = (idx, union)
        got = memo.get(key)
        if got is None:
            if components[idx] <= union:
                got = LaurentPolynomial.zero(n)
            else:
                got = (signed_sum(idx + 1, union)
                       - signed_sum(idx + 1, union | components[idx]))
            memo[key] = got
        return got

    value = one - signed_sum(0, frozenset())
    # signed_sum's closure refers to itself, a cycle that only the garbage
    # collector frees; emptying the memo frees its polynomials now
    memo.clear()
    return value


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


@dataclass
class GkmReport:
    theory: str
    n: int
    edges_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@functools.lru_cache(maxsize=None)
def _edge_images(n: int, theory: str) -> tuple[tuple[GkmEdge, tuple[tuple, ...]], ...]:
    """Each edge of ``gkm_edges(n)`` with its root's ``root_images``, built once per (n, theory)."""
    images = {root: root_images(root.form_h(n), theory) for root in positive_roots(n)}
    return tuple((edge, images[edge.root]) for edge in gkm_edges(n))


def gkm_check_table(table: dict[IsotropicIndex, LaurentPolynomial], n: int,
                    theory: str) -> GkmReport:
    """Edge-divisibility check of one row of a restriction table.

    The root of an edge divides p1 - p2 iff p1 and p2 have equal images under
    each of its substitutions (each one is a ring homomorphism), so the
    difference is never built, and equal values pass without substituting.
    """
    if theory == "H" and any(p.has_negative_exponent() for p in table.values()):
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    report = GkmReport(theory, n)
    for edge, images in _edge_images(n, theory):
        p1, p2 = table[edge.beta1], table[edge.beta2]
        report.edges_checked += 1
        if p1 != p2 and any(p1._substitute(*args) != p2._substitute(*args)
                            for args in images):
            report.failures.append(
                f"edge {edge.beta1}|{edge.beta2} root {edge.root}")
    return report


def gkm_check(alpha: IsotropicIndex, n: int, theory: str,
              corrupt: bool = False) -> GkmReport:
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


def verify_oracle(n: int) -> SuiteReport:
    report = SuiteReport("oracle", n)
    points = enumerate_isotropic(n)
    for a in points:
        # cut set -> class, shared by one row: at n=4 the rows compute 402
        # classes against 382 for one dict per run, and hold 1/2^n as many
        classes: dict[frozenset, LaurentPolynomial] = {}
        for b in points:
            report.checks += 1
            if restrict_k(a, b).value != kclass_union_oracle(a, b, classes=classes):
                report.failures.append(f"oracle mismatch at ({a}; {b})")
    return report


def verify_gkm(n: int, corrupt: bool = False) -> SuiteReport:
    report = SuiteReport("gkm", n)
    for theory in ("H", "K"):
        for a in enumerate_isotropic(n):
            sub = gkm_check(a, n, theory, corrupt=corrupt)
            report.checks += sub.edges_checked
            report.failures.extend(f"{theory} alpha={a}: {msg}" for msg in sub.failures)
    return report


def verify_chern(n: int) -> SuiteReport:
    report = SuiteReport("chern", n)
    points = enumerate_isotropic(n)
    for a in points:
        for b in points:
            report.checks += 1
            if not chern_consistency(a, b):
                report.failures.append(f"chern mismatch at ({a}; {b})")
    return report


def verify_positivity(n: int) -> SuiteReport:
    report = SuiteReport("positivity", n)
    points = enumerate_isotropic(n)
    # one (x, z) -> root memo per (beta, theory), for this run
    checked = {(b, theory): {} for b in points for theory in ("K", "H")}
    for a in points:
        for b in points:
            for theory in ("K", "H"):
                report.checks += 1
                try:
                    positivity_certificate(a, b, theory, checked[b, theory])
                except Exception as exc:  # CertificateError and anything it masks
                    report.failures.append(f"{theory} ({a}; {b}): {exc}")
    return report


def verify_subword(n: int) -> SuiteReport:
    report = SuiteReport("subword", n)
    points = enumerate_isotropic(n)
    for a in points:
        for b in points:
            report.checks += 1
            if billey_restrict_h(a, b) != restrict_h(a, b).value:
                report.failures.append(f"subword mismatch at ({a}; {b})")
    return report


SUITES = {
    "oracle": verify_oracle,
    "gkm": verify_gkm,
    "chern": verify_chern,
    "positivity": verify_positivity,
    "subword": verify_subword,
}


def run_verification(n: int, suites=("oracle", "gkm", "chern", "positivity", "subword"),
                     corrupt: bool = False) -> list[SuiteReport]:
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
