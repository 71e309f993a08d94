"""Independent verification of the restriction formulas.

Five suites, each summed up in a ``SuiteReport``.  subword and gkm share no
code path with the tableau sums.  The union oracle sums differently but reads
the same chart coordinates (``entry_cut_pairs``) and weights
(``coordinate_weight_k``) that the restriction DP multiplies, so a fault in
those two is common to both and only subword and gkm can catch it:

* oracle: the K-class of the union of the tableau-indexed coordinate
  subspaces as a Stanley-Reisner face sum, by one DP over the chart
  coordinates whose states hold only the inclusion-minimal live cuts, as
  bitmasks (``kclass_union_oracle``);
* subword: a subword (Billey-type) formula for the cohomology restriction,
  one DP per beta over the subwords of a reduced word of beta's window
  ``beta.signed``, with the hyperoctahedral group acting on plain windows;
* gkm: along every edge of the fixed-point moment graph the difference of
  restrictions must be divisible by the edge root, tested on the
  substitutions of ``PositiveRoot.images``;
* chern: the lowest-order form of each K restriction equals the cohomology
  restriction;
* positivity: every factor of every tableau is e^theta - 1 (K) resp. theta
  (H) for a positive root theta.  A factor depends only on beta, the theory
  and its entry's chart cell (x, z), so each beta column certifies the cells
  of sigma(beta) once per theory by ``certify_cells``, and enumerates no
  tableau; only a theory with a failing cell at a beta is redone there per
  tableau by ``positivity_certificate``, for its exact failure list.

``run_verification`` splits the suites into jobs, one beta column of a pair
suite or one (theory, alpha) row of gkm, and deals them over one process per
usable CPU (``workers.forked_map``).  Its jobs read restriction values from a
store of ``column_values`` that lives for that one call; when gkm runs, every
column is built once by a first ``forked_map`` and the store is filled before
the suite jobs fork.  The public single checks (``chern_consistency``,
``gkm_check``) read pruned ``restrict``.  Nothing here keeps a restriction
value between calls; ``_chart_bits`` keeps chart data per beta.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .chart import coordinate_weight_k, entry_cut_pairs
from .indexing import (IsotropicIndex, bar, enumerate_isotropic, heaviest_first, length,
                       sigma)
from .laurent import LaurentPolynomial, lowest_degree_form
# restrict_k and restrict_h are unused here but stay importable: bench/tracer.py
# patches them by name
from .restriction import (PositiveRoot, certify_cells, check_theory,  # noqa: F401
                          column_values, positive_roots, positivity_certificate, restrict,
                          restrict_h, restrict_k)
# enumerate_ssyt is unused here but stays importable: bench/tracer.py patches it by name
from .tableaux import ShiftedDiagram, enumerate_ssyt, ssyt_fillings  # noqa: F401
from .workers import forked_map


# ---------------------------------------------------------------------------
# signed permutations (hyperoctahedral group, type C_n), as windows
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _weyl_table(n: int) -> dict[tuple[int, ...], int]:
    """Window -> length on the 2^n minimal coset representatives only.

    A window lists the signed images w(1), ..., w(n), and w(-k) = -w(k).  The
    minimal representatives are the windows increasing in the order
    1 < ... < n < -n < ... < -1, one per alpha: ``alpha.signed``, of length
    l(alpha).  The rest of the group is never built.
    """
    return {a.signed: length(a) for a in enumerate_isotropic(n)}


def reduced_word(window: tuple[int, ...]) -> list[int]:
    """A reduced word (generator indices) for any window w, by peeling right descents.

    n is a descent when w(n) < 0, and i < n when w(i) comes after w(i+1) in
    the order 1 < ... < n < -n < ... < -1, which is integer order on the
    labels k and 2n+1-k of k and -k.
    """
    n = len(window)
    labels = [v if v > 0 else bar(-v, n) for v in window]
    word = []
    while True:
        if labels[-1] > n:
            labels[-1] = bar(labels[-1], n)
            word.append(n)
            continue
        i = next((i for i in range(1, n) if labels[i - 1] > labels[i]), None)
        if i is None:
            return word[::-1]
        labels[i - 1], labels[i] = labels[i], labels[i - 1]
        word.append(i)


def weyl_length(window: tuple[int, ...]) -> int:
    return len(reduced_word(window))


def _subword_column(beta: IsotropicIndex) -> dict[IsotropicIndex, LaurentPolynomial]:
    """Subword sums at every fixed point alpha, times (-1)^{l(alpha)}, for one beta.

    One DP over the subwords of a fixed reduced word of the beta
    representative ``beta.signed``, read right to left: a state is the window
    of a subword's suffix product u, reached only through length-additive
    left multiplications u -> s_i u, and holds the sum of the products of the
    negated prefix-reflected simple roots at the chosen positions; a subword
    reaching alpha picks l(alpha) letters, so it carries (-1)^{l(alpha)}
    itself.  Every suffix of a reduced word of a minimal coset representative
    spells one again (a right descent of a suffix is one of the whole), so
    only the 2^n states of ``_weyl_table`` are kept.  The DP never looks at
    alpha, so it runs once per beta.  Right multiplication acts on positions:
    s_i swaps positions i and i+1 and s_n negates position n.  So the prefix
    root w(t_i - t_{i+1}) of letter i is sgn(w_i) t_|w_i| - sgn(w_{i+1})
    t_|w_{i+1}|, and w(2 t_n) = 2 sgn(w_n) t_|w_n|.  Left multiplication acts
    on values: s_i swaps i <-> i+1 and -i <-> -(i+1), s_n swaps n <-> -n.  An
    alpha that no subword reaches gets 0.
    """
    n = beta.n
    lens = _weyl_table(n)
    word = reduced_word(beta.signed)

    def signed_var(v):  # sgn(v) t_|v|
        return LaurentPolynomial.var(n, v) if v > 0 else -LaurentPolynomial.var(n, -v)

    prefix = list(range(1, n + 1))  # the window of the prefix product so far
    prefix_roots = []  # each negated
    for gi in word:
        if gi == n:
            prefix_roots.append(-2 * signed_var(prefix[-1]))
            prefix[-1] = -prefix[-1]
        else:
            prefix_roots.append(signed_var(prefix[gi]) - signed_var(prefix[gi - 1]))
            prefix[gi - 1:gi + 1] = prefix[gi], prefix[gi - 1]
    if tuple(prefix) != beta.signed or len(word) != lens[beta.signed]:
        raise RuntimeError(f"{word} is not a reduced word for {beta.signed}")

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
    zero = LaurentPolynomial.zero(n)
    return {a: states.get(a.signed, zero) for a in enumerate_isotropic(n)}


def billey_restrict_h(alpha: IsotropicIndex, beta: IsotropicIndex) -> LaurentPolynomial:
    """Subword-formula value of the cohomology restriction at a fixed point.

    Sums, over reduced subwords of a fixed reduced word of the beta
    representative that multiply to the alpha representative, the products of
    prefix-reflected simple roots; the sum is read from beta's
    ``_subword_column``.  The opposite-Borel convention of the restriction
    classes enters as negated roots, equivalently as a global (-1)^{l(alpha)}
    on the subword sum; the dictionary is frozen by the rank-one point
    ({2}, {2}) -> -2 t_1 and validated against the tableau formula elsewhere.
    """
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    return _subword_column(beta)[alpha]


# ---------------------------------------------------------------------------
# Stanley-Reisner union oracle
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _chart_bits(beta: IsotropicIndex) -> tuple[dict[tuple[int, int], int], tuple]:
    """(cell (x, z) of sigma(beta) -> the bit of its chart coordinate, each bit's K weight).

    One ``entry_cut_pairs`` call over the cells; distinct cells have distinct
    coordinates, which get bits 1, 2, 4, ... in sorted coordinate order, and
    bit i keeps the ``coordinate_weight_k`` monomial of its coordinate at
    position i.  Chart data, no restriction value, so it is cached per beta.
    """
    cells = list(ShiftedDiagram(sigma(beta)).boxes())
    pairs = entry_cut_pairs(cells, beta)
    order = sorted(pairs)
    bit_of = {pair: 1 << i for i, pair in enumerate(order)}
    return ({cell: bit_of[pair] for cell, pair in zip(cells, pairs)},
            tuple(coordinate_weight_k(a, b, beta.n) for a, b in order))


def _minimal(masks) -> frozenset[int]:
    """The inclusion-minimal masks among masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return frozenset(kept)


def kclass_union_oracle(alpha: IsotropicIndex, beta: IsotropicIndex,
                        limit=None) -> LaurentPolynomial:
    """K-class of the union of the tableau-cut coordinate subspaces.

    The union is a Stanley-Reisner scheme (Miller-Sturmfels, Thm 1.13;
    Knutson-Miller 2004): its faces are the coordinate sets F that miss some
    cut, and its class is the face sum of prod_{c in F} w_c prod_{c not in F}
    (1 - w_c).  A cut is the set of chart coordinates of one single-entry
    tableau's entries, a bitmask over ``_chart_bits(beta)``, and the distinct
    masks are read off ``ssyt_fillings`` with no tableau built.

    One DP decides the coordinates in bit order.  A state is the set of live
    cuts, those F has not hit yet, each cut down to the coordinates not yet
    decided and kept only if inclusion-minimal: if a smaller live cut ends
    unhit so does a larger one, so the larger one is redundant.  Including c
    multiplies by w_c and kills the live cuts holding c; excluding it
    multiplies by 1 - w_c and removes c from them.  A coordinate in no live
    cut contributes w + (1 - w) = 1, so a state goes straight to the lowest
    bit of its cuts.  A state holding an empty cut has a missed cut whatever
    comes next, so its value joins the sum, every other coordinate
    contributing 1; a state with no live cut is no face and is dropped.
    Independent of the set-valued sum, but must agree with it.  ``limit``,
    the old component guard that callers may still pass, is ignored: the DP
    has no guard.
    """
    if alpha.n != beta.n:
        raise ValueError("rank mismatch")
    n = alpha.n
    bit, weights = _chart_bits(beta)

    def cut(filled):
        mask = 0
        for (r, c), (x,) in filled.items():
            mask |= bit[x, x + c - r]
        return mask

    faces: list[LaurentPolynomial] = []
    todo: list[dict] = [{} for _ in weights]  # lowest live bit -> state -> values reaching it

    def reach(state: frozenset[int], value: LaurentPolynomial) -> None:
        if 0 in state:
            faces.append(value)
            return
        union = 0
        for m in state:
            union |= m
        todo[(union & -union).bit_length() - 1].setdefault(state, []).append(value)

    masks = ssyt_fillings(sigma(alpha), sigma(beta), cut)
    if masks:
        reach(_minimal(masks), LaurentPolynomial.one(n))
    for i, group in enumerate(todo):
        low, w = 1 << i, weights[i]
        for state, values in group.items():
            value = LaurentPolynomial.sum_of(n, values)
            included = value * w
            missed = [m for m in state if not m & low]
            shrunk = [m ^ low for m in state if m & low]
            if missed:
                reach(frozenset(missed), included)
            # the shrunk cuts stay minimal, but a missed cut may now contain one
            reach(frozenset(shrunk + [u for u in missed
                                      if not any(d & u == d for d in shrunk)]),
                  value - included)
        group.clear()
    return LaurentPolynomial.sum_of(n, faces)


# ---------------------------------------------------------------------------
# moment graph
# ---------------------------------------------------------------------------

class GkmEdge(namedtuple("GkmEdge", "beta1 beta2 root")):
    """An edge of the moment graph: two fixed points and the root joining them."""

    __slots__ = ()


def reflect(beta: IsotropicIndex, root: PositiveRoot) -> IsotropicIndex:
    """Image of a fixed point under the reflection in a root."""
    mapping = root.label_map(beta.n)
    return IsotropicIndex(beta.n, (mapping.get(v, v) for v in beta.values))


@functools.lru_cache(maxsize=None)
def gkm_edges(n: int) -> tuple[GkmEdge, ...]:
    """All (fixed point, fixed point, root) edges of the moment graph, cached per n.

    Each is built once, from its lower endpoint beta1 < beta2 = ``reflect(beta1, root)``.
    """
    edges = []
    for b in enumerate_isotropic(n):
        for root in positive_roots(n):
            b2 = reflect(b, root)
            if b < b2:
                edges.append(GkmEdge(b, b2, root))
    edges.sort(key=lambda e: (e.beta1.values, e.beta2.values, e.root.kind, e.root.i, e.root.j))
    return tuple(edges)


def _divisible(p: LaurentPolynomial, root: PositiveRoot, theory: str) -> bool:
    """Whether every image of p under ``root.images(theory)`` is zero."""
    root._check_rank(p.n)
    return all(p._substitute(*args).is_zero() for args in root.images(theory))


# the gkm suite compares images instead; bench/tracer.py patches these two by name
def divisible_by_root_h(p: LaurentPolynomial, root: PositiveRoot) -> bool:
    """Whether the root divides p, which must have nonnegative exponents.

    Checked by exact elimination on the images of ``root.images("H")``.
    """
    if p.has_negative_exponent():
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    return _divisible(p, root, "H")


def divisible_by_k_root(p: LaurentPolynomial, root: PositiveRoot) -> bool:
    """Whether p lies in the ideal (1 - e^{-theta}) of the Laurent ring, theta the root.

    Equivalent to vanishing on the subtorus e^theta = 1, checked by exact
    substitution on the images of ``root.images("K")``.
    """
    return _divisible(p, root, "K")


def gkm_check_table(table: dict[IsotropicIndex, LaurentPolynomial], n: int,
                    theory: str) -> SuiteReport:
    """Edge-divisibility check of one row of a restriction table.

    The root of an edge divides p1 - p2 iff p1 and p2 have equal images under
    each substitution of ``PositiveRoot.images`` (each one is a ring
    homomorphism), so the difference is never built, and equal values pass
    without substituting; an edge's images are read from its root only where
    p1 != p2.  The report's ``checks`` counts the edges of ``gkm_edges(n)``.  A
    theory other than "K" or "H" raises ValueError, even on a row of equal values.
    """
    check_theory(theory)
    if theory == "H" and any(p.has_negative_exponent() for p in table.values()):
        raise ValueError("cohomology divisibility needs nonnegative exponents")
    edges = gkm_edges(n)
    failures = []
    for edge in edges:
        p1, p2 = table[edge.beta1], table[edge.beta2]
        if p1 != p2 and any(p1._substitute(*args) != p2._substitute(*args)
                            for args in edge.root.images(theory)):
            failures.append(f"edge {edge.beta1}|{edge.beta2} root {edge.root}")
    return SuiteReport("gkm", n, len(edges), failures)


def gkm_check(alpha: IsotropicIndex, n: int, theory: str,
              corrupt: bool = False) -> SuiteReport:
    """GKM divisibility for the full fixed-point row of one class, by pruned ``restrict``.

    ``corrupt`` perturbs one table value by +1 as a negative control; the
    resulting report is expected to carry failures.
    """
    table = {b: restrict(alpha, b, theory).value for b in enumerate_isotropic(n)}
    return _gkm_row(table, n, theory, corrupt)


def _gkm_row(table: dict[IsotropicIndex, LaurentPolynomial], n: int, theory: str,
             corrupt: bool) -> SuiteReport:
    """``gkm_check_table`` of one row, with its largest point's value plus 1 if corrupt."""
    if corrupt:
        victim = max(table)
        table[victim] = table[victim] + 1
    return gkm_check_table(table, n, theory)


# ---------------------------------------------------------------------------
# Chern-character consistency
# ---------------------------------------------------------------------------

def chern_consistency(alpha: IsotropicIndex, beta: IsotropicIndex) -> bool:
    """Lowest-order form of the K restriction equals the cohomology restriction.

    Two pruned ``restrict`` walks, one per theory.
    """
    k_value = restrict(alpha, beta, "K").value
    h_value = restrict(alpha, beta, "H").value
    return lowest_degree_form(k_value, order=length(alpha)) == h_value


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

class SuiteReport(namedtuple("SuiteReport", "suite n checks failures")):
    """The outcome of one suite at rank n: its check count and failure messages."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "n": self.n, "checks": self.checks,
                "ok": self.ok, "failures": self.failures}


class Share(namedtuple("Share", "checks failures")):
    """One job's part of a suite: its check count and its tagged failures.

    A pair-suite failure is (alpha index, beta index, check index, message)
    and a gkm failure (theory index, alpha index, message), so sorting a
    suite's failures by their tags puts them in single-process order.
    """

    __slots__ = ()


def _pair_column(points: list[IsotropicIndex], j: int, *checks) -> Share:
    """Every one of ``checks`` at (alpha, points[j]) for every alpha in points, in that order.

    A check ``check(a, b)`` returns None when it passes and the failure's
    message otherwise; each call counts as one check.
    """
    b = points[j]
    failures = []
    for i, a in enumerate(points):
        for c, check in enumerate(checks):
            failure = check(a, b)
            if failure is not None:
                failures.append((i, j, c, failure))
    return Share(len(points) * len(checks), failures)


def _oracle_job(points: list[IsotropicIndex], j: int, column) -> Share:
    k_values = column(points[j], "K")

    def check(a, b):
        if k_values[a] != kclass_union_oracle(a, b):
            return f"oracle mismatch at ({a}; {b})"

    return _pair_column(points, j, check)


def _chern_job(points: list[IsotropicIndex], j: int, column) -> Share:
    k_values, h_values = column(points[j], "K"), column(points[j], "H")

    def check(a, b):
        if lowest_degree_form(k_values[a], order=length(a)) != h_values[a]:
            return f"chern mismatch at ({a}; {b})"

    return _pair_column(points, j, check)


def _positivity_job(points: list[IsotropicIndex], j: int, column) -> Share:
    """Beta column j of positivity: every pair (alpha, beta), K then H, by its chart cells.

    A factor depends only on beta, the theory and its entry's (x, z), and the
    (x, z) of the entries of all tableaux of all pairs at beta are exactly
    the cells of ``ShiftedDiagram(sigma(beta))``.  Each entry's (x, z) is a
    cell, since the enumeration caps keep it there and ``entry_cut_pairs``
    raises otherwise.  Conversely, the tableau of shape sigma(beta) on
    sigma(beta) whose row r holds r in every box is semistandard, in both
    theories, and its entry in box (x, z) is x, at the cell (x, z); so it uses
    every cell.  Hence every pair passes a theory iff every cell passes in it,
    and a theory whose cells pass has its check pass on every pair without
    enumerating a tableau.  A theory with a failing cell is redone at this
    beta alone by ``positivity_certificate`` on every pair, one (x, z) memo,
    so its failure list is the per-tableau one; only that theory re-enumerates
    beta's tableaux, and the other keeps its check slot with a check that passes.
    """
    checks = []
    for theory in ("K", "H"):
        try:
            certify_cells(points[j], theory)
        except Exception:  # CertificateError and anything it masks: redo it per tableau
            checks.append(functools.partial(_certify_pair, theory, {}))
        else:
            checks.append(_passes)
    if all(check is _passes for check in checks):
        return Share(len(checks) * len(points), [])
    return _pair_column(points, j, *checks)


def _passes(a: IsotropicIndex, b: IsotropicIndex) -> None:
    """A pair check that always passes."""


def _certify_pair(theory: str, checked: dict, a: IsotropicIndex, b: IsotropicIndex):
    """None if ``positivity_certificate`` certifies (a, b), else its failure message."""
    try:
        positivity_certificate(a, b, theory, checked)
    except Exception as exc:  # CertificateError and anything it masks
        return f"{theory} ({a}; {b}): {exc}"


def _subword_job(points: list[IsotropicIndex], j: int, column) -> Share:
    subword, h_values = _subword_column(points[j]), column(points[j], "H")

    def check(a, b):
        if subword[a] != h_values[a]:
            return f"subword mismatch at ({a}; {b})"

    return _pair_column(points, j, check)


def _gkm_job(points: list[IsotropicIndex], k: int, column, corrupt: bool = False) -> Share:
    """Row k of gkm: theory H for k < 2^n, else K, alpha = points[k mod 2^n], from every column."""
    t, i = divmod(k, len(points))
    theory = "HK"[t]
    alpha = points[i]
    report = _gkm_row({b: column(b, theory)[alpha] for b in points}, alpha.n, theory, corrupt)
    return Share(report.checks, [(t, i, f"{theory} alpha={alpha}: {msg}")
                                 for msg in report.failures])


# suite name -> one job of it, job(enumerate_isotropic(n), k, column) -> Share:
# beta column k of a pair suite, or row k of gkm (which also takes
# ``corrupt``).  column(beta, theory) maps every alpha to its restriction value
# at beta; it is run_verification's store, and a job reads only from it.
# run_verification looks each job up here as it runs it, so bench/tracer.py's
# wrappers of these entries time and count process 0's jobs.
SUITES = {
    "oracle": _oracle_job,
    "gkm": _gkm_job,
    "chern": _chern_job,
    "positivity": _positivity_job,
    "subword": _subword_job,
}

def run_verification(n: int, suites=tuple(SUITES), corrupt: bool = False) -> list[SuiteReport]:
    """One report per named suite, in order; ``corrupt`` turns gkm into a negative control.

    The jobs of every named suite, beta columns of the pair suites and
    (theory, alpha) rows of gkm, go into one list suite by suite, in the
    order named, and each suite's heaviest first by ``heaviest_first``, as
    ``table`` deals its columns: a pair suite's columns by |sigma(beta)|,
    gkm's K rows, then its H rows, each by |sigma(alpha)|.  One ``forked_map``
    deals the list over one process per usable CPU.  The jobs read
    restriction values from one store that this call owns, filled through
    ``column_values`` once per (beta, theory) it holds, and it goes when the
    call returns.  A gkm row reads every column, so when gkm runs, a first
    ``forked_map`` deals every column build, K then H, and fills the store
    from the replies before the suite jobs fork, so every process reads
    columns built once per run.  Without gkm each process fills the store
    lazily, with only the columns of its own jobs.  Each report is then
    rebuilt in single-process order: alpha, beta, check for the pair suites,
    theory then alpha for gkm.
    """
    if corrupt and "gkm" not in suites:
        raise ValueError(f"corrupt perturbs the gkm suite only, not run in {list(suites)}")
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    points = enumerate_isotropic(n)
    order = heaviest_first(points)
    jobs = [(p, name, t * len(points) + i) for p, name in enumerate(suites)
            for t in ((1, 0) if name == "gkm" else (0,)) for i in order]

    store: dict[tuple[IsotropicIndex, str], dict[IsotropicIndex, LaurentPolynomial]] = {}
    if "gkm" in suites:
        builds = [(points[i], theory) for theory in "KH" for i in order]

        def build(key):
            return [value._to_marshal() for value in column_values(*key, points)]

        for key, values in zip(builds, forked_map(build, builds)):
            store[key] = dict(zip(points, map(LaurentPolynomial._from_marshal, values)))

    def column(beta, theory):
        values = store.get((beta, theory))
        if values is None:
            values = store[beta, theory] = dict(zip(points, column_values(beta, theory, points)))
        return values

    def run(job):
        _, name, k = job
        share = (SUITES[name](points, k, column, corrupt) if name == "gkm"
                 else SUITES[name](points, k, column))
        return share.checks, share.failures

    counts = [0] * len(suites)
    tagged = [[] for _ in suites]
    for (p, _, _), (checks, failures) in zip(jobs, forked_map(run, jobs)):
        counts[p] += checks
        tagged[p].extend(failures)
    # stable: the failures of one gkm row share a tag and keep their order
    return [SuiteReport(name, n, checks, [f[-1] for f in sorted(failures, key=lambda f: f[:-1])])
            for name, checks, failures in zip(suites, counts, tagged)]


# unused here but stays importable: bench/tracer.py patches it by name
def verify_gkm(n: int, corrupt: bool = False) -> SuiteReport:
    return run_verification(n, ("gkm",), corrupt)[0]
