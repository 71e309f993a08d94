"""Independent brute-force reference implementations used as test oracles.

Nothing here shares code with the library's enumeration or verification
paths: tableaux are generated by filtering the full assignment space with
the definitions, partitions are handled with plain tuples, and the
lowest-degree form is taken from the exp series rather than from (1 - x).
``x_expansion_lowest_form`` is the reference for the library's per-variable
choice between t = 1 - x and 1/t = 1 + y: it expands every variable as
t = 1 - x, on exponent tuples.
The subword DP has its reference here too: ``bfs_weyl_lengths`` builds the
whole signed-permutation group by BFS, and ``per_pair_billey`` runs the DP on
full group elements by right multiplication, separately for each
(alpha, beta).  Both compose windows with ``window_product`` here and act on
linear forms by substituting t_k -> w(t_k); of the library they use only the
reduced word, not its coset-representative lengths, its prefix roots or its
right-to-left DP on the 2^n minimal coset representatives.
``inclusion_exclusion_union_class`` is the reference for the union oracle: it
takes the same tableaux and cut sets as ``kclass_union_oracle`` but sums the
union's K-class by inclusion-exclusion over subsets of components instead of
the Stanley-Reisner face-sum DP.
"""

import functools
import gc
import itertools
from math import comb

from lgrass import (LaurentPolynomial, SetValuedShiftedTableau, coordinate_weight_k,
                    enumerate_ssyt, length, sigma)
from lgrass.chart import tableau_cut_pairs
from lgrass.oracles import reduced_word


def brute_force_tableaux(lam, mu, set_valued=True):
    """All semistandard (set-valued) shifted tableaux of shape lam on mu.

    Generates every assignment of nonempty subsets of {1..len(mu)} to the
    boxes and filters by the semistandard and on-mu definitions directly.
    """
    h = len(mu)
    boxes = [(r, c) for r, part in enumerate(lam, start=1)
             for c in range(r, r + part)]
    if h == 0:
        return [] if boxes else [SetValuedShiftedTableau(())]
    pool = []
    for size in range(1, h + 1):
        pool.extend(itertools.combinations(range(1, h + 1), size))
    found = []
    for assignment in itertools.product(pool, repeat=len(boxes)):
        content = dict(zip(boxes, assignment))
        if not _semistandard(content) or not _on_mu(content, mu):
            continue
        if not set_valued and any(len(v) > 1 for v in assignment):
            continue
        rows = [tuple(content[(r, c)] for c in range(r, r + part))
                for r, part in enumerate(lam, start=1)]
        found.append(SetValuedShiftedTableau(rows))
    return sorted(found, key=lambda t: t.rows)


def _semistandard(content):
    for (r, c), box in content.items():
        right = content.get((r, c + 1))
        if right is not None and max(box) > min(right):
            return False
        below = content.get((r + 1, c))
        if below is not None and max(box) >= min(below):
            return False
    return True


def _on_mu(content, mu):
    for (r, c), box in content.items():
        for x in box:
            if x > len(mu) or x + c - r > mu[x - 1] + x - 1:
                return False
    return True


def isotropic_subsets(n):
    """I_n by filtering all n-subsets of {1..2n} with the defining rule."""
    out = []
    for values in itertools.combinations(range(1, 2 * n + 1), n):
        if all((k in values) != (2 * n + 1 - k in values)
               for k in range(1, 2 * n + 1)):
            out.append(values)
    return sorted(out)


def _exp_series_component(p, order):
    """Lowest nonzero homogeneous part of p under t_i -> exp(-u_i) up to order, or None.

    A monomial t^e maps to exp(L) with L = -sum e_i u_i, so the degree-d part
    of the image is (1/d!) sum_m c_m L_m^d.  The powers are raised degree by
    degree with integer coefficients; d! is divided out only when the first
    nonzero degree is found.
    """
    n = p.n
    zero = (0,) * n
    monomials = []
    for exps, c in p.terms():
        lin = {tuple(int(j == i) for j in range(n)): -e
               for i, e in enumerate(exps) if e}
        monomials.append((c, lin, {zero: 1}))
    factorial = 1
    for d in range(order + 1):
        if d:
            factorial *= d
        component = {}
        for c, _, power in monomials:
            for m, v in power.items():
                component[m] = component.get(m, 0) + c * v
        component = {m: v for m, v in component.items() if v}
        if component:
            assert all(v % factorial == 0 for v in component.values())
            return LaurentPolynomial(n, {m: v // factorial for m, v in component.items()})
        for idx, (c, lin, power) in enumerate(monomials):
            nxt = {}
            for m1, c1 in power.items():
                for m2, c2 in lin.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            monomials[idx] = (c, lin, nxt)
    return None


def exp_series_lowest_form(p, order=None):
    """Reference lowest-degree form by the exp series, doubling the order on a miss."""
    if p.is_zero():
        return p
    d = order if order and order > 0 else 4
    while True:
        comp = _exp_series_component(p, d)
        if comp is not None:
            return comp
        if d > 512:
            raise RuntimeError(f"no nonzero component up to order {d}")
        d *= 2


def _x_lowest_part(p, order):
    """Lowest nonzero homogeneous part of p(1 - x) up to x-degree order, or None."""
    n = p.n
    terms = {(0, e): c for e, c in p.terms()}  # (x-degree, exponents) -> coefficient
    for i in range(n):
        acc = {}
        for (d, e), c in terms.items():
            k_max = order - d if e[i] < 0 else min(e[i], order - d)
            for k in range(k_max + 1):
                # the coefficient of x^k in (1 - x)^e, also for e < 0
                b = (-1) ** k * comb(e[i], k) if e[i] >= 0 else comb(k - e[i] - 1, k)
                key = (d + k, e[:i] + (k,) + e[i + 1:])
                acc[key] = acc.get(key, 0) + c * b
        terms = {key: c for key, c in acc.items() if c}
    if not terms:
        return None
    low = min(d for d, _ in terms)
    return LaurentPolynomial(n, {e: c for (d, e), c in terms.items() if d == low})


def x_expansion_lowest_form(p, order=None):
    """Reference lowest-degree form: t_i = 1 - x_i for every variable.

    Tries ``order`` first and otherwise the total degree of t^m p, where the
    monomial t^m clears the negative exponents, as ``lowest_degree_form`` does.
    """
    if p.is_zero():
        return p
    if order is not None:
        low = _x_lowest_part(p, max(order, 0))
        if low is not None:
            return low
    exps = [e for e, _ in p.terms()]
    shift = sum(min(0, *col) for col in zip(*exps))
    return _x_lowest_part(p, max(map(sum, exps)) - shift)


def window_product(u, v):
    """The window of the signed permutation u v: (u v)(k) = u(v(k)), u(-k) = -u(k)."""
    return tuple(u[k - 1] if k > 0 else -u[-k - 1] for k in v)


def window_generators(n):
    """The windows of s_1..s_{n-1}, the adjacent transpositions, and s_n = (1, ..., n-1, -n)."""
    ident = tuple(range(1, n + 1))
    return [ident[:i - 1] + (i + 1, i) + ident[i + 1:] for i in range(1, n)] + [
        ident[:-1] + (-n,)]


def _image(w, form):
    """The linear form {k: c} (sum of c t_k) under t_k -> w(t_k) = sgn(w(k)) t_|w(k)|."""
    n = len(w)
    return sum((c * (1 if w[k - 1] > 0 else -1) * LaurentPolynomial.var(n, abs(w[k - 1]))
                for k, c in form.items()), LaurentPolynomial.zero(n))


@functools.lru_cache(maxsize=None)
def bfs_weyl_lengths(n):
    """Window -> length for all 2^n n! signed permutations, by BFS over s_1..s_n."""
    gens = window_generators(n)
    frontier = [tuple(range(1, n + 1))]
    table = {frontier[0]: 0}
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = window_product(w, g)
                if w2 not in table:
                    table[w2] = table[w] + 1
                    nxt.append(w2)
        frontier = nxt
    return table


def per_pair_billey(alpha, beta):
    """Subword-formula cohomology restriction by one DP for this (alpha, beta).

    Builds a window product per DP step and reads the state at the alpha
    representative; signed by (-1)^{l(alpha)} like ``billey_restrict_h``.
    """
    n = alpha.n
    table = bfs_weyl_lengths(n)
    gens = window_generators(n)
    word = reduced_word(beta.signed)
    prefix = tuple(range(1, n + 1))
    prefix_roots = []
    for gi in word:  # the simple root t_i - t_{i+1}, or 2 t_n
        prefix_roots.append(_image(prefix, {gi: 1, gi + 1: -1} if gi < n else {n: 2}))
        prefix = window_product(prefix, gens[gi - 1])
    assert prefix == beta.signed

    states = {tuple(range(1, n + 1)): LaurentPolynomial.one(n)}
    for gi, root in zip(word, prefix_roots):
        updates = {}
        for u, val in states.items():
            u2 = window_product(u, gens[gi - 1])
            if table[u2] == table[u] + 1:
                add = val * root
                updates[u2] = updates.get(u2, LaurentPolynomial.zero(n)) + add
        for u2, add in updates.items():
            states[u2] = states.get(u2, LaurentPolynomial.zero(n)) + add
    value = states.get(alpha.signed, LaurentPolynomial.zero(n))
    return -value if length(alpha) % 2 else value


def inclusion_exclusion_union_class(alpha, beta):
    """K-class of the union of the tableau-cut coordinate subspaces, by inclusion-exclusion.

    Sums (-1)^{|T|+1} prod (1 - weight) over the coordinates of the union of
    the cut sets of T, over the nonempty subsets T of the m components.  A
    subtree whose next cut set already lies in the running union cancels
    pairwise and is pruned; the work still grows with 2^m, and m <= 20 for
    every pair at n <= 4.
    """
    n = alpha.n
    components = sorted((frozenset(tableau_cut_pairs(p, beta))
                         for p in enumerate_ssyt(sigma(alpha), sigma(beta))), key=sorted)
    one = LaurentPolynomial.one(n)

    @functools.lru_cache(maxsize=None)
    def signed_sum(idx, union):
        # sum over subsets T of components[idx:] of (-1)^{|T|} class(union of cuts)
        if idx == len(components):
            value = one
            for a, b in sorted(union):
                value = value * (one - coordinate_weight_k(a, b, n))
            return value
        if components[idx] <= union:
            return LaurentPolynomial.zero(n)
        return signed_sum(idx + 1, union) - signed_sum(idx + 1, union | components[idx])

    return one - signed_sum(0, frozenset())


def live_polynomials():
    """(count, terms) of the LaurentPolynomial objects alive, after a full collection."""
    gc.collect()
    alive = [p for p in gc.get_objects() if isinstance(p, LaurentPolynomial)]
    return len(alive), sum(len(p.terms()) for p in alive)
