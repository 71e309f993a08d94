"""Signed index sets and the staircase bijections onto partitions.

Torus-fixed points and Schubert classes of the Lagrangian Grassmannian LGr_n
are indexed by the set I_n of n-element subsets of {1, ..., 2n} containing
exactly one of k and bar(k) = 2n+1-k for every k.  Each index corresponds to
a symmetric partition (via ``pi``) and to a strict partition (via
``sigma = rho . pi``); the strict partition drives all shifted-tableau
combinatorics downstream.
"""

from __future__ import annotations

import functools
import itertools


def bar(k: int, n: int) -> int:
    """Mirror label 2n+1-k; an involution on {1, ..., 2n}."""
    if not 1 <= k <= 2 * n:
        raise ValueError(f"label {k} out of range 1..{2 * n}")
    return 2 * n + 1 - k


def normalize_partition(parts) -> tuple[int, ...]:
    """Canonical form of a partition: weakly decreasing, trailing zeros dropped."""
    out = tuple(int(p) for p in parts)
    if any(p < 0 for p in out):
        raise ValueError(f"negative part in {out}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"parts not weakly decreasing: {out}")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def transpose(lam) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def is_symmetric(lam) -> bool:
    lam = normalize_partition(lam)
    return transpose(lam) == lam


def is_strict(lam) -> bool:
    lam = normalize_partition(lam)
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


def check_strict(lam) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if len(set(lam)) != len(lam):  # weakly decreasing, so strict iff distinct
        raise ValueError(f"partition {lam} is not strict")
    return lam


class IsotropicIndex:
    """An element of I_n: values increasing, one of k/bar(k) for each k."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        if n < 1:
            raise ValueError("rank must be >= 1")
        vals = tuple(sorted(int(v) for v in values))
        if len(vals) != n or len(set(vals)) != n:
            raise ValueError(f"need {n} distinct values, got {values}")
        if vals[0] < 1 or vals[-1] > 2 * n:
            bad = vals[0] if vals[0] < 1 else vals[-1]
            raise ValueError(f"label {bad} out of range 1..{2 * n} for n={n}")
        for k in range(1, n + 1):
            if (k in vals) == (bar(k, n) in vals):
                raise ValueError(
                    f"{vals} must contain exactly one of {k}, {bar(k, n)}")
        self.n = n
        self.values = vals

    @classmethod
    def from_signed(cls, n: int, signed) -> "IsotropicIndex":
        """Build from signed labels: +k means k, -k means bar(k) (1 <= k <= n)."""
        letters = []
        for v in signed:
            v = int(v)
            if not 1 <= abs(v) <= n:
                raise ValueError(f"signed label {v} out of range for n={n}")
            letters.append(v if v > 0 else bar(-v, n))
        return cls(n, letters)

    @property
    def signed(self) -> tuple[int, ...]:
        return tuple(v if v <= self.n else -bar(v, self.n) for v in self.values)

    def complement(self) -> "IsotropicIndex":
        """The set complement in {1, ..., 2n}, again an element of I_n."""
        rest = set(range(1, 2 * self.n + 1)) - set(self.values)
        return IsotropicIndex(self.n, rest)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IsotropicIndex)
                and self.n == other.n and self.values == other.values)

    def __lt__(self, other) -> bool:
        if not isinstance(other, IsotropicIndex):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot compare indices of different rank")
        return self.values < other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"IsotropicIndex({self.n}, {self.values})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.signed)


def enumerate_isotropic(n: int) -> list[IsotropicIndex]:
    """All 2^n elements of I_n, sorted lexicographically on their value lists."""
    out = []
    for choice in itertools.product((False, True), repeat=n):
        vals = [bar(k, n) if flip else k for k, flip in zip(range(1, n + 1), choice)]
        out.append(IsotropicIndex(n, vals))
    return sorted(out)


def pi(alpha: IsotropicIndex) -> tuple[int, ...]:
    """Partition (a(n)-n, ..., a(1)-1); symmetric with first part <= n."""
    v = alpha.values
    n = alpha.n
    return normalize_partition(v[n - 1 - i] - (n - i) for i in range(n))


def rho(lam) -> tuple[int, ...]:
    """Strict partition (lam_1, lam_2 - 1, ..., lam_l - l + 1), l maximal.

    Drops a resulting trailing zero, so the output has positive parts.  On
    symmetric partitions this deletes the boxes below the main diagonal.
    """
    lam = normalize_partition(lam)
    out = []
    for i, p in enumerate(lam):
        q = p - i
        if q <= 0:  # q falls as i grows, so no positive part follows
            break
        out.append(q)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def sigma(alpha: IsotropicIndex) -> tuple[int, ...]:
    """The bijection I_n -> M_n (strict partitions with first part <= n).

    Memoized: the verification suites ask for it about ten thousand times at
    n=4, and there are only 2^n keys per rank.
    """
    return rho(pi(alpha))


def symmetric_double(mu) -> tuple[int, ...]:
    """The symmetric partition eta with rho(eta) = mu, for strict mu."""
    mu = check_strict(mu)
    h = len(mu)
    eta = [mu[i] + i for i in range(h)]
    i = h + 1
    while True:
        c = sum(1 for j in range(h) if eta[j] >= i)
        if c == 0:
            break
        eta.append(c)
        i += 1
    eta = normalize_partition(eta)
    assert is_symmetric(eta), eta
    return eta


def sigma_inverse(lam, n: int) -> IsotropicIndex:
    """The unique alpha in I_n with sigma(alpha) = lam."""
    lam = check_strict(lam)
    if lam and lam[0] > n:
        raise ValueError(f"first part of {lam} exceeds rank {n}")
    eta = symmetric_double(lam)  # symmetric, so len(eta) == eta[0] == lam[0] <= n
    eta = eta + (0,) * (n - len(eta))
    values = [eta[n - i] + i for i in range(1, n + 1)]
    return IsotropicIndex(n, values)


def length(alpha: IsotropicIndex) -> int:
    """Codimension of the Schubert variety: the size of sigma(alpha)."""
    return sum(sigma(alpha))


def heaviest_first(points: list[IsotropicIndex]) -> list[int]:
    """The indices of points by descending ``length``, ties in list order.

    ``table`` and ``verify`` deal their jobs in this order, so that each deal
    ends on the light ones.
    """
    return sorted(range(len(points)), key=lambda i: -length(points[i]))


def eta_of(beta: IsotropicIndex) -> tuple[int, ...]:
    """pi(beta) computed by counting: eta_j = #{i : beta'(i) < beta(n+1-j)}."""
    n = beta.n
    bp = beta.complement().values
    v = beta.values
    return normalize_partition(
        sum(1 for i in range(n) if bp[i] < v[n - j]) for j in range(1, n + 1))
