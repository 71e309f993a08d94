"""Equivalent combinatorial models: tableaux, diagram subsets, path families.

A single-entry shifted tableau P of shape lam on mu corresponds to the subset
D = {(x, z(x))} of the shifted diagram of mu; the complement of D decomposes
into nonintersecting up/right lattice paths, giving the path-family model.
Symmetric (doubled) variants on full Young diagrams fold back onto the
shifted objects by deleting everything below the main diagonal.
"""

from __future__ import annotations

from .indexing import check_strict, is_symmetric, normalize_partition, rho, symmetric_double
from .tableaux import (SetValuedShiftedTableau, ShiftedDiagram, enumerate_ssyt,
                       is_on, is_semistandard)


class DiagramSubset:
    """A subset of the boxes (row, absolute column) of a shifted diagram."""

    __slots__ = ("mu", "members")

    def __init__(self, mu, members) -> None:
        self.mu = check_strict(mu)
        diagram = ShiftedDiagram(self.mu)
        members = tuple(sorted(set(map(tuple, members))))
        for box in members:
            if box not in diagram:
                raise ValueError(f"box {box} outside the diagram of {self.mu}")
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagramSubset)
                and self.mu == other.mu and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.mu, self.members))

    def __repr__(self) -> str:
        return f"DiagramSubset(mu={self.mu}, members={self.members})"


class PathFamily:
    """Disjoint up/right paths covering the complement of a diagram subset."""

    __slots__ = ("mu", "paths")

    def __init__(self, mu, paths) -> None:
        self.mu = check_strict(mu)
        diagram = ShiftedDiagram(self.mu)
        self.paths = tuple(tuple(map(tuple, p)) for p in paths)
        seen = set()
        for path in self.paths:
            for box in path:
                if box not in diagram:
                    raise ValueError(f"box {box} outside the diagram of {self.mu}")
                if box in seen:
                    raise ValueError(f"paths intersect at {box}")
                seen.add(box)
            for (r1, c1), (r2, c2) in zip(path, path[1:]):
                if (r2, c2) not in ((r1 - 1, c1), (r1, c1 + 1)):
                    raise ValueError(f"not an up/right step: {(r1, c1)} -> {(r2, c2)}")

    @property
    def support(self) -> frozenset:
        return frozenset(box for path in self.paths for box in path)

    def __len__(self) -> int:
        return len(self.paths)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PathFamily)
                and self.mu == other.mu and self.paths == other.paths)

    def __hash__(self) -> int:
        return hash((self.mu, self.paths))

    def __repr__(self) -> str:
        return f"PathFamily(mu={self.mu}, paths={self.paths})"


def tableau_to_subset(p: SetValuedShiftedTableau, mu) -> DiagramSubset:
    """The image subset {(x, z(x))} of a single-entry tableau on mu."""
    mu = check_strict(mu)
    if not p.is_young:
        raise ValueError("subset model needs single-entry tableaux")
    diagram = ShiftedDiagram(mu)
    boxes = []
    for e in p.entries():
        if (e.x, e.z) not in diagram:
            raise ValueError(f"entry {e} maps outside the diagram of {mu}")
        boxes.append((e.x, e.z))
    if len(set(boxes)) != len(boxes):
        raise ValueError("entry images collide; tableau is not semistandard")
    return DiagramSubset(mu, boxes)


def subset_to_tableau(d: DiagramSubset, lam) -> SetValuedShiftedTableau:
    """The unique single-entry tableau of shape lam mapping onto d.

    Boxes of d on diagonal z - x = delta are the values of the tableau boxes
    on the same diagonal, read top to bottom; any count mismatch means d is
    not in the image of the tableau model.
    """
    lam = check_strict(lam)
    by_diagonal: dict[int, list[int]] = {}
    for x, z in d.members:
        by_diagonal.setdefault(z - x, []).append(x)
    grid = {}
    for delta in range(0, lam[0] if lam else 0):
        rows = [r for r, part in enumerate(lam, start=1) if part > delta]
        values = sorted(by_diagonal.pop(delta, []))
        if len(values) != len(rows):
            raise ValueError(
                f"diagonal {delta} carries {len(values)} boxes, shape needs {len(rows)}")
        for r, v in zip(rows, values):
            grid[(r, r + delta)] = (v,)
    if by_diagonal:
        raise ValueError(f"boxes on unexpected diagonals: {sorted(by_diagonal)}")
    p = SetValuedShiftedTableau.of_boxes(lam, grid)
    if not is_semistandard(p) or not is_on(p, d.mu) or tableau_to_subset(p, d.mu) != d:
        raise ValueError(f"{d} is not in the image of the tableau model")
    return p


def subset_to_family(d: DiagramSubset) -> PathFamily:
    """Decompose the complement of d into disjoint up/right paths.

    Paths start at the unused box minimizing (diagonal, row) and extend
    greedily, stepping up when possible and right otherwise.  On subsets
    coming from tableaux this reproduces the usual nonintersecting families:
    one path per diagonal-start, ending at a row end.
    """
    unused = set(ShiftedDiagram(d.mu).boxes()) - set(d.members)
    paths = []
    while unused:
        cur = min(unused, key=lambda box: (box[1] - box[0], box[0]))
        path = [cur]
        unused.discard(cur)
        while True:
            r, c = path[-1]
            if (r - 1, c) in unused:
                nxt = (r - 1, c)
            elif (r, c + 1) in unused:
                nxt = (r, c + 1)
            else:
                break
            path.append(nxt)
            unused.discard(nxt)
        paths.append(tuple(path))
    return PathFamily(d.mu, paths)


def family_to_subset(f: PathFamily) -> DiagramSubset:
    """The complementary subset of a path family."""
    return DiagramSubset(f.mu, set(ShiftedDiagram(f.mu).boxes()) - f.support)


MODEL_NAMES = ("tableaux", "subsets", "families")


def enumerate_model(lam, mu, which: str) -> list:
    """One of the three model lists, all in the same canonical bijection order."""
    if which not in MODEL_NAMES:
        raise ValueError(f"model must be one of {MODEL_NAMES}, got {which!r}")
    tableaux = enumerate_ssyt(lam, mu)
    if which == "tableaux":
        return tableaux
    subsets = [tableau_to_subset(p, mu) for p in tableaux]
    if which == "subsets":
        return subsets
    return [subset_to_family(d) for d in subsets]


class SymmetricTableau:
    """A semistandard filling of a symmetric Young diagram with P_ij - i = P_ji - j."""

    __slots__ = ("shape", "grid")

    def __init__(self, shape, grid) -> None:
        self.shape = normalize_partition(shape)
        if not is_symmetric(self.shape):
            raise ValueError(f"shape {self.shape} is not symmetric")
        rows = [tuple(int(v) for v in row) for row in grid]
        while rows and not rows[-1]:  # as normalize_partition drops zero parts
            rows.pop()
        self.grid = tuple(rows)
        if tuple(len(row) for row in self.grid) != self.shape:
            raise ValueError("grid does not match shape")
        for i, row in enumerate(self.grid, start=1):
            for j, v in enumerate(row, start=1):
                if j > 1 and row[j - 2] > v:
                    raise ValueError("rows must increase weakly")
                if i > 1 and j <= len(self.grid[i - 2]) and self.grid[i - 2][j - 1] >= v:
                    raise ValueError("columns must increase strictly")
                if j <= len(self.grid) and i <= self.shape[j - 1]:
                    if self.grid[j - 1][i - 1] - j != v - i:
                        raise ValueError(f"symmetry fails at ({i}, {j})")

    def __getitem__(self, box) -> int:
        i, j = box
        return self.grid[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymmetricTableau)
                and self.shape == other.shape and self.grid == other.grid)

    def __hash__(self) -> int:
        return hash((self.shape, self.grid))

    def __repr__(self) -> str:
        return f"SymmetricTableau({self.shape}, {self.grid})"


def unfold_symmetric(p: SetValuedShiftedTableau) -> SymmetricTableau:
    """Complete a shifted tableau to the symmetric filling of the doubled shape.

    Below-diagonal boxes receive P_ji = P_ij - i + j; the constructor rejects
    fillings whose doubled grid is not semistandard.
    """
    if not p.is_young:
        raise ValueError("symmetric doubling needs single-entry tableaux")
    zeta = symmetric_double(p.shape)
    above = {(r, c): box[0] for r, c, box in p.cells()}
    grid = []
    for i in range(1, len(zeta) + 1):
        row = []
        for j in range(1, zeta[i - 1] + 1):
            if j >= i:
                row.append(above[(i, j)])
            else:
                row.append(above[(j, i)] - j + i)
        grid.append(tuple(row))
    return SymmetricTableau(zeta, grid)


def fold_symmetric(q: SymmetricTableau) -> SetValuedShiftedTableau:
    """Delete everything below the main diagonal, recovering a shifted tableau."""
    lam = rho(q.shape)
    return SetValuedShiftedTableau.of_boxes(
        lam, {box: (q[box],) for box in ShiftedDiagram(lam).boxes()})


class SymmetricDiagramSubset:
    """A reflection-stable subset of a symmetric Young diagram."""

    __slots__ = ("eta", "members")

    def __init__(self, eta, members) -> None:
        self.eta = normalize_partition(eta)
        if not is_symmetric(self.eta):
            raise ValueError(f"shape {self.eta} is not symmetric")
        boxes = set(map(tuple, members))
        members = tuple(sorted(boxes))
        for i, j in members:
            if not (1 <= i <= len(self.eta) and 1 <= j <= self.eta[i - 1]):
                raise ValueError(f"box {(i, j)} outside the diagram of {self.eta}")
            if (j, i) not in boxes:
                raise ValueError(f"subset is not symmetric at {(i, j)}")
        self.members = members

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymmetricDiagramSubset)
                and self.eta == other.eta and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.eta, self.members))

    def __repr__(self) -> str:
        return f"SymmetricDiagramSubset(eta={self.eta}, members={self.members})"


def double_subset(d: DiagramSubset) -> SymmetricDiagramSubset:
    """Reflect a shifted-diagram subset across the main diagonal."""
    eta = symmetric_double(d.mu)
    boxes = set(d.members) | {(j, i) for i, j in d.members}
    return SymmetricDiagramSubset(eta, boxes)


def fold_subset(s: SymmetricDiagramSubset) -> DiagramSubset:
    """Delete the strictly-below-diagonal boxes of a symmetric subset."""
    return DiagramSubset(rho(s.eta), [(i, j) for i, j in s.members if j >= i])
