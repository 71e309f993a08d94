"""Shifted diagrams and semistandard set-valued shifted tableaux.

Boxes carry absolute column numbers: row r of a shifted diagram occupies
columns r, r+1, ..., r + lam_r - 1, so the quantity z(x) = x + c(x) - r(x)
of an entry x can be read off directly.  A tableau of shape lam is "on mu"
when every entry x satisfies x <= len(mu) and z(x) <= mu_x + x - 1, which
confines its image boxes (x, z(x)) to the shifted diagram of mu.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial

from .indexing import check_strict, transpose

# the three equivalent models of ``models.enumerate_model``, in listing order;
# defined here so that the CLI parser has them without importing ``models``
MODEL_NAMES = ("tableaux", "subsets", "families")


class _SlotValue:
    """Equality, hashing and a ``Name(field=value, ...)`` repr read off ``__slots__``.

    Two objects are equal only when they have the same type and equal slot
    values; the hash is the hash of the slot-value tuple.
    """

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._slot_values() == other._slot_values()

    def __hash__(self) -> int:
        return hash(self._slot_values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ShiftedDiagram(_SlotValue):
    """Staircase array of boxes for a strict partition."""

    __slots__ = ("shape",)

    def __init__(self, shape) -> None:
        self.shape = check_strict(shape)

    def boxes(self) -> Iterator[tuple[int, int]]:
        for r, part in enumerate(self.shape, start=1):
            for c in range(r, r + part):
                yield (r, c)

    def __contains__(self, box) -> bool:
        r, c = box
        return 1 <= r <= len(self.shape) and r <= c <= r + self.shape[r - 1] - 1

    def __len__(self) -> int:
        return sum(self.shape)

    def __repr__(self) -> str:
        return f"ShiftedDiagram({self.shape})"


class EntryContext(namedtuple("EntryContext", "x r c z")):
    """An entry x together with its box (r, c) and z = x + c - r."""

    __slots__ = ()


def entry_context(x: int, r: int, c: int) -> EntryContext:
    return EntryContext(x, r, c, x + c - r)


def _entry_set(box, r: int, c: int) -> tuple[int, ...]:
    """The sorted distinct entries of box (r, c); ValueError unless they are positive ints."""
    try:
        entries = tuple(sorted(set(map(int, box))))
    except TypeError:
        raise ValueError(f"box ({r}, {c}) is {box!r}, not a collection of entries") from None
    if not entries or entries[0] < 1:
        raise ValueError(f"box ({r}, {c}) needs a nonempty set of positive entries: {box!r}")
    return entries


def _row_boxes(row, r: int) -> tuple:
    """The boxes of row r; ValueError unless row is a collection of boxes."""
    try:
        return tuple(row)
    except TypeError:
        raise ValueError(f"row {r} is {row!r}, not a collection of boxes") from None


class SetValuedShiftedTableau(_SlotValue):
    """Nonempty sets of positive integers on the boxes of a shifted diagram.

    ``rows[r-1][j-1]`` is the sorted entry tuple of the j-th box of row r
    (absolute column c = r + j - 1).  The nested tuple is the canonical key:
    equality, ordering, and hashing all use it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(tuple(_entry_set(box, r, c)
                           for c, box in enumerate(_row_boxes(row, r), start=r))
                     for r, row in enumerate(rows, start=1))
        # check_strict drops trailing zero parts; the rows drop the empty ones
        self.rows = rows[:len(check_strict(len(row) for row in rows))]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @classmethod
    def of_boxes(cls, shape, entries) -> SetValuedShiftedTableau:
        """The tableau of shape ``shape`` holding ``entries[(r, c)]`` in box (r, c)."""
        return cls([entries[(r, c)] for c in range(r, r + part)]
                   for r, part in enumerate(shape, start=1))

    def box(self, r: int, c: int) -> tuple[int, ...]:
        return self.rows[r - 1][c - r]

    def cells(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        for r, row in enumerate(self.rows, start=1):
            for j, box in enumerate(row):
                yield (r, r + j, box)

    def entries(self) -> Iterator[EntryContext]:
        """Every entry with its context; repeats in distinct boxes are distinct."""
        for r, c, box in self.cells():
            for x in box:
                yield entry_context(x, r, c)

    @property
    def is_young(self) -> bool:
        return all(len(box) == 1 for _, _, box in self.cells())

    def entry_count(self) -> int:
        return sum(len(box) for _, _, box in self.cells())

    def to_json(self) -> list[dict]:
        return [{"row": r, "col": c, "entries": list(box)}
                for r, c, box in self.cells()]

    def __lt__(self, other) -> bool:
        if not isinstance(other, SetValuedShiftedTableau):
            return NotImplemented
        return self.rows < other.rows

    def __repr__(self) -> str:
        body = "/".join("|".join(",".join(map(str, box)) for box in row)
                        for row in self.rows)
        return f"<tableau {body or 'empty'}>"


def is_semistandard(s: SetValuedShiftedTableau) -> bool:
    """Weakly increasing along rows, strictly increasing down columns, setwise."""
    cell = {(r, c): box for r, c, box in s.cells()}
    for (r, c), box in cell.items():
        right = cell.get((r, c + 1))
        if right is not None and max(box) > min(right):
            return False
        below = cell.get((r + 1, c))
        if below is not None and max(box) >= min(below):
            return False
    return True


def is_on(s: SetValuedShiftedTableau, mu) -> bool:
    """Every entry's image box (x, z(x)) lies in the shifted diagram of mu."""
    diagram = ShiftedDiagram(mu)
    return all((e.x, e.z) in diagram for e in s.entries())


def _nonempty_subsets(vals: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # lexicographic on the sorted tuples: (1), (1,2), (1,2,3), (1,3), (2), ...
    for i in range(len(vals)):
        head = (vals[i],)
        yield head
        for tail in _nonempty_subsets(vals[i + 1:]):
            yield head + tail


def _enumerate(lam, mu, set_valued: bool, leaf) -> list:
    """[leaf(filled) for each tableau of ``enumerate_ssvt`` resp. ``enumerate_ssyt``].

    filled maps each box (r, c) to its sorted entry tuple; it is one dict,
    refilled between calls.  lam and mu come checked.
    """
    # entry x fits at offset d = c - r iff d < mu_x; mu strict makes the
    # admissible x a prefix 1..caps[d]
    caps = transpose(mu)
    if lam and lam[0] > len(caps):
        return []  # the last box of row 1 admits no entry
    boxes = list(ShiftedDiagram(lam).boxes())

    results: list = []
    filled: dict[tuple[int, int], tuple[int, ...]] = {}

    def rec(idx: int) -> None:
        if idx == len(boxes):
            results.append(leaf(filled))
            return
        r, c = boxes[idx]
        lo = 1
        left = filled.get((r, c - 1))
        if left is not None:
            lo = max(lo, left[-1])
        above = filled.get((r - 1, c))
        if above is not None:
            lo = max(lo, above[-1] + 1)
        vals = tuple(range(lo, caps[c - r] + 1))
        if not vals:
            return
        if set_valued:
            for choice in _nonempty_subsets(vals):
                filled[(r, c)] = choice
                rec(idx + 1)
        else:
            for v in vals:
                filled[(r, c)] = (v,)
                rec(idx + 1)
        filled.pop((r, c), None)

    rec(0)
    return results


def enumerate_ssvt(lam, mu) -> list[SetValuedShiftedTableau]:
    """All semistandard set-valued shifted tableaux of shape lam on mu.

    Deterministic order: lexicographic on the flattened (box, sorted set)
    sequence.  The empty shape yields exactly one empty tableau.
    """
    lam = check_strict(lam)
    return _enumerate(lam, check_strict(mu), True, partial(SetValuedShiftedTableau.of_boxes, lam))


def enumerate_ssyt(lam, mu) -> list[SetValuedShiftedTableau]:
    """The single-entry (Young) subset of ``enumerate_ssvt``."""
    lam = check_strict(lam)
    return _enumerate(lam, check_strict(mu), False, partial(SetValuedShiftedTableau.of_boxes, lam))


def ssyt_fillings(lam, mu, leaf) -> list:
    """[leaf(filled) for each tableau of ``enumerate_ssyt(lam, mu)``], in its order.

    No tableau is built: filled maps each box (r, c) to its one-entry tuple,
    and is one dict, refilled between calls.
    """
    return _enumerate(check_strict(lam), check_strict(mu), False, leaf)
