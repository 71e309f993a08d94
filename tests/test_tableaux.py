import pytest

from lgrass import (SetValuedShiftedTableau, ShiftedDiagram, entry_context,
                    enumerate_ssvt, enumerate_ssyt, is_on, is_semistandard)
from lgrass.render import svg_tableau
from helpers import brute_force_tableaux


def tab(*rows):
    return SetValuedShiftedTableau(rows)


# the seven shape-(2,1) tableaux on (5,3,2), written out
EX21 = [
    tab(((1,), (1,)), ((2,),)),
    tab(((1,), (1,)), ((3,),)),
    tab(((1,), (2,)), ((3,),)),
    tab(((2,), (2,)), ((3,),)),
    tab(((1,), (1,)), ((2, 3),)),
    tab(((1,), (1, 2)), ((3,),)),
    tab(((1, 2), (2,)), ((3,),)),
]

# the five shape-(2) set-valued tableaux on (3,2); the first three are Young
EX32 = [
    tab(((1,), (1,))),
    tab(((1,), (2,))),
    tab(((2,), (2,))),
    tab(((1,), (1, 2))),
    tab(((1, 2), (2,))),
]

FIGURE2 = tab(
    ((1,), (2, 3), (3,), (3,), (4, 6, 7), (7, 9)),
    ((4,), (4, 6), (6, 7, 8), (9, 11)),
    ((8, 10),),
)


class TestShiftedDiagram:
    def test_boxes_and_rows(self):
        d = ShiftedDiagram((5, 3, 2, 1))
        assert len(d) == 11
        assert [(2, c) for c in (2, 3, 4)] == [b for b in d.boxes() if b[0] == 2]

    def test_empty(self):
        assert list(ShiftedDiagram(()).boxes()) == []

    def test_staircase(self):
        d = ShiftedDiagram((9, 8, 5, 2, 1))
        assert len(d) == 25
        for r, part in enumerate((9, 8, 5, 2, 1), start=1):
            row = [b for b in d.boxes() if b[0] == r]
            assert row[0] == (r, r) and len(row) == part

    def test_rejects_non_strict(self):
        with pytest.raises(ValueError):
            ShiftedDiagram((2, 2))

    def test_membership(self):
        d = ShiftedDiagram((3, 1))
        assert (1, 3) in d and (2, 2) in d
        assert (2, 3) not in d and (1, 4) not in d


class TestTrailingEmptyRows:
    """Rows are normalised like the shape: trailing empty rows are dropped."""

    def test_equal_to_one_box(self):
        s = tab(((1,),), ())
        assert s.shape == (1,)
        assert s == tab(((1,),))

    def test_svg_height(self):
        assert 'height="41"' in svg_tableau(tab(((1,),), ()))


class TestZValue:
    def test_examples(self):
        assert entry_context(2, 1, 2).z == 3
        assert entry_context(1, 1, 1).z == 1
        assert entry_context(4, 2, 3).z == 5

    def test_invariant(self):
        e = entry_context(5, 2, 4)
        assert e.z == e.x + e.c - e.r


class TestSemistandard:
    def test_figure_tableau(self):
        assert is_semistandard(FIGURE2)

    def test_row_violation(self):
        assert not is_semistandard(tab(((1, 2), (1,))))

    def test_column_strictness(self):
        assert not is_semistandard(tab(((1,), (1,)), ((1,),)))

    def test_sets_compared_elementwise(self):
        assert is_semistandard(tab(((1, 2), (2, 3))))
        assert not is_semistandard(tab(((1, 3), (2, 3))))


class TestOnMu:
    def test_entry_cap(self):
        assert is_on(tab(((2,), (2,))), (3, 2))
        assert not is_on(tab(((3,), (3,))), (3, 2))

    def test_listed_tableau(self):
        assert is_on(EX21[0], (5, 3, 2))

    def test_z_bound(self):
        # z(2) = 4 > mu_2 + 1 = 3 in relative column 3
        assert not is_on(tab(((1,), (1,), (2,))), (3, 2))
        assert is_on(tab(((1,), (1,), (2,))), (4, 3))


class TestEnumeration:
    def test_example_seven(self):
        got = enumerate_ssvt((2, 1), (5, 3, 2))
        assert len(got) == 7
        assert set(got) == set(EX21)

    def test_example_five_and_three(self):
        assert set(enumerate_ssvt((2,), (3, 2))) == set(EX32)
        assert enumerate_ssyt((2,), (3, 2)) == EX32[:3]

    def test_example_ten(self):
        assert len(enumerate_ssyt((3, 1), (5, 3, 2, 1))) == 10

    def test_no_room(self):
        assert enumerate_ssvt((1,), ()) == []

    def test_empty_shape_single_empty_tableau(self):
        for mu in [(), (2, 1)]:
            assert enumerate_ssvt((), mu) == [tab()]
            assert enumerate_ssyt((), mu) == [tab()]

    def test_young_subset_of_set_valued(self):
        for lam, mu in [((2, 1), (5, 3, 2)), ((2,), (3, 2)), ((3, 1), (4, 3, 2))]:
            ssvt = set(enumerate_ssvt(lam, mu))
            for t in enumerate_ssyt(lam, mu):
                assert t in ssvt

    def test_all_pass_predicates(self):
        for lam, mu in [((2, 1), (5, 3, 2)), ((3, 1), (5, 3, 2, 1)), ((2,), (3, 2))]:
            for t in enumerate_ssvt(lam, mu):
                assert is_semistandard(t) and is_on(t, mu)
                assert t.shape == lam

    def test_deterministic_order(self):
        got = enumerate_ssvt((2, 1), (5, 3, 2))
        assert got == sorted(got, key=lambda t: t.rows)
        assert got == enumerate_ssvt((2, 1), (5, 3, 2))

    @pytest.mark.parametrize("other", [3, "x", ((1,),)], ids=["int", "str", "rows"])
    def test_order_against_a_foreign_type(self, other):
        t = SetValuedShiftedTableau([[(1,)]])
        with pytest.raises(TypeError, match="not supported between instances"):
            t < other
        with pytest.raises(TypeError, match="not supported between instances"):
            other > t

    @pytest.mark.parametrize("lam,mu", [
        ((2,), (3, 2)),
        ((2, 1), (5, 3, 2)),
        ((3, 1), (5, 3, 2, 1)),
        ((1,), (2, 1)),
        ((3,), (3, 2)),
        ((2, 1), (3, 2, 1)),
        ((4,), (5, 4)),
        ((2, 1), (2, 1)),
    ])
    def test_matches_brute_force(self, lam, mu):
        assert enumerate_ssvt(lam, mu) == brute_force_tableaux(lam, mu)
        assert enumerate_ssyt(lam, mu) == brute_force_tableaux(lam, mu, set_valued=False)

    def test_singleton_on_own_shape(self):
        # empirical: the diagonal enumeration is a single tableau (row i filled
        # with i), checked for every strict shape with parts <= 4
        import itertools
        shapes = [lam for k in range(5)
                  for lam in itertools.combinations(range(4, 0, -1), k)]
        for lam in shapes:
            got = enumerate_ssvt(lam, lam)
            assert len(got) == 1
            expected = tab(*[tuple((r,) for _ in range(part))
                             for r, part in enumerate(lam, start=1)])
            assert got[0] == expected


class TestTableauType:
    def test_requires_nonempty_sets(self):
        with pytest.raises(ValueError):
            tab(((),))

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            tab(((0,),))

    def test_rows_one_level_too_shallow(self):
        # a box given as a bare int once died with "'int' object is not iterable"
        with pytest.raises(ValueError, match=r"box \(1, 1\) is 1, not a collection"):
            SetValuedShiftedTableau(((1,),))
        with pytest.raises(ValueError, match=r"box \(2, 2\) is 3, not a collection"):
            SetValuedShiftedTableau((((1,), (2,)), (3,)))

    def test_requires_strict_shape(self):
        with pytest.raises(ValueError):
            tab(((1,), (2,)), ((3,), (4,)))

    def test_json(self):
        t = EX21[4]
        assert t.to_json() == [
            {"row": 1, "col": 1, "entries": [1]},
            {"row": 1, "col": 2, "entries": [1]},
            {"row": 2, "col": 2, "entries": [2, 3]},
        ]

    def test_entry_contexts(self):
        t = EX32[3]  # [1 | 1,2]
        assert [(e.x, e.r, e.c, e.z) for e in t.entries()] == [
            (1, 1, 1, 1), (1, 1, 2, 2), (2, 1, 2, 3)]
        assert t.entry_count() == 3
        assert not t.is_young and EX32[0].is_young
