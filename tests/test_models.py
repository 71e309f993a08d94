import hashlib
import json

import pytest

from lgrass import (DiagramSubset, PathFamily, SetValuedShiftedTableau, ShiftedDiagram,
                    SymmetricDiagramSubset, SymmetricTableau, double_subset,
                    enumerate_model, enumerate_ssyt, family_to_subset,
                    fold_subset, fold_symmetric, subset_to_family,
                    subset_to_tableau, tableau_to_subset, unfold_symmetric)

LAM = (3, 1)
MU = (5, 3, 2, 1)


def tab(*rows):
    return SetValuedShiftedTableau(rows)


def young(row1, v2):
    return tab(tuple((v,) for v in row1), ((v2,),))


# hand-checked data for shape (3,1) on (5,3,2,1): tableau -> subset -> family
KNOWN = [
    (young((1, 1, 1), 2),
     {(1, 1), (1, 2), (1, 3), (2, 2)},
     (((3, 3), (2, 3), (2, 4), (1, 4), (1, 5)), ((4, 4), (3, 4)))),
    (young((2, 2, 2), 4),
     {(2, 2), (2, 3), (2, 4), (4, 4)},
     (((1, 1), (1, 2), (1, 3), (1, 4), (1, 5)), ((3, 3), (3, 4)))),
    (young((1, 2, 2), 4),
     {(1, 1), (2, 3), (2, 4), (4, 4)},
     (((2, 2), (1, 2), (1, 3), (1, 4), (1, 5)), ((3, 3), (3, 4)))),
    (young((1, 1, 2), 3),
     {(1, 1), (1, 2), (2, 4), (3, 3)},
     (((2, 2), (2, 3), (1, 3), (1, 4), (1, 5)), ((4, 4), (3, 4)))),
]

ALL_TABLEAUX = [
    young((1, 1, 1), 2), young((1, 1, 1), 3), young((1, 1, 1), 4),
    young((1, 1, 2), 2), young((1, 1, 2), 3), young((1, 1, 2), 4),
    young((1, 2, 2), 3), young((1, 2, 2), 4),
    young((2, 2, 2), 3), young((2, 2, 2), 4),
]


class TestTableauToSubset:
    @pytest.mark.parametrize("p,subset,_", KNOWN)
    def test_known_pairs(self, p, subset, _):
        assert set(tableau_to_subset(p, MU).members) == subset

    def test_empty(self):
        assert tableau_to_subset(tab(), MU).members == ()

    def test_injective(self):
        images = {tableau_to_subset(p, MU) for p in enumerate_ssyt(LAM, MU)}
        assert len(images) == 10

    def test_image_inside_ambient(self):
        # membership in the ambient diagram encodes the on-mu condition
        for p in enumerate_ssyt(LAM, MU):
            d = tableau_to_subset(p, MU)
            for x, z in d.members:
                assert z - x + 1 <= MU[x - 1]

    def test_off_shape_rejected(self):
        with pytest.raises(ValueError):
            tableau_to_subset(young((1, 1, 4), 2), MU)

    def test_set_valued_rejected(self):
        with pytest.raises(ValueError):
            tableau_to_subset(tab(((1, 2), (2,))), (3, 2))


class TestSubsetToTableau:
    @pytest.mark.parametrize("p,subset,_", KNOWN)
    def test_inverse_on_known(self, p, subset, _):
        assert subset_to_tableau(DiagramSubset(MU, subset), LAM) == p

    def test_round_trip_all_ten(self):
        for p in enumerate_ssyt(LAM, MU):
            d = tableau_to_subset(p, MU)
            assert subset_to_tableau(d, LAM) == p

    def test_empty(self):
        assert subset_to_tableau(DiagramSubset(MU, ()), ()) == tab()

    def test_not_in_image(self):
        with pytest.raises(ValueError):
            subset_to_tableau(DiagramSubset(MU, {(1, 1)}), LAM)
        with pytest.raises(ValueError):
            # three boxes on the main diagonal, but the shape only meets it twice
            subset_to_tableau(DiagramSubset(MU, {(2, 2), (1, 1), (1, 2), (4, 4)}), LAM)


class TestSubsetToFamily:
    @pytest.mark.parametrize("p,subset,paths", KNOWN)
    def test_known_families(self, p, subset, paths):
        fam = subset_to_family(DiagramSubset(MU, subset))
        assert fam.paths == paths

    def test_full_subset_empty_family(self):
        full = DiagramSubset((2, 1), ShiftedDiagram((2, 1)).boxes())
        assert subset_to_family(full).paths == ()

    def test_empty_subset_covers_diagram(self):
        fam = subset_to_family(DiagramSubset((2, 1), ()))
        assert fam.support == {(1, 1), (1, 2), (2, 2)}

    def test_complement_round_trip(self):
        for p in enumerate_ssyt(LAM, MU):
            d = tableau_to_subset(p, MU)
            assert family_to_subset(subset_to_family(d)) == d

    def test_supports_partition_complement(self):
        for p in enumerate_ssyt(LAM, MU):
            d = tableau_to_subset(p, MU)
            fam = subset_to_family(d)
            assert len(fam.support) == sum(MU) - len(d.members)
            sizes = sum(len(path) for path in fam.paths)
            assert sizes == len(fam.support)


class TestEnumerateModel:
    def test_counts_match(self):
        for which, count in (("tableaux", 10), ("subsets", 10), ("families", 10)):
            assert len(enumerate_model(LAM, MU, which)) == count

    def test_example_small(self):
        assert len(enumerate_model((2,), (3, 2), "tableaux")) == 3
        assert len(enumerate_model((2,), (3, 2), "families")) == 3

    def test_empty_shape(self):
        for which in ("tableaux", "subsets", "families"):
            assert len(enumerate_model((), (2, 1), which)) == 1

    def test_canonical_bijections_commute(self):
        # tableaux -> subsets -> families and back, positionwise
        for mu in [(3, 2), (5, 3, 2, 1), (4, 2, 1)]:
            for lam in [(), (1,), (2,), (2, 1), (3, 1)]:
                tableaux = enumerate_model(lam, mu, "tableaux")
                subsets = enumerate_model(lam, mu, "subsets")
                families = enumerate_model(lam, mu, "families")
                assert len(tableaux) == len(subsets) == len(families)
                for p, d, f in zip(tableaux, subsets, families):
                    assert tableau_to_subset(p, mu) == d
                    assert subset_to_family(d) == f
                    assert family_to_subset(f) == d
                    assert subset_to_tableau(d, lam) == p

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            enumerate_model(LAM, MU, "paths")

    def test_expected_tableau_list(self):
        assert set(enumerate_model(LAM, MU, "tableaux")) == set(ALL_TABLEAUX)


class TestSymmetricDoubling:
    def test_single_diagonal_box(self):
        q = unfold_symmetric(tab(((1,),)))
        assert q.shape == (1,) and q.grid == ((1,),)

    def test_below_diagonal_formula(self):
        q = unfold_symmetric(tab(((1,), (2,))))
        assert q.shape == (2, 1)
        assert q[(2, 1)] == 2 - 1 + 2  # P_12 - 1 + 2 = 3
        assert q.grid == ((1, 2), (3,))

    def test_fold_round_trip(self):
        for p in enumerate_ssyt(LAM, MU):
            assert fold_symmetric(unfold_symmetric(p)) == p

    def test_double_subset_diagonal(self):
        d = DiagramSubset((1,), {(1, 1)})
        assert double_subset(d).members == ((1, 1),)

    def test_double_subset_reflection(self):
        d = DiagramSubset((2,), {(1, 2)})
        s = double_subset(d)
        assert s.eta == (2, 1)
        assert set(s.members) == {(1, 2), (2, 1)}

    def test_double_fold_round_trip(self):
        for p in enumerate_ssyt(LAM, MU):
            d = tableau_to_subset(p, MU)
            assert fold_subset(double_subset(d)) == d

    def test_trailing_empty_grid_rows_dropped(self):
        # the shape drops its trailing zero part, so the grid drops its empty row
        assert SymmetricTableau((1, 0), ((1,), ())) == SymmetricTableau((1,), ((1,),))


class TestValueTypes:
    def test_equal_slots_of_another_type_are_unequal(self):
        d = DiagramSubset((1,), {(1, 1)})
        assert d != SymmetricDiagramSubset((1,), {(1, 1)})
        assert DiagramSubset((1,), ()) != PathFamily((1,), ())

    @pytest.mark.parametrize("build", [
        lambda: ShiftedDiagram((3, 1)),
        lambda: tab(((1,), (1, 2)), ((2,),)),
        lambda: DiagramSubset(MU, {(1, 1), (2, 3)}),
        lambda: PathFamily((2, 1), [[(2, 2), (1, 2)]]),
        lambda: SymmetricTableau((2, 1), ((1, 2), (3,))),
        lambda: SymmetricDiagramSubset((2, 1), {(1, 2), (2, 1)}),
    ], ids=["diagram", "tableau", "subset", "family", "sym-tableau", "sym-subset"])
    def test_equal_values_hash_equal(self, build):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_reprs(self):
        assert repr(ShiftedDiagram((2, 1))) == "ShiftedDiagram((2, 1))"
        assert repr(tab(((1,), (1, 2)))) == "<tableau 1|1,2>"
        assert (repr(DiagramSubset((2,), {(1, 2)}))
                == "DiagramSubset(mu=(2,), members=((1, 2),))")
        assert (repr(PathFamily((1,), [[(1, 1)]]))
                == "PathFamily(mu=(1,), paths=(((1, 1),),))")
        assert repr(SymmetricTableau((1,), ((1,),))) == "SymmetricTableau((1,), ((1,),))"
        assert (repr(SymmetricDiagramSubset((2, 1), {(1, 2), (2, 1)}))
                == "SymmetricDiagramSubset(eta=(2, 1), members=((1, 2), (2, 1)))")

    def test_to_json_gives_the_pinned_models_json(self):
        # the bytes `lgrass models --lam 3,1 --mu 5,3,2,1 --json` is pinned to
        payload = {"lam": list(LAM), "mu": list(MU)}
        for name in ("tableaux", "subsets", "families"):
            payload[name] = [item.to_json() for item in enumerate_model(LAM, MU, name)]
        text = json.dumps(payload) + "\n"
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "00ddac6a6edb83e82db39318ac28218dae6782f6851227604dc4ec0c3c969abd")


@pytest.mark.parametrize("build,match", [
    (lambda: DiagramSubset((2,), {(2, 2)}), "outside the diagram"),
    (lambda: PathFamily((2,), [[(2, 2)]]), "outside the diagram"),
    (lambda: PathFamily((2, 1), [[(1, 1)], [(1, 1)]]), "paths intersect"),
    (lambda: PathFamily((2, 1), [[(1, 2), (2, 2)]]), "not an up/right step"),
    (lambda: tableau_to_subset(tab(((1,), (1,)), ((1,),)), (2, 1)), "collide"),
    (lambda: subset_to_tableau(DiagramSubset((3, 1), {(1, 1), (1, 3)}), (1,)),
     "unexpected diagonals"),
    (lambda: subset_to_tableau(DiagramSubset((2, 1), {(2, 2), (1, 2)}), (2,)),
     "not in the image"),
    (lambda: SymmetricTableau((2,), ((1, 2),)), "not symmetric"),
    (lambda: SymmetricTableau((1,), ((1,), (2,))), "does not match shape"),
    (lambda: SymmetricTableau((2, 1), ((2, 1), (3,))), "increase weakly"),
    (lambda: SymmetricTableau((3, 3, 2), ((1, 2, 5), (3, 4, 5), (7, 6))),
     "increase strictly"),
    (lambda: SymmetricTableau((2, 1), ((1, 2), (4,))), "symmetry fails"),
    (lambda: SymmetricDiagramSubset((2,), ()), "not symmetric"),
    (lambda: SymmetricDiagramSubset((1,), {(1, 2)}), "outside the diagram"),
    (lambda: SymmetricDiagramSubset((2, 1), {(1, 2)}), "not symmetric at"),
    (lambda: unfold_symmetric(tab(((1, 2),))), "single-entry"),
], ids=["subset-box-off", "path-box-off", "paths-intersect", "path-step",
        "images-collide", "extra-diagonal", "outside-image", "sym-shape",
        "sym-grid-shape", "sym-rows", "sym-columns", "sym-symmetry",
        "sym-subset-shape", "sym-subset-box-off", "sym-subset-asymmetric",
        "unfold-set-valued"])
def test_input_checks(build, match):
    with pytest.raises(ValueError, match=match):
        build()
