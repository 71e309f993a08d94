import ast
import gc
import os
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lgrass import (CertificateError, IsotropicIndex, LaurentPolynomial, PositiveRoot,
                    billey_restrict_h, chern_consistency, divisible_by_k_root,
                    divisible_by_root_h, enumerate_isotropic, gkm_check,
                    gkm_check_table, gkm_edges, kclass_union_oracle, length,
                    lowest_degree_form, positive_roots, positivity_certificate,
                    reduced_word, reflect, restrict, restrict_h, restrict_k,
                    run_verification)
from lgrass import oracles, restriction

from helpers import (bfs_weyl_lengths, inclusion_exclusion_union_class, per_pair_billey,
                     window_generators, window_product, x_expansion_lowest_form)

ALPHA = IsotropicIndex(3, (1, 3, 5))
BETA = IsotropicIndex(3, (3, 5, 6))


def perturb_column_values(monkeypatch, theory, alpha, beta):
    """Make the suites' ``column_values`` read the value at (alpha, beta) plus 1, there only."""
    real = oracles.column_values

    def perturbed(b, t, alphas):
        alphas = list(alphas)
        values = real(b, t, alphas)
        if (b, t) == (beta, theory):
            values = [v + 1 if a == alpha else v for a, v in zip(alphas, values)]
        return values

    monkeypatch.setattr(oracles, "column_values", perturbed)


class TestWeylGroup:
    """Peeled reduced words and the coset-representative table against the BFS."""

    def test_representative_windows(self):
        # alpha's minimal coset representative is its window alpha.signed
        assert ALPHA.signed == (1, 3, -2) and BETA.signed == (3, -2, -1)
        table = oracles._weyl_table(3)
        assert table[ALPHA.signed] == length(ALPHA) and table[BETA.signed] == length(BETA)

    def test_reduced_word_length(self):
        word = reduced_word(BETA.signed)
        assert len(word) == 5  # l(beta) = |sigma(beta)| for minimal reps

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduced_word_every_element(self, n):
        gens = window_generators(n)
        for window, bfs_length in bfs_weyl_lengths(n).items():
            word = reduced_word(window)
            product = tuple(range(1, n + 1))
            for gi in word:
                product = window_product(product, gens[gi - 1])
            assert product == window
            assert len(word) == oracles.weyl_length(window) == bfs_length

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_is_coset_minima(self, n):
        # a right coset w W_P permutes the window's positions; its BFS-shortest
        # element must be the table's representative, with its BFS length
        shortest = {}
        for window, bfs_length in bfs_weyl_lengths(n).items():
            key = frozenset(window)
            if key not in shortest or bfs_length < shortest[key][1]:
                shortest[key] = (window, bfs_length)
        table = oracles._weyl_table(n)
        assert len(table) == 2 ** n
        assert table == dict(shortest.values())

    def test_table_size_n6(self):
        assert len(oracles._weyl_table(6)) == 64


class TestBilley:
    def test_example_pair(self):
        assert billey_restrict_h(ALPHA, BETA) == restrict_h(ALPHA, BETA).value

    def test_rank_one_dictionary(self):
        # the frozen convention point: restriction at the non-identity fixed
        # point of rank one is -2t1
        a = IsotropicIndex(1, (2,))
        assert billey_restrict_h(a, a) == -2 * LaurentPolynomial.var(1, 1)

    def test_identity_class(self):
        ident = IsotropicIndex(3, (1, 2, 3))
        for beta in enumerate_isotropic(3):
            assert billey_restrict_h(ident, beta) == LaurentPolynomial.one(3)

    def test_agreement_exhaustive_n2(self):
        for a in enumerate_isotropic(2):
            for b in enumerate_isotropic(2):
                assert billey_restrict_h(a, b) == restrict_h(a, b).value

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.sampled_from(enumerate_isotropic(6)),
           st.sampled_from(enumerate_isotropic(6)))
    def test_sampled_n6(self, alpha, beta):
        assert billey_restrict_h(alpha, beta) == restrict_h(alpha, beta).value


class TestSubwordColumn:
    """The one-DP-per-beta column against the per-pair DP, and its controls."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_matches_per_pair_dp(self, n):
        points = enumerate_isotropic(n)
        for a in points:
            for b in points:
                assert billey_restrict_h(a, b) == per_pair_billey(a, b)

    def test_perturbed_restriction_reported_once(self, monkeypatch):
        points = enumerate_isotropic(3)
        victim = (points[2], points[5])
        perturb_column_values(monkeypatch, "H", *victim)
        report = run_verification(3, ("subword",))[0]
        assert report.checks == 64
        assert report.failures == [f"subword mismatch at ({victim[0]}; {victim[1]})"]

    def test_wrong_reduced_word_raises(self, monkeypatch):
        real = oracles.reduced_word
        monkeypatch.setattr(oracles, "reduced_word", lambda w: real(w)[:-1])
        with pytest.raises(RuntimeError):
            oracles._subword_column(BETA)


class TestUnionOracle:
    def test_example_pair(self):
        assert kclass_union_oracle(ALPHA, BETA) == restrict_k(ALPHA, BETA).value

    def test_identity(self):
        ident = IsotropicIndex(2, (1, 2))
        for beta in enumerate_isotropic(2):
            assert kclass_union_oracle(ident, beta) == LaurentPolynomial.one(2)

    def test_agreement_exhaustive_n2(self):
        for a in enumerate_isotropic(2):
            for b in enumerate_isotropic(2):
                assert kclass_union_oracle(a, b) == restrict_k(a, b).value

    def test_limit_is_ignored(self):
        # three components; the positional limit no longer guards anything
        assert kclass_union_oracle(ALPHA, BETA, 2) == restrict_k(ALPHA, BETA).value

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_matches_inclusion_exclusion(self, n):
        points = enumerate_isotropic(n)
        for a in points:
            for b in points:
                assert kclass_union_oracle(a, b) == inclusion_exclusion_union_class(a, b)

    def test_perturbed_restriction_reported_once(self, monkeypatch):
        points = enumerate_isotropic(4)
        victim = (points[5], points[11])
        perturb_column_values(monkeypatch, "K", *victim)
        report = run_verification(4, ("oracle",))[0]
        assert report.checks == 256
        assert report.failures == [f"oracle mismatch at ({victim[0]}; {victim[1]})"]


class TestGkmGraph:
    def test_rank_one_edge(self):
        edges = gkm_edges(1)
        assert len(edges) == 1
        edge = edges[0]
        assert (edge.beta1.values, edge.beta2.values) == ((1,), (2,))
        assert edge.root == PositiveRoot("double", 1, 1)

    def test_rank_two_edges(self):
        edges = gkm_edges(2)
        assert len(edges) == 6
        degree = {b: 0 for b in enumerate_isotropic(2)}
        for e in edges:
            degree[e.beta1] += 1
            degree[e.beta2] += 1
        assert set(degree.values()) == {3}  # = dim LGr_2, every vertex

    def test_edges_cached_immutable(self):
        edges = gkm_edges(3)
        assert isinstance(edges, tuple)
        assert gkm_edges(3) is edges
        with pytest.raises(AttributeError):
            edges[0].root = PositiveRoot("double", 1, 1)

    def test_reflection_action(self):
        # brute-force label images for one reflection: t1+t2 swaps 1<->bar(2)
        got = reflect(IsotropicIndex(2, (1, 2)), PositiveRoot("sum", 1, 2))
        assert got.values == (3, 4)
        got = reflect(IsotropicIndex(2, (1, 2)), PositiveRoot("diff", 1, 2))
        assert got.values == (1, 2)

    def test_reflection_rejects_root_past_rank(self):
        # t1 - t4 at n=3 once mapped 1 <-> 4 and 6 <-> 3, giving {2, 4, 6}
        with pytest.raises(ValueError, match="root t1-t4 has index 4 past the 3 variables"):
            reflect(IsotropicIndex(3, (1, 2, 3)), PositiveRoot("diff", 1, 4))

    def test_edges_from_lower_endpoint(self):
        # each edge once, as (beta1, reflect(beta1, root)) with beta1 the lower endpoint
        for n in (1, 2, 3, 4):
            edges = gkm_edges(n)
            assert len(set(edges)) == len(edges)
            for e in edges:
                assert e.beta1 < e.beta2 and reflect(e.beta1, e.root) == e.beta2
            moved = {(b, r) for b in enumerate_isotropic(n) for r in positive_roots(n)
                     if reflect(b, r) != b}
            assert len(moved) == 2 * len(edges)

    def test_degree_bound(self):
        for b in enumerate_isotropic(2):
            moved = sum(1 for r in [PositiveRoot("diff", 1, 2),
                                    PositiveRoot("sum", 1, 2),
                                    PositiveRoot("double", 1, 1),
                                    PositiveRoot("double", 2, 2)]
                        if reflect(b, r) != b)
            assert moved <= 4


class TestGkmCheck:
    @pytest.mark.parametrize("theory", ["H", "K"])
    def test_rank_two_clean(self, theory):
        for alpha in enumerate_isotropic(2):
            report = gkm_check(alpha, 2, theory)
            assert report.ok
            assert report.checks == 6

    @pytest.mark.parametrize("theory", ["H", "K"])
    def test_corrupted_table_detected(self, theory):
        report = gkm_check(ALPHA, 3, theory, corrupt=True)
        assert not report.ok

    def test_table_interface(self):
        n = 2
        table = {b: restrict_h(IsotropicIndex(2, (2, 4)), b).value
                 for b in enumerate_isotropic(n)}
        assert gkm_check_table(table, n, "H").ok
        victim = next(iter(table))
        table[victim] = table[victim] + 1
        assert not gkm_check_table(table, n, "H").ok

    def test_unknown_theory_rejected(self):
        # any theory but "H" once took the K branch: "h" failed a clean H row
        row = {b: restrict_h(enumerate_isotropic(2)[1], b).value for b in enumerate_isotropic(2)}
        assert gkm_check_table(row, 2, "H").ok
        message = "theory must be 'K' or 'H', got 'h'"
        with pytest.raises(ValueError, match=message):
            gkm_check_table(row, 2, "h")
        # a row of equal values substitutes nothing, and must still be rejected
        zeros = dict.fromkeys(row, LaurentPolynomial.zero(2))
        assert gkm_check_table(zeros, 2, "H").ok
        with pytest.raises(ValueError, match=message):
            gkm_check_table(zeros, 2, "h")
        with pytest.raises(ValueError, match=message):
            PositiveRoot("double", 1, 1).images("h")


def reference_gkm_failures(table, n, theory):
    """The failing edges by divisibility of the difference p1 - p2, edge by edge."""
    divisible = divisible_by_root_h if theory == "H" else divisible_by_k_root
    return [f"edge {e.beta1}|{e.beta2} root {e.root}" for e in gkm_edges(n)
            if not divisible(table[e.beta1] - table[e.beta2], e.root)]


class TestGkmAgainstDifference:
    """Comparing root images of p1 and p2 fails exactly the edges whose p1 - p2 fails."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("theory", ["H", "K"])
    def test_every_row_clean_and_perturbed(self, n, theory):
        points = enumerate_isotropic(n)
        # t_1 - 1 passes t_1 -> 1, so only the second image of a K root 2t_1 fails it
        bumps = (1, LaurentPolynomial.var(n, 1) - 1)
        for alpha in points:
            row = {b: restrict(alpha, b, theory).value for b in points}
            tables = [row] + [{**row, victim: row[victim] + bump}
                              for bump in bumps for victim in points]
            for table in tables:
                report = gkm_check_table(table, n, theory)
                assert report.checks == len(gkm_edges(n))
                assert report.failures == reference_gkm_failures(table, n, theory)
            # a perturbed row always fails somewhere: every vertex has an edge
            assert all(gkm_check_table(t, n, theory).failures for t in tables[1:])

    def test_h_row_with_negative_exponent_raises(self):
        n = 2
        table = {b: restrict_h(IsotropicIndex(2, (2, 4)), b).value
                 for b in enumerate_isotropic(n)}
        victim = next(iter(table))
        table[victim] = table[victim] + LaurentPolynomial.var(n, 1, -1)
        with pytest.raises(ValueError):
            gkm_check_table(table, n, "H")
        assert not gkm_check_table(table, n, "K").ok


class TestSharedMemos:
    """A memo shared by many calls gives what fresh calls give."""

    def test_positivity_checked_memo(self):
        points = enumerate_isotropic(3)
        for theory in ("K", "H"):
            for b in points:
                checked = {}
                for a in points:
                    assert (positivity_certificate(a, b, theory, checked)
                            == positivity_certificate(a, b, theory))

    @pytest.mark.parametrize("name", ["coordinate_weight_k", "coordinate_weight_h"])
    def test_positivity_suite_fails_where_fresh_calls_fail(self, monkeypatch, name):
        # (1, 6) is the cut pair of entry (1, 1) at every beta with beta'(1) = 1;
        # a memo shared across betas would reuse another beta's root for (1, 1)
        weight = getattr(restriction, name)

        def perturbed(a, b, n):
            w = weight(a, b, n)
            return w + 1 if (a, b) == (1, 6) else w

        monkeypatch.setattr(restriction, name, perturbed)
        points = enumerate_isotropic(3)
        expected = []
        for a in points:
            for b in points:
                for theory in ("K", "H"):
                    try:
                        positivity_certificate(a, b, theory)
                    except CertificateError as exc:
                        expected.append(f"{theory} ({a}; {b}): {exc}")
        assert expected
        assert run_verification(3, ("positivity",))[0].failures == expected


class TestDiagonalRestriction:
    def test_single_component_product(self):
        # at beta = alpha the enumeration is a single tableau, so the class
        # is the plain product over its cut coordinates
        from lgrass import enumerate_ssvt, enumerate_ssyt, subspace_of_tableau
        from lgrass import sigma as sig
        for n in (2, 3, 4):
            for alpha in enumerate_isotropic(n):
                lam = sig(alpha)
                assert len(enumerate_ssvt(lam, lam)) == 1
                (only,) = enumerate_ssyt(lam, lam)
                spec = subspace_of_tableau(only, alpha)
                assert restrict_k(alpha, alpha).value == spec.class_k()
                assert restrict_k(alpha, alpha).term_count == 1


class TestChern:
    def test_example_pair(self):
        assert chern_consistency(ALPHA, BETA)

    def test_identity(self):
        assert chern_consistency(IsotropicIndex(3, (1, 2, 3)), BETA)

    def test_exhaustive_n2(self):
        for a in enumerate_isotropic(2):
            for b in enumerate_isotropic(2):
                assert chern_consistency(a, b)

    def test_exhaustive_n4(self):
        for a in enumerate_isotropic(4):
            for b in enumerate_isotropic(4):
                assert chern_consistency(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lowest_forms_match_x_expansion(self, n):
        """Every K value at rank n, at the suite's order guess and on the fallback path."""
        points = enumerate_isotropic(n)
        for a in points:
            for b in points:
                k = restrict_k(a, b).value
                l = length(a)
                assert lowest_degree_form(k, order=l) == x_expansion_lowest_form(k, order=l)
                if l:  # every part up to degree 0 vanishes, so this takes the fallback
                    assert lowest_degree_form(k, order=0) == x_expansion_lowest_form(k, order=0)

    def test_perturbed_restriction_reported_once(self, monkeypatch):
        points = enumerate_isotropic(3)
        victim = (points[3], points[6])
        perturb_column_values(monkeypatch, "H", *victim)
        report = run_verification(3, ("chern",))[0]
        assert report.checks == 64
        assert report.failures == [f"chern mismatch at ({victim[0]}; {victim[1]})"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(enumerate_isotropic(5)),
           st.sampled_from(enumerate_isotropic(5)))
    def test_sampled_n5(self, alpha, beta):
        assert chern_consistency(alpha, beta)
        l = length(alpha)
        if l:
            # negative control: (1 - t_1)^l = x_1^l changes the degree-l part only
            bump = (1 - LaurentPolynomial.var(5, 1)) ** l
            k = restrict_k(alpha, beta).value
            assert lowest_degree_form(k + bump, order=l) != restrict_h(alpha, beta).value


class TestSuites:
    def test_all_pass_n2(self):
        reports = run_verification(2)
        assert all(r.ok for r in reports)
        assert {r.suite for r in reports} == {
            "oracle", "gkm", "chern", "positivity", "subword"}

    def test_corrupt_control(self):
        reports = run_verification(2, suites=("gkm",), corrupt=True)
        assert not reports[0].ok

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_verification(2, suites=("bogus",))

    def test_report_json(self):
        report = run_verification(1, suites=("chern",))[0]
        data = report.to_json()
        assert data["suite"] == "chern" and data["ok"] is True
        assert data["checks"] == 4


class TestRestrictionReads:
    """The suites read one store per run_verification call; single checks walk pruned."""

    def test_each_run_walks_every_column_once(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        real = oracles.column_values
        walked = []

        def counted(beta, theory, alphas):
            walked.append((beta, theory))
            return real(beta, theory, alphas)

        monkeypatch.setattr(oracles, "column_values", counted)
        every = {(b, t) for b in enumerate_isotropic(3) for t in "KH"}
        for _ in range(2):  # a second run walks again: nothing outlives the first
            walked.clear()
            assert run_verification(3, ("gkm",))[0].ok
            assert len(walked) == 16 and set(walked) == every

    def test_run_drops_every_value_it_read(self, monkeypatch):
        class Tracked(LaurentPolynomial):
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        real = oracles.column_values
        refs = []

        def tracked(beta, theory, alphas):
            values = [Tracked(v.n, v.terms()) for v in real(beta, theory, alphas)]
            refs.extend(weakref.ref(v) for v in values)
            return values

        monkeypatch.setattr(oracles, "column_values", tracked)
        assert all(r.ok for r in run_verification(3))
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    def test_single_checks_walk_pruned(self, monkeypatch):
        real = restriction._walk
        targets = []

        def recorded(beta, theory, target=None):
            targets.append(target)
            return real(beta, theory, target)

        monkeypatch.setattr(restriction, "_walk", recorded)
        points = enumerate_isotropic(3)
        for a in points:
            for b in points:
                assert chern_consistency(a, b)
        for theory in ("K", "H"):
            assert gkm_check(points[3], 3, theory).ok
        assert targets and None not in targets

    def test_no_private_name_imported_from_restriction(self):
        tree = ast.parse(Path(oracles.__file__).read_text())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").rpartition(".")[2] == "restriction"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


@pytest.mark.parametrize("oracle", [billey_restrict_h, kclass_union_oracle])
def test_rank_mismatch_rejected(oracle):
    with pytest.raises(ValueError, match="rank mismatch"):
        oracle(ALPHA, IsotropicIndex(2, (1, 2)))
