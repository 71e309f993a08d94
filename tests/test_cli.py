import hashlib
import json

import pytest

from lgrass.cli import VERIFY_RANK_LIMITS, main, parse_index, parse_partition
from lgrass import IsotropicIndex, oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_signed(self):
        assert parse_index("3,-2,-1", 3) == IsotropicIndex(3, (3, 5, 6))

    def test_raw_labels(self):
        assert parse_index("3,5,6", 3) == IsotropicIndex(3, (3, 5, 6))

    def test_mixed_signed(self):
        assert parse_index("1,3,-2", 3) == IsotropicIndex(3, (1, 3, 5))

    def test_partition(self):
        assert parse_partition("[3,2]") == (3, 2)
        assert parse_partition("") == ()

    def test_bad_index(self):
        with pytest.raises(ValueError):
            parse_index("1,x", 2)


class TestRestrictCommand:
    def test_worked_example_h(self, capsys):
        code, out = run(capsys, "restrict", "--n", "3", "--alpha", "1,3,-2",
                        "--beta", "3,-2,-1", "--theory", "H")
        assert code == 0
        assert "tableaux summed: 3" in out
        assert "2*t1^2" in out

    def test_identity_k(self, capsys):
        code, out = run(capsys, "restrict", "--n", "2", "--alpha", "1,2",
                        "--beta", "-2,-1", "--theory", "K")
        assert code == 0
        assert "value: 1" in out

    def test_vanishing_json(self, capsys):
        code, out = run(capsys, "restrict", "--n", "2", "--alpha", "-2,-1",
                        "--beta", "1,-2", "--theory", "K", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["term_count"] == 0
        assert data["value"]["terms"] == []

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["restrict", "--n", "3", "--alpha", "1,3,-2",
                  "--beta", "3,-2,-1", "--theory", "X"])
        assert err.value.code == 2

    def test_invalid_index_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["restrict", "--n", "2", "--alpha", "1,4",
                  "--beta", "1,2", "--theory", "K"])
        assert err.value.code == 2


class TestTableCommand:
    def test_rank_one_h(self, capsys):
        code, out = run(capsys, "table", "--n", "1", "--theory", "H")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha\\beta,1,-1"
        assert lines[1] == "1,1,1"
        assert lines[2] == "-1,0,-2*t1"

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "table", "--n", "2", "--theory", "K",
                        "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 4
        assert data["points"][0] == "1,2"

    def test_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "9", "--theory", "H"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n,theory", [(7, "K"), (8, "H")])
    def test_guard_per_theory(self, n, theory):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", str(n), "--theory", theory])
        assert exc.value.code == 2

    @pytest.mark.parametrize("theory,out,digest", [
        ("K", "json", "70300642e2d1e5d8e5bb7db37b430df2f4d33c2e18e29309105e4c4a60421e97"),
        ("H", "csv", "e631fce966321e0a16acee34bb485a8ad47b2432ad9888d7b2734a4883126034"),
    ])
    def test_pinned_bytes_n4(self, capsys, theory, out, digest):
        code, text = run(capsys, "table", "--n", "4", "--theory", theory, "--out", out)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_guard_writes_nothing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "7", "--theory", "K", "--out", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_deterministic(self, capsys):
        _, out1 = run(capsys, "table", "--n", "2", "--theory", "H")
        _, out2 = run(capsys, "table", "--n", "2", "--theory", "H")
        assert out1 == out2


class TestModelsCommand:
    def test_counts(self, capsys):
        code, out = run(capsys, "models", "--lam", "3,1", "--mu", "5,3,2,1")
        assert code == 0
        assert out.count("10 elements") == 3

    def test_empty_shape(self, capsys):
        code, out = run(capsys, "models", "--lam", "", "--mu", "2,1",
                        "--which", "tableaux")
        assert code == 0
        assert "1 elements" in out

    def test_json_forms(self, capsys):
        code, out = run(capsys, "models", "--lam", "2", "--mu", "3,2",
                        "--json")
        assert code == 0
        data = json.loads(out)
        assert data["tableaux"][0] == [
            {"row": 1, "col": 1, "entries": [1]},
            {"row": 1, "col": 2, "entries": [1]}]
        assert data["subsets"][0] == [{"row": 1, "col": 1}, {"row": 1, "col": 2}]
        assert len(data["families"]) == 3

    @pytest.mark.parametrize("argv,digest", [
        (("--lam", "3,1", "--mu", "5,3,2,1", "--json"),
         "00ddac6a6edb83e82db39318ac28218dae6782f6851227604dc4ec0c3c969abd"),
        (("--lam", "2,1", "--mu", "4,2,1", "--list"),
         "6e7459e535df13a9da251909464c11b93714b499a1f0ff7008ac1a749d724e89"),
    ])
    def test_pinned_bytes(self, capsys, argv, digest):
        code, text = run(capsys, "models", *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRenderCommand:
    def test_ascii_tableaux(self, capsys):
        code, out = run(capsys, "render", "--lam", "2", "--mu", "3,2",
                        "--which", "tableaux")
        assert code == 0
        assert out.count("-- tableaux") == 3
        assert "|1|1|" in out.replace(" ", "")

    def test_svg(self, capsys):
        code, out = run(capsys, "render", "--lam", "3,1", "--mu", "5,3,2,1",
                        "--which", "families", "--index", "0", "--format", "svg")
        assert code == 0
        assert out.count("<svg") == 1 and "polyline" in out

    def test_rho_figure(self, capsys):
        code, out = run(capsys, "render", "--rho", "5,3,2,1,1")
        assert code == 0
        assert "->" in out

    def test_missing_args(self):
        with pytest.raises(SystemExit) as err:
            main(["render", "--lam", "2"])
        assert err.value.code == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "fig.svg"
        code, _ = run(capsys, "render", "--rho", "3,2", "--format", "svg",
                      "--output", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg")

    @pytest.mark.parametrize("argv,digest", [
        (("--lam", "3,1", "--mu", "5,3,2,1"),
         "c04c1ed86250b42d3f1cf563352008b88ebffa537520c601333ce1e06abfeb66"),
        (("--lam", "3,1", "--mu", "5,3,2,1", "--format", "svg"),
         "cfc6d0e0b2595791c2de63c7a878f01b5d86bc3fae55b80b40fc0230ae323726"),
        (("--rho", "5,3,2,1,1", "--format", "svg"),
         "02533e9497061624ee4308c53426acf50e2f1fb45cf1468dd66ecc04d2813e79"),
        (("--lam", "", "--mu", "2,1", "--format", "svg"),
         "6028905ba22025bc4de058234e3e103c2c8854f87ae369727448c8e894f859a4"),
    ])
    def test_pinned_bytes(self, capsys, argv, digest):
        # pins every ASCII and SVG layout byte, staircase offsets included
        code, text = run(capsys, "render", *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestChartCommand:
    def test_pairs_and_matrix(self, capsys):
        code, out = run(capsys, "chart", "--n", "4", "--beta", "1,4,-3,-2")
        assert code == 0
        assert "|R_beta| = 10" in out
        assert "-y[2,-3]" in out

    def test_weights_json(self, capsys):
        code, out = run(capsys, "chart", "--n", "1", "--beta", "1",
                        "--weights-json")
        assert code == 0
        data = json.loads(out)
        # at beta = {1} the single coordinate is y[bar(1),1] with weight t1^2
        assert data["pairs"] == [{"a": 2, "b": 1,
                                  "weight_k": {"n": 1, "terms": [{"e": [2], "c": 1}]},
                                  "weight_h": {"n": 1, "terms": [{"e": [1], "c": 2}]}}]


class TestVerifyCommand:
    def test_all_pass_n1(self, capsys):
        code, out = run(capsys, "verify", "--n", "1", "--suite", "all")
        assert code == 0
        assert "all suites passed" in out

    def test_chern_n2_counts(self, capsys):
        code, out = run(capsys, "verify", "--n", "2", "--suite", "chern",
                        "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["reports"][0]["checks"] == 16

    def test_corrupt_nonzero_exit(self, capsys):
        code, out = run(capsys, "verify", "--n", "1", "--suite", "gkm",
                        "--corrupt")
        assert code == 1
        assert "FAIL" in out

    def test_corrupt_all_nonzero_exit(self, capsys):
        code, out = run(capsys, "verify", "--n", "1", "--suite", "all",
                        "--corrupt")
        assert code == 1
        assert "FAIL" in out

    def test_corrupt_without_gkm_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--suite", "chern", "--corrupt"])
        assert exc.value.code == 2

    def test_guard(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "6", "--suite", "all"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,exit_code,digest", [
        (("--suite", "all"), 0,
         "390c240d62b3b5fb77ad5ecb3e6d5556891f388509fc12d01f147b56359e848a"),
        (("--suite", "gkm", "--corrupt"), 1,
         "16f8df350c47c5bda508f530f207671b1ace9d154d53935057d8b7e0b584cccb"),
    ])
    def test_pinned_bytes_n3(self, capsys, argv, exit_code, digest):
        # pins every check count, failure message and their order
        code, text = run(capsys, "verify", "--n", "3", *argv, "--json")
        assert code == exit_code
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_suite_order_is_one_list(self):
        assert list(VERIFY_RANK_LIMITS) == list(oracles.SUITES)
        assert [r.suite for r in oracles.run_verification(1)] == list(oracles.SUITES)


class TestVerifyRankGuard:
    """Per-suite rank limits from measured cost."""

    def test_subword_n5_exhaustive(self, capsys):
        code, out = run(capsys, "verify", "--n", "5", "--suite", "subword", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["reports"][0]["checks"] == 1024

    def test_subword_n6_exhaustive(self, capsys):
        code, out = run(capsys, "verify", "--n", "6", "--suite", "subword", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and data["reports"][0]["checks"] == 4096

    def test_oracle_n6_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "6", "--suite", "oracle"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["chern"])
    def test_n6_exit_2(self, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "6", "--suite", suite])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["gkm", "positivity"])
    def test_n7_exit_2(self, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "7", "--suite", suite])
        assert exc.value.code == 2

    def test_gkm_corrupt_n4_counts(self, capsys):
        code, out = run(capsys, "verify", "--n", "4", "--suite", "gkm", "--corrupt",
                        "--json")
        assert code == 1
        (report,) = json.loads(out)["reports"]
        assert report["checks"] == 2560 and len(report["failures"]) == 320

    def test_subword_n7_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "7", "--suite", "subword"])
        assert exc.value.code == 2
