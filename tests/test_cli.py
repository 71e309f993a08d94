import hashlib
import json
import os
import subprocess
import sys

import pytest

import lgrass
from lgrass import IsotropicIndex, cli, enumerate_isotropic, oracles, restriction
from lgrass.cli import VERIFY_RANK_LIMITS, main, parse_index, parse_partition

SRC = os.path.dirname(os.path.dirname(lgrass.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def use_cpus(monkeypatch, count):
    """Make forked_map, which deals the table and verify jobs, see count usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising_outside_parent(cpus, original):
    """original, made to raise ValueError in a child, or anywhere on one process."""
    parent = os.getpid()

    def job(*args):
        if cpus == 1 or os.getpid() != parent:
            raise ValueError("injected job failure")
        return original(*args)

    return job


def python(*argv):
    """Run a fresh interpreter on lgrass from this checkout; its CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)


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
        assert parse_partition(" [3, 2, ] ") == (3, 2)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            parse_index("1,x", 2)

    @pytest.mark.parametrize("same,base", [
        (("models", "--lam", "2,", "--mu", "3,1"), ("models", "--lam", "2", "--mu", "3,1")),
        (("models", "--lam", "2", "--mu", "[3,1]"), ("models", "--lam", "2", "--mu", "3,1")),
        (("render", "--rho", "[3,2,1]"), ("render", "--rho", "3,2,1")),
        (("render", "--rho", "3,1,1,"), ("render", "--rho", "3,1,1")),
        (("restrict", "--n", "2", "--alpha", "[1,2]", "--beta", "-2,-1,"),
         ("restrict", "--n", "2", "--alpha", "1,2", "--beta", "-2,-1")),
        (("chart", "--n", "3", "--beta", "[3,-2,-1]"), ("chart", "--n", "3", "--beta", "3,-2,-1")),
    ], ids=["lam-trailing-comma", "mu-brackets", "rho-brackets", "rho-trailing-comma",
            "alpha-brackets", "beta-brackets"])
    def test_every_list_flag_reads_one_syntax(self, capsys, same, base):
        assert run(capsys, *same) == run(capsys, *base)

    @pytest.mark.parametrize("argv,text", [
        (("models", "--lam", "2,x", "--mu", "3,1"), "2,x"),
        (("render", "--rho", "3,,y"), "3,,y"),
        (("restrict", "--n", "2", "--alpha", "1,2", "--beta", "[-2,-1"), "[-2,-1"),
    ])
    def test_unparsable_list_named_exit_2(self, capsys, argv, text):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        assert capsys.readouterr() == (
            "", f"error: cannot parse {text!r} as a comma-separated list of integers\n")


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

    @pytest.mark.parametrize("alpha,label", [("0,1", 0), ("1,5", 5)])
    def test_out_of_range_label_named_exit_2(self, capsys, alpha, label):
        with pytest.raises(SystemExit) as err:
            main(["restrict", "--n", "2", "--alpha", alpha, "--beta", "1,2"])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", f"error: label {label} out of range 1..4 for n=2\n")

    def test_rank_guard_allows_n7(self, capsys):
        code, out = run(capsys, "restrict", "--n", "7", "--alpha", "1,2,3,4,5,6,7",
                        "--beta", "-7,-6,-5,-4,-3,-2,-1", "--theory", "K")
        assert code == 0
        assert "value: 1" in out

    def test_rank_guard_n8_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["restrict", "--n", "8", "--alpha", "1,2,3,4,5,6,7,8",
                  "--beta", "-8,-7,-6,-5,-4,-3,-2,-1", "--theory", "K"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "error: restrict rank guard: n <= 7\n"


class TestTableCommand:
    def test_rank_zero_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["table", "--n", "0"])
        assert err.value.code == 2

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("theory,out", [("K", "json"), ("K", "csv"),
                                            ("H", "json"), ("H", "csv")])
    def test_same_bytes_on_1_2_3_processes(self, capsys, monkeypatch, n, theory, out):
        texts = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            code, text = run(capsys, "table", "--n", str(n), "--theory", theory, "--out", out)
            assert code == 0
            assert_no_child_left()
            texts.append(text)
        assert texts[1] == texts[0] and texts[2] == texts[0]

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failing_column_writes_nothing_and_reaps(self, capsys, monkeypatch, where):
        use_cpus(monkeypatch, 3)
        parent = os.getpid()
        column_values = cli.column_values

        def failing(beta, theory, alphas):
            if (os.getpid() == parent) == (where == "parent"):
                raise ArithmeticError("injected column failure")
            return column_values(beta, theory, alphas)

        monkeypatch.setattr(cli, "column_values", failing)
        # a child's exception is raised again in the parent as its own class
        with pytest.raises(ArithmeticError, match="injected column failure"):
            main(["table", "--n", "3", "--theory", "K", "--out", "json"])
        assert capsys.readouterr().out == ""
        assert_no_child_left()

    def test_child_error_of_a_local_class_raises_runtime_error(self, capsys, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        column_values = cli.column_values

        class Local(Exception):  # no module attribute leads to it
            pass

        def failing(beta, theory, alphas):
            if os.getpid() != parent:
                raise Local("injected column failure")
            return column_values(beta, theory, alphas)

        monkeypatch.setattr(cli, "column_values", failing)
        with pytest.raises(RuntimeError, match="Local"):
            main(["table", "--n", "3", "--theory", "K", "--out", "json"])
        assert capsys.readouterr().out == ""
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_value_error_in_any_process_exits_2(self, capsys, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "column_values", raising_outside_parent(cpus, cli.column_values))
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "3", "--theory", "K", "--out", "json"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: injected job failure\n")
        assert_no_child_left()

    def test_stdout_pipe_matches_in_process_bytes(self, capsys):
        # a fork child must never flush a copy of the parent's buffered stdout
        _, text = run(capsys, "table", "--n", "3", "--theory", "K", "--out", "json")
        proc = python("-m", "lgrass.cli", "table", "--n", "3", "--theory", "K", "--out", "json")
        assert proc.stdout == text.encode()

    def test_closed_stdout_exits_141_without_traceback(self):
        # the n=5 K table is 3.4 MB, more than a pipe holds, so a write meets the closed end
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen([sys.executable, "-m", "lgrass.cli", "table", "--n", "5",
                                 "--theory", "K", "--out", "json"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b"", err.decode()  # no traceback, no "Exception ignored"

    def test_import_starts_no_process_or_thread_machinery(self):
        # -S: site's own imports would hide what lgrass loads
        proc = python("-S", "-c", "import sys, lgrass.cli, lgrass.oracles, lgrass.workers; "
                                  "print(' '.join(sorted(sys.modules)))")
        loaded = {name.partition(".")[0] for name in proc.stdout.decode().split()}
        assert "lgrass" in loaded
        assert not loaded & {"multiprocessing", "pickle", "threading", "concurrent"}


def readme_examples():
    """The argv of each line of the README's "Command line" block."""
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme) as handle:
        block = handle.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("lgrass ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs_cold(argv):
    # a fresh interpreter: a command's own imports run only there
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "lgrass.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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

    @pytest.mark.parametrize("argv", [
        ("--lam", "2", "--mu", "3,1", "--which", "tableaux", "--index", "-1"),
        ("--lam", "2", "--mu", "3,1", "--which", "tableaux", "--index", "5"),
        ("--lam", "3", "--mu", "2,1", "--index", "0"),  # no elements at all
    ], ids=["negative", "past-end", "empty"])
    def test_index_out_of_range_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["render", *argv])
        assert err.value.code == 2
        assert "--index" in capsys.readouterr().err

    def test_rho_not_symmetric_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["render", "--rho", "3,1"])
        assert err.value.code == 2
        assert "not a symmetric partition" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [("--lam", "2"), ("--mu", "3,1"), ("--which", "all"),
                                       ("--index", "7")], ids=lambda extra: extra[0])
    def test_rho_with_model_flag_exit_2(self, capsys, extra):
        with pytest.raises(SystemExit) as err:
            main(["render", "--rho", "3,2,1", *extra])
        assert err.value.code == 2
        assert f"takes no {extra[0]}" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "fig.svg"
        code, _ = run(capsys, "render", "--rho", "3,2,1", "--format", "svg",
                      "--output", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg")

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_output_cannot_be_opened_exit_2(self, tmp_path, capsys, where):
        target = tmp_path / "absent" / "fig.svg" if where == "missing-directory" else tmp_path
        with pytest.raises(SystemExit) as err:
            main(["render", "--rho", "3,2,1", "--output", str(target)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --output {target}: ")

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
            main(["verify", "--n", "7", "--suite", "all"])
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


class TestVerifyProcesses:
    """verify deals its jobs over usable CPUs; the process count changes no byte."""

    def same_on_1_2_3(self, capsys, monkeypatch, *argv):
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            runs.append(run(capsys, "verify", *argv))
            assert_no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        return runs[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_all_suites_n_le_3(self, capsys, monkeypatch, n, fmt):
        code, _ = self.same_on_1_2_3(capsys, monkeypatch, "--n", str(n), "--suite", "all", *fmt)
        assert code == 0

    @pytest.mark.parametrize("suite", list(VERIFY_RANK_LIMITS))
    def test_each_suite_n4(self, capsys, monkeypatch, suite):
        code, _ = self.same_on_1_2_3(capsys, monkeypatch, "--n", "4", "--suite", suite, "--json")
        assert code == 0

    def test_corrupt_failures_keep_their_order(self, capsys, monkeypatch):
        code, out = self.same_on_1_2_3(capsys, monkeypatch, "--n", "3", "--suite", "gkm",
                                       "--corrupt", "--json")
        assert code == 1
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "16f8df350c47c5bda508f530f207671b1ace9d154d53935057d8b7e0b584cccb")

    def test_all_suites_n4_pinned_bytes(self, capsys, monkeypatch):
        # pins every check count at n=4 and their order on 1, 2 and 3 processes
        code, out = self.same_on_1_2_3(capsys, monkeypatch, "--n", "4", "--suite", "all", "--json")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "cdf79db4c3280a05fcf0e0d815d80d1bbd45436857e722eaf7c8df67f515d96c")

    @pytest.mark.parametrize("name", ["coordinate_weight_k", "coordinate_weight_h"])
    def test_perturbed_positivity_failures_keep_their_order(self, monkeypatch, name):
        weight = getattr(restriction, name)

        def perturbed(a, b, n):
            w = weight(a, b, n)
            return w + 1 if (a, b) == (1, 6) else w

        monkeypatch.setattr(restriction, name, perturbed)
        points = enumerate_isotropic(3)
        expected = []  # alpha-major, then beta, then K before H
        for a in points:
            for b in points:
                for theory in ("K", "H"):
                    try:
                        restriction.positivity_certificate(a, b, theory)
                    except restriction.CertificateError as exc:
                        expected.append(f"{theory} ({a}; {b}): {exc}")
        assert len({msg.split(";")[1] for msg in expected}) > 1  # failures at several betas
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            assert oracles.run_verification(3, ("positivity",))[0].failures == expected
            assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_value_error_in_any_process_exits_2(self, capsys, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        monkeypatch.setitem(oracles.SUITES, "chern",
                            raising_outside_parent(cpus, oracles.SUITES["chern"]))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--suite", "all"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: injected job failure\n")
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_error_in_any_process_is_raised_as_itself(self, capsys, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        parent = os.getpid()
        real = oracles.lowest_degree_form

        def failing(p, order):
            if cpus == 1 or os.getpid() != parent:
                raise ArithmeticError("injected check failure")
            return real(p, order=order)

        monkeypatch.setattr(oracles, "lowest_degree_form", failing)
        with pytest.raises(ArithmeticError, match="injected check failure"):
            main(["verify", "--n", "3", "--suite", "chern"])
        assert capsys.readouterr().out == ""
        assert_no_child_left()

    def test_repeated_suite_keeps_one_report_each(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        reports = oracles.run_verification(2, ("gkm", "gkm"))
        assert [(r.suite, r.checks, r.ok) for r in reports] == [("gkm", 48, True)] * 2
        assert_no_child_left()
        assert oracles.run_verification(2, ()) == []

    def test_stdout_pipe_matches_in_process_bytes(self, capsys):
        _, text = run(capsys, "verify", "--n", "3", "--suite", "all", "--json")
        proc = python("-m", "lgrass.cli", "verify", "--n", "3", "--suite", "all", "--json")
        assert proc.stdout == text.encode()


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

    def test_oracle_n5_pinned_bytes(self, capsys):
        code, text = run(capsys, "verify", "--n", "5", "--suite", "oracle", "--json")
        assert code == 0
        assert json.loads(text)["reports"][0]["checks"] == 1024
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "4dc9ca4ceb4747ffc794639a83be58e1540f628232235ae34c84aec502806cbf")

    def test_oracle_n7_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "7", "--suite", "oracle"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["gkm", "chern"])
    def test_n7_exit_2(self, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "7", "--suite", suite])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n,digest", [
        (7, "5cf451134715d870b7d14961d3550f6ce60a0af0157cf5c3b117a719ae8ccfd0"),
        (10, "7ff91f0ba3cea4da09ca883acab4ad1bd7e82466f50099efb48e731ca0b3c6a5"),
    ])
    def test_positivity_pinned_bytes(self, capsys, n, digest):
        code, text = run(capsys, "verify", "--n", str(n), "--suite", "positivity", "--json")
        assert code == 0
        assert json.loads(text)["reports"][0]["checks"] == 2 * 4 ** n
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_positivity_n11_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "11", "--suite", "positivity"])
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
