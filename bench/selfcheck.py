"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

Negative controls (a perturbed table cell, ``verify --corrupt`` output and
unparsable output must fail), the smoke workloads (K and H tables at n=3,
verify at n=2) in both trace modes with every metric named in
BENCHMARK.json present, identical work counts across two traced runs, every
wrapped function restored after tracing, and a refusal to run without the
lgrass sources.  Exits nonzero at the first failed check; takes under a
minute.
"""

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def reference(name):
    return json.loads((run.REFERENCE / f"{name}.json").read_text())


def negative_controls():
    name = "smoke_k_table_n3"
    argv, kind = run.WORKLOADS[name]
    ref, child = reference(name), run.spawn("timed", argv, 60)
    expect(run.check(ref, kind, child.rc, child.out) == (64, 0), "K table matches its reference")
    payload = json.loads(child.out)
    point = payload["points"][-1]
    payload["rows"][point][point]["terms"][0]["c"] += 1
    expect(run.check(ref, kind, 0, json.dumps(payload).encode()) == (64, 1),
           "a perturbed K table cell fails exactly one pair")

    name = "smoke_h_table_n3"
    argv, kind = run.WORKLOADS[name]
    ref, child = reference(name), run.spawn("timed", argv, 60)
    expect(run.check(ref, kind, child.rc, child.out) == (64, 0), "H table matches its reference")
    rows = list(csv.reader(child.out.decode().splitlines()))
    rows[-1][-1] += " + 1"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    expect(run.check(ref, kind, 0, buf.getvalue().encode()) == (64, 1),
           "a perturbed H table cell fails exactly one pair")
    expect(run.check(ref, kind, 0, child.out[:len(child.out) // 2]) == (64, 64),
           "a truncated table fails every pair")
    expect(run.check(ref, kind, 1, child.out) == (64, 64), "a nonzero exit fails every pair")

    name = "smoke_verify_n2"
    argv, kind = run.WORKLOADS[name]
    ref = reference(name)
    child = run.spawn("timed", argv + ["--corrupt"], 60)
    attempted, failed = run.check(ref, kind, child.rc, child.out)
    expect(child.rc == 1 and failed == attempted > 0, "verify --corrupt exits 1 and fails every check")
    attempted, failed = run.check(ref, kind, 0, child.out)
    expect(0 < failed < attempted, "the --corrupt report fails its corrupted checks only")
    expect(run.check(ref, kind, 0, b"not json") == (attempted, attempted),
           "unparsable verify output fails every check")


def bench(name, trace, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        names = [m["name"] for m in listed]
        for name in ("smoke_k_table_n3", "smoke_h_table_n3", "smoke_verify_n2"):
            result = json.loads(bench(name, trace).stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["failed"] == 0,
                   f"{name} --trace {trace} is correct")
            expect(list(result["metrics"]) == names
                   and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} --trace {trace} reports every metric in BENCHMARK.json")

    counts = []
    for _ in range(2):
        metrics = json.loads(bench("smoke_verify_n2", 1).stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    expect(counts[0] == counts[1], "work counts repeat exactly across two traced runs")


def restoration():
    sys.path.insert(0, str(run.ROOT / "src"))
    import lgrass.cli
    from lgrass.laurent import LaurentPolynomial
    from tracer import Tracer

    mul = LaurentPolynomial.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        expect(LaurentPolynomial.__mul__ is not mul, "tracing replaces LaurentPolynomial.__mul__")
        with contextlib.redirect_stdout(io.StringIO()):
            lgrass.cli.main(run.WORKLOADS["smoke_verify_n2"][0])
    finally:
        tracer.uninstall()
    expect(tracer.restored() and LaurentPolynomial.__mul__ is mul,
           f"all {len(tracer.patched)} wrapped functions are restored after tracing")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(tracer.report()) | {"cli.output_bytes", "trace.overhead_ratio"}
           == {m["name"] for m in spec["per_layer"]},
           "the tracer measures exactly the per-layer metrics in BENCHMARK.json")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_bare_") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, f"{tmp}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("k_table_n5", 0, cwd=tmp)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the lgrass sources the benchmark fails and prints no result")


if __name__ == "__main__":
    negative_controls()
    restoration()
    bare_directory()
    smoke()
    print("selfcheck passed")
