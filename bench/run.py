"""Cold-start benchmark of the lgrass CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run is a fresh interpreter
(``child.py``) with ``PYTHONHASHSEED=0`` that imports ``lgrass.cli`` from
``src/`` and calls ``main()`` on one CLI command, one child at a time, so each
run starts with empty caches as a CLI user does.  The output of every run is
compared, cell by cell or check by check, with the reference recorded in
``bench/reference/``; the comparison runs in this process after the child has
exited.  The seed picks the reference cells that are re-derived by oracles
that share no code with the tableau sums (``oracle_check.py``).

``--trace 0`` repeats untimed set-up probes and timed runs for ``--seconds``
(at least three runs) and reports the medians of the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of ``tracer.py``.  The last stdout line is the JSON result.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

WORKLOADS = {
    # name: (CLI arguments, output kind)
    "k_table_n5": (["table", "--n", "5", "--theory", "K", "--out", "json"], "table_json"),
    "verify_n4": (["verify", "--n", "4", "--suite", "all", "--json"], "verify"),
    # by hand only: too few 10 s runs fit in one measured window (README.md)
    "h_table_n6": (["table", "--n", "6", "--theory", "H", "--out", "csv"], "table_csv"),
    # smoke workloads for selfcheck.py
    "smoke_k_table_n3": (["table", "--n", "3", "--theory", "K", "--out", "json"], "table_json"),
    "smoke_h_table_n3": (["table", "--n", "3", "--theory", "H", "--out", "csv"], "table_csv"),
    "smoke_verify_n2": (["verify", "--n", "2", "--suite", "all", "--json"], "verify"),
}
SETUP_PROBES = 3  # per timed child
MIN_RUNS = 3
ORACLE_SAMPLE = 6
RUN_LIMIT_S = 170  # a run must end within 180 s


def machine():
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count()}


# -- children ---------------------------------------------------------------

# a finished child: exit code, stdout bytes, its measurements (or None), seconds
Child = namedtuple("Child", "rc out report elapsed")


def spawn(mode, cli_argv, timeout):
    """Run child.py in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), mode, "--", *cli_argv]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["LGBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return Child(None, exc.stdout or b"", None, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    lines = proc.stderr.decode(errors="replace").splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    if report is None or proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return Child(proc.returncode, proc.stdout, report, elapsed)


# -- output checks ----------------------------------------------------------

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_digests(kind, out):
    """(points, rows of per-cell digests) of a table output; ValueError if malformed."""
    text = out.decode()
    if kind == "table_json":
        payload = json.loads(text)
        points = payload["points"]
        rows = [[digest(json.dumps(payload["rows"][a][b], sort_keys=True,
                                   separators=(",", ":")))
                 for b in points] for a in points]
        return points, rows
    table = list(csv.reader(text.splitlines()))
    header = table[0]
    if header[0] != "alpha\\beta" or any(len(row) != len(header) for row in table):
        raise ValueError("malformed CSV table")
    points = header[1:]
    if [row[0] for row in table[1:]] != points:
        raise ValueError("row labels differ from column labels")
    return points, [[digest(cell) for cell in row[1:]] for row in table[1:]]


def reference_items(ref):
    if "digests" in ref:
        return len(ref["points"]) ** 2
    return sum(r["checks"] for r in ref["output"]["reports"])


def check(ref, kind, rc, out):
    """(attempted, failed) items of one run: table pairs, or verify checks.

    A run that crashed, exited nonzero or printed unparsable output fails
    every item.
    """
    attempted = reference_items(ref)
    if rc != 0:
        return attempted, attempted
    if kind == "verify":
        try:
            reports = {r["suite"]: r for r in json.loads(out.decode())["reports"]}
        except (ValueError, KeyError, TypeError):
            return attempted, attempted
        failed = 0
        for want in ref["output"]["reports"]:
            got = reports.get(want["suite"])
            if got is None or got.get("checks") != want["checks"] or got.get("n") != want["n"]:
                failed += want["checks"]
            else:
                failed += min(len(got.get("failures", ())) or int(not got.get("ok")), want["checks"])
        return attempted, failed
    try:
        points, rows = cell_digests(kind, out)
    except (ValueError, KeyError, TypeError, IndexError):
        return attempted, attempted
    if points != ref["points"]:
        return attempted, attempted
    failed = sum(got != want for got_row, want_row in zip(rows, ref["digests"])
                 for got, want in zip(got_row, want_row))
    return attempted, failed


def oracle_check(workload, seed, timeout):
    """Re-derive seed-picked reference cells by independent oracles.

    Returns (all agree, list of checked cells); tables only.
    """
    cmd = [sys.executable, str(BENCH / "oracle_check.py"), str(ROOT),
           str(REFERENCE / f"{workload}.json"), str(seed), str(ORACLE_SAMPLE)]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED="0"), cwd=ROOT,
                              capture_output=True, timeout=max(timeout, 1))
        cells = json.loads(proc.stdout.decode().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        return False, []
    return proc.returncode == 0 and all(c["agrees"] for c in cells), cells


# -- the benchmark ----------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, ref, kind, child):
        attempted, failed = check(ref, kind, child.rc, child.out)
        self.attempted += attempted
        self.failed += failed
        self.correct &= failed == 0 and child.report is not None


def fallback_report(child):
    """Measurements of a child that crashed before reporting."""
    return {"wall_s": child.elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def run_untraced(argv, kind, ref, seconds, deadline, tally):
    setup = []
    spawn("setup", argv, deadline - time.monotonic())  # warm-up: byte-compiles src/
    runs, last = [], 0.0
    start = time.monotonic()
    # start no round that would end past the window, judged by the last one
    while len(runs) < MIN_RUNS or time.monotonic() - start + last < seconds:
        began = time.monotonic()
        for _ in range(SETUP_PROBES):  # spread over the run, like the timed children
            probe = spawn("setup", argv, deadline - time.monotonic())
            if probe.report is None:
                raise SystemExit("set-up probe failed: lgrass.cli cannot be imported")
            setup.append(probe.report["setup_s"])
        child = spawn("timed", argv, deadline - time.monotonic())
        tally.add(ref, kind, child)
        runs.append(child.report or fallback_report(child))
        if child.report:
            setup.append(child.report["setup_s"])
        last = time.monotonic() - began
        if time.monotonic() >= deadline:
            break
    print("runs:", json.dumps({k: [round(r[k], 4) for r in runs]
                               for k in ("wall_s", "peak_rss_mb")}))
    return {"wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


def run_traced(argv, kind, ref, seconds, deadline, tally):
    spawn("setup", argv, deadline - time.monotonic())
    plain, traced, output_bytes, last = [], [], 0, 0.0
    start = time.monotonic()
    while not traced or time.monotonic() - start + last < seconds:
        began = time.monotonic()
        child = spawn("timed", argv, deadline - time.monotonic())
        tally.add(ref, kind, child)
        plain.append((child.report or fallback_report(child))["wall_s"])
        child = spawn("traced", argv, deadline - time.monotonic())
        tally.add(ref, kind, child)
        if child.report is None:
            break
        tally.correct &= child.report["restored"]
        traced.append(child.report)
        output_bytes = len(child.out)
        last = time.monotonic() - began
        if time.monotonic() >= deadline:
            break
    if not traced:
        raise SystemExit("the traced run produced no measurements")
    layers = [r["layers"] for r in traced]
    # work counts must repeat exactly; times vary
    for name, value in layers[0].items():
        if isinstance(value, int) and any(l[name] != value for l in layers):
            print(f"work count {name} differs between traced runs")
            tally.correct = False
    metrics = {name: value if isinstance(value, int) else statistics.median(l[name] for l in layers)
               for name, value in layers[0].items()}
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(plain))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lgrass" / "cli.py").is_file():
        raise SystemExit(f"no lgrass sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    argv, kind = WORKLOADS[args.workload]
    ref = json.loads((REFERENCE / f"{args.workload}.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    tally = Tally()
    print("machine:", json.dumps(machine()))

    if args.trace:
        metrics = run_traced(argv, kind, ref, args.seconds, deadline, tally)
    else:
        metrics = run_untraced(argv, kind, ref, args.seconds, deadline, tally)
    print("failed_ratio:", tally.failed / tally.attempted)

    if kind != "verify":
        agree, cells = oracle_check(args.workload, args.seed, deadline - time.monotonic())
        print("oracle cells:", json.dumps(cells))
        tally.correct &= agree

    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
