"""Record the reference outputs of every workload from the current sources.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once through ``child.py`` and writes
``bench/reference/<workload>.json``: per-pair cell digests for the tables
(the same digests ``run.py`` compares), the whole parsed output for verify.
Only rerun this when the expected outputs change on purpose.
"""

import json
import sys

import run


def main(names):
    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        argv, kind = run.WORKLOADS[name]
        child = run.spawn("timed", argv, timeout=3600)
        if child.rc != 0 or child.report is None:
            raise SystemExit(f"{name}: the CLI failed (exit code {child.rc})")
        ref = {"workload": name, "argv": argv, "machine": run.machine()}
        if kind == "verify":
            ref["output"] = json.loads(child.out.decode())
            if not ref["output"]["ok"]:
                raise SystemExit(f"{name}: verification failed")
        else:
            ref["n"], ref["theory"] = int(argv[2]), argv[4]
            ref["points"], ref["digests"] = run.cell_digests(kind, child.out)
        (run.REFERENCE / f"{name}.json").write_text(json.dumps(ref) + "\n")
        print(f"{name}: {run.reference_items(ref)} items, {child.report['wall_s']:.2f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
