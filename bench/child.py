"""One cold run of the lgrass CLI inside a fresh interpreter.

    child.py ROOT MODE -- CLI ARGS...

MODE is ``setup`` (import lgrass.cli, parse the arguments, stop), ``timed``
(also call ``lgrass.cli.main``) or ``traced`` (call it with every module
boundary wrapped by ``tracer.Tracer``).  The CLI writes its output to stdout
untouched; the last line of stderr is a JSON object of measurements.

``setup_s`` runs from ``LGBENCH_SPAWN_NS``, the system-wide monotonic clock
read by the parent just before it spawned this process, so it includes
interpreter start-up.
"""

import json
import os
import resource
import sys
import time

root, mode = sys.argv[1], sys.argv[2]
cli_argv = sys.argv[sys.argv.index("--") + 1:]
src = os.path.join(root, "src")
sys.path.insert(0, src)

import lgrass.cli  # noqa: E402

lgrass.cli.build_parser().parse_args(cli_argv)
setup_ns = time.monotonic_ns() - int(os.environ["LGBENCH_SPAWN_NS"])

if not os.path.abspath(lgrass.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"lgrass was imported from {lgrass.cli.__file__}, not from {src}")

report = {"setup_s": setup_ns / 1e9}
rc = 0
if mode != "setup":
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter_ns()
        try:
            rc = lgrass.cli.main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        report["wall_s"] = (time.perf_counter_ns() - start) / 1e9
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["restored"] = tracer.restored()
        report["layers"] = tracer.report()

sys.stderr.write(json.dumps(report) + "\n")
sys.exit(rc)
