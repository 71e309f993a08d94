"""The benchmark tracer's hooks still match the package and BENCHMARK.json.

``bench/tracer.py`` patches functions by name; a refactor that renames or
deletes one of them makes ``Tracer.install`` raise here.
"""

import importlib.util
import json
from pathlib import Path

from lgrass.laurent import LaurentPolynomial

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_and_uninstall_restore_every_hook():
    mul = LaurentPolynomial.__mul__
    tracer = load_tracer()
    tracer.install()
    try:
        assert LaurentPolynomial.__mul__ is not mul
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert LaurentPolynomial.__mul__ is mul


def test_report_names_match_benchmark_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(load_tracer().report()) | {"cli.output_bytes", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
