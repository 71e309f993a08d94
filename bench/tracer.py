"""Per-layer tracing of lgrass from outside the package.

``Tracer.install`` replaces public functions and operators of each lgrass
module with timing wrappers, at the name where callers look them up (for
example ``lgrass.restriction.coordinate_weight_k`` or ``lgrass.oracles.SUITES``),
and ``Tracer.uninstall`` puts every original back.  Nothing in ``src/lgrass``
is edited.

Spans nest.  A wrapped call adds its duration to the span that encloses it,
so a layer's self time is its spans' durations minus their direct children.
A layer's time (``<layer>.s``, ``<op>_s``) counts only outermost spans, so
recursion inside one layer is not counted twice.  Work counts are read from
arguments and results after the timed call.
"""

import gc
import math
import time
from collections import defaultdict

SUITE_NAMES = ("oracle", "gkm", "chern", "positivity", "subword")


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [op, child_ns, enumerated]
        self.open = defaultdict(int)  # open spans per op and per layer
        self.ns = defaultdict(int)  # outermost span time per op and per layer
        self.self_ns = defaultdict(int)  # per layer
        self.calls = defaultdict(int)  # per op
        self.work = defaultdict(int)
        self.pair_ns = []  # duration of each restriction that enumerated
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self.patched = []

    # -- installing ------------------------------------------------------

    def _targets(self):
        from lgrass import chart, cli, oracles, restriction
        from lgrass.indexing import IsotropicIndex
        from lgrass.laurent import LaurentPolynomial as L

        suites = oracles.SUITES
        targets = [
            ("cli.main", [(cli, "main")], None),
            ("restriction.restrict", [(cli, "restrict"), (oracles, "restrict"),
                                      (oracles, "restrict_k"), (oracles, "restrict_h")],
             self._on_restrict),
            ("restriction.certificate", [(oracles, "positivity_certificate")], None),
            ("tableaux.enumerate", [(restriction, "enumerate_ssvt"),
                                    (restriction, "enumerate_ssyt"),
                                    (oracles, "enumerate_ssyt")], self._on_enumerate),
            ("chart.weight", [(restriction, "coordinate_weight_k"),
                              (restriction, "coordinate_weight_h"),
                              (oracles, "coordinate_weight_k")], None),
            # kclass_union_oracle imports tableau_cut_pairs from lgrass.chart per call
            ("chart.cut_pairs", [(restriction, "tableau_cut_pairs"),
                                 (chart, "tableau_cut_pairs")], None),
            ("laurent.mul", [(L, "__mul__"), (L, "__rmul__")], self._on_mul),
            ("laurent.add", [(L, "__add__"), (L, "__radd__")], self._on_add),
            # __sub__ calls __add__; its own span keeps those adds off the
            # restriction's accumulation count
            ("laurent.sub", [(L, "__sub__"), (L, "__rsub__")], None),
            ("laurent.lowest_form", [(oracles, "lowest_degree_form")], None),
            ("laurent.divisible", [(oracles, "divisible_by_k_root"),
                                   (oracles, "divisible_by_root_h")], None),
            ("laurent.serialize", [(L, "to_json"), (L, "pretty")], self._on_serialize),
            ("oracles.billey", [(oracles, "billey_restrict_h")], None),
            ("oracles.union", [(oracles, "kclass_union_oracle")], None),
            ("oracles.chern_consistency", [(oracles, "chern_consistency")], None),
            ("oracles.gkm_table", [(oracles, "gkm_check_table")], None),
            ("oracles.weyl", [(oracles, "_weyl_table"), (oracles, "reduced_word"),
                              (oracles, "weyl_length")], None),
            ("indexing.index", [(cli, "enumerate_isotropic"),
                                (restriction, "enumerate_isotropic"),
                                (restriction, "sigma"), (restriction, "length"),
                                (oracles, "enumerate_isotropic"), (oracles, "sigma"),
                                (oracles, "length"), (IsotropicIndex, "complement")],
             None),
        ]
        for name in SUITE_NAMES:
            places = [(suites, name)]
            if name == "gkm":  # run_verification calls verify_gkm directly
                places.append((oracles, "verify_gkm"))
            targets.append((f"oracles.suite_{name}", places, self._on_suite))
        return targets

    def install(self):
        for op, places, hook in self._targets():
            for owner, name in places:
                original = _get(owner, name)
                _set(owner, name, self._wrap(original, op, hook))
                self.patched.append((owner, name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self.patched):
            _set(owner, name, original)

    def restored(self):
        return (self._on_gc not in gc.callbacks
                and all(_get(owner, name) is original
                        for owner, name, original in self.patched))

    def _wrap(self, fn, op, hook):
        layer = op.partition(".")[0]
        stack, open_, ns, self_ns, calls = (self.stack, self.open, self.ns,
                                            self.self_ns, self.calls)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [op, 0, False]
            stack.append(frame)
            open_[op] += 1
            open_[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[op] -= 1
                open_[layer] -= 1
                if not open_[op]:
                    ns[op] += dt
                if not open_[layer]:
                    ns[layer] += dt
                self_ns[layer] += dt - frame[1]
                calls[op] += 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(frame, dt, args, result)
                if stack:  # the counting is tracing cost, not the parent's work
                    stack[-1][1] += clock() - t0 - dt
            return result

        return wrapper

    # -- work counts -----------------------------------------------------

    def _parent_op(self):
        return self.stack[-1][0] if self.stack else None

    def _on_restrict(self, frame, dt, args, result):
        if frame[2]:
            self.work["misses"] += 1
            self.work["restriction_tableaux"] += result.term_count
            self.work["monomials_out"] += len(result.value._terms)
            self.pair_ns.append(dt)

    def _on_enumerate(self, frame, dt, args, result):
        if self._parent_op() == "restriction.restrict":
            self.stack[-1][2] = True
        self.work["tableaux"] += len(result)
        self.work["entries"] += sum(s.entry_count() for s in result)

    def _on_mul(self, frame, dt, args, result):
        a, b = args
        self.work["mul_pairs"] += len(a._terms) * (len(b._terms) if hasattr(b, "_terms") else 1)
        self.work["mul_terms_out"] += len(result._terms)

    def _on_add(self, frame, dt, args, result):
        a, b = args
        b_terms = len(b._terms) if hasattr(b, "_terms") else 1
        self.work["add_terms_in"] += len(a._terms) + b_terms
        if self._parent_op() == "restriction.restrict":
            self.work["accumulated_terms"] += b_terms

    def _on_serialize(self, frame, dt, args, result):
        self.work["serialize_terms"] += len(args[0]._terms)

    def _on_suite(self, frame, dt, args, result):
        self.work["checks"] += result.checks

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # -- report ----------------------------------------------------------

    def report(self):
        """Per-layer metrics: ``*_s`` in seconds, the rest counts or ratios."""
        s = {k: v / 1e9 for k, v in self.ns.items()}
        self_s = {k: v / 1e9 for k, v in self.self_ns.items()}
        calls, work = self.calls, self.work
        restricts = calls["restriction.restrict"]
        pair_ms = sorted(v / 1e6 for v in self.pair_ns)
        out = {
            "tableaux.enumerate_s": s.get("tableaux.enumerate", 0.0),
            "tableaux.enumerate_calls": calls["tableaux.enumerate"],
            "tableaux.tableaux": work["tableaux"],
            "tableaux.entries": work["entries"],
            "chart.s": s.get("chart", 0.0),
            "chart.weight_calls": calls["chart.weight"],
            "chart.cut_pairs_calls": calls["chart.cut_pairs"],
            "laurent.mul_s": s.get("laurent.mul", 0.0),
            "laurent.mul_calls": calls["laurent.mul"],
            "laurent.mul_pairs": work["mul_pairs"],
            "laurent.mul_terms_out": work["mul_terms_out"],
            "laurent.add_s": s.get("laurent.add", 0.0),
            "laurent.add_calls": calls["laurent.add"],
            "laurent.add_terms_in": work["add_terms_in"],
            "laurent.lowest_form_s": s.get("laurent.lowest_form", 0.0),
            "laurent.lowest_form_calls": calls["laurent.lowest_form"],
            "laurent.divisible_s": s.get("laurent.divisible", 0.0),
            "laurent.divisible_calls": calls["laurent.divisible"],
            "laurent.serialize_s": s.get("laurent.serialize", 0.0),
            "laurent.serialize_terms": work["serialize_terms"],
            "restriction.s": s.get("restriction", 0.0),
            "restriction.self_s": self_s.get("restriction", 0.0),
            "restriction.calls": restricts,
            "restriction.misses": work["misses"],
            "restriction.hit_ratio": (restricts - work["misses"]) / restricts if restricts else 0.0,
            "restriction.tableaux": work["restriction_tableaux"],
            "restriction.monomials_out": work["monomials_out"],
            "restriction.cancel_ratio": (work["monomials_out"] / work["accumulated_terms"]
                                         if work["accumulated_terms"] else 0.0),
            "restriction.pair_ms_p50": _percentile(pair_ms, 0.50),
            "restriction.pair_ms_p99": _percentile(pair_ms, 0.99),
            "restriction.certificate_s": s.get("restriction.certificate", 0.0),
        }
        for name in SUITE_NAMES:
            out[f"oracles.{name}_s"] = s.get(f"oracles.suite_{name}", 0.0)
        out.update({
            "oracles.checks": work["checks"],
            "oracles.billey_s": s.get("oracles.billey", 0.0),
            "oracles.billey_calls": calls["oracles.billey"],
            "oracles.union_s": s.get("oracles.union", 0.0),
            "oracles.union_calls": calls["oracles.union"],
            "oracles.chern_consistency_s": s.get("oracles.chern_consistency", 0.0),
            "oracles.gkm_table_s": s.get("oracles.gkm_table", 0.0),
            "oracles.weyl_s": s.get("oracles.weyl", 0.0),
            "indexing.s": s.get("indexing", 0.0),
            "indexing.calls": calls["indexing.index"],
            "cli.main_s": s.get("cli.main", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
            "py.gc_s": self.gc_ns / 1e9,
            "py.gc_collections": self.gc_collections,
        })
        return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)
