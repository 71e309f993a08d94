"""Command-line front end.

Subcommands: restrict, table, models, render, chart, verify.  Fixed-point
indices are written as signed lists ("3,-2,-1" means {3, bar(2), bar(1)});
raw labels in 1..2n are accepted too.  Exit codes: 0 ok, 1 verification
failure, 2 usage error, 141 when the reader closes stdout early (128 +
SIGPIPE, as a shell reports for ``cat`` ended the same way).

Importing this module and parsing the arguments loads only the restriction
path (indexing, tableaux, laurent, chart, restriction, workers).  A command
imports the rest where it runs: ``verify`` imports ``oracles``; ``models``,
``render`` and the matrix of ``chart`` import ``models`` or ``render``; the
CSV form of ``table`` imports ``csv``.  A cold run without cached bytecode
compiles every module it imports, so what ``table`` never runs it never
compiles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chart import ChartIndexSet, coordinate_weight_h, coordinate_weight_k
from .indexing import (IsotropicIndex, check_strict, enumerate_isotropic, heaviest_first,
                       is_symmetric, normalize_partition)
from .laurent import LaurentPolynomial
from .restriction import column_values, restrict
from .tableaux import MODEL_NAMES
from .workers import forked_map

# Largest n per table theory, from measured cost on 2 shared Xeon cores, where
# `table` builds and renders its columns in one process per usable CPU, each
# pinned to a CPU of its own: a cold `table --n 6 --theory K --out json` takes
# about 2.9 s and 179 MB in its largest process (208 MB while the parent read a
# child's whole reply before decoding it; 4.4-5.1 s and 218 MB before the
# pinning; 8.5-11 s and 340 MB on one process, before the one-pass Laurent
# kernels).  n=7 K was not run: n=6 already holds 2.58 M monomials, and the n=7
# w0 K column peaks at 404 MB when each shape is dropped as the depth-first walk
# yields it, but at 1 658 MB through `column_values`, which keeps the whole
# column.  A cold `table --n 7 --theory H --out csv` took 28 s and 672 MB before
# the pinning, most of it formatting 10.2 M monomials.
TABLE_RANK_LIMITS = {"K": 6, "H": 7}
# Largest n for `restrict`, which walks beta's DP only along the prefixes of
# sigma(alpha).  Cold `restrict --n 7 --beta=-7,-6,-5,-4,-3,-2,-1` on 2 shared
# Xeon cores: K at alpha = w0 6.3-7.7 s and 332 MB (1.24 M terms; 3-4 s of it
# is the walk, the rest printing), K at the slowest walks of an in-process
# sweep over all 128 alphas (4.0-4.1 s: alpha = 3,-7,-6,-5,-4,-2,-1 and
# 4,-7,-6,-5,-3,-2,-1) 5.4-5.6 s and 262-354 MB, H at most 0.3 s and 35 MB, the
# identity class 0.14 s.  Mid-size pruned n=8 K cells at w0 took 5.5-10.6 s
# and 701 MB in-process, and n=8 w0 itself was not run.
RESTRICT_RANK_LIMIT = 7
# Largest n per verify suite, from cold CLI runs on 2 shared Xeon cores, where
# `verify` deals one job per beta, which keeps only that beta's columns, and
# then the gkm rows, over one pinned process per usable CPU (time, then peak
# RSS of the largest process): n=6 oracle 3.2-4.5 s and 97 MiB (the face-sum
# DP keeps only the minimal live cuts; keeping every cut took 367-384 s over
# all n=6 pairs on one process), gkm 14-16 s and 295 MiB (each column is built
# once per run, and the rows share the parent's store of them by fork), chern
# 21-33 s and 129 MiB, subword 0.30-0.43 s and 31 MiB, all 34-50 s and 296 MiB;
# n=7 subword 8.3-9.2 s and 348 MiB; n=5 all 1.0-1.9 s and 26 MiB.  positivity
# certifies each cell of sigma(beta) once per theory and, while every cell
# passes, enumerates no tableau: n=7 takes 0.12-0.16 s and n=10 0.55-0.67 s,
# each 17 MB.  A theory with a failing cell at a beta is redone there per
# tableau, a cost this guard does not cover: one corrupted weight at n=7 takes
# 18-27 s, and n >= 8 was not measured.  oracle, gkm and chern stop at n=6:
# they read whole n=7 K columns, and the w0 one alone takes 1 658 MB through
# `column_values`.
VERIFY_RANK_LIMITS = {"oracle": 6, "gkm": 6, "chern": 6, "positivity": 10, "subword": 7}


def parse_ints(text: str) -> list[int]:
    """The integers of a list flag: "3,2,1", "[3,2,1]" and "3,2,1," are one list."""
    body = text.strip()
    if body[:1] == "[" and body[-1:] == "]":
        body = body[1:-1]
    try:
        return [int(tok) for tok in body.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a comma-separated list of integers") from None


def parse_index(text: str, n: int) -> IsotropicIndex:
    """Signed-list syntax (negative k is bar(k)); raw 1..2n labels also accepted."""
    tokens = parse_ints(text)
    if any(tok < 0 for tok in tokens):
        return IsotropicIndex.from_signed(n, tokens)
    return IsotropicIndex(n, tokens)


def parse_partition(text: str) -> tuple[int, ...]:
    return check_strict(parse_ints(text))


def _cmd_restrict(args) -> int:
    if args.n > RESTRICT_RANK_LIMIT:
        raise ValueError(f"restrict rank guard: n <= {RESTRICT_RANK_LIMIT}")
    alpha = parse_index(args.alpha, args.n)
    beta = parse_index(args.beta, args.n)
    result = restrict(alpha, beta, args.theory)
    if args.format == "json":
        print(json.dumps({
            "n": args.n,
            "alpha": str(alpha),
            "beta": str(beta),
            "theory": args.theory,
            "term_count": result.term_count,
            "value": result.value.to_json(),
        }))
    else:
        print(f"alpha = {alpha}  beta = {beta}  theory = {args.theory}")
        print(f"tableaux summed: {result.term_count}")
        print(f"value: {result.value.pretty()}")
    return 0


def _cmd_table(args) -> int:
    limit = TABLE_RANK_LIMITS[args.theory]
    if args.n > limit:
        raise ValueError(f"table rank guard: n <= {limit} for --theory {args.theory}")
    points = enumerate_isotropic(args.n)
    text_of = LaurentPolynomial._json_text if args.out == "json" else LaurentPolynomial.pretty
    memo = {}  # packed exponent key -> its rendered text, in each process

    def column_cells(j):
        return [text_of(value, memo) for value in column_values(points[j], args.theory, points)]

    order = heaviest_first(points)
    columns = [cells for _, cells in sorted(zip(order, forked_map(column_cells, order)))]
    out = sys.stdout
    if args.out == "json":
        # the text of json.dumps of {"n", "theory", "points", "rows": {alpha:
        # {beta: value.to_json()}}}, written one row at a time
        keys = [json.dumps(str(p)) for p in points]
        out.write('{"n": %d, "theory": %s, "points": %s, "rows": {'
                  % (args.n, json.dumps(args.theory), json.dumps([str(p) for p in points])))
        for i in range(len(points)):
            cells = ", ".join(f"{key}: {column[i]}" for key, column in zip(keys, columns))
            out.write(f"{', ' if i else ''}{keys[i]}: {{{cells}}}")
        out.write("}}\n")
    else:
        import csv
        writer = csv.writer(out)
        writer.writerow(["alpha\\beta"] + [str(b) for b in points])
        for i, a in enumerate(points):
            writer.writerow([str(a)] + [column[i] for column in columns])
    return 0


def _cmd_models(args) -> int:
    from .models import enumerate_model
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    names = MODEL_NAMES if args.which == "all" else (args.which,)
    if args.json:
        payload = {"lam": list(lam), "mu": list(mu)}
        for name in names:
            payload[name] = [item.to_json() for item in enumerate_model(lam, mu, name)]
        print(json.dumps(payload))
        return 0
    for name in names:
        items = enumerate_model(lam, mu, name)
        print(f"{name}: {len(items)} elements")
        if args.list:
            for i, item in enumerate(items):
                print(f"[{i}] {item!r}")
    return 0


def _cmd_render(args) -> int:
    from . import render
    from .models import enumerate_model
    out = []
    if args.rho is not None:
        eta = normalize_partition(parse_ints(args.rho))
        if not is_symmetric(eta):
            raise ValueError(f"--rho {args.rho} is not a symmetric partition")
        out.append(render.svg_rho_figure(eta) if args.format == "svg"
                   else render.ascii_rho_figure(eta))
    else:
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        names = MODEL_NAMES if args.which in (None, "all") else (args.which,)
        ascii_of = {"tableaux": render.ascii_shifted_tableau,
                    "subsets": render.ascii_subset,
                    "families": render.ascii_family}
        svg_of = {"tableaux": render.svg_tableau,
                  "subsets": render.svg_subset,
                  "families": render.svg_family}
        for name in names:
            items = enumerate_model(lam, mu, name)
            if args.index is not None:
                if not 0 <= args.index < len(items):
                    raise ValueError(f"--index {args.index} outside 0 <= index < "
                                     f"{len(items)}, the number of {name}")
                items = [items[args.index]]
            for i, item in enumerate(items):
                if args.format == "svg":
                    out.append(svg_of[name](item))
                else:
                    out.append(f"-- {name} {args.index if args.index is not None else i} --")
                    out.append(ascii_of[name](item))
    text = "\n".join(out) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror}") from None
    else:
        print(text, end="")
    return 0


def _cmd_chart(args) -> int:
    beta = parse_index(args.beta, args.n)
    index_set = ChartIndexSet(beta)
    if args.weights_json:
        n = beta.n
        payload = {
            "n": n,
            "beta": str(beta),
            "pairs": [{"a": a, "b": b,
                       "weight_k": coordinate_weight_k(a, b, n).to_json(),
                       "weight_h": coordinate_weight_h(a, b, n).to_json()}
                      for a, b in index_set],
        }
        print(json.dumps(payload))
        return 0
    print(f"beta = {beta}   |R_beta| = {len(index_set)}")
    print("pairs:", " ".join(f"({a},{b})" for a, b in index_set))
    from .render import ascii_chart_matrix
    print(ascii_chart_matrix(beta))
    return 0


def _cmd_verify(args) -> int:
    from .oracles import run_verification
    suites = tuple(VERIFY_RANK_LIMITS) if args.suite == "all" else (args.suite,)
    limit = min(VERIFY_RANK_LIMITS[name] for name in suites)
    if args.n > limit:
        raise ValueError(f"verify rank guard: n <= {limit} for --suite {args.suite}")
    reports = run_verification(args.n, suites, corrupt=args.corrupt)
    ok = all(r.ok for r in reports)
    payload = json.dumps({"n": args.n, "ok": ok,
                          "reports": [r.to_json() for r in reports]})
    if args.json:
        print(payload)
    else:
        for r in reports:
            status = "pass" if r.ok else f"FAIL ({len(r.failures)} failures)"
            print(f"suite {r.suite:<11} n={r.n}  checks={r.checks:<5} {status}")
            for msg in r.failures[:10]:
                print(f"    {msg}")
        print("all suites passed" if ok else "verification FAILED")
        print(payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgrass",
        description="Exact Schubert-class restrictions on the Lagrangian Grassmannian")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restrict", help="restriction of one class at one fixed point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--theory", choices=("K", "H"), default="K")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("table", help="full fixed-point restriction table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theory", choices=tuple(TABLE_RANK_LIMITS), default="K")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("models", help="enumerate the combinatorial models")
    p.add_argument("--lam", required=True, help="strict partition, e.g. 3,1")
    p.add_argument("--mu", required=True, help="strict partition, e.g. 5,3,2,1")
    p.add_argument("--which", choices=MODEL_NAMES + ("all",), default="all")
    p.add_argument("--list", action="store_true", help="print every element")
    p.add_argument("--json", action="store_true", help="emit the JSON forms")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("render", help="ASCII or SVG pictures of the models")
    p.add_argument("--lam", help="strict partition")
    p.add_argument("--mu", help="strict partition")
    p.add_argument("--which", choices=MODEL_NAMES + ("all",), help="default: all")
    p.add_argument("--index", type=int, help="render just one element")
    p.add_argument("--rho", help="symmetric partition: draw it and its truncation")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("chart", help="chart coordinates, weights, matrix pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--weights-json", action="store_true")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite",
                   choices=(*VERIFY_RANK_LIMITS, "all"),
                   default="all")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control, gkm suite only: perturb one table value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


_VALUE_FLAGS = {"--alpha", "--beta", "--lam", "--mu", "--rho"}


def _join_value_flags(argv: list[str]) -> list[str]:
    """Merge '--beta -2,-1' into '--beta=-2,-1' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    if getattr(args, "n", 1) < 1:
        parser.error("n must be >= 1")
    if args.command == "render":
        if args.rho is None and (args.lam is None or args.mu is None):
            parser.error("render needs --lam and --mu, or --rho")
        if args.rho is not None:
            for flag in ("lam", "mu", "which", "index"):
                if getattr(args, flag) is not None:
                    parser.error(f"render --rho takes no --{flag}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
