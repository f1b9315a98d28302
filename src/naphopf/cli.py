"""Command-line surface: enumeration, coproducts, series arithmetic, interval
export, and the named verification suites.

Structured output is JSON on stdout; diagnostics go to stderr.  The verify
command exits 0 exactly when every check passes.
"""

from __future__ import annotations

import json
import os
import sys

from .hopf import ALGEBRAS
from .posets import ideal_count, ideal_orbit_count, interval_dot, interval_of
from .series import (
    TreeSeries,
    corolla_series,
    ladder_series,
    mobius_series,
    project_comm,
    project_corolla,
    project_ladder,
    series_graft,
    series_inverse,
    series_multiply,
    unit_series,
    zeta_series,
)
from .trees import TREE_TABLE, enumerate_trees, parse_tree
from .verify import run_suite, suite_names

NAMED_SERIES = {
    "zeta": zeta_series,
    "mobius": mobius_series,
    "corolla": corolla_series,
    "ladder": ladder_series,
    "unit": unit_series,
}

# the largest inputs that take seconds: zeta*zeta at N = 13 takes ~3 s and
# ~100 MB, the 7^6 labeled trees on 7 vertices ~5 s and ~190 MB, the trees
# on 16 vertices ~4 s and ~210 MB (15: ~1.4 s and ~90 MB), and each costs
# several times more one size up
SERIES_N_LIMIT = 13
LABELED_N_LIMIT = 7
ENUMERATE_N_LIMIT = 16
# interval lists up to n vertices for each of the m ideals of an n-vertex
# tree and reads its covers off the ideal bitmasks, so its cost follows m * n;
# it is refused when m * n is above INTERVAL_LIMIT.  Wide trees hold more
# memory per unit of m * n than chains.  Just under the limit chain(447)
# takes ~0.4-0.7 s and ~38 MB, a 10-vertex path below corolla(13) (196,848)
# ~0.6 s and ~70 MB, and corolla(12) with a 2-vertex path at its root
# (184,320) ~0.6 s and ~80 MB; below it corolla(13) (114,688) takes ~0.3-0.7 s
# and ~58 MB and corolla(12) (53,248) ~0.3 s; above it corolla(14) (245,760)
# would take ~1.4 s and ~103 MB and chain(1200) ~5.7 s and ~156 MB (CPU time
# after import and peak RSS, Python 3.11, 2-core host)
INTERVAL_LIMIT = 200_000
# the coproduct lists the ideals of every distinct subtree, one row per class
# up to automorphism, so its cost follows posets.ideal_orbit_count: chain(1200)
# (720,600) takes ~0.7 s and ~90 MB, a root over chains of 3..9 vertices
# (604,845) ~4 s and ~190 MB, and one over chains of 2..9 (1,814,445)
# would take ~13 s and ~450 MB (CPU time and peak RSS of hnap_coproduct,
# Python 3.11, 2-core host)
COPRODUCT_LIMIT = 750_000


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_enumerate(args) -> int:
    n = args.n
    if n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return 2
    if args.labeled and n > LABELED_N_LIMIT:
        print(f"error: enumerate --labeled lists n^(n-1) trees; n = {n} is above "
              f"LABELED_N_LIMIT = {LABELED_N_LIMIT}", file=sys.stderr)
        return 2
    if n > ENUMERATE_N_LIMIT:
        print(f"error: the number of trees grows about 3x per vertex; n = {n} is above "
              f"ENUMERATE_N_LIMIT = {ENUMERATE_N_LIMIT}", file=sys.stderr)
        return 2
    if args.labeled:
        from .oracles import labeled_trees

        items = [t.render() for t in labeled_trees([str(i) for i in range(1, n + 1)])]
        items.sort()
    else:
        items = [t.string for t in enumerate_trees(n)]
    if args.count_only:
        print(len(items))
        return 0
    if args.json:
        _emit({"n": n, "labeled": bool(args.labeled), "trees": items,
               "count": len(items)})
        return 0
    for line in items:
        print(line)
    print(f"count: {len(items)}")
    return 0


def _cmd_coproduct(args) -> int:
    alg = ALGEBRAS[args.algebra]
    tree = parse_tree(args.tree)
    m = ideal_orbit_count(tree)
    if m > COPRODUCT_LIMIT:
        raise ValueError(f"the coproduct of this {tree.size}-vertex tree lists {m} ideal "
                         f"classes; that is above COPRODUCT_LIMIT = {COPRODUCT_LIMIT}")
    _emit(alg.coproduct(alg.tree_key(tree)).to_json())
    return 0


def _cmd_interval(args) -> int:
    tree = parse_tree(args.tree)
    m = ideal_count(tree)
    if m * tree.size > INTERVAL_LIMIT:
        raise ValueError(f"the interval of a {tree.size}-vertex tree has {m} ideals; "
                         f"m * n is above INTERVAL_LIMIT = {INTERVAL_LIMIT}")
    ip = interval_of(tree)
    if args.emit_dot:
        print(interval_dot(ip))
        return 0
    _emit({
        "tree": tree.string,
        "size": len(ip),
        "bottom": ip.bottom_index,
        "top": ip.top_index,
        "elements": [
            {"ideal": sorted(ideal),
             "forest": ip.forests[i].render() or "1",
             "theta": ip.thetas[i].string}
            for i, ideal in enumerate(ip.elements)
        ],
        "covers": [list(pair) for pair in ip.covers()],
    })
    return 0


def _load_series(token: str, n: int) -> TreeSeries:
    maker = NAMED_SERIES.get(token)
    if maker is not None:
        return maker(n)
    if os.path.isfile(token):
        with open(token, "r", encoding="utf-8") as fh:
            loaded = TreeSeries.from_json(json.load(fh))
        if loaded.truncation < n:
            raise ValueError(f"series file {token!r} is only exact to degree "
                             f"{loaded.truncation}, but -N {n} was requested")
        return loaded.truncate(n)
    raise ValueError(f"unknown series {token!r}: use one of "
                     f"{sorted(NAMED_SERIES)} or a JSON file path")


def _cmd_series(args) -> int:
    n = args.N
    if n > SERIES_N_LIMIT:
        raise ValueError(f"-N {n} is above SERIES_N_LIMIT = {SERIES_N_LIMIT}")
    op = args.op
    operands = args.args
    if op in NAMED_SERIES:
        if operands:
            raise ValueError(f"series {op} takes no operands")
        _emit(NAMED_SERIES[op](n).to_json())
        return 0
    if op == "inv":
        if len(operands) != 1:
            raise ValueError("series inv takes exactly one operand")
        _emit(series_inverse(_load_series(operands[0], n)).to_json())
        return 0
    if op in ("mul", "graft"):
        if len(operands) != 2:
            raise ValueError(f"series {op} takes exactly two operands")
        a = _load_series(operands[0], n)
        b = _load_series(operands[1], n)
        out = series_multiply(a, b) if op == "mul" else series_graft(a, b)
        _emit(out.to_json())
        return 0
    if op == "project":
        if len(operands) != 2 or operands[0] not in ("corolla", "ladder", "comm"):
            raise ValueError("usage: series project {corolla|ladder|comm} SERIES")
        a = _load_series(operands[1], n)
        proj = {"corolla": project_corolla, "ladder": project_ladder,
                "comm": project_comm}[operands[0]]
        _emit(proj(a).to_json())
        return 0
    raise ValueError(f"unknown series operation {op!r}")


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, degree=args.degree, seed=args.seed)
    print(report.render_text(), file=sys.stderr)
    if args.timings:
        print(report.render_timings(), file=sys.stderr)
        print("tree table: " + ", ".join(f"{n} {name}" for name, n in
                                         TREE_TABLE.stats().items()), file=sys.stderr)
    _emit(report.to_dict(include_timings=args.timings))
    return 0 if report.passed else 1


def build_parser():
    """The command line's ``argparse.ArgumentParser``; argparse is imported
    here, so importing this module does not load it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="naphopf",
        description="Exact computations in the NAP-operad Hopf algebras and "
                    "the group of tree-indexed series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list canonical (or labeled) trees")
    p.add_argument("n", type=int)
    p.add_argument("--labeled", action="store_true",
                   help="list labeled trees on {1..n} instead of classes")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("coproduct", help="coproduct of a tree, as JSON terms")
    p.add_argument("tree")
    p.add_argument("--algebra", choices=tuple(ALGEBRAS), default="hnap")
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("interval", help="the ideal-lattice interval of a tree")
    p.add_argument("tree")
    p.add_argument("--emit-dot", action="store_true",
                   help="emit the Hasse diagram in DOT format")
    p.set_defaults(fn=_cmd_interval)

    p = sub.add_parser("series", help="series arithmetic, truncated at -N")
    p.add_argument("op",
                   help="zeta|mobius|corolla|ladder|unit|mul|inv|graft|project")
    p.add_argument("args", nargs="*")
    p.add_argument("-N", type=int, required=True, help="truncation degree")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=suite_names(), default="all")
    p.add_argument("--degree", type=int, default=None,
                   help="override the per-check degree bounds")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks")
    p.add_argument("--timings", action="store_true",
                   help="print each check's milliseconds on stderr and add "
                        "them to the JSON under \"timings\"")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # no command goes one call deeper per tree level: parsing, the ideal
        # enumeration of interval, the coproducts and the antipodes all run
        # on explicit stacks; this keeps any deep input from a traceback
        print("error: tree too deep for the recursive algorithms "
              f"(recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
