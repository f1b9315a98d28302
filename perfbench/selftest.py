"""Quick self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Run it from the repository root.  It runs every workload's operations at a
small size (N <= 6) in this process and requires the checks to pass, then
feeds the checks wrong answers (negative controls) and requires each to be
rejected, so that a checker that accepts everything shows.  It also checks
that BENCHMARK.json names the metrics run.py prints.  Exits 0 when all
pass.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import worker  # noqa: E402
from inputs import coproduct_round, series_round, session_pool, session_round  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

N = 6
failures: list[str] = []


def expect(name: str, reason: str, rejected: bool = False) -> None:
    ok = bool(reason) == rejected
    print(f"[{'ok' if ok else 'FAIL'}] {name}" + (f" ({reason})" if reason else ""))
    if not ok:
        failures.append(name)


def perturbed(coeffs: dict, key: str) -> dict:
    out = dict(coeffs)
    out[key] = out.get(key, Fraction(0)) + Fraction(1, 7)
    return out


def cold_ops(m, rng) -> None:
    for spec in series_round(rng, N) + coproduct_round(rng, N, N - 1):
        state = worker.build_op(m, spec)
        answer = worker.run_op(m, spec, state)
        expect(f"{spec['op']} at N={N}", worker.check_op(m, spec, state, answer))
        if spec["op"] == "zeta_square":
            zz = worker.series_plain(answer)
            expect("zeta^2 with one coefficient perturbed",
                   oracle.check_zeta_square(perturbed(zz, "(()())"), N), rejected=True)
        elif spec["op"] == "zeta_inverse":
            mu = worker.series_plain(answer)
            expect("zeta^-1 with one coefficient perturbed",
                   oracle.check_mobius(perturbed(mu, "((()))"), N), rejected=True)
        elif spec["op"] == "random_product":
            a, b = worker.plain_coeffs(spec["a"]), worker.plain_coeffs(spec["b"])
            ab = worker.series_plain(answer)
            expect("random product with a corolla coefficient perturbed",
                   oracle.check_product(a, b, perturbed(ab, oracle.corolla(3)), N),
                   rejected=True)
            expect("random product with a chain coefficient perturbed",
                   oracle.check_product(a, b, perturbed(ab, "(((())))"), N), rejected=True)
        elif spec["op"] == "coproducts":
            t = "(()(()))"
            rows = worker.tensor_plain(m["hopf"].hnap_coproduct(m["trees"].parse_tree(t)))
            expect("hnap coproduct with one term dropped",
                   oracle.check_hnap_coproduct(t, rows[1:]), rejected=True)
            u = "((()(())))"  # its coproduct is not symmetric under the swap
            rows_u = worker.tensor_plain(m["hopf"].hnap_coproduct(m["trees"].parse_tree(u)))
            expect("hnap coproduct with left and right swapped",
                   oracle.check_hnap_coproduct(u, [(r, l, c) for l, r, c in rows_u]),
                   rejected=True)
            s_of = worker.antipodes_of(m, [m["trees"].parse_tree(s) for s in
                                           oracle.trees_up_to(4)])
            s_of[t] = perturbed(worker.antipodes_of(m, [m["trees"].parse_tree(t)])[t], t)
            expect("antipode with one coefficient perturbed",
                   oracle.check_antipode_identity(t, rows, s_of), rejected=True)


def cli_verify(m) -> None:
    spec = {"op": "cli_verify", "argv": ["verify", "--suite", "all", "--degree", "3"]}
    rc, out = worker.run_op(m, spec, spec["argv"])
    report = json.loads(out)
    expect("verify --suite all --degree 3", oracle.check_verify_report(rc, report))
    report["checks"][0]["status"] = "fail"
    expect("verify report with one failed check",
           oracle.check_verify_report(rc, report), rejected=True)
    expect("verify report missing a check",
           oracle.check_verify_report(0, {"passed": True, "checks": report["checks"][1:]}),
           rejected=True)


def session(m, rng) -> None:
    pool = session_pool(rng, tree_n=N)
    sess = worker.Session(m)
    bad = ""
    first = {}
    for kind, entries in pool.items():
        for q in entries:
            x = sess.answer(kind, q)
            first[(kind, q)] = worker.Session.snapshot(kind, x)
            bad = bad or sess.check_first(kind, q, x)
    expect(f"session first answers at N={N}", bad)
    for kind, q in session_round(rng, pool):
        if worker.Session.snapshot(kind, sess.answer(kind, q)) != first[(kind, q)]:
            bad = bad or f"repeated {kind} query changed"
    expect("session repeats equal their first answers", bad)
    t = "(()(()))"
    tree = m["trees"].parse_tree(t)
    for kind, check in (("ck", oracle.check_ck_coproduct), ("qgnap", oracle.check_qgnap_coproduct)):
        rows = worker.tensor_plain(sess.answer(kind, t))
        expect(f"{kind} coproduct with one term dropped", check(t, rows[:-1]), rejected=True)
    rows = worker.tensor_plain(sess.answer("ck", t))
    expect("ck coproduct with left and right swapped",
           oracle.check_ck_coproduct(t, [(r, l, c) for l, r, c in rows]), rejected=True)
    expect("mobius of a corolla negated",
           oracle.check_mobius_value("(()())", -m["posets"].mobius(m["trees"].corolla(2))),
           rejected=True)
    ip = m["posets"].interval_of(tree)
    expect("interval missing an element",
           oracle.check_interval(t, len(ip) - 1, [(f.size, len(f), r.size)
                                                 for f, r in zip(ip.forests, ip.thetas)][1:]),
           rejected=True)


def benchmark_json() -> None:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    bad = "" if names == set(WORKLOADS) else f"workloads {sorted(names)}"
    e2e = {x["name"] for x in spec["end_to_end"]}
    if e2e != {"throughput_ops_s", "peak_rss_mb", "setup_s"}:
        bad = bad or f"end_to_end {sorted(e2e)}"
    layers = {x["name"]: x["unit"] for x in spec["per_layer"]}
    if layers != LAYER_METRICS:
        bad = bad or f"per_layer differs in {sorted(set(layers) ^ set(LAYER_METRICS))}"
    expect("BENCHMARK.json matches run.py", bad)


def main() -> int:
    m, _ = worker.import_naphopf(os.path.join(os.getcwd(), "src"))
    rng = random.Random(0)
    cold_ops(m, rng)
    cli_verify(m)
    session(m, rng)
    benchmark_json()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
