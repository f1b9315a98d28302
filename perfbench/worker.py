"""One process of a benchmark run: a cold operation or a warm session.

Reads a JSON spec on stdin and prints one JSON line on stdout with the
process's set-up time, timed work, peak RSS, operation counts and the
outcome of the correctness checks.  run.py starts it; it is not meant to be
run by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import oracle
from calibrate import kernel_times
from inputs import session_pool, session_round
from tracer import Tracer

# CPU time of this process: time the host gives to other processes is not
# naphopf's; calibrate.py accounts for the host's speed
clock = time.process_time
CAL_REPS = 6            # kernel runs before and after a cold operation
CAL_EVERY = 0.25        # seconds of session work between kernel runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_naphopf(src: str):
    """Import every layer of naphopf from ``src``; returns (modules, seconds)."""
    sys.path.insert(0, src)
    start = clock()
    import naphopf
    import naphopf.cli
    elapsed = clock() - start
    if not os.path.abspath(naphopf.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"naphopf was imported from {naphopf.__file__}, not {src}")
    mods = {name: sys.modules[f"naphopf.{name}"]
            for name in ("trees", "posets", "hopf", "series", "verify", "cli")}
    return mods, elapsed


# ---------------------------------------------------------------------------
# naphopf answers as plain data for the oracle


def series_plain(s) -> dict:
    return {k: Fraction(v) for k, v in s.to_json()["coeffs"].items()}


def tensor_plain(te) -> list:
    return [(r["left"], r["right"], Fraction(r["coeff"])) for r in te.to_json()]


def element_plain(x) -> dict:
    return {k.string: c for k, c in x.terms.items()}


def plain_coeffs(coeffs: dict) -> dict:
    return {k: Fraction(v) for k, v in coeffs.items()}


def make_series(m, n: int, coeffs: dict):
    return m["series"].TreeSeries(n, {m["trees"].parse_tree(k): Fraction(v)
                                      for k, v in coeffs.items()})


def antipodes_of(m, trees: list) -> dict:
    hopf = m["hopf"]
    return {t.string: element_plain(hopf.antipode(hopf.HopfElement.hnap_basis(t)))
            for t in trees}


# ---------------------------------------------------------------------------
# cold operations: build(spec) -> state, run(state) -> answer,
# check(spec, state, answer) -> "" or a reason


def build_op(m, spec: dict):
    series, trees = m["series"], m["trees"]
    op, n = spec["op"], spec.get("n")
    if op == "zeta_square" or op == "zeta_inverse":
        return (series.zeta_series(n),)
    if op == "mobius_zeta":
        return (series.mobius_series(n), series.zeta_series(n))
    if op == "random_product":
        return (make_series(m, n, spec["a"]), make_series(m, n, spec["b"]))
    if op == "coproducts":
        return [trees.parse_tree(s) for s in spec["trees"]]
    if op == "cli_verify":
        return spec["argv"]
    raise ValueError(f"unknown operation {op!r}")


def run_op(m, spec: dict, state):
    series, hopf = m["series"], m["hopf"]
    op = spec["op"]
    if op == "zeta_square":
        return series.series_multiply(state[0], state[0])
    if op == "zeta_inverse":
        return series.series_inverse(state[0])
    if op in ("mobius_zeta", "random_product"):
        return series.series_multiply(state[0], state[1])
    if op == "coproducts":
        coproducts = [hopf.hnap_coproduct(t) for t in state]
        antipodes = [hopf.antipode(hopf.HopfElement.hnap_basis(t))
                     for t in state if t.size <= spec["antipode_n"]]
        return coproducts, antipodes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = m["cli"].main(list(state))
    return rc, out.getvalue()


def check_op(m, spec: dict, state, answer) -> str:
    op, n = spec["op"], spec.get("n")
    if op == "zeta_square":
        return oracle.check_zeta_square(series_plain(answer), n)
    if op == "zeta_inverse":
        return oracle.check_mobius(series_plain(answer), n)
    if op == "mobius_zeta":
        return oracle.check_unit(series_plain(answer))
    if op == "random_product":
        return oracle.check_product(plain_coeffs(spec["a"]), plain_coeffs(spec["b"]),
                                    series_plain(answer), n)
    if op == "coproducts":
        coproducts, antipodes = answer
        small = [t for t in state if t.size <= spec["antipode_n"]]
        s_of = {t.string: element_plain(s) for t, s in zip(small, antipodes)}
        rows = {}
        for text, te in zip(spec["trees"], coproducts):
            t = oracle.canonical(text)
            rows[t] = tensor_plain(te)
            bad = oracle.check_hnap_coproduct(t, rows[t])
            if bad:
                return bad
        if len(rows) != sum(oracle.TREE_COUNTS[:n]):
            return "the coproducts do not cover every tree"
        for t in s_of:
            bad = oracle.check_antipode_identity(t, rows[t], s_of)
            if bad:
                return bad
        return ""
    rc, stdout = answer
    return oracle.check_verify_report(rc, json.loads(stdout))


def cold(spec: dict) -> dict:
    cal = kernel_times(CAL_REPS)
    m, import_s = import_naphopf(spec["src"])
    start = clock()
    state = build_op(m, spec)
    setup_s = import_s + clock() - start
    tracer = Tracer(m) if spec.get("trace") else None
    with tracer or contextlib.nullcontext():
        start, wall = clock(), time.perf_counter()
        answer = run_op(m, spec, state)
        op_s, wall_s = clock() - start, time.perf_counter() - wall
    after = kernel_times(CAL_REPS)
    out = {"ops": 1, "failed": 0, "import_s": import_s, "setup_s": setup_s,
           "setup_kernel_s": statistics.fmean(cal), "op_s": op_s, "wall_s": wall_s,
           "kernel_s": statistics.fmean(cal + after), "rss_mb": peak_rss_mb()}
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        tracer.write_spans(spec["spans"], spec["label"])
    out["error"] = check_op(m, spec, state, answer)
    return out


# ---------------------------------------------------------------------------
# warm session


class Session:
    """Answers pool queries through naphopf's public functions."""

    def __init__(self, m) -> None:
        self.m = m

    def answer(self, kind: str, q: str):
        m = self.m
        t = m["trees"].parse_tree(q)
        if kind == "hnap":
            return m["hopf"].hnap_coproduct(t)
        if kind == "qgnap":
            return m["hopf"].qgnap_coproduct(t)
        if kind == "ck":
            return m["hopf"].ck_coproduct(t)
        if kind == "antipode":
            hopf = m["hopf"]
            return hopf.antipode(hopf.HopfElement.hnap_basis(t))
        if kind == "mobius":
            return m["posets"].mobius(t)
        return m["posets"].interval_of(t)

    @staticmethod
    def snapshot(kind: str, x):
        """A copy of an answer made of immutable parts, to compare repeats."""
        if kind in ("hnap", "qgnap", "ck", "antipode"):
            return dict(x.terms)
        if kind == "interval":
            return (len(x), tuple(x.forests), tuple(x.thetas))
        return x

    def check_first(self, kind: str, q: str, x) -> str:
        t = oracle.canonical(q)
        hopf = self.m["hopf"]
        if kind == "hnap":
            return oracle.check_hnap_coproduct(t, tensor_plain(x))
        if kind == "qgnap":
            return oracle.check_qgnap_coproduct(t, tensor_plain(x))
        if kind == "ck":
            return oracle.check_ck_coproduct(t, tensor_plain(x))
        if kind == "antipode":
            tree = self.m["trees"].parse_tree(q)
            rows = tensor_plain(hopf.hnap_coproduct(tree))
            lefts = {self.m["trees"].parse_tree(left) for left, _, _ in rows} - {tree}
            s_of = antipodes_of(self.m, sorted(lefts, key=lambda u: u.string))
            s_of[t] = element_plain(x)
            return oracle.check_hnap_coproduct(t, rows) or \
                oracle.check_antipode_identity(t, rows, s_of)
        if kind == "mobius":
            return oracle.check_mobius_value(t, x)
        return oracle.check_interval(t, len(x), [(f.size, len(f), r.size)
                                                 for f, r in zip(x.forests, x.thetas)])


class Blocks:
    """Timed work of a long-lived process, in blocks of about CAL_EVERY
    seconds with one kernel run after each block; the host's speed during a
    block is the mean of the kernel runs on either side of it."""

    def __init__(self, kernel_s: float) -> None:
        self.cals = [kernel_s]
        self.blocks: list[float] = []
        self.open = 0.0

    def add(self, seconds: float) -> None:
        self.open += seconds
        if self.open >= CAL_EVERY:
            self.close()

    def close(self) -> None:
        if self.open:
            self.blocks.append(self.open)
            self.cals.extend(kernel_times(1))
            self.open = 0.0

    def seconds(self) -> float:
        return sum(self.blocks) + self.open

    def kernel_s(self) -> float:
        """The kernel's mean time, weighted by the closed blocks' work."""
        return sum(b * (self.cals[i] + self.cals[i + 1]) / 2
                   for i, b in enumerate(self.blocks)) / sum(self.blocks)


def session(spec: dict) -> dict:
    started = time.perf_counter()
    pool = session_pool(random.Random(f"session-warm:{spec['seed']}:pool"))
    stream_rng = random.Random(f"session-warm:{spec['seed']}:stream:{spec['session']}")
    setup = Blocks(statistics.fmean(kernel_times(CAL_REPS)))
    m, import_s = import_naphopf(spec["src"])
    setup.add(import_s)
    sess = Session(m)
    first = {}
    for kind, entries in pool.items():
        for q in entries:
            start = clock()
            first[(kind, q)] = sess.answer(kind, q)
            setup.add(clock() - start)
    setup.close()
    error = ""
    snapshots = {}
    for (kind, q), x in first.items():
        snapshots[(kind, q)] = Session.snapshot(kind, x)
        error = error or sess.check_first(kind, q, x)

    stream = Blocks(setup.cals[-1])
    ops = rounds = 0
    wall_s = traced_s = 0.0
    parts = []
    while True:
        queries = session_round(stream_rng, pool)
        # with --trace 1 each round runs twice: untraced, then traced
        for tracer in [None, Tracer(m)] if spec.get("trace") else [None]:
            with tracer or contextlib.nullcontext():
                start, wall = clock(), time.perf_counter()
                answers = [sess.answer(kind, q) for kind, q in queries]
                elapsed, wall = clock() - start, time.perf_counter() - wall
            if tracer is None:
                stream.add(elapsed)
                wall_s += wall
                ops += len(queries)
            else:
                traced_s += elapsed
                parts.append(tracer.layer_totals())
                tracer.write_spans(spec["spans"], f"{spec['label']}.{rounds}")
            for (kind, q), x in zip(queries, answers):
                if not error and Session.snapshot(kind, x) != snapshots[(kind, q)]:
                    error = f"a repeated {kind} query changed its answer"
        rounds += 1
        if time.perf_counter() - started >= spec["budget"]:
            break
    stream.close()
    out = {"ops": ops, "failed": 0, "import_s": import_s, "setup_s": setup.seconds(),
           "setup_kernel_s": setup.kernel_s(), "op_s": stream.seconds(), "wall_s": wall_s,
           "kernel_s": stream.kernel_s(), "rss_mb": peak_rss_mb(), "error": error}
    if spec.get("trace"):
        out["layer_parts"] = parts
        out["traced_s"] = traced_s
    return out


def main() -> None:
    spec = json.load(sys.stdin)
    try:
        out = session(spec) if spec.get("kind") == "session" else cold(spec)
    except Exception:  # one failed operation; the run goes on
        out = {"ops": 0, "failed": 1, "error": traceback.format_exc()[-600:]}
    print(json.dumps(out), flush=True)
    # skip tearing down the interpreter's heap: it is no part of any figure
    os._exit(0)


if __name__ == "__main__":
    main()
