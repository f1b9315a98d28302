"""Run one workload of the naphopf benchmark and print its metrics.

    python3 perfbench/run.py --workload series-n9 --seed 1 --seconds 30 --trace 0

Run it from the repository root: naphopf is imported from ./src.  Each run
does whole rounds of its workload's operations until ``--seconds`` have
passed, one process at a time, and checks every answer against the
benchmark's own reference computations (oracle.py).  Times are CPU
seconds scaled to reference seconds by a kernel that every process times
next to its work (calibrate.py), so that the host's slow spells cancel.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Traced runs also append their spans to
perfbench/out/spans-<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REF_S  # noqa: E402
from inputs import COLD_ROUNDS  # noqa: E402
from tracer import merge  # noqa: E402

WORKLOADS = ("series-n9", "coproduct-n9", "cli-verify", "session-warm")
SESSIONS = 3            # warm sessions per run; set-up is their median
CHILD_TIMEOUT = 170     # seconds one process may take
OUT_DIR = os.path.join(HERE, "out")


def spawn(spec: dict, root: str, hash_rng: random.Random) -> dict:
    """Run one worker process to its end, with a PYTHONHASHSEED drawn from
    ``hash_rng``, and return its result line."""
    spec = dict(spec, src=os.path.join(root, "src"))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_rng.randrange(2 ** 32)))
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, cwd=root, env=env)
    except subprocess.TimeoutExpired:
        return {"ops": 0, "failed": 1, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ops": 0, "failed": 1,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    done = [r for r in results if not r["failed"]]
    for r in results:
        if r.get("error"):
            print(f"run.py: {r['error']}", file=sys.stderr)
    ops = sum(r["ops"] for r in done)
    op_s = sum(r["op_s"] for r in done)
    # the host's speed over the timed work: the kernel's mean time, each
    # process weighted by its timed work; REF_S / kernel_s turns the run's
    # CPU seconds into reference seconds (calibrate.py).  Each set-up is
    # scaled by the kernel runs next to it.
    kernel_s = sum(r["kernel_s"] * r["op_s"] for r in done) / op_s if op_s else REF_S
    ref_s = op_s * REF_S / kernel_s
    if done:
        print(f"run.py: {ops} ops, {ops / op_s:.6g} ops/s of CPU time, "
              f"{ops / sum(r['wall_s'] for r in done):.6g} ops/s of wall time, "
              f"kernel {kernel_s:.6g} s against {REF_S} s on the reference host",
              file=sys.stderr)
    metrics = {
        "throughput_ops_s": {"value": ops / ref_s if ref_s else 0.0, "unit": "ops/s"},
        "peak_rss_mb": {"value": max((r["rss_mb"] for r in done), default=0.0), "unit": "MB"},
        "setup_s": {"value": statistics.median([r["setup_s"] * REF_S / r["setup_kernel_s"]
                                                for r in done]) if done else 0.0,
                    "unit": "s"},
    }
    return {"correct": all(not r.get("error") for r in done),
            "attempted": ops + sum(r["failed"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def spans_path(workload: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl.gz")
    if os.path.exists(path):
        os.remove(path)
    return path


def run_cold(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    hash_rng = random.Random(f"{workload}:{seed}:hash")
    spans = spans_path(workload) if trace else None
    start = time.perf_counter()
    plain, traced = [], []
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(COLD_ROUNDS[workload](rng)):
            plain.append(spawn(op, root, hash_rng))
            if trace:
                traced.append(spawn(dict(op, trace=True, spans=spans,
                                         label=f"{workload}.{rounds}.{i}"), root, hash_rng))
        rounds += 1
        # stop before a round that would end after the time is up
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:
            break
    out = summarize(plain + traced)
    if trace:
        ok = [r for r in traced if not r["failed"]]
        plain_s = sum(r["op_s"] for r in plain if not r["failed"])
        slowdown = sum(r["op_s"] for r in ok) / plain_s if ok and plain_s else 0.0
        import_s = statistics.median([r["import_s"] for r in ok]) if ok else 0.0
        out["metrics"] = merge([r["layers"] for r in ok], rounds, import_s, slowdown)
    return out


def run_session(seed: int, seconds: float, trace: bool, root: str) -> dict:
    hash_rng = random.Random(f"session-warm:{seed}:hash")
    spans = spans_path("session-warm") if trace else None
    results = [spawn({"kind": "session", "seed": seed, "session": i,
                      "budget": seconds / SESSIONS, "trace": trace,
                      "spans": spans, "label": f"session-warm.{i}"}, root, hash_rng)
               for i in range(SESSIONS)]
    out = summarize(results)
    if trace:
        ok = [r for r in results if not r["failed"]]
        parts = [p for r in ok for p in r["layer_parts"]]
        slowdown = sum(r["traced_s"] for r in ok) / sum(r["op_s"] for r in ok) if ok else 0.0
        import_s = statistics.median([r["import_s"] for r in ok]) if ok else 0.0
        out["metrics"] = merge(parts, max(len(parts), 1), import_s, slowdown)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "naphopf", "__init__.py")):
        print("run.py: no naphopf sources under ./src; run it from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "session-warm":
        result = run_session(args.seed, args.seconds, bool(args.trace), root)
    else:
        result = run_cold(args.workload, args.seed, args.seconds, bool(args.trace), root)
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name:42} {m['value']:12.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
