"""A fixed reference computation that measures the host's speed.

The host this benchmark runs on is shared, and its speed changes in
phases: the same code can run more than twice as slowly for an hour.
Every process of a run therefore times this kernel next to its own work,
on the same clock, and the benchmark states naphopf's time in *reference
seconds*: measured time scaled by REF_S over the kernel's measured time.
A slow spell of the host stretches both alike and cancels; a change to
naphopf changes only its own time.

The kernel does what naphopf spends its time on, with none of its code:
recursion over tree strings, tuples, sorting, dicts and Fraction sums.  It
keeps no cache between calls, so every call does the same work.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from itertools import product

# The kernel's mean time on the reference host (a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, in a quiet phase): a reference second is
# a second there.
REF_S = 0.0143
KERNEL_N = 7

clock = time.process_time


def _children(s: str) -> list[str]:
    out, depth, start = [], 0, 1
    for i in range(1, len(s) - 1):
        if s[i] == "(":
            if depth == 0:
                start = i
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                out.append(s[start:i + 1])
    return out


def _canon(s: str) -> str:
    kids = sorted((_canon(c) for c in _children(s)), key=lambda c: (len(c), c))
    return "(" + "".join(kids) + ")"


def _trees(n: int, memo: dict) -> list[str]:
    if n not in memo:
        if n == 1:
            memo[n] = ["()"]
        else:
            shapes = set()
            for k in range(1, n):
                for t in _trees(n - k, memo):
                    for c in _trees(k, memo):
                        shapes.add(_canon(t[:-1] + c + ")"))
            memo[n] = sorted(shapes)
    return memo[n]


def _splits(s: str, memo: dict) -> list[tuple[tuple[str, ...], str]]:
    if s not in memo:
        options = [[((c,), None)] + _splits(c, memo) for c in _children(s)]
        out = []
        for combo in product(*options):
            below = tuple(b for cut, _ in combo for b in cut)
            kept = [r for _, r in combo if r is not None]
            out.append((below, _canon("(" + "".join(kept) + ")")))
        memo[s] = out
    return memo[s]


def kernel() -> int:
    """One run of the reference computation; returns a checksum."""
    trees_memo: dict = {}
    splits_memo: dict = {}
    total: dict = {}
    for n in range(1, KERNEL_N + 1):
        for t in _trees(n, trees_memo):
            for below, kept in _splits(t, splits_memo):
                key = (kept, tuple(sorted(below)))
                total[key] = total.get(key, Fraction(0)) + Fraction(1, len(below) + 1)
    return len(total) + sum(total.values()).numerator


# kernel()'s answer; REF_S holds for this kernel only
CHECKSUM = 24293


def kernel_times(reps: int) -> list[float]:
    """The times of ``reps`` kernel runs, on the benchmark's clock.  The
    garbage collector is off meanwhile, so the time does not depend on how
    many objects the process holds."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = clock()
            if kernel() != CHECKSUM:
                raise RuntimeError("the reference kernel gave a different answer")
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return times
