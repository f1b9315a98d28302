"""Named verification suites bundling the library's defining identities.

This module is the runner; the checks live in :mod:`naphopf.checks`, which
the first run of a suite imports, so a process that runs no suite never
compiles them.  Each check is a pure function of (degree, rng), registered
with its suite and, when it uses the degree, the degree it runs at by
default and the cap it never runs above; the runner resolves the degree.  A
suite report lists the checks sorted by name with a pass/fail status and a
witness string that is nonempty exactly on failure.  Randomized checks draw
from a seeded RNG, so repeated runs with the same flags are byte-identical
apart from timing.
"""

from __future__ import annotations

import random
import time

# the suites in the order of their first registration in naphopf.checks,
# listed here so that naming them loads no check; a test holds the two equal
SUITE_NAMES = ("poset", "mobius", "hopf", "main-theorem", "ck-iso", "series", "projections")


class CheckResult:
    """One check's outcome: ``witness`` is nonempty exactly on failure,
    ``elapsed_ms`` is its wall time (not part of :meth:`to_dict`), and
    ``checked_degree`` the degree it ran at, when its cap held it below the
    one asked."""

    __slots__ = ("name", "passed", "witness", "elapsed_ms", "checked_degree")

    def __init__(self, name: str, passed: bool, witness: str = "",
                 elapsed_ms: float = 0.0, checked_degree: int | None = None) -> None:
        self.name = name
        self.passed = passed
        self.witness = witness
        self.elapsed_ms = elapsed_ms
        self.checked_degree = checked_degree

    def to_dict(self) -> dict:
        out = {"description": self.name,
               "status": "pass" if self.passed else "fail",
               "witness": self.witness}
        if self.checked_degree is not None:
            out["checked_degree"] = self.checked_degree
        return out


class SuiteReport:
    """The results of one suite run, in the order they ran."""

    __slots__ = ("suite", "checks", "elapsed_ms")

    def __init__(self, suite: str, checks: list[CheckResult] | None = None,
                 elapsed_ms: int = 0) -> None:
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {"suite": self.suite,
               "passed": self.passed,
               "checks": [c.to_dict() for c in self.checks],
               "elapsed_ms": self.elapsed_ms}
        if include_timings:
            out["timings"] = {c.name: round(c.elapsed_ms, 1) for c in self.checks}
        return out

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = f" [{c.witness}]" if c.witness else ""
            if c.checked_degree is not None:
                extra += f" (checked to degree {c.checked_degree})"
            lines.append(f"[{mark}] {self.suite}: {c.name}{extra}")
        lines.append(f"suite {self.suite}: "
                     f"{'pass' if self.passed else 'FAIL'} "
                     f"({len(self.checks)} checks, {self.elapsed_ms} ms)")
        return "\n".join(lines)

    def render_timings(self) -> str:
        """One line per check with its wall time in milliseconds."""
        return "\n".join(f"{c.elapsed_ms:9.1f} ms  {self.suite}: {c.name}"
                         for c in self.checks)


def suite_names() -> tuple[str, ...]:
    return SUITE_NAMES + ("all",)


def run_suite(suite: str, degree: int | None = None, seed: int = 0) -> SuiteReport:
    """Run one named suite (or "all") and return its report.

    Checks appear sorted by name; randomized checks use the given seed, so
    reports are reproducible.
    """
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {suite_names()}")
    if degree is not None and degree < 1:
        raise ValueError(f"degree must be >= 1, not {degree}")
    from . import checks

    selected = [(s, name, fn) for (s, name, fn) in checks._REGISTRY
                if suite == "all" or s == suite]
    selected.sort(key=lambda row: (row[0], row[1]))
    start = time.monotonic()
    results = []
    for s, name, fn in selected:
        rng = random.Random(seed)
        label = name if suite != "all" else f"{s}: {name}"
        default, cap = checks._DEGREES[fn]
        checked = default if degree is None else degree
        if cap is not None:
            checked = min(checked, cap)
        t0 = time.perf_counter()
        try:
            witness = fn(checked, rng)
        except Exception as exc:  # a crash is a failure with the error as witness
            witness = f"error: {exc}"
        results.append(CheckResult(label, witness == "", witness,
                                   (time.perf_counter() - t0) * 1000,
                                   None if degree is None or checked == degree else checked))
    elapsed = int((time.monotonic() - start) * 1000)
    return SuiteReport(suite, results, elapsed)


def __getattr__(name: str):
    # the check registry under the name it had when the checks lived here
    # (the benchmark's tracer reads it), loading the checks on first use;
    # every other missing name, dunders included, stays missing
    if name == "_REGISTRY":
        from . import checks

        return checks._REGISTRY
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
