import pytest

from naphopf.series import lie_bracket
from naphopf.verify import CheckResult, SuiteReport, run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert "all" in names
    assert set(names) >= {"poset", "mobius", "hopf", "main-theorem",
                          "ck-iso", "series", "projections"}


def test_all_suite_runs_and_passes_at_low_degree():
    report = run_suite("all", degree=2, seed=0)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert any(name.startswith("mobius:") for name in names)
    assert all(c.witness == "" for c in report.checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_report_rendering_and_failure_semantics():
    report = SuiteReport("demo", [CheckResult("a fine check", True),
                                  CheckResult("a broken check", False, "why")],
                         elapsed_ms=3)
    assert not report.passed
    text = report.render_text()
    assert "[PASS] demo: a fine check" in text
    assert "[FAIL] demo: a broken check [why]" in text
    data = report.to_dict(include_elapsed=False)
    assert "elapsed_ms" not in data
    assert data["checks"][1]["witness"] == "why"


def test_reports_reproducible_across_runs():
    a = run_suite("series", degree=3, seed=5).to_dict(include_elapsed=False)
    b = run_suite("series", degree=3, seed=5).to_dict(include_elapsed=False)
    assert a == b


def test_jacobi_check_catches_an_antisymmetric_bracket(monkeypatch):
    # [x, y] scaled by a weight symmetric in x and y: still antisymmetric
    # and zero on x = y, but the three Jacobi terms get different weights
    from naphopf import verify

    def skewed(a, b):
        return (1 + len(a.coeffs) + len(b.coeffs)) * lie_bracket(a, b)

    assert verify._series_lie(None, None) == ""
    monkeypatch.setattr(verify, "lie_bracket", skewed)
    assert verify._series_lie(None, None) == "jacobi"


def test_timings_stay_out_of_the_default_report():
    report = run_suite("mobius", degree=3, seed=0)
    assert "timings" not in report.to_dict()
    timed = report.to_dict(include_timings=True)
    assert list(timed["timings"]) == [c.name for c in report.checks]
    assert all(ms >= 0 for ms in timed["timings"].values())
    del timed["timings"]
    assert timed == report.to_dict()
    assert report.checks[0].name in report.render_timings()
