import pytest

from naphopf.series import lie_bracket, mobius_series, zeta_series
from naphopf import checks, oracles
from naphopf.checks import BRUTE_CAP
from naphopf.oracles import (
    LABELED_G_LIMIT,
    LABELED_PRODUCT_LIMIT,
    ORBIT_COUNT_LIMIT,
    _multiply_labeled,
    count_Ef_Eg,
    labeled_g_structure_constants,
)
from naphopf.trees import LEAF, Forest, canonical_representative, chain
from naphopf.verify import CheckResult, SuiteReport, run_suite, suite_names


def refuse(*args):
    raise AssertionError("work started above the size limit")


def without_elapsed(report):
    data = report.to_dict()
    del data["elapsed_ms"]
    return data


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
    data = report.to_dict()
    assert data.pop("elapsed_ms") == 3
    assert data["checks"][1]["witness"] == "why"


def test_reports_reproducible_across_runs():
    a = without_elapsed(run_suite("series", degree=3, seed=5))
    b = without_elapsed(run_suite("series", degree=3, seed=5))
    assert a == b


def test_jacobi_check_catches_an_antisymmetric_bracket(monkeypatch):
    # [x, y] scaled by a weight symmetric in x and y: still antisymmetric
    # and zero on x = y, but the three Jacobi terms get different weights
    def skewed(a, b):
        return (1 + len(a.coeffs) + len(b.coeffs)) * lie_bracket(a, b)

    assert checks._series_lie(4, None) == ""
    monkeypatch.setattr(checks, "lie_bracket", skewed)
    assert checks._series_lie(4, None) == "jacobi"


def test_timings_stay_out_of_the_default_report():
    report = run_suite("mobius", degree=3, seed=0)
    assert "timings" not in report.to_dict()
    timed = report.to_dict(include_timings=True)
    assert list(timed["timings"]) == [c.name for c in report.checks]
    assert all(ms >= 0 for ms in timed["timings"].values())
    del timed["timings"]
    assert timed == report.to_dict()
    assert report.checks[0].name in report.render_timings()


def test_labeled_g_oracle_refuses_trees_above_its_limit():
    # verify --degree 7 reaches 7 vertices; the refusal comes before any work
    assert LABELED_G_LIMIT >= 7
    with pytest.raises(ValueError, match=f"LABELED_G_LIMIT = {LABELED_G_LIMIT}"):
        labeled_g_structure_constants(LABELED_G_LIMIT + 1)
    assert len(labeled_g_structure_constants(3)) == 2  # the two 3-vertex trees


def test_labeled_product_oracle_refuses_truncations_above_its_limit():
    assert LABELED_PRODUCT_LIMIT >= 7
    big = zeta_series(LABELED_PRODUCT_LIMIT + 1)
    with pytest.raises(ValueError, match=f"LABELED_PRODUCT_LIMIT = {LABELED_PRODUCT_LIMIT}"):
        _multiply_labeled(big, big, canonical_representative)
    # the truncation is the smaller one of the two factors
    assert (_multiply_labeled(big, mobius_series(3), canonical_representative)
            == _multiply_labeled(zeta_series(3), mobius_series(3), canonical_representative))


def test_orbit_counts_refuse_trees_above_their_limit(monkeypatch):
    # the main-theorem check stops at BRUTE_CAP, below the limit
    assert ORBIT_COUNT_LIMIT >= BRUTE_CAP
    alpha = chain(ORBIT_COUNT_LIMIT + 1)
    with monkeypatch.context() as m:
        # the refusal comes before any work
        m.setattr(oracles, "canonical_representative", refuse)
        m.setattr(oracles, "_labeled_pools", refuse)
        with pytest.raises(ValueError, match=f"ORBIT_COUNT_LIMIT = {ORBIT_COUNT_LIMIT}"):
            count_Ef_Eg(alpha, Forest((alpha,)), LEAF)
    t = chain(3)
    assert count_Ef_Eg(t, Forest((t,)), LEAF) == (1, 1)


def test_a_capped_check_reports_the_degree_it_ran_at():
    # the brute-force poset checks stop at BRUTE_CAP; the others run as asked
    report = run_suite("poset", degree=BRUTE_CAP + 1, seed=0)
    assert report.passed
    capped = [c for c in report.checks if c.checked_degree is not None]
    assert capped and all(c.checked_degree == BRUTE_CAP for c in capped)
    assert len(capped) < len(report.checks)
    rows = report.to_dict()["checks"]
    assert [r.get("checked_degree") for r in rows] == [c.checked_degree for c in report.checks]
    assert report.render_text().count(f"(checked to degree {BRUTE_CAP})") == len(capped)
    # at or below the cap nothing is noted
    plain = run_suite("poset", degree=BRUTE_CAP, seed=0)
    assert all("checked_degree" not in r for r in plain.to_dict()["checks"])
    assert "checked to degree" not in plain.render_text()


# the degree each check runs at when none is asked; None for the six checks
# that ignore the degree
DEFAULT_DEGREES = {
    None: ["_poset_comm", "_lattice_controls", "_hopf_reference_f", "_hopf_reference_g",
           "_hopf_relation", "_proj_faa"],
    4: ["_poset_counts", "_poset_axioms", "_poset_upsets", "_poset_intervals",
        "_poset_models", "_main_counts", "_series_lie"],
    5: ["_ck_cuts", "_ck_cocycle", "_ck_iso_inverse", "_ck_iso_coproduct",
        "_ck_iso_cocycle", "_hopf_antipode", "_hopf_rho", "_main_identity",
        "_series_group_laws", "_series_left_linear", "_series_representatives",
        "_series_graft_distributes", "_series_characters"],
    6: ["_poset_mobius_products", "_lattice_semimodular", "_lattice_distributive",
        "_hopf_coassoc", "_hopf_delta_multiplicative", "_series_membership",
        "_series_membership_stable", "_proj_morphisms"],
    7: ["_poset_mobius_sums", "_mobius_closed", "_hopf_freeness",
        "_series_zeta_mobius", "_proj_inverses"],
    8: ["_series_corolla_ladder", "_series_fixed_point", "_proj_cayley",
        "_proj_comm_cl", "_proj_mult", "_proj_gcomm"],
}
# the checks held below --degree 6 by their caps
CAPPED_AT_6 = {"_poset_counts": BRUTE_CAP, "_poset_axioms": BRUTE_CAP,
               "_poset_upsets": BRUTE_CAP, "_poset_intervals": BRUTE_CAP,
               "_poset_models": BRUTE_CAP, "_main_counts": BRUTE_CAP, "_series_lie": 5}


def test_each_check_receives_its_registered_degree(monkeypatch):
    # recorders stand in for the checks, so no check runs
    received = {}

    def recorder(fn):
        def record(degree, rng):
            received[fn.__name__] = degree
            return ""
        return record

    registry = [(suite, name, recorder(fn)) for suite, name, fn in checks._REGISTRY]
    degrees = {rec: checks._DEGREES[fn]
               for (_, _, rec), (_, _, fn) in zip(registry, checks._REGISTRY)}
    monkeypatch.setattr(checks, "_REGISTRY", registry)
    monkeypatch.setattr(checks, "_DEGREES", degrees)

    assert len(run_suite("all").checks) == 45
    assert received == {name: d for d, names in DEFAULT_DEGREES.items() for name in names}
    report = run_suite("all", degree=6)
    assert received == {name: CAPPED_AT_6.get(name, 6)
                        for names in DEFAULT_DEGREES.values() for name in names}
    assert sum(c.checked_degree is not None for c in report.checks) == len(CAPPED_AT_6)
    # the suites in the order of their first registration
    assert suite_names() == ("poset", "mobius", "hopf", "main-theorem", "ck-iso",
                             "series", "projections", "all")


def test_all_suite_passes_at_the_default_degrees():
    report = run_suite("all")
    assert len(report.checks) == 45
    assert [c.name for c in report.checks if not c.passed] == []
    assert all(c.checked_degree is None for c in report.checks)
