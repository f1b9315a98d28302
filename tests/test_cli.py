import hashlib
import json
import sys

import pytest

from naphopf import cli, hopf, oracles, trees
from naphopf.cli import (COPRODUCT_LIMIT, ENUMERATE_N_LIMIT, INTERVAL_LIMIT, LABELED_N_LIMIT,
                         SERIES_N_LIMIT, VERIFY_DEGREE_LIMIT, main)
from naphopf.posets import ideal_count, ideal_orbit_count
from naphopf.trees import RootedTree, chain, corolla, enumerate_trees, parse_tree
from naphopf.verify import SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lines_and_count(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert out.splitlines() == ["((()))", "(()())", "count: 2"]


def test_enumerate_single_vertex(capsys):
    code, out, _ = run(capsys, "enumerate", "1")
    assert code == 0
    assert out.splitlines() == ["()", "count: 1"]


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "7", "--count-only")
    assert code == 0
    assert out.strip() == "48"


def test_enumerate_labeled(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--labeled")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 9"
    assert len(lines) == 10
    assert "1:(2:() 3:())" in lines


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 4
    assert data["trees"][0] == "((((" + "))))"


def test_coproduct_hnap(capsys):
    code, out, _ = run(capsys, "coproduct", "((()()))", "--algebra", "hnap")
    assert code == 0
    rows = json.loads(out)
    assert {"left": "(())", "right": "((()))", "coeff": "2"} in rows
    assert len(rows) == 4


def test_coproduct_qgnap(capsys):
    code, out, _ = run(capsys, "coproduct", "((()()))", "--algebra", "qgnap")
    rows = json.loads(out)
    assert {"left": "(())", "right": "((()))", "coeff": "1"} in rows
    assert len(rows) == 4


def test_coproduct_ck_single_vertex(capsys):
    code, out, _ = run(capsys, "coproduct", "()", "--algebra", "ck")
    rows = json.loads(out)
    assert len(rows) == 2


def test_coproduct_parse_error(capsys):
    code, out, err = run(capsys, "coproduct", "(()")
    assert code == 2
    assert "byte 3" in err


def test_coproduct_parse_error_counts_utf8_bytes(capsys):
    # a no-break space is two bytes in UTF-8, so the 'x' is at byte 4
    code, out, err = run(capsys, "coproduct", "\u00a0()x")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: trailing input after tree (byte 4)"]


DEEP_CHAIN = "(" * 1200 + ")" * 1200


def test_parse_tree_takes_a_deep_chain():
    assert parse_tree(DEEP_CHAIN) == chain(1200)


@pytest.mark.parametrize("algebra, terms", [("hnap", 1200), ("ck", 1201), ("qgnap", 1200)])
def test_deep_chain_coproduct_needs_no_recursion(capsys, algebra, terms):
    # under a recursion limit far below the depth of the chain
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out, err = run(capsys, "coproduct", DEEP_CHAIN, "--algebra", algebra)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    assert len(json.loads(out)) == terms


@pytest.mark.parametrize("algebra", ["hnap", "qgnap", "ck"])
def test_coproduct_above_the_size_limit_exits_2(capsys, monkeypatch, algebra):
    # chains of 2..9 vertices under one root: 45 vertices, 1,814,445 ideal
    # classes; the refusal comes before any ideal is listed
    tree = RootedTree([chain(k) for k in range(2, 10)])
    assert ideal_orbit_count(tree) > COPRODUCT_LIMIT >= ideal_orbit_count(chain(1200))
    monkeypatch.setattr(hopf, "ideals", refuse)
    code, out, err = run(capsys, "coproduct", tree.string, "--algebra", algebra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "COPRODUCT_LIMIT = 750000" in err


@pytest.mark.parametrize("command", ["interval"])
def test_deep_tree_exits_2_without_traceback(capsys, command):
    code, out, err = run(capsys, command, DEEP_CHAIN)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_interval_of_a_300_vertex_chain_needs_no_recursion(capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        code, out, err = run(capsys, "interval", chain(300).string)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    data = json.loads(out)
    assert data["size"] == 300
    assert data["elements"][-1] == {"ideal": [1], "forest": chain(300).string,
                                    "theta": "()"}
    assert len(data["covers"]) == 299


@pytest.mark.parametrize("tree", [chain(1200), corolla(14)])
def test_interval_above_the_size_limit_exits_2(capsys, tree):
    m = ideal_count(tree)
    assert m * tree.size > INTERVAL_LIMIT
    code, out, err = run(capsys, "interval", tree.string)
    assert (code, out) == (2, "")
    assert "INTERVAL_LIMIT" in err


def test_interval_of_a_wide_corolla_is_admitted(capsys):
    # 4,096 ideals of 13 vertices: the limit bounds the m * n vertices
    # listed, not the m * m pairs of ideals no step compares any more
    tree = corolla(12)
    assert ideal_count(tree) * tree.size <= INTERVAL_LIMIT
    code, out, err = run(capsys, "interval", tree.string)
    assert code == 0, err
    data = json.loads(out)
    assert data["size"] == 4096
    assert len(data["covers"]) == 12 * 2048


def test_interval_json(capsys):
    code, out, _ = run(capsys, "interval", "((()))")
    data = json.loads(out)
    assert data["size"] == 3
    assert data["elements"][0]["ideal"] == [1, 2, 3]
    assert data["elements"][-1]["theta"] == "()"


def test_interval_dot(capsys):
    code, out, _ = run(capsys, "interval", "(()())", "--emit-dot")
    assert code == 0
    assert out.startswith("digraph interval {")
    assert out.count("->") == 4  # boolean lattice on two atoms


def test_interval_output_is_unchanged(capsys):
    # the JSON and the DOT listing of every tree with 1..7 vertices and of
    # chain(300), as printed before the interval lost its labeled tree and
    # its order matrix
    digest = hashlib.sha256()
    for t in [t for n in range(1, 8) for t in enumerate_trees(n)] + [chain(300)]:
        for extra in ([], ["--emit-dot"]):
            assert main(["interval", t.string, *extra]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "3ffd30728c13f2698a6498d0f3740cbbc13be9ae65d500672e37e00c255a8ee1"


def test_verify_series_output_is_unchanged(capsys):
    # the JSON of the series suite without its elapsed time, at the default
    # degrees and at --degree 6, where the Jacobi check reports its cap:
    # a changed description, cap or witness changes the digest
    digest = hashlib.sha256()
    for extra in ([], ["--degree", "6"]):
        assert main(["verify", "--suite", "series", *extra]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["elapsed_ms"]
        digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == "7eeee55f2aa9b98977928220bc7c884932eac6cbb89fd81588aef7e511a2d566"


def test_coproduct_output_is_unchanged(capsys):
    # the JSON coproduct in all three algebras of every tree with 1..7
    # vertices and of chain(200), as printed before the tree table's facts
    # became module names of naphopf.trees
    digest = hashlib.sha256()
    for algebra in ("hnap", "qgnap", "ck"):
        for t in [t for n in range(1, 8) for t in enumerate_trees(n)] + [chain(200)]:
            assert main(["coproduct", t.string, "--algebra", algebra]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "3e741bfa5a6126789287c0a8513d0a278c0226beb2d8553181cc715e2fdad9a9"


def test_series_output_is_unchanged(capsys):
    # the JSON of inverses, products, a graft and a projection at -N 8, as
    # printed before the tree table's facts became module names of
    # naphopf.trees
    digest = hashlib.sha256()
    for argv in (["inv", "zeta"], ["inv", "ladder"], ["mul", "zeta", "mobius"],
                 ["mul", "corolla", "ladder"], ["graft", "corolla", "unit"],
                 ["project", "comm", "zeta"]):
        assert main(["series", *argv, "-N", "8"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "afbcafd5d6f46b10cd954b0bd02ff3d6a44a46bf628eadd15a6af343c4a9e3c7"


def test_projection_output_is_unchanged(capsys, tmp_path):
    # the JSON of the three projections of every named series and of a file
    # with Fraction coefficients at -N 9, and the projections suite's JSON
    # without its elapsed time at the default degrees and at --degree 8, as
    # printed while every power-series coefficient was a Fraction
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({"truncation": 9, "coeffs": {
        "()": "1", "(())": "1/2", "((()))": "-2/3", "(()())": "5", "(()()())": "3/4",
        "(((())))": "-7/6", "(()()()()()()()())": "1/9", "((((((((()))))))))": "-4"}}))
    digest = hashlib.sha256()
    for projection in ("corolla", "ladder", "comm"):
        for operand in ("zeta", "mobius", "corolla", "ladder", "unit", str(path)):
            assert main(["series", "project", projection, operand, "-N", "9"]) == 0
            digest.update(capsys.readouterr().out.encode())
    for extra in ([], ["--degree", "8"]):
        assert main(["verify", "--suite", "projections", *extra]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["elapsed_ms"]
        digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == "02dd458c4bca37df000ad142341ba75233505338f8133a42b8e2f59b4bf886f6"


def test_series_named_and_inverse(capsys):
    code, out, _ = run(capsys, "series", "inv", "zeta", "-N", "5")
    inv = json.loads(out)
    code, out, _ = run(capsys, "series", "mobius", "-N", "5")
    mob = json.loads(out)
    assert inv == mob


def test_series_mul_gives_unit(capsys):
    code, out, _ = run(capsys, "series", "mul", "zeta", "mobius", "-N", "5")
    data = json.loads(out)
    assert data == {"truncation": 5, "coeffs": {"()": "1"}}


def test_series_graft(capsys):
    code, out, _ = run(capsys, "series", "graft", "unit", "unit", "-N", "3")
    data = json.loads(out)
    assert data["coeffs"] == {"(())": "1"}


def test_series_project(capsys):
    code, out, _ = run(capsys, "series", "project", "comm", "zeta", "-N", "6")
    data = json.loads(out)
    assert data["coeffs"] == ["0", "1", "1", "3/2", "8/3", "125/24", "54/5"]


def test_series_file_operand(tmp_path, capsys):
    code, out, _ = run(capsys, "series", "ladder", "-N", "6")
    path = tmp_path / "ladder.json"
    path.write_text(out)
    code, out, _ = run(capsys, "series", "mul", "corolla", str(path), "-N", "6")
    assert json.loads(out) == {"truncation": 6, "coeffs": {"()": "1"}}


def test_series_file_truncated_below_request(tmp_path, capsys):
    code, out, _ = run(capsys, "series", "zeta", "-N", "4")
    path = tmp_path / "zeta4.json"
    path.write_text(out)
    code, out, err = run(capsys, "series", "inv", str(path), "-N", "6")
    assert code == 2
    assert "only exact to degree 4" in err


@pytest.mark.parametrize("data,field", [
    ({"coeffs": {"()": "1"}}, "'truncation'"),
    ({"truncation": 3, "coeffs": ["()", "1"]}, "'coeffs'"),
    ({"truncation": 3, "coeffs": {"()": "1/0"}}, "'coeffs'"),
    ([3, {"()": "1"}], "object"),
    # two spellings of one tree: neither coefficient may be dropped
    ({"truncation": 4, "coeffs": {"()": "1", "(()(()))": "1", "((())())": "5"}},
     "'coeffs': '(()(()))' and '((())())' name the same tree"),
    # only an integer or p/q: an exponent would cost time tenfold per digit
    ({"truncation": 3, "coeffs": {"()": "1", "(())": "1e10000000"}},
     "'coeffs': '(())' has coefficient '1e10000000', not an integer or p/q"),
    # a p/q with q = 0 names its tree, not the Fraction that refused it
    ({"truncation": 3, "coeffs": {"()": "1", "(())": "-3/00"}},
     "'coeffs': '(())' has coefficient '-3/00', a zero denominator"),
])
def test_series_file_with_bad_schema(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "series", "inv", str(path), "-N", "3")
    assert code == 2
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_series_file_with_a_tree_above_its_truncation(tmp_path, capsys):
    # the coefficient of ((())) would be dropped without a word
    path = tmp_path / "above.json"
    path.write_text(json.dumps({"truncation": 2, "coeffs": {"()": "1", "((()))": "7"}}))
    code, out, err = run(capsys, "series", "mul", str(path), "unit", "-N", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: series field 'coeffs': '((()))' has 3 vertices")
    assert "Traceback" not in err


def test_series_directory_operand(tmp_path, capsys):
    code, out, err = run(capsys, "series", "inv", str(tmp_path), "-N", "3")
    assert code == 2
    assert "unknown series" in err


def test_series_bad_operation(capsys):
    code, out, err = run(capsys, "series", "frobnicate", "-N", "3")
    assert code == 2
    assert "unknown series operation" in err


def test_series_unknown_operand(capsys):
    code, out, err = run(capsys, "series", "inv", "nonsense", "-N", "3")
    assert code == 2
    assert "unknown series" in err


def refuse(*args):
    raise AssertionError("enumeration started above the size limit")


@pytest.mark.parametrize("argv", [["mul", "zeta", "zeta"], ["inv", "mobius"], ["zeta"]])
def test_series_above_the_size_limit_exits_2(capsys, monkeypatch, argv):
    for name in cli.NAMED_SERIES:
        monkeypatch.setitem(cli.NAMED_SERIES, name, refuse)
    code, out, err = run(capsys, "series", *argv, "-N", str(SERIES_N_LIMIT + 1))
    assert (code, out) == (2, "")
    assert err == f"error: -N {SERIES_N_LIMIT + 1} is above SERIES_N_LIMIT = 13\n"


def test_labeled_enumeration_above_the_size_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "labeled_trees", refuse)
    code, out, err = run(capsys, "enumerate", str(LABELED_N_LIMIT + 1), "--labeled")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "LABELED_N_LIMIT = 7" in err
    # the limit itself is still listed
    monkeypatch.setattr(oracles, "labeled_trees", lambda labels: [])
    code, out, _ = run(capsys, "enumerate", str(LABELED_N_LIMIT), "--labeled", "--count-only")
    assert (code, out) == (0, "0\n")


def test_enumeration_above_the_size_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    code, out, err = run(capsys, "enumerate", str(ENUMERATE_N_LIMIT + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "ENUMERATE_N_LIMIT = 16" in err
    # the limit itself is still listed
    monkeypatch.setattr(cli, "enumerate_trees", lambda n: ())
    code, out, _ = run(capsys, "enumerate", str(ENUMERATE_N_LIMIT), "--count-only")
    assert (code, out) == (0, "0\n")


def test_verify_suite_exit_code_and_report(capsys):
    code, out, err = run(capsys, "verify", "--suite", "mobius", "--degree", "5")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "mobius"
    assert report["passed"] is True
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all(c["witness"] == "" for c in report["checks"])
    assert "[PASS]" in err


def test_verify_reports_are_reproducible(capsys):
    def report_text():
        code, out, _ = run(capsys, "verify", "--suite", "ck-iso", "--degree", "3",
                           "--seed", "11")
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_ms")
        return json.dumps(data, indent=2)

    assert report_text() == report_text()


def test_verify_checks_sorted_by_name(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "poset", "--degree", "2")
    report = json.loads(out)
    names = [c["description"] for c in report["checks"]]
    assert names == sorted(names)


def test_verify_timings_only_on_request(capsys):
    code, out, err = run(capsys, "verify", "--suite", "mobius", "--degree", "3")
    plain = json.loads(out)
    assert code == 0 and "timings" not in plain and " ms  mobius: " not in err
    code, out, err = run(capsys, "verify", "--suite", "mobius", "--degree", "3",
                         "--timings")
    timed = json.loads(out)
    names = [c["description"] for c in timed["checks"]]
    assert code == 0 and list(timed.pop("timings")) == names
    timed.pop("elapsed_ms")
    plain.pop("elapsed_ms")
    assert timed == plain
    assert all(f" ms  mobius: {name}" in err for name in names)


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_verify_degree_below_one_exits_2(capsys, degree):
    code, out, err = run(capsys, "verify", "--suite", "all", "--degree", degree)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: degree must be >= 1, not {degree}"]


def test_verify_degree_above_the_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", refuse)
    for degree in (VERIFY_DEGREE_LIMIT + 1, 100000):
        code, out, err = run(capsys, "verify", "--degree", str(degree))
        assert (code, out) == (2, "")
        assert err == f"error: verify --degree {degree} is above VERIFY_DEGREE_LIMIT = 10\n"
    # the limit itself is run
    asked = []

    def record(suite, degree, seed):
        asked.append((suite, degree, seed))
        return SuiteReport(suite)

    monkeypatch.setattr(cli, "run_suite", record)
    code, out, _ = run(capsys, "verify", "--degree", str(VERIFY_DEGREE_LIMIT))
    assert code == 0 and json.loads(out)["passed"] is True
    assert asked == [("all", VERIFY_DEGREE_LIMIT, 0)]


def test_verify_timings_end_with_the_tree_table_stats(capsys):
    code, out, err = run(capsys, "verify", "--suite", "ck-iso", "--degree", "3",
                         "--timings")
    report = json.loads(out)
    assert code == 0 and set(report) == {"suite", "passed", "checks", "elapsed_ms",
                                         "timings"}
    lines = err.splitlines()
    assert sum(" ms  ck-iso: " in line for line in lines) == len(report["checks"])
    stats = trees.stats()
    assert lines[-1] == (f"tree table: {stats['trees']} trees, {stats['grafts']} grafts, "
                         f"{stats['ideal_rows']} ideal_rows, "
                         f"{stats['antipodes']} antipodes, {stats['spellings']} spellings")
    assert stats["trees"] > 1 and stats["ideal_rows"] > 0
    code, _, err = run(capsys, "verify", "--suite", "ck-iso", "--degree", "3")
    assert code == 0 and "tree table:" not in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
