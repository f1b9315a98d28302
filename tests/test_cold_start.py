"""What a cold ``naphopf`` process loads: the production modules only.

The checks of ``verify`` load on first use, and the oracles only where
they are imported by name, from ``naphopf.oracles``.
"""

import hashlib
import json
import os
import subprocess
import sys

import naphopf
from naphopf import cli, verify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every public name the package exported when it imported the oracles eagerly
PUBLIC_NAMES = [
    "BruteForcePoset", "FinitePoset", "Forest", "HopfElement", "IntervalPoset", "LEAF",
    "LabeledForest", "LabeledTree", "OperadInstance", "PowerSeries", "RootedTree",
    "TensorElement", "TreeSeries", "TreeSyntaxError", "antipode", "aut0_order", "aut_order",
    "b_plus", "brute_force_pi", "canonical_representative", "chain",
    "check_distributive_lattice", "check_total_semimodularity", "ck_coproduct",
    "ck_coproduct_cuts", "comm_instance", "corolla", "corolla_series", "count_Ef_Eg",
    "diamond_poset", "enumerate_forests", "enumerate_trees", "f_structure_constants",
    "faa_generators", "forest_below", "g_structure_constants", "gcomm_product", "graft_onto",
    "hnap_coproduct", "interval_dot", "interval_of", "iso_from_ck", "iso_to_ck", "l_nap",
    "labeled_forests", "labeled_trees", "ladder_series", "lie_bracket", "mobius",
    "mobius_closed_form", "mobius_series", "nap_compose", "nap_instance", "parse_forest",
    "parse_tree", "pentagon_poset", "project_comm", "project_corolla", "project_ladder",
    "ps_comp_inverse", "ps_compose", "ps_mul_inverse", "ps_multiply", "qgnap_coproduct", "rho",
    "series_graft", "series_inverse", "series_multiply", "spec_membership", "theta_of",
    "unit_series", "zeta_series",
]

# the names among them that live in naphopf.oracles alone
ORACLE_NAMES = frozenset({
    "BruteForcePoset", "FinitePoset", "LabeledForest", "LabeledTree", "OperadInstance",
    "brute_force_pi", "canonical_representative", "check_distributive_lattice",
    "check_total_semimodularity", "ck_coproduct_cuts", "comm_instance", "count_Ef_Eg",
    "diamond_poset", "f_structure_constants", "forest_below", "labeled_forests",
    "labeled_trees", "nap_compose", "nap_instance", "pentagon_poset", "theta_of",
})


def test_importing_the_cli_loads_no_check_oracle_or_unused_stdlib_module():
    # -S: some installations' site hooks import typing before any program
    # code runs, which would hide what naphopf itself imports
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import naphopf, naphopf.cli\n"
        "probes = [hasattr(naphopf, '__wrapped__'), hasattr(naphopf.verify, '__path__')]\n"
        "watched = ('naphopf.verify', 'naphopf.checks', 'naphopf.oracles',\n"
        "           'argparse', 'typing', 'dataclasses')\n"
        "loaded = [m for m in watched if m in sys.modules]\n"
        "checks = len(sys.modules['naphopf.verify']._REGISTRY)\n"
        "print(json.dumps([probes, loaded, checks, 'naphopf.checks' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    probes, loaded, count, checks_after = json.loads(out.stdout)
    assert probes == [False, False]
    assert loaded == ["naphopf.verify"]
    # the registry the benchmark's tracer reads loads every check on first use
    assert count == 45 and checks_after


def test_the_cli_import_defines_no_labeled_tree_or_order_matrix():
    # the labeled trees, the matrix posets and the Mobius recursion are
    # oracles: the production modules define none of them, and a mobius
    # sweep over every tree with 1..9 vertices builds no interval
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import naphopf, naphopf.cli\n"
        "from naphopf import posets, trees\n"
        "defined = [hasattr(trees, 'LabeledTree'), hasattr(trees, 'canonical_representative'),\n"
        "           hasattr(posets, 'FinitePoset'), hasattr(posets.mobius, 'cache_info')]\n"
        "before = posets.interval_of.cache_info().currsize\n"
        "values = [posets.mobius(t) for n in range(1, 10) for t in trees.enumerate_trees(n)]\n"
        "added = posets.interval_of.cache_info().currsize - before\n"
        "print(json.dumps([defined, posets.mobius_closed_form is posets.mobius,\n"
        "                  'naphopf.oracles' in sys.modules, len(values),\n"
        "                  sum(map(abs, values)), added]))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    defined, same, oracles_loaded, trees, corollas, added = json.loads(out.stdout)
    assert defined == [False, False, False, False]
    assert same and not oracles_loaded
    # nonzero on the nine corollas only, and no interval built for any tree
    assert (trees, corollas, added) == (486, 9, 0)


def test_every_public_name_still_resolves_from_the_package():
    # the production names from the package itself, the oracles' from
    # naphopf.oracles alone
    from naphopf import oracles

    for name in PUBLIC_NAMES:
        if name in ORACLE_NAMES:
            assert getattr(oracles, name) is not None, name
            assert not hasattr(naphopf, name), name
            assert name not in dir(naphopf), name
        else:
            assert name in naphopf.__dict__, name
            assert name in dir(naphopf), name
    assert not hasattr(naphopf, "nap_compose")
    assert not hasattr(naphopf, "no_such_name")
    assert not hasattr(naphopf, "__wrapped__")


def test_static_suite_names_follow_the_registration_order():
    from naphopf import checks

    assert verify._REGISTRY is checks._REGISTRY and len(checks._REGISTRY) == 45
    assert verify.SUITE_NAMES == tuple(dict.fromkeys(suite for suite, _, _ in checks._REGISTRY))
    assert not hasattr(verify, "__path__")


def test_labeled_enumeration_output_is_unchanged(capsys):
    assert cli.main(["enumerate", "3", "--labeled"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1:(2:() 3:())", "1:(2:(3:()))", "1:(3:(2:()))",
        "2:(1:() 3:())", "2:(1:(3:()))", "2:(3:(1:()))",
        "3:(1:() 2:())", "3:(1:(2:()))", "3:(2:(1:()))", "count: 9"]
    # the 625 labeled trees on five vertices, as listed before the move
    assert cli.main(["enumerate", "5", "--labeled"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3a9e0eca197995ee571c8d8d2f407988df22a084b480be4b3d7dd7579f1e89cd"
