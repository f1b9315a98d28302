"""Exact-arithmetic toolkit for the NAP operad on rooted trees: interval
posets and their Mobius functions, the incidence and function Hopf algebras
with the surjection between them, the Connes-Kreimer bridge, and the group
of tree-indexed series with its classical power-series projections."""

from .trees import (
    Forest,
    LEAF,
    LabeledTree,
    RootedTree,
    TreeSyntaxError,
    aut0_order,
    aut_order,
    canonical_representative,
    chain,
    corolla,
    enumerate_forests,
    enumerate_trees,
    graft_onto,
    parse_forest,
    parse_tree,
)
from .posets import (
    FinitePoset,
    IntervalPoset,
    check_distributive_lattice,
    check_total_semimodularity,
    diamond_poset,
    forest_below,
    interval_dot,
    interval_of,
    mobius,
    mobius_closed_form,
    pentagon_poset,
    theta_of,
)
from .hopf import (
    HopfElement,
    TensorElement,
    antipode,
    b_plus,
    ck_coproduct,
    g_structure_constants,
    hnap_coproduct,
    iso_from_ck,
    iso_to_ck,
    l_nap,
    qgnap_coproduct,
    rho,
)
from .series import (
    PowerSeries,
    TreeSeries,
    corolla_series,
    faa_generators,
    gcomm_product,
    ladder_series,
    lie_bracket,
    mobius_series,
    project_comm,
    project_corolla,
    project_ladder,
    ps_comp_inverse,
    ps_compose,
    ps_mul_inverse,
    ps_multiply,
    series_graft,
    series_inverse,
    series_multiply,
    spec_membership,
    unit_series,
    zeta_series,
)

__version__ = "0.1.0"

# the public names of naphopf.oracles, which is imported on the first lookup
# of one of them: only the checks, the tests and `enumerate --labeled` need it
_ORACLE_NAMES = frozenset({
    "BruteForcePoset", "LabeledForest", "OperadInstance", "brute_force_pi",
    "ck_coproduct_cuts", "comm_instance", "count_Ef_Eg", "f_structure_constants",
    "labeled_forests", "labeled_trees", "nap_compose", "nap_instance",
})


def __getattr__(name: str):
    # PEP 562: called only for names the package lacks; dunders and
    # submodule probes stay missing
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracles

    return getattr(oracles, name)


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
