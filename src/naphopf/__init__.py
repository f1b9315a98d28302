"""Exact-arithmetic toolkit for the NAP operad on rooted trees: interval
posets and their Mobius functions, the incidence and function Hopf algebras
with the surjection between them, the Connes-Kreimer bridge, and the group
of tree-indexed series with its classical power-series projections."""

from .trees import (
    Forest,
    LEAF,
    RootedTree,
    TreeSyntaxError,
    aut0_order,
    aut_order,
    chain,
    corolla,
    enumerate_forests,
    enumerate_trees,
    graft_onto,
    parse_forest,
    parse_tree,
)
from .posets import (
    IntervalPoset,
    interval_dot,
    interval_of,
    mobius,
    mobius_closed_form,
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
