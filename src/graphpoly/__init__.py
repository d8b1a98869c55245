"""Exact-arithmetic workbench for graph polynomials.

Everything runs over integers and rationals: polynomial values, linear
algebra, recurrence fitting, recognition scans and distinctive-power
comparisons are all exact, so every reported identity or refutation is a
checked fact about the graphs involved, not a numerical observation.
"""

from .caps import Caps, DEFAULT_CAPS
from .errors import CapError, InputError
from .graph import (
    Graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    format_graph,
    graphs_up_to,
    is_isomorphic,
    ladder_graph,
    make_family,
    make_graph,
    mobius_graph,
    parse_family_spec,
    parse_graph,
    path_graph,
    similar,
    tailed_cycle,
    wheel_graph,
)
from .invariants import (
    char_poly,
    chromatic,
    compute_poly,
    dominating,
    gen_chromatic,
    gen_ind,
    gen_span,
    independence,
    matching_defect,
    matching_generating,
    matching_numbers,
    maximal_clique_profile,
    parse_poly_kind,
    tutte,
)
from .orthopoly import chebyshev_t, chebyshev_u, hermite_he, laguerre, ortho
from .poly import BiPoly, UniPoly, solve_linear_exact
from .properties import (
    GraphProperty,
    builtin,
    check_closed_isolated,
    complement_property,
    parse_property,
)
from .recognition import (
    brute_recognize,
    chromatic_screen,
    family_recognize,
    identity_suite,
    maxcl_trivial_recognize,
)
from .recurrence import (
    PolySequence,
    RecurrenceSpec,
    fit,
    fit_family,
)
from .dpower import (
    compare,
    dom_inexpressibility_suite,
    evaluate_handle,
    incomparability_suite,
    parse_handle,
    sdp_equiv_complement_check,
)

__version__ = "0.1.0"
