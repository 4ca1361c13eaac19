"""Exact toolkit for Kempe-swap reconfiguration of list colorings.

Enumerates L-colorings, computes mixing classes under L-valid Kempe swaps,
lifts swap sequences through graph reductions, detects reducible
configurations in plane graphs, and audits two discharging systems with
exact rational arithmetic.
"""

from .graphs import (  # noqa: F401
    FamilySpec,
    Graph,
    cartesian_product,
    from_edges,
    generate,
    is_gallai_tree,
    is_isomorphic,
    line_graph,
    parse_family,
)
from .coloring import (  # noqa: F401
    SwapMove,
    check_coloring,
    classify_swap,
    enumerate_L_colorings,
    kempe_component,
    make_lists,
)
from .reconfig import (  # noqa: F401
    ClassConstraint,
    cover_certificate,
    equivalence_path,
    find_versatile_extension,
    lift_through_subgraph,
    lift_through_vertex,
    mixing_classes,
    subset_mixes,
)
from .verify import (  # noqa: F401
    AssignmentStream,
    degree_swappable_verdict,
    enumerate_degree_assignments,
    frozen_colorings,
    is_degree_choosable,
    verify_lemma,
)

__version__ = "0.1.0"
