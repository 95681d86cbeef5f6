"""Forcing and anti-forcing invariants of perfect matchings.

The package computes, exactly and deterministically: forcing and
anti-forcing numbers and spectra of perfect matchings on general graphs,
maximum disjoint and compatible alternating-cycle families, Clar and Fries
numbers of hexagonal systems, structural recognizers (truncated
parallelograms, all-kink catahexes), instance generators, and a
verification harness that re-checks the governing identities on generated
corpora.
"""

from .errors import MatchforceError
from .graphs import (
    AltCycle,
    ContractedDigraph,
    Graph,
    Matching,
    build_graph,
    edge_fixedness,
    enumerate_alternating_cycles,
    enumerate_directed_cycles,
    enumerate_perfect_matchings,
    has_unique_perfect_matching,
    normal_components,
    orient_and_contract,
)
from .forcing import (
    CycleFamily,
    Spectrum,
    forcing_number,
    forcing_spectrum,
    is_forcing_set,
    max_disjoint_alternating_cycles,
)
from .antiforcing import (
    anti_forcing_edges,
    antiforcing_number,
    antiforcing_spectrum,
    is_antiforcing_set,
    max_compatible_alternating_set,
    min_feedback_arc_set,
)
from .hexsys import (
    HexSystem,
    build_hex_system,
    clar_number,
    fries_numbers,
    inner_dual,
    is_all_kink_catahex,
    is_truncated_parallelogram,
    tree_independent_domination,
)
from .generators import (
    GlueSpec,
    enumerate_hex_systems,
    gen_named,
    gen_truncated_parallelogram,
    glue_af2,
)

__all__ = [
    "AltCycle",
    "ContractedDigraph",
    "CycleFamily",
    "GlueSpec",
    "Graph",
    "HexSystem",
    "Matching",
    "MatchforceError",
    "Spectrum",
    "anti_forcing_edges",
    "antiforcing_number",
    "antiforcing_spectrum",
    "build_graph",
    "build_hex_system",
    "clar_number",
    "edge_fixedness",
    "enumerate_alternating_cycles",
    "enumerate_directed_cycles",
    "enumerate_hex_systems",
    "enumerate_perfect_matchings",
    "forcing_number",
    "forcing_spectrum",
    "fries_numbers",
    "gen_named",
    "gen_truncated_parallelogram",
    "glue_af2",
    "has_unique_perfect_matching",
    "inner_dual",
    "is_all_kink_catahex",
    "is_antiforcing_set",
    "is_forcing_set",
    "is_truncated_parallelogram",
    "max_compatible_alternating_set",
    "max_disjoint_alternating_cycles",
    "min_feedback_arc_set",
    "normal_components",
    "orient_and_contract",
    "tree_independent_domination",
]
