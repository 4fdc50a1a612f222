"""Partially commutative groups presented by finite simple graphs.

The package decides, for the group A(G) presented by a graph G (vertices
generate, adjacent generators commute), whether A(G) is Howson / fully
residually free / a free product of free-abelian groups, and ships the
machinery behind the verdict: canonical normal forms for group elements,
inclusion and retraction onto the subgroup generated by a vertex subset,
Stallings automata for subgroups of free groups, and a per-stage certificate
that Z x F2 fails the Howson property.
"""

from .classify import (
    ClassificationReport,
    ExplicitCatalogEntry,
    catalog_entry,
    classify,
    embeds_in,
    explicit_catalog,
    max_abelian_rank,
)
from .errors import InputError, ParseError
from .graphs import (
    SimpleGraph,
    clique_number,
    complete_decomposition,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    find_induced_p3,
    format_graph,
    induced_subgraph,
    join,
    parse_graph,
    path_graph,
    reflexive_closure_is_transitive,
    relabel,
)
from .stallings import StallingsGraph, format_stallings, from_generators, parse_stallings
from .visible import (
    VertexRestriction,
    alpha_include,
    is_in_visible,
    rewrite_in_visible,
    rho_retract,
)
from .words import (
    MAX_WORD_LETTERS,
    Letter,
    NormalWord,
    Word,
    are_equal,
    commutator,
    format_word,
    free_reduce,
    invert,
    multiply,
    normal_form,
    parse_word,
    support,
)
from .zf2 import (
    FREE_ALPHABET,
    NonFgCertificate,
    certify_not_fg,
    conjugate_generators,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ExplicitCatalogEntry",
    "FREE_ALPHABET",
    "InputError",
    "Letter",
    "MAX_WORD_LETTERS",
    "NonFgCertificate",
    "NormalWord",
    "ParseError",
    "SimpleGraph",
    "StallingsGraph",
    "VertexRestriction",
    "Word",
    "alpha_include",
    "are_equal",
    "catalog_entry",
    "certify_not_fg",
    "classify",
    "clique_number",
    "commutator",
    "complete_decomposition",
    "complete_graph",
    "conjugate_generators",
    "connected_components",
    "cycle_graph",
    "disjoint_union",
    "edgeless_graph",
    "embeds_in",
    "explicit_catalog",
    "find_induced_p3",
    "format_graph",
    "format_stallings",
    "format_word",
    "free_reduce",
    "from_generators",
    "induced_subgraph",
    "invert",
    "is_in_visible",
    "join",
    "max_abelian_rank",
    "multiply",
    "normal_form",
    "parse_graph",
    "parse_stallings",
    "parse_word",
    "path_graph",
    "reflexive_closure_is_transitive",
    "relabel",
    "rewrite_in_visible",
    "rho_retract",
    "support",
]
