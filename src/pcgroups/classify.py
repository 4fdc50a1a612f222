"""The classification of graph groups by intersection behaviour.

For a finite simple graph the following are equivalent, and ``classify``
decides them all at once: the group is Howson (intersections of finitely
generated subgroups stay finitely generated), it is fully residually free, it
is a free product of free-abelian groups, it avoids Z x F2 as a subgroup, and
the graph has no induced path on three vertices, i.e. every component is
complete.  The report carries a constructive witness either way: the
free-abelian ranks of the free factors (the component sizes), or an
induced-P3 triple.

``embeds_in`` answers "does the group of this pattern embed in the group of
that graph" for the small catalog of patterns where subgroup embedding is
equivalent to induced-subgraph containment.  That equivalence fails in
general (F3 embeds in F2 while a 3-vertex edgeless graph never embeds in a
2-vertex one), so non-catalog patterns are rejected outright.  Each catalog
entry is decided by a direct test on the host graph rather than by a search
for the pattern: a count, the component decomposition, the clique search,
the cograph split or common neighbourhoods.

A pattern is named, never handed over as a graph: ``embeds_in`` takes the
name.  The catalog is one table, ``_CATALOG``: each of the six fixed names
maps to its pattern, the decision on the host and the provenance, in the
order ``explicit_catalog`` lists them.  ``K_<n>`` is the one parametric
name, decided from n by the clique search; no graph is ever sized by n.
One resolver turns a name into its decision and provenance, for
``catalog_entry``, ``embeds_in`` and the CLI alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InputError, _instance
from .graphs import (
    SimpleGraph,
    _has_clique,
    _has_induced_c4,
    _has_induced_p4,
    clique_number,
    complete_decomposition,
    cycle_graph,
    edgeless_graph,
    find_induced_p3,
    path_graph,
)

__all__ = [
    "ClassificationReport",
    "classify",
    "ExplicitCatalogEntry",
    "catalog_entry",
    "explicit_catalog",
    "embeds_in",
    "max_abelian_rank",
]


@dataclass(frozen=True)
class ClassificationReport:
    """Full verdict for one graph; the five booleans always agree (the last
    one negated) and exactly one witness field is populated."""

    p3_free: bool
    fully_residually_free: bool
    howson: bool
    contains_z_cross_f2: bool
    free_product_of_free_abelian: bool
    factor_ranks: Optional[tuple[int, ...]]
    p3_witness: Optional[tuple[str, str, str]]
    fix_points_fg: bool
    per_points_fg: bool
    max_abelian_rank: int

    def to_json_dict(self) -> dict:
        """The fields in order, each tuple written as a list."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def classify(g: SimpleGraph) -> ClassificationReport:
    """Decide every condition of the classification for a finite graph.

    One decomposition pass decides; the largest factor rank is then the
    maximal free-abelian rank.  Only a graph that fails it is searched for
    the P3 witness and its clique number.

    The fixed-point and periodic-point verdicts (finitely generated for every
    endomorphism) coincide with the main verdict on finite graphs and are
    reported as such; no endomorphism computation takes place.
    """
    ranks = complete_decomposition(g)
    good = ranks is not None
    return ClassificationReport(
        p3_free=good,
        fully_residually_free=good,
        howson=good,
        contains_z_cross_f2=not good,
        free_product_of_free_abelian=good,
        factor_ranks=ranks,
        p3_witness=None if good else find_induced_p3(g),
        fix_points_fg=good,
        per_points_fg=good,
        max_abelian_rank=max(ranks, default=0) if good else clique_number(g),
    )


def max_abelian_rank(g: SimpleGraph) -> int:
    """Largest rank of a free-abelian subgroup of the graph group: the clique
    number of the graph."""
    return clique_number(g)


@dataclass(frozen=True)
class ExplicitCatalogEntry:
    """A pattern whose group embeds in another graph group exactly when the
    pattern appears as an induced subgraph, with a provenance note.  A
    ``K_<n>`` entry has no pattern graph (None): its name alone decides it."""

    name: str
    pattern: Optional[SimpleGraph]
    provenance: str


_COMPLETE_PROVENANCE = "complete graphs: the maximal free-abelian rank equals the clique number (Kim-Koberda 2013, Lemma 18)"

# name -> (pattern, decision on the host, provenance).  The patterns are
# built once and shared by every entry, as graphs are immutable.  The P3
# decision looks the public ``complete_decomposition`` up in this module's
# globals at call time, so a wrapper installed on that name (as
# bench/tracer.py installs) sees the call.
_CATALOG = {
    "edgeless_0": (
        edgeless_graph(0, prefix="e"),
        lambda host: True,
        "the trivial group embeds everywhere and only the empty graph presents it",
    ),
    "edgeless_1": (
        edgeless_graph(1, prefix="e"),
        lambda host: len(host.vertices) > 0,
        "Z embeds exactly in the nontrivial graph groups",
    ),
    "edgeless_2": (
        edgeless_graph(2, prefix="e"),
        lambda host: any(len(ns) < len(host.vertices) - 1 for ns in host._adj.values()),
        "F2 embeds unless the group is abelian, i.e. unless the graph is complete",
    ),
    "P3": (
        path_graph(3, prefix="p"),
        lambda host: complete_decomposition(host) is None,
        "consequence of the Howson classification: Z x F2 embeds iff an induced P3 exists",
    ),
    "P4": (
        path_graph(4, prefix="p"),
        _has_induced_p4,
        "Kim-Koberda 2013: embedding of the P4 group forces an induced P4",
    ),
    "C4": (
        cycle_graph(4, prefix="c"),
        _has_induced_c4,
        "Kambites 2009: commuting non-cyclic centralizers force an induced square",
    ),
}


def _resolve(name: str):
    """(decision on the host, provenance) for a catalog name; raises
    ``InputError`` for any other name, and for a ``K_<n>`` spelled otherwise
    than with n >= 1 in ASCII decimal digits and no leading zero."""
    if _instance(name, str).startswith("K_"):
        digits = name[2:]
        if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise InputError(
                f"bad complete-graph name {name!r}: write K_<n> with n >= 1 in decimal "
                "digits, with no sign, space, underscore or leading zero"
            )
        try:
            n = int(digits)
        except ValueError:  # past the interpreter's cap on digits int() reads
            raise InputError(f"K_<n>: n has {len(digits)} digits, too many to read") from None
        return (lambda host: _has_clique(host, n)), _COMPLETE_PROVENANCE
    if name in _CATALOG:
        return _CATALOG[name][1:]
    if name.startswith("edgeless_"):
        raise InputError(
            f"{name!r} is not explicit: edgeless graphs with 3+ vertices are "
            "not, since F3 embeds in F2"
        )
    raise InputError(
        f"{name!r} is not in the explicit catalog; subgroup embedding between "
        "graph groups is not detectable from induced subgraphs in general"
    )


def catalog_entry(name: str) -> ExplicitCatalogEntry:
    """The catalog entry for one of: K_<n>, P3, P4, C4, edgeless_0,
    edgeless_1, edgeless_2.  In K_<n>, n >= 1 is written in ASCII decimal
    digits with no leading zero, and the entry's pattern is None."""
    _, provenance = _resolve(name)
    return ExplicitCatalogEntry(name, _CATALOG[name][0] if name in _CATALOG else None, provenance)


def explicit_catalog() -> tuple[ExplicitCatalogEntry, ...]:
    """The non-parametric catalog members, in the table's order (complete
    graphs come from catalog_entry('K_n'))."""
    return tuple(map(catalog_entry, _CATALOG))


def embeds_in(pattern: str, host: SimpleGraph) -> bool:
    """True iff the group of the catalog pattern named ``pattern`` embeds in
    the host's group.

    Only valid for catalog names; anything else raises, because for general
    graphs subgroup embedding does not reduce to the induced-subgraph
    question.  Each name is decided directly, in polynomial time except for
    K_n: the trivial group embeds everywhere, Z in any non-empty graph's
    group and F2 when two vertices are not adjacent; K_n by a clique search
    that stops at the first n-clique; P3 when some component is not
    complete; P4 when the host is not a cograph; C4 when two non-adjacent
    vertices have two non-adjacent common neighbours.
    """
    decide, _ = _resolve(pattern)
    return decide(_instance(host, SimpleGraph))
