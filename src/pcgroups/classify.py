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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graphs import (
    SimpleGraph,
    _has_clique,
    _has_induced_c4,
    _has_induced_p4,
    clique_number,
    complete_decomposition,
    complete_graph,
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
        return {
            "p3_free": self.p3_free,
            "fully_residually_free": self.fully_residually_free,
            "howson": self.howson,
            "contains_z_cross_f2": self.contains_z_cross_f2,
            "free_product_of_free_abelian": self.free_product_of_free_abelian,
            "factor_ranks": list(self.factor_ranks) if self.factor_ranks is not None else None,
            "p3_witness": list(self.p3_witness) if self.p3_witness is not None else None,
            "fix_points_fg": self.fix_points_fg,
            "per_points_fg": self.per_points_fg,
            "max_abelian_rank": self.max_abelian_rank,
        }

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


class _BuiltOnRead:
    """The ``pattern`` field of ``ExplicitCatalogEntry``.  A pattern given as
    None is the complete graph that the entry's ``K_<n>`` name names, built
    and kept the first time the field is read: ``embeds_in`` decides K_n from
    n alone, so ``catalog_entry`` leaves it unbuilt."""

    def __get__(self, entry, owner=None):
        if entry is None:
            raise AttributeError("pattern")  # no class default: the field stays required
        g = entry.__dict__["_pattern"]
        if g is None:
            g = complete_graph(_complete_order(entry.name), prefix="k")
            entry.__dict__["_pattern"] = g
        return g

    def __set__(self, entry, pattern):
        entry.__dict__["_pattern"] = pattern


@dataclass(frozen=True)
class ExplicitCatalogEntry:
    """A pattern whose group embeds in another graph group exactly when the
    pattern appears as an induced subgraph, with a provenance note.  For a
    ``K_<n>`` name the pattern may be given as None; it is then built when
    first read.  Entries compare and hash by value, as any frozen dataclass."""

    name: str
    pattern: SimpleGraph = _BuiltOnRead()  # type: ignore[assignment]
    provenance: str


_PROVENANCE = {
    "K": "complete graphs: the maximal free-abelian rank equals the clique number (Kim-Koberda 2013, Lemma 18)",
    "edgeless_0": "the trivial group embeds everywhere and only the empty graph presents it",
    "edgeless_1": "Z embeds exactly in the nontrivial graph groups",
    "edgeless_2": "F2 embeds unless the group is abelian, i.e. unless the graph is complete",
    "P3": "consequence of the Howson classification: Z x F2 embeds iff an induced P3 exists",
    "P4": "Kim-Koberda 2013: embedding of the P4 group forces an induced P4",
    "C4": "Kambites 2009: commuting non-cyclic centralizers force an induced square",
}


def _complete_order(name: str) -> int:
    """n for a name ``K_<n>``, where n >= 1 is written in ASCII decimal
    digits with no leading zero; any other spelling raises ``InputError``."""
    digits = name[2:]
    if name.startswith("K_") and digits.isascii() and digits.isdigit() and digits[0] != "0":
        try:
            return int(digits)
        except ValueError:  # past the interpreter's cap on digits int() reads
            raise InputError(f"K_<n>: n has {len(digits)} digits, too many to read") from None
    raise InputError(
        f"bad complete-graph name {name!r}: write K_<n> with n >= 1 in decimal "
        "digits, with no sign, space, underscore or leading zero"
    )


def catalog_entry(name: str) -> ExplicitCatalogEntry:
    """Build the catalog entry for one of: K_<n>, P3, P4, C4, edgeless_0,
    edgeless_1, edgeless_2.  In K_<n>, n >= 1 is written in ASCII decimal
    digits with no leading zero.  The complete graph of K_<n> is built only
    when the entry's ``pattern`` is read."""
    if name.startswith("K_"):
        _complete_order(name)
        return ExplicitCatalogEntry(name, None, _PROVENANCE["K"])
    if name.startswith("edgeless_"):
        if name not in ("edgeless_0", "edgeless_1", "edgeless_2"):
            raise InputError(
                f"{name!r} is not explicit: edgeless graphs with 3+ vertices are "
                "not, since F3 embeds in F2"
            )
        n = int(name[len("edgeless_") :])
        return ExplicitCatalogEntry(name, edgeless_graph(n, prefix="e"), _PROVENANCE[name])
    if name == "P3":
        return ExplicitCatalogEntry(name, path_graph(3, prefix="p"), _PROVENANCE["P3"])
    if name == "P4":
        return ExplicitCatalogEntry(name, path_graph(4, prefix="p"), _PROVENANCE["P4"])
    if name == "C4":
        return ExplicitCatalogEntry(name, cycle_graph(4, prefix="c"), _PROVENANCE["C4"])
    raise InputError(
        f"{name!r} is not in the explicit catalog; subgroup embedding between "
        "graph groups is not detectable from induced subgraphs in general"
    )


def explicit_catalog() -> tuple[ExplicitCatalogEntry, ...]:
    """The non-parametric catalog members (complete graphs come from
    catalog_entry('K_n'))."""
    return tuple(
        catalog_entry(n)
        for n in ("edgeless_0", "edgeless_1", "edgeless_2", "P3", "P4", "C4")
    )


def _entry_shape_ok(entry: ExplicitCatalogEntry) -> bool:
    name = entry.name
    g = entry._pattern  # None while a K_n pattern is unbuilt
    if g is None:
        return name.startswith("K_") and name == f"K_{_complete_order(name)}"
    n = len(g.vertices)
    degrees = sorted(map(len, g._adj.values()))
    e = sum(degrees) // 2
    if name == f"K_{n}" and name.startswith("K_"):
        return n >= 1 and e == n * (n - 1) // 2
    if name == f"edgeless_{n}":
        return n <= 2 and e == 0
    if name == "P3":
        return degrees == [1, 1, 2]
    if name == "P4":
        return degrees == [1, 1, 2, 2]
    if name == "C4":
        return degrees == [2, 2, 2, 2]
    return False


def embeds_in(pattern_entry: ExplicitCatalogEntry, host: SimpleGraph) -> bool:
    """True iff the pattern's group embeds in the host's group.

    Only valid for catalog entries; anything else raises, because for general
    graphs subgroup embedding does not reduce to the induced-subgraph
    question.  Each entry is decided directly, in polynomial time except for
    K_n: the trivial group embeds everywhere, Z in any non-empty graph's
    group and F2 when two vertices are not adjacent; K_n by a clique search
    that stops at the first n-clique; P3 when some component is not
    complete; P4 when the host is not a cograph; C4 when two non-adjacent
    vertices have two non-adjacent common neighbours.
    """
    if not _entry_shape_ok(pattern_entry):
        raise InputError(
            f"pattern {pattern_entry.name!r} does not match the explicit catalog; "
            "group embedding is not detectable from induced subgraphs in general"
        )
    name = pattern_entry.name
    n = len(host.vertices)
    if name.startswith("K_"):
        return _has_clique(host, int(name[2:]))
    if name == "edgeless_0":
        return True
    if name == "edgeless_1":
        return n > 0
    if name == "edgeless_2":
        return sum(map(len, host._adj.values())) < n * (n - 1)
    if name == "P3":
        return complete_decomposition(host) is None
    if name == "P4":
        return _has_induced_p4(host)
    return _has_induced_c4(host)
