"""Decidable isomorphism-invariant graph properties.

A GraphProperty packages a predicate together with the one flag the
polynomial layer needs, contains_null: whether the property holds for the
null graph (no vertices).  The null graph is not a Graph value; the flag
decides whether the empty vertex subset contributes X^0 to subset sums.
Whether the class is closed under adding an isolated vertex is not a
field but a check: check_closed_isolated verifies it exhaustively up to a
bound or produces a witness.

A predicate takes (adj, mask): the adjacency bitmasks of a whole graph and
a nonzero vertex bitmask, and decides the graph that mask induces, so a
subset loop tests every vertex subset of one graph without building it.
holds(g, mask) is the one entry point; without a mask it decides g itself.

The table _PROPERTIES holds every builtin property once: its name, its
short forms, its predicate and contains_null.  builtin and parse_property
read nothing else.  Two rows are families indexed by a cycle length i >= 3,
written name:i.  Properties are immutable; the complement constructor
returns a new property with the predicate negated and contains_null
flipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .caps import Caps, DEFAULT_CAPS
from .errors import InputError
from .graph import (
    Graph,
    add_isolated_vertex,
    bits,
    components,
    enumerate_graphs,
)

# decides the subgraph induced by a nonzero vertex mask of a whole graph
Predicate = Callable[[tuple[int, ...], int], bool]


@dataclass(frozen=True)
class ClosureStatus:
    state: str                         # verified | refuted
    bound: int
    witness: Graph | None = None


@dataclass(frozen=True)
class GraphProperty:
    name: str
    predicate: Predicate = field(compare=False)
    contains_null: bool = False

    def holds(self, g: Graph, mask: int | None = None) -> bool:
        """Does the subgraph of g induced by mask (default: all of g) hold?"""
        return bool(self.predicate(
            g.adj, (1 << g.n) - 1 if mask is None else mask))


def complement_property(c: GraphProperty) -> GraphProperty:
    """Pointwise negation."""
    pred = c.predicate
    return GraphProperty(
        name=f"not({c.name})",
        predicate=lambda adj, mask: not pred(adj, mask),
        contains_null=not c.contains_null,
    )


# ------------------------------------------------------------ predicates


def _degrees(adj, mask: int) -> list[int]:
    return [(adj[v] & mask).bit_count() for v in bits(mask)]


def _forest(adj, mask: int) -> bool:
    edges = sum(_degrees(adj, mask)) // 2
    return edges == mask.bit_count() - len(components(adj, mask))


def _cycle_exactly(i: int) -> Predicate:
    def pred(adj, mask: int) -> bool:
        return (mask.bit_count() == i
                and all(d == 2 for d in _degrees(adj, mask))
                and len(components(adj, mask)) == 1)
    return pred


def _cycle_plus_isolated(i: int) -> Predicate:
    def pred(adj, mask: int) -> bool:
        degs = _degrees(adj, mask)
        if any(d not in (0, 2) for d in degs) or degs.count(2) != i:
            return False
        # the degree-2 vertices must form one cycle, i.e. one component
        return sum(1 for c in components(adj, mask) if c.bit_count() > 1) == 1
    return pred


# name -> (short forms, predicate, contains_null).  A name ending in ":i"
# is a family, and its predicate builds the member's predicate from i.
_PROPERTIES = {
    "edgeless": ((), lambda adj, mask: not any(
        adj[v] & mask for v in bits(mask)), True),
    "clique": ((), lambda adj, mask: all(
        (adj[v] & mask) == mask ^ (1 << v) for v in bits(mask)), False),
    "connected": ((), lambda adj, mask: len(components(adj, mask)) == 1,
                  False),
    "disconnected": ((), lambda adj, mask: len(components(adj, mask)) >= 2,
                     False),
    "forest": ((), _forest, False),
    # every component is a single vertex or a single edge
    "match_like": (("match",), lambda adj, mask: all(
        c.bit_count() <= 2 for c in components(adj, mask)), False),
    "only_K1": (("set(K1)",), lambda adj, mask: mask.bit_count() == 1,
                False),
    "pair_K2_E2": (("set(K2,E2)",), lambda adj, mask: mask.bit_count() == 2,
                   False),
    "triple_K1_K2_E2": (("set(K1,K2,E2)",),
                        lambda adj, mask: mask.bit_count() <= 2, False),
    "cycle_exactly:i": (("cycle:i",), _cycle_exactly, False),
    "cycle_plus_isolated:i": (("cycleE:i",), _cycle_plus_isolated, False),
}
_ALIASES = {short: name for name, (shorts, _, _) in _PROPERTIES.items()
            for short in shorts}


def builtin(name: str) -> GraphProperty:
    """Table lookup by name or short form; a family takes a ':i' suffix."""
    head, sep, rest = name.partition(":")
    key = f"{head}:i" if sep else name
    key = _ALIASES.get(key, key)
    if key not in _PROPERTIES:
        raise InputError(f"unknown property {name!r}")
    _, pred, contains_null = _PROPERTIES[key]
    if sep:
        try:
            i = int(rest)
        except ValueError:
            raise InputError(f"bad cycle length {rest!r}") from None
        if i < 3:
            raise InputError(f"cycle properties need length >= 3, got {i}")
        key, pred = key[:-1] + rest, pred(i)
    return GraphProperty(key, pred, contains_null)


def parse_property(text: str) -> GraphProperty:
    """Property DSL used by the CLI.

    Accepts a builtin name or short form, and not(...) around any of them.
    """
    text = text.strip()
    if text.startswith("not(") and text.endswith(")"):
        return complement_property(parse_property(text[4:-1]))
    return builtin(text)


def check_closed_isolated(c: GraphProperty, bound: int,
                          caps: Caps = DEFAULT_CAPS) -> ClosureStatus:
    """Is the class closed under adding one isolated vertex, up to bound?

    Checks every class member of order < bound; a witness is a graph in
    the class whose isolated extension leaves it.
    """
    if bound < 2:
        raise InputError("closure check needs bound >= 2")
    for n in range(1, bound):
        for g in enumerate_graphs(n, caps):
            if c.holds(g) and not c.holds(add_isolated_vertex(g)):
                return ClosureStatus("refuted", bound, g)
    return ClosureStatus("verified", bound, None)
