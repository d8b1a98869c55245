"""Distinctive-power comparisons between graph invariants.

An invariant P is at most as distinctive as Q (written P <= Q here) when
every pair of graphs Q fails to separate is also not separated by P.  The
strict variant s.d.p. quantifies only over similar pairs, i.e. graphs
sharing the (vertex, edge, component) signature; since those pairs are a
subset of all pairs, a refutation found in s.d.p. mode is automatically a
d.p. refutation, and a d.p. no-refutation forces an s.d.p. no-refutation.
Running compare in both modes on the same pair shows that implication.

An invariant handle is a PolyKind: a polynomial kind, or kind "prop" for a
property read as 0/1.  A scan computes each handle once per class and
keeps the values in a list; nothing is cached across calls.

All verdicts are relative to the scanned universe: isomorphism classes up
to the given order bound, ordered by (order, canonical form).  Refutations
come with the lexicographically first witness pair and are re-verified by
direct recomputation; "no refutation up to the bound" claims nothing about
larger graphs.

The two suites mechanize the known separations: incomparability_suite
builds the cycle/tailed-cycle gadgets whose polynomial values refute both
directions between cycle-indexed invariants of different index, and
dom_inexpressibility_suite runs the two-vertex case analyses showing the
dominating-set polynomial is no instance of the subset, spanning or
partition generating polynomials.  The suites and
sdp_equiv_complement_check return their reports as the JSON dicts the CLI
prints, polynomials and witnesses as text.  compare returns only what it
found, the witness pair of each direction or None, as graphs callers keep
using; comparison_json renders it with the handles, mode and bound the
caller passed.
"""

from __future__ import annotations

from .caps import Caps, DEFAULT_CAPS
from .errors import InputError
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_graph,
    graphs_up_to,
    signature,
    similar,
    tailed_cycle,
)
from .invariants import (
    PROPERTY_KINDS,
    PolyKind,
    compute_poly,
    dominating,
    gen_chromatic,
    gen_ind,
    gen_span,
    parse_poly_kind,
)
from .poly import UniPoly, falling_to_monomial
from .properties import (
    GraphProperty,
    builtin,
    check_closed_isolated,
    complement_property,
    parse_property,
)

# ------------------------------------------------------------ handles


def parse_handle(text: str) -> PolyKind:
    if text.startswith("prop:"):
        return PolyKind("prop", parse_property(text[len("prop:"):]))
    return parse_poly_kind(text)


def evaluate_handle(handle: PolyKind, g: Graph, caps: Caps = DEFAULT_CAPS):
    """Value of the handle on g; isomorphic inputs give equal values."""
    if handle.kind == "prop":
        return 1 if handle.prop.holds(g) else 0
    return compute_poly(handle, g, caps)


# ------------------------------------------------------------ comparison


Witness = tuple[Graph, Graph]
# the witness refuting p <= q, then q <= p; None where there is none
Witnesses = tuple[Witness | None, Witness | None]


def _verdict_json(witness: Witness | None) -> dict:
    if witness is None:
        return {"refuted": False}
    return {"refuted": True, "witness": [format_graph(g) for g in witness]}


def comparison_json(p: PolyKind, q: PolyKind, mode: str, bound: int,
                    witnesses: Witnesses) -> dict:
    """compare's result as JSON-ready data, witnesses as format_graph text."""
    return {
        "p": p.label(),
        "q": q.label(),
        "mode": mode,
        "bound": bound,
        "p_le_q": _verdict_json(witnesses[0]),
        "q_le_p": _verdict_json(witnesses[1]),
    }


def _first_refuting_pair(fine_values, group_keys):
    """Lex-first index pair equal under the group key, unequal under fine.

    If two members of a group differ, some member differs from the first,
    so a group's lex-first unequal pair is its first member and the first
    member whose value differs from it.  Groups come in the order of their
    first members, so the first group with such a pair holds the answer.
    """
    groups: dict = {}
    for idx, key in enumerate(group_keys):
        groups.setdefault(key, []).append(idx)
    for first, *rest in groups.values():
        for i in rest:
            if fine_values[i] != fine_values[first]:
                return first, i
    return None


def _direction(universe, vals_p, vals_q, sigs, mode) -> Witness | None:
    if mode == "dp":
        keys = vals_q
    else:
        keys = [(sigs[i], vals_q[i]) for i in range(len(universe))]
    pair = _first_refuting_pair(vals_p, keys)
    if pair is None:
        return None
    return universe[pair[0]], universe[pair[1]]


def _reverify(witness, p, q, mode, caps) -> None:
    g1, g2 = witness
    if evaluate_handle(q, g1, caps) != evaluate_handle(q, g2, caps):
        raise ValueError("witness failed re-verification: values differ "
                         "under the coarser invariant")
    if evaluate_handle(p, g1, caps) == evaluate_handle(p, g2, caps):
        raise ValueError("witness failed re-verification: values agree "
                         "under the finer invariant")
    if mode == "sdp" and not similar(g1, g2):
        raise ValueError("witness failed re-verification: pair not similar")


def compare(p: PolyKind, q: PolyKind, mode: str, n_bound: int,
            caps: Caps = DEFAULT_CAPS) -> Witnesses:
    """Scan all class pairs (dp) or all similar pairs (sdp) up to the bound.

    Returns the re-verified lex-first witness pair refuting p <= q, then
    the one refuting q <= p; None where the scan found no refutation.
    """
    if mode not in ("dp", "sdp"):
        raise InputError(f"mode must be dp or sdp, got {mode!r}")
    universe = graphs_up_to(n_bound, caps)
    vals_p = [evaluate_handle(p, g, caps) for g in universe]
    vals_q = vals_p if q == p else [evaluate_handle(q, g, caps)
                                    for g in universe]
    sigs = [signature(g) for g in universe]
    forward = _direction(universe, vals_p, vals_q, sigs, mode)
    backward = _direction(universe, vals_q, vals_p, sigs, mode)
    if forward is not None:
        _reverify(forward, p, q, mode, caps)
    if backward is not None:
        _reverify(backward, q, p, mode, caps)
    return forward, backward


# ------------------------------------------------------------ gadget suite


def cycle_copies(i: int, k: int) -> Graph:
    """k disjoint copies of the i-cycle."""
    return disjoint_union([cycle_graph(i)] * k)


def tailed_mix(i: int, k: int) -> Graph:
    """k - 1 tailed cycles plus one honest i-cycle, same signature as above.

    A tailed cycle on i vertices is the (i-1)-cycle with a pendant vertex,
    so both gadgets have k*i vertices, k*i edges and k components, yet only
    this one lacks a second induced (or spanning) i-cycle.
    """
    return disjoint_union([tailed_cycle(i)] * (k - 1) + [cycle_graph(i)])


def _gadget_pair(t: int, k: int) -> tuple[Graph, Graph, str]:
    """The index-t witness pair and a tag naming its shape.

    From index 4 on the pair is (k copies, tailed mix): equal signature,
    distinguished only by invariants of index t.  At index 3 the tailed
    partner would need a 2-cycle, and in fact the triangle is the only
    graph with its signature, so no similar partner exists at all; the
    pair (one copy, k copies) still separates index-3 invariants while
    every other index sees zero on both members.
    """
    if t >= 4:
        return cycle_copies(t, k), tailed_mix(t, k), "copies-vs-tailed"
    return cycle_graph(t), cycle_copies(t, k), "single-vs-copies"


def _suite_property(variant: str, i: int) -> GraphProperty:
    if variant == "span":
        return builtin(f"cycle_plus_isolated:{i}")
    return builtin(f"cycle_exactly:{i}")


def incomparability_suite(variant: str, i: int, j: int, k: int = 2,
                          caps: Caps = DEFAULT_CAPS) -> dict:
    """Verify the gadget values separating index-i from index-j invariants.

    For the subset and spanning variants the tailed cycle on t vertices
    contains a (t-1)-cycle, so indices one apart see each other's gadgets
    and both |i - j| >= 2 and i, j >= 3 are required.  The partition
    variant is safe for any distinct indices: the pendant vertex of a
    tailed cycle has degree 1 and can never sit inside a block inducing a
    cycle, so every cross value vanishes outright.

    The report's "mutual_refutation" is its "all_ok": the index-i pair
    differs under the index-i invariant but is indistinguishable (both
    values zero) under the index-j one, and symmetrically, so once every
    value check passes each direction has an explicit witness pair.
    """
    if variant not in PROPERTY_KINDS:
        raise InputError(f"unknown suite variant {variant!r}")
    if k < 2:
        raise InputError("the gadgets need k >= 2 copies to differ")
    if i < 3 or j < 3 or i == j:
        raise InputError("indices must be distinct and at least 3")
    if variant in ("ind", "span") and abs(i - j) < 2:
        raise InputError(
            "adjacent indices collide through the tailed cycle; "
            f"the {variant} variant needs |i - j| >= 2")

    prop_i, prop_j = _suite_property(variant, i), _suite_property(variant, j)
    pair_i = _gadget_pair(i, k)
    pair_j = _gadget_pair(j, k)

    checks = []
    for tag, prop_own, prop_other, idx, pair in (
            ("i", prop_i, prop_j, i, pair_i),
            ("j", prop_j, prop_i, j, pair_j)):
        first, second, shape = pair
        if variant == "genchrom":
            # a copy of the cycle is the only usable block, so the block
            # counts are forced: one partition per pure-copies gadget, none
            # once a pendant vertex appears
            if shape == "copies-vs-tailed":
                expect = (falling_to_monomial([0] * k + [1]), UniPoly.zero())
            else:
                expect = (UniPoly.x(), falling_to_monomial([0] * k + [1]))
        else:
            if shape == "copies-vs-tailed":
                expect = (UniPoly.monomial(idx, k), UniPoly.monomial(idx, 1))
            else:
                expect = (UniPoly.monomial(idx, 1), UniPoly.monomial(idx, k))
        for name, expected, prop, g in (
                (f"own-{tag}-first", expect[0], prop_own, first),
                (f"own-{tag}-second", expect[1], prop_own, second),
                (f"cross-{tag}-first", UniPoly.zero(), prop_other, first),
                (f"cross-{tag}-second", UniPoly.zero(), prop_other, second)):
            actual = compute_poly(PolyKind(variant, prop), g, caps)
            checks.append({"name": name, "expected": expected.text(),
                           "actual": actual.text(), "ok": expected == actual})
    all_ok = all(c["ok"] for c in checks)
    return {"variant": variant, "i": i, "j": j, "k": k,
            "pair_shape_i": pair_i[2], "pair_shape_j": pair_j[2],
            "checks": checks, "all_ok": all_ok, "mutual_refutation": all_ok}


# ------------------------------------------------------------ complement check


def sdp_equiv_complement_check(c: GraphProperty, kind: str, n_bound: int,
                               caps: Caps = DEFAULT_CAPS) -> dict:
    """Compare a property's generating polynomial against its complement's.

    For the subset and spanning kinds the complement identities pin the two
    values together on similar graphs, so the scan runs in sdp mode and is
    expected to find nothing.  The partition kind has no such identity and
    the scan runs unrestricted (dp), where complementary properties do get
    separated; connected versus disconnected is the classical case.  Only
    the span report carries a "closure_note".
    """
    if kind not in PROPERTY_KINDS:
        raise InputError(f"kind must be ind, span or genchrom, got {kind!r}")
    mode = "sdp" if kind in ("ind", "span") else "dp"
    out = {"prop": c.name, "kind": kind, "mode": mode}
    if kind == "span":
        witness = check_closed_isolated(c, n_bound, caps)
        if witness is not None:
            raise InputError(
                f"property {c.name!r} is not closed under isolated "
                f"vertices (witness order {witness.n})")
        out["closure_note"] = f"closure under isolated vertices verified " \
                              f"up to order {n_bound}"
    p = PolyKind(kind, c)
    q = PolyKind(kind, complement_property(c))
    witnesses = compare(p, q, mode, n_bound, caps)
    out["equivalent_up_to_bound"] = witnesses == (None, None)
    out["report"] = comparison_json(p, q, mode, n_bound, witnesses)
    return out


# ------------------------------------------------------------ dominating suite


def _dom_branch(name: str, argument: str, cases) -> dict:
    """A branch of the case split; it stands when every case clashes."""
    cases = [{"name": case, "lhs": lhs, "rhs": rhs, "clash": lhs != rhs}
             for case, lhs, rhs in cases]
    return {"name": name, "argument": argument, "cases": cases,
            "ok": all(c["clash"] for c in cases)}


def dom_inexpressibility_suite() -> dict:
    """The dominating-set polynomial is none of the three generating kinds.

    Each branch is a finite case split on how a hypothetical property
    behaves on the graphs with at most two vertices, which is the only
    data the clashing quantity depends on:

    * subset kind: the coefficient of X in the vertex-subset polynomial is
      (number of vertices) times [single vertex in the class] on both
      two-vertex graphs, so it cannot be 0 on one and 2 on the other the
      way the dominating polynomial demands.
    * spanning kind: the coefficient of X counts one-edge subsets in the
      class, and the one-edge graph has exactly one edge, so the
      coefficient is at most 1, never the required 2.
    * partition kind: with one color the value on the one-edge graph is
      [that graph in the class], 0 or 1, never the required 3.

    Representative properties realize each side of every split; the branch
    stands because the clashing quantity provably depends on nothing else.
    """
    k2 = complete_graph(2)
    e2 = empty_graph(2)
    dom_k2 = dominating(k2)
    dom_e2 = dominating(e2)
    singleton_in = builtin("edgeless")        # contains the one-vertex graph
    singleton_out = builtin("pair_K2_E2")     # two-vertex members only
    edge_in = builtin("connected")
    edge_out = builtin("edgeless")

    subset_cases = (
        ("singleton-in-class, empty pair",
         int(gen_ind(e2, singleton_in).coefficient(1)),
         int(dom_e2.coefficient(1))),
        ("singleton-not-in-class, one-edge pair",
         int(gen_ind(k2, singleton_out).coefficient(1)),
         int(dom_k2.coefficient(1))),
    )
    spanning_cases = (
        ("edge-graph-in-class",
         int(gen_span(k2, edge_in).coefficient(1)),
         int(dom_k2.coefficient(1))),
        ("edge-graph-not-in-class",
         int(gen_span(k2, edge_out).coefficient(1)),
         int(dom_k2.coefficient(1))),
    )
    partition_cases = (
        ("edge-graph-in-class",
         gen_chromatic(k2, edge_in).evaluate(1),
         int(dom_k2.evaluate(1))),
        ("edge-graph-not-in-class",
         gen_chromatic(k2, edge_out).evaluate(1),
         int(dom_k2.evaluate(1))),
    )
    branches = [
        _dom_branch("subset", "coefficient of X on the two-vertex graphs",
                    subset_cases),
        _dom_branch("spanning", "coefficient of X on the one-edge graph",
                    spanning_cases),
        _dom_branch("partition", "evaluation at one color on the one-edge "
                    "graph", partition_cases),
    ]
    return {"branches": branches,
            "all_contradict": all(b["ok"] for b in branches)}
