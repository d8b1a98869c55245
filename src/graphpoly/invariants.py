"""Exact graph polynomial computations.

For a graph G on n vertices and m edges this module computes, always over
exact rationals or integers:

* char_poly: det(X I - M) with M the adjacency or Laplacian matrix, by
  Hessenberg reduction modulo primes below 2^61 and the Chinese remainder
  theorem, until the product of the primes exceeds 2 (1 + R)^n with R the
  largest absolute row sum of M, which bounds every coefficient; the
  result is asserted monic with integer entries.
* matching_numbers m_k, the defect form  sum_k (-1)^k m_k X^(n-2k)  and
  the generating form  sum_k m_k X^k, by the matching sweep (below).
* gen_ind(G, C) = sum of X^|A| over vertex subsets A with G[A] in C; the
  empty subset contributes X^0 exactly when C contains the null graph.
  independence is the edgeless instance.  The builtin edgeless and forest
  classes are counted by the frontier engine (below); other classes test
  all 2^n vertex masks.
* gen_span(G, D) = sum of X^|B| over edge subsets B with (V, B) in D.
  The builtin forest, connected and disconnected classes depend only on
  the rank and nullity of B and read the rank-nullity sweep, match_like
  (B a matching) the matching sweep (below); the rest test all 2^m subsets.
* gen_chromatic(G, C): count partitions of V into exactly j nonempty
  blocks, each inducing a member of C, then expand sum_j b_j X_(j) from
  the falling-factorial basis.  Evaluated at a nonnegative integer this
  counts colorings with that many available colors where every nonempty
  color class induces a member of C (empty classes permitted).  The
  builtin edgeless class is chromatic itself; every other class runs a
  subset convolution bounded by the partition cap.
* chromatic: the edgeless instance, i.e. proper colorings, counted by the
  colour sweep (below) with the colour count x packed into one int.
* tutte: sum over edge subsets of (X-1)^(r(E)-r(A)) (Y-1)^(|A|-r(A)) with
  r the rank n - components, expanded from the number of edge subsets of
  each rank and nullity that the rank-nullity sweep (below) counts.
* dominating: sum of X^|A| over nonempty dominating sets (the empty set
  never dominates a graph on n >= 1 vertices), counted by the domination
  sweep (below).
* maxcl: sum of (number of maximal cliques of size i) X^i.

Every sweep-style polynomial runs one frontier engine, after Sekine, Imai
and Tani (ISAAC 1995).  It processes the vertices along a greedy low-width
order; a vertex is on the frontier from its own step until its last
neighbour has been processed, and then retires.  A state records what
the later vertices need to know of the processed ones, with vertex sets
as bitmasks in the original labels, and maps to a count; a transition
multiplies the count by a factor.  The work grows with the number
of frontier states rather than with 2^n or 2^m: complete graphs collapse
to a few states, and cycles, ladders, wheels and similar families with a
few dozen vertices stay in range.  The transition sets:

* chromatic: the frontier partition into colour classes.  v joins a
  frontier block it has no edge into (factor 1), or takes a colour that
  none of the f frontier blocks uses (factor x - f); the count is the
  partial polynomial evaluated at x = 2^B.
* rank-nullity: the connectivity partition that the chosen edges induce
  on the frontier and the number of retired components, with counts
  packed by nullity.  v joins any subset of the blocks it has edges into.
* matchings: the later vertices already matched, with counts packed by
  matching size; an unmatched v may match a later neighbour outside it.
* independence: the unprocessed vertices adjacent to a chosen one, which
  can no longer be chosen.
* domination: the processed, unchosen vertices still waiting for a chosen
  neighbour, and the unprocessed vertices already dominated; a state dies
  when a waiting vertex retires.
* induced forests: the component masks of the chosen frontier vertices; a
  vertex with two neighbours in one component would close a cycle.

The last three take or skip each vertex and count vertex subsets by size.
A sweep raises CapError once it holds more than the fixed MAX_STATES
states, naming the sweep, the state count, the step and the cap.  A count
that packs a polynomial grows with the graph, so a sweep also raises
CapError once its counts hold more than MAX_COUNT_BITS bits together,
naming the bit total instead.

The table _KINDS holds every PolyKind name, whether it takes a property,
and its computation; parse_poly_kind and compute_poly read nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .errors import CapError, InputError
from .graph import (
    Graph,
    bits,
    component_masks,
    edge_count,
    edge_list,
)
from .poly import (
    BiPoly,
    UniPoly,
    falling_to_monomial,
    int_char_poly,
)
from .properties import GraphProperty, builtin, parse_property

# the most states one step of a frontier sweep may hold
MAX_STATES = 500_000
# the most bits the counts of one step may hold together (128 MiB)
MAX_COUNT_BITS = 1 << 30

# ------------------------------------------------------------ characteristic


def _matrix(g: Graph, which: str) -> list[list[int]]:
    if which == "adjacency":
        return [[(g.adj[i] >> j) & 1 for j in range(g.n)] for i in range(g.n)]
    if which == "laplacian":
        degs = [a.bit_count() for a in g.adj]
        return [[degs[i] if i == j else -((g.adj[i] >> j) & 1)
                 for j in range(g.n)] for i in range(g.n)]
    raise InputError(f"unknown matrix kind {which!r}")


def char_poly(g: Graph, matrix: str = "adjacency") -> UniPoly:
    """det(X I - M), monic of degree n with integer coefficients."""
    coeffs = int_char_poly(_matrix(g, matrix))
    if len(coeffs) != g.n + 1 or coeffs[-1] != 1:
        raise ValueError("characteristic polynomial failed the monic check")
    return UniPoly(coeffs)


# ------------------------------------------------------------ matchings


def matching_numbers(g: Graph) -> tuple[int, ...]:
    """Counts of k-edge matchings, trailing zeros stripped (m_0 = 1).

    The frontier sweep's state is the later vertices already matched; no
    field of m + 1 bits carries, as at most C(m, k) matchings have k edges.
    """
    adj = g.adj
    width = edge_count(g) + 1
    take = 1 << width

    def expand(used, v, ahead, gone):
        if used >> v & 1:
            yield used & ahead, 1
            return
        yield used, 1
        for w in bits(adj[v] & ahead & ~used):
            yield used | 1 << w, take

    packed = sum(_frontier_sweep(g, 0, expand, "matching").values())
    size = (packed.bit_length() - 1) // width + 1    # to the top nonzero field
    return tuple(_fields(packed, width, size))


def matching_defect(g: Graph) -> UniPoly:
    """sum_k (-1)^k m_k X^(n-2k), the matching polynomial in defect form."""
    coeffs = [0] * (g.n + 1)
    for k, mk in enumerate(matching_numbers(g)):
        coeffs[g.n - 2 * k] = (-1) ** k * mk
    return UniPoly(coeffs)


def matching_generating(g: Graph) -> UniPoly:
    return UniPoly(matching_numbers(g))


# ------------------------------------------------------------ subset sums


def gen_ind(g: Graph, c: GraphProperty, caps: Caps = DEFAULT_CAPS) -> UniPoly:
    """Generating polynomial of vertex subsets whose induced graph is in C.

    The builtin edgeless and forest classes run a frontier sweep (below),
    bounded by its state count and count bits, not by caps; every other
    class tests all 2^n vertex masks, and only that loop is bounded, by
    caps.subset_n.
    """
    sweep = _IND_BY_SWEEP.get(c.predicate)
    if sweep is not None:
        counts = sweep(g)
    else:
        if g.n > caps.subset_n:
            raise CapError(
                f"vertex-subset sum capped at n <= {caps.subset_n}, got {g.n}")
        counts = [0] * (g.n + 1)
        for mask in range(1, 1 << g.n):
            if c.holds(g, mask):
                counts[mask.bit_count()] += 1
    counts[0] = 1 if c.contains_null else 0
    return UniPoly(counts)


def independence(g: Graph) -> UniPoly:
    return gen_ind(g, builtin("edgeless"))


def _spanning(keep):
    """Edge subsets by size whose (n, rank, nullity) satisfies keep."""
    def counts(g: Graph) -> list[int]:
        out = [0] * (edge_count(g) + 1)
        for (r, b), ways in _rank_nullity_counts(g).items():
            if keep(g.n, r, b):
                out[r + b] += ways
        return out
    return counts


# builtin spanning classes that a sweep counts directly, by edge count
_SPAN_BY_SWEEP = {
    builtin("forest").predicate: _spanning(lambda n, r, b: b == 0),
    builtin("connected").predicate: _spanning(lambda n, r, b: r == n - 1),
    builtin("disconnected").predicate: _spanning(lambda n, r, b: r <= n - 2),
    builtin("match_like").predicate: matching_numbers,
}


def gen_span(g: Graph, d: GraphProperty, caps: Caps = DEFAULT_CAPS) -> UniPoly:
    """Generating polynomial of edge subsets whose spanning graph is in D.

    The classes in _SPAN_BY_SWEEP (builtin forest, connected, disconnected
    and match_like) run a frontier sweep, bounded by its state count and
    count bits, not by caps; every other class runs the 2^m subset loop,
    bounded by caps.subset_m.
    Every spanning subgraph keeps all n vertices, so contains_null never
    enters; values of graphs of different order are comparable only when D
    is closed under adding an isolated vertex (check_closed_isolated).
    """
    sweep = _SPAN_BY_SWEEP.get(d.predicate)
    if sweep is not None:
        return UniPoly(sweep(g))
    edges = edge_list(g)
    m = len(edges)
    if m > caps.subset_m:
        raise CapError(
            f"edge-subset sum capped at m <= {caps.subset_m}, got {m}")
    counts = [0] * (m + 1)
    for emask in range(1 << m):
        adj = [0] * g.n
        mm = emask
        while mm:
            b = mm & -mm
            u, v = edges[b.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            mm ^= b
        if d.holds(Graph(g.n, tuple(adj))):
            counts[emask.bit_count()] += 1
    return UniPoly(counts)


# ------------------------------------------------------------ chromatic family


def gen_chromatic_blocks(g: Graph, c: GraphProperty,
                         caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """b_j = number of partitions of V into j blocks each inducing C.

    A subset convolution over the valid blocks containing the lowest
    unassigned vertex, which enumerates exactly the partitions into
    C-blocks without materializing every set partition.
    """
    if g.n > caps.partition_n:
        raise CapError(f"partition polynomials capped at n <= "
                       f"{caps.partition_n}, got {g.n}")
    n = g.n
    full = (1 << n) - 1
    valid_by_low: dict[int, list[int]] = {}
    for mask in range(1, full + 1):
        if c.holds(g, mask):
            valid_by_low.setdefault(mask & -mask, []).append(mask)

    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def count(mask: int) -> dict[int, int]:
        known = memo.get(mask)
        if known is not None:
            return known
        out: dict[int, int] = {}
        low = mask & -mask
        for block in valid_by_low.get(low, ()):
            if block & ~mask:
                continue
            for j, ways in count(mask ^ block).items():
                out[j + 1] = out.get(j + 1, 0) + ways
        memo[mask] = out
        return out

    table = count(full)
    return tuple(table.get(j, 0) for j in range(n + 1))


def gen_chromatic(g: Graph, c: GraphProperty,
                  caps: Caps = DEFAULT_CAPS) -> UniPoly:
    """sum_j b_j X_(j) expanded into the monomial basis; the builtin
    edgeless class reads chromatic, which caps.partition_n does not bound."""
    if c.predicate is builtin("edgeless").predicate:
        return chromatic(g)
    return falling_to_monomial(gen_chromatic_blocks(g, c, caps))


def _sweep_schedule(g: Graph) -> tuple[list[int], list[int]]:
    """Greedy vertex order, and per step the mask of vertices retiring there.

    The order keeps the set of half-done vertices small: each step takes the
    least (frontier size after v, -done neighbours, v), as v retires its
    neighbours in `last` and stays if it has later ones.  A vertex retires
    at the step that processes the later of itself and its last neighbour,
    so only v and its frontier neighbours can retire there.
    """
    adj = g.adj
    left = [a.bit_count() for a in adj]    # unprocessed neighbours
    unprocessed = set(range(g.n))
    frontier = last = 0                    # last: frontier with left == 1
    order, gone_at = [], []
    for _ in range(g.n):
        size = frontier.bit_count()
        v = min(unprocessed, key=lambda v: (
            size - (last & adj[v]).bit_count() + (left[v] > 0),
            left[v] - adj[v].bit_count(), v))
        order.append(v)
        unprocessed.remove(v)
        for u in bits(adj[v]):
            left[u] -= 1
        # only v and its frontier neighbours change membership
        touched = (adj[v] & frontier) | 1 << v
        for u in bits(touched):
            bit = 1 << u
            frontier = frontier | bit if left[u] else frontier & ~bit
            last = last | bit if left[u] == 1 else last & ~bit
        gone_at.append(touched & ~frontier)
    return order, gone_at


def _frontier_sweep(g: Graph, start, expand, name: str) -> dict:
    """Final states of a frontier sweep, each mapped to its count.

    Starting from the single state `start` with count 1, the sweep
    processes the vertices in the order of _sweep_schedule.  At each
    vertex v, expand(state, v, ahead, gone) yields (key, factor) pairs and
    key receives the state's count times factor; ahead is the mask of the
    vertices after v in the order and gone the mask of the vertices that
    retire at this step.  A state is any hashable key and a count any int,
    so a transition set may pack a polynomial into it.
    """
    order, gone_at = _sweep_schedule(g)
    ahead = (1 << g.n) - 1
    states = {start: 1}
    for step, v in enumerate(order):
        ahead ^= 1 << v
        gone = gone_at[step]
        nxt: dict = {}
        for state, count in states.items():
            for key, factor in expand(state, v, ahead, gone):
                nxt[key] = nxt.get(key, 0) + count * factor
        states = nxt
        if len(states) > MAX_STATES:
            raise CapError(
                f"{name} frontier sweep reached {len(states)} states at "
                f"step {step + 1} of {g.n}, over the cap of {MAX_STATES}")
        held = sum(map(int.bit_length, states.values()))
        if held > MAX_COUNT_BITS:
            raise CapError(
                f"{name} frontier sweep reached {held} count bits at "
                f"step {step + 1} of {g.n}, over the cap of {MAX_COUNT_BITS}")
    return states


def _settle(blocks, gone: int) -> tuple[tuple[int, ...], int]:
    """The blocks without the retiring vertices, sorted, and how many emptied."""
    live = sorted(m for b in blocks if (m := b & ~gone))
    return tuple(live), len(blocks) - len(live)


def _fields(packed: int, width: int, size: int) -> list[int]:
    """The first `size` fields of `width` bits packed into one int."""
    field = (1 << width) - 1
    return [packed >> (width * k) & field for k in range(size)]


def chromatic(g: Graph) -> UniPoly:
    """Proper-coloring polynomial P(G; x), by the colour sweep.

    A state is the frontier partition into colour classes, as sorted block
    bitmasks.  No later vertex is adjacent to a retired vertex, so v joins
    a frontier block it has no edge into, or takes one of the x - f
    colours that none of the f frontier blocks uses.  The count is the
    partial polynomial evaluated at x = 2^B, with B = m + 2, and the
    final count is read as n + 1 balanced base-2^B digits.

    The coefficients of P alternate in sign, so sum_k |a_k| = |P(-1)|,
    the number of acyclic orientations (Stanley), which is at most 2^m.
    So every |a_k| <= 2^m < 2^(B-1) and the digits are exact; only the
    final value is decoded, and the intermediate ints are exact too.
    """
    adj = g.adj
    width = edge_count(g) + 2
    x = 1 << width
    half = x >> 1

    def expand(blocks, v, ahead, gone):
        for i, b in enumerate(blocks):
            if not b & adj[v]:
                yield _settle(
                    blocks[:i] + (b | 1 << v,) + blocks[i + 1:], gone)[0], 1
        yield _settle(blocks + (1 << v,), gone)[0], x - len(blocks)

    packed = sum(_frontier_sweep(g, (), expand, "chromatic").values())
    # a digit plus half lies in [0, x), so these fields never carry
    packed += sum(half << width * k for k in range(g.n + 1))
    if packed >> width * (g.n + 1):
        raise ValueError("chromatic polynomial failed the digit check")
    return UniPoly([f - half for f in _fields(packed, width, g.n + 1)])


# ------------------------------------------------------------ tutte


def _rank_nullity_counts(g: Graph) -> dict[tuple[int, int], int]:
    """counts[(r, b)]: edge subsets A of rank r and nullity |A| - r.

    Frontier sweep after Sekine, Imai and Tani (ISAAC 1995).  A state is
    the partition that the chosen edges induce on the frontier, as sorted
    block bitmasks, and the number of retired components.  Its count is a
    polynomial in the nullity Y packed into one int, m + 1 bits per power;
    a field counts edge subsets, at most 2^m, so none ever carries.  v
    joins any subset of the blocks it has edges into; k edges into a block
    give the factor ((1+Y)^k - 1)/Y, as one chosen edge merges and the
    rest close cycles.  Every vertex ends in a retired component, so the
    rank is n minus the final component count.
    """
    adj = g.adj
    width = edge_count(g) + 1
    lift = [sum(math.comb(k, j) << (j - 1) * width for j in range(1, k + 1))
            for k in range(g.n)]

    def expand(state, v, ahead, gone):
        blocks, comps = state
        joins = [(1 << v, 1)]
        for b in blocks:
            k = (b & adj[v]).bit_count()
            if k:
                joins += [(merged | b, f * lift[k]) for merged, f in joins]
        for merged, f in joins:
            live, shut = _settle(
                [b for b in blocks if not b & merged] + [merged], gone)
            yield (live, comps + shut), f

    counts = {}
    sweep = _frontier_sweep(g, ((), 0), expand, "rank-nullity")
    for (_, comps), packed in sweep.items():
        for b, ways in enumerate(_fields(packed, width, width)):
            if ways:
                counts[g.n - comps, b] = ways
    return counts


def tutte(g: Graph) -> BiPoly:
    """Whitney rank sum over all edge subsets, from the frontier sweep.

    The cnt subsets of corank a and nullity b add cnt (X-1)^a (Y-1)^b,
    summed term by term into the coefficient grid.
    """
    m = edge_count(g)
    rank_full = g.n - len(component_masks(g))
    signed = [[math.comb(k, i) * (-1) ** (k - i) for i in range(k + 1)]
              for k in range(m + 1)]
    grid = [[0] * (m + 1) for _ in range(rank_full + 1)]
    for (r, b), cnt in _rank_nullity_counts(g).items():
        for i, ci in enumerate(signed[rank_full - r]):
            row = grid[i]
            for j, cj in enumerate(signed[b]):
                row[j] += cnt * ci * cj
    return BiPoly(grid)


# ------------------------------------------------------------ vertex sweeps
# A vertex sweep counts vertex subsets by size: taking v multiplies a count
# by 1 << (n + 1), so field k of width n + 1 counts subsets of size k, and
# C(n, k) < 2^(n + 1) never carries.


def _independent_counts(g: Graph) -> list[int]:
    """Independent sets by size; the state is N(S) among later vertices."""
    adj = g.adj
    take = 1 << (g.n + 1)

    def expand(blocked, v, ahead, gone):
        yield blocked & ahead, 1
        if not blocked >> v & 1:
            yield (blocked | adj[v]) & ahead, take

    states = _frontier_sweep(g, 0, expand, "independence")
    return _fields(sum(states.values()), g.n + 1, g.n + 1)


def _induced_forest_counts(g: Graph) -> list[int]:
    """Vertex subsets inducing a forest, by size.

    The state is the sorted component masks of the chosen frontier
    vertices; v with two neighbours in one component would close a cycle.
    """
    adj = g.adj
    take = 1 << (g.n + 1)

    def expand(comps, v, ahead, gone):
        yield (_settle(comps, gone)[0] if gone else comps), 1
        merged = 1 << v
        rest = []
        for c in comps:
            touch = c & adj[v]
            if not touch:
                rest.append(c)
            elif touch & (touch - 1):
                return
            else:
                merged |= c
        rest.append(merged)
        yield _settle(rest, gone)[0], take

    states = _frontier_sweep(g, (), expand, "ind:forest")
    return _fields(sum(states.values()), g.n + 1, g.n + 1)


# builtin induced classes that a vertex sweep counts directly
_IND_BY_SWEEP = {
    builtin("edgeless").predicate: _independent_counts,
    builtin("forest").predicate: _induced_forest_counts,
}


# ------------------------------------------------------------ dominating, cliques


def dominating(g: Graph) -> UniPoly:
    """Generating polynomial of nonempty dominating sets, by the vertex sweep.

    The state is (needs, covered ahead); the empty set never survives, as
    every vertex of a graph on n >= 1 vertices retires undominated.  Like
    every sweep it is bounded by its state count and count bits alone.
    """
    adj = g.adj
    take = 1 << (g.n + 1)

    def expand(state, v, ahead, gone):
        needs, covered = state
        skipped = needs if covered >> v & 1 else needs | 1 << v
        if not skipped & gone:
            yield (skipped, covered & ahead), 1
        taken = needs & ~adj[v]
        if not taken & gone:
            yield (taken, (covered | adj[v]) & ahead), take

    states = _frontier_sweep(g, (0, 0), expand, "domination")
    return UniPoly(_fields(sum(states.values()), g.n + 1, g.n + 1))


def maximal_clique_profile(g: Graph, caps: Caps = DEFAULT_CAPS) -> UniPoly:
    """sum_i (number of maximal cliques of size i) X^i."""
    if g.n > caps.subset_n:
        raise CapError(f"maximal-clique search capped at n <= "
                       f"{caps.subset_n}, got {g.n}")
    counts = [0] * (g.n + 1)

    def expand(r_size: int, p_mask: int, x_mask: int) -> None:
        if p_mask == 0 and x_mask == 0:
            counts[r_size] += 1
            return
        pivot_pool = p_mask | x_mask
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        candidates = p_mask & ~g.adj[pivot]
        for v in bits(candidates):
            expand(r_size + 1, p_mask & g.adj[v], x_mask & g.adj[v])
            p_mask ^= 1 << v
            x_mask |= 1 << v

    expand(0, (1 << g.n) - 1, 0)
    return UniPoly(counts)


# ------------------------------------------------------------ kind registry


@dataclass(frozen=True)
class PolyKind:
    """A named graph polynomial, optionally parametrized by a property."""

    kind: str
    prop: GraphProperty | None = None

    def label(self) -> str:
        if self.prop is None:
            return self.kind
        return f"{self.kind}:{self.prop.name}"


BIVARIATE_KINDS = ("tutte",)

# kind -> (takes a property, computation).  The computations look their
# functions up when called, so a rebound module name reaches them.
_KINDS = {
    "char": (False, lambda g, c, caps: char_poly(g, "adjacency")),
    "charL": (False, lambda g, c, caps: char_poly(g, "laplacian")),
    "mu": (False, lambda g, c, caps: matching_defect(g)),
    "mgen": (False, lambda g, c, caps: matching_generating(g)),
    "chrom": (False, lambda g, c, caps: chromatic(g)),
    "indep": (False, lambda g, c, caps: independence(g)),
    "dom": (False, lambda g, c, caps: dominating(g)),
    "maxcl": (False, lambda g, c, caps: maximal_clique_profile(g, caps)),
    "tutte": (False, lambda g, c, caps: tutte(g)),
    "ind": (True, lambda g, c, caps: gen_ind(g, c, caps)),
    "span": (True, lambda g, c, caps: gen_span(g, c, caps)),
    "genchrom": (True, lambda g, c, caps: gen_chromatic(g, c, caps)),
}
PROPERTY_KINDS = tuple(kind for kind, (takes, _) in _KINDS.items() if takes)


def parse_poly_kind(text: str) -> PolyKind:
    head, sep, rest = text.partition(":")
    if head not in _KINDS:
        raise InputError(f"unknown polynomial kind {text!r}")
    if not _KINDS[head][0]:
        if sep:
            raise InputError(f"kind {head!r} takes no property parameter")
        return PolyKind(head)
    if not rest:
        raise InputError(
            f"kind {head!r} needs a property, e.g. {head}:edgeless")
    return PolyKind(head, parse_property(rest))


def compute_poly(pk: PolyKind, g: Graph, caps: Caps = DEFAULT_CAPS):
    """Dispatch a PolyKind to its computation; UniPoly or BiPoly."""
    if pk.kind not in _KINDS:
        raise InputError(f"unknown polynomial kind {pk.kind!r}")
    return _KINDS[pk.kind][1](g, pk.prop, caps)
