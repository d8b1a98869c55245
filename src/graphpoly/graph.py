"""Finite simple graphs: families, surgery, isomorphism, enumeration.

Graphs are labelled 0..n-1 with n >= 1 and adjacency stored as one bitmask
per vertex.  Instances are immutable values; build them through make_graph,
the family constructors, or the surgery helpers, all of which keep the
adjacency symmetric and irreflexive.

FAMILIES is the one registry of named families (builder, index count,
least index, order).  Parsing, make_family and family_member (the k-th
member, along the diagonal for two indices) read it; make_family and
parse_graph refuse orders above MAX_ORDER before allocating anything.

canonical_form returns the lexicographically minimal adjacency bit string
over all relabellings (upper triangle, read column by column), so equal
strings characterize isomorphic graphs; is_isomorphic, the only
isomorphism test in the package, compares them.  The search goes level by
level, keeping the partial vertex orders whose columns so far are least,
one vertex per twin class (N(u) - v = N(v) - u); an order finds its least
column by narrowing a bitmask of its unplaced vertices, which gives the
strings and level widths of a full column comparison.  It takes any
order; its only guard is CANON_WIDTH, and a wider level raises CapError.
Enumeration of isomorphism classes extends each (n-1)-vertex class by one
vertex in all 2^(n-1) ways and keeps the first extension of each canonical
form; it is capped by default at n = 7 (1044 classes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .caps import Caps, DEFAULT_CAPS
from .errors import CapError, InputError

# the largest order a graph file, a family or an ortho index may ask for,
# checked before anything of that size is allocated
MAX_ORDER = 1024

# the most partial orders one step of the canonical-form search may keep
CANON_WIDTH = 100_000


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]


@dataclass(frozen=True)
class SimilaritySignature:
    """Order, size, number of connected components."""

    n: int
    m: int
    k: int


def make_graph(n: int, edges) -> Graph:
    """Validating constructor from an edge list of (u, v) pairs."""
    if n < 1:
        raise InputError(f"graph order must be at least 1, got {n}")
    adj = [0] * n
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for order {n}")
        if u == v:
            raise InputError(f"loop at vertex {u} is not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def edge_list(g: Graph) -> list[tuple[int, int]]:
    out = []
    for u in range(g.n):
        rest = g.adj[u] >> (u + 1) << (u + 1)
        for v in bits(rest):
            out.append((u, v))
    return out


def edge_count(g: Graph) -> int:
    return sum(a.bit_count() for a in g.adj) // 2


def components(adj, mask: int) -> list[int]:
    """Vertex bitmasks of the components that mask induces, by least vertex."""
    out = []
    while mask:
        comp = 0
        frontier = mask & -mask
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & mask & ~comp
        mask ^= comp
        out.append(comp)
    return out


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the connected components, by least vertex."""
    return components(g.adj, (1 << g.n) - 1)


def component_count(g: Graph) -> int:
    return len(component_masks(g))


def signature(g: Graph) -> SimilaritySignature:
    return SimilaritySignature(g.n, edge_count(g), component_count(g))


def similar(g: Graph, h: Graph) -> bool:
    return signature(g) == signature(h)


# -------------------------------------------------------------- surgery


def disjoint_union(parts) -> Graph:
    parts = list(parts)
    if not parts:
        raise InputError("disjoint union needs at least one part")
    adj: list[int] = []
    offset = 0
    for p in parts:
        for v in range(p.n):
            adj.append(p.adj[v] << offset)
        offset += p.n
    return Graph(offset, tuple(adj))


def graph_join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    n = g.n + h.n
    left_mask = (1 << g.n) - 1
    right_mask = ((1 << h.n) - 1) << g.n
    adj = [0] * n
    for v in range(g.n):
        adj[v] = g.adj[v] | right_mask
    for v in range(h.n):
        adj[g.n + v] = (h.adj[v] << g.n) | left_mask
    return Graph(n, tuple(adj))


def induced_from_mask(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertices of a nonzero bitmask."""
    verts = list(bits(mask))
    k = len(verts)
    adj = [0] * k
    for i, v in enumerate(verts):
        av = g.adj[v] & mask
        row = 0
        for j, u in enumerate(verts):
            if av >> u & 1:
                row |= 1 << j
        adj[i] = row
    return Graph(k, tuple(adj))


def add_isolated_vertex(g: Graph) -> Graph:
    return Graph(g.n + 1, g.adj + (0,))


# -------------------------------------------------------------- families


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return make_graph(n, ())


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InputError(f"complete bipartite needs both sides >= 1, got {a},{b}")
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def wheel_graph(n: int) -> Graph:
    """Cycle of length n joined with a single hub, n + 1 vertices."""
    if n < 3:
        raise InputError(f"wheel needs n >= 3, got {n}")
    return graph_join(cycle_graph(n), empty_graph(1))


def ladder_graph(n: int) -> Graph:
    """Circular ladder: two n-cycles 0..n-1 and n..2n-1 plus rungs i, n+i."""
    if n < 3:
        raise InputError(f"ladder needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return make_graph(2 * n, edges)


def mobius_graph(n: int) -> Graph:
    """Cycle of length 2n plus the n antipodal chords i, i+n."""
    if n < 2:
        raise InputError(f"mobius needs n >= 2, got {n}")
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    edges += [(i, i + n) for i in range(n)]
    return make_graph(2 * n, edges)


def cycle_square_graph(n: int) -> Graph:
    """Square of the n-cycle: edges at circular distance 1 and 2."""
    if n < 3:
        raise InputError(f"cyclesq needs n >= 3, got {n}")
    edges = {(min(i, j), max(i, j))
             for i in range(n)
             for j in ((i + 1) % n, (i + 2) % n)
             if i != j}
    return make_graph(n, sorted(edges))


def grid_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InputError(f"grid needs both sides >= 1, got {a},{b}")
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1))
            if r + 1 < a:
                edges.append((v, v + b))
    return make_graph(a * b, edges)


def tailed_cycle(i: int) -> Graph:
    """Cycle of length i-1 with one pendant vertex; i vertices, i edges.

    Similar to the i-cycle (same order, size, component count) but not
    isomorphic to it, which makes the pair a standard separation witness.
    """
    if i < 4:
        raise InputError(f"tailed cycle needs i >= 4, got {i}")
    edges = [(v, (v + 1) % (i - 1)) for v in range(i - 1)]
    edges.append((0, i - 1))
    return make_graph(i, edges)


@dataclass(frozen=True)
class Family:
    """A registered family: builder, index count, least index, order."""

    build: Callable[..., Graph]
    arity: int
    least: int
    order: Callable[..., int]


FAMILIES = {
    "path": Family(path_graph, 1, 1, lambda n: n),
    "cycle": Family(cycle_graph, 1, 3, lambda n: n),
    "clique": Family(complete_graph, 1, 1, lambda n: n),
    "empty": Family(empty_graph, 1, 1, lambda n: n),
    "wheel": Family(wheel_graph, 1, 3, lambda n: n + 1),
    "ladder": Family(ladder_graph, 1, 3, lambda n: 2 * n),
    "mobius": Family(mobius_graph, 1, 2, lambda n: 2 * n),
    "cyclesq": Family(cycle_square_graph, 1, 3, lambda n: n),
    "cbipartite": Family(complete_bipartite, 2, 1, lambda a, b: a + b),
    "grid": Family(grid_graph, 2, 1, lambda a, b: a * b),
}


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family expression: a named family or a du(...) union."""

    name: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def parse_family_spec(text: str) -> FamilySpec:
    text = text.strip()
    if text.startswith("du(") and text.endswith(")"):
        inner = text[3:-1]
        if not inner.strip():
            raise InputError("du(...) needs at least one part")
        parts = tuple(parse_family_spec(p) for p in _split_top_level(inner))
        return FamilySpec("du", parts=parts)
    name, sep, rest = text.partition(":")
    name = name.strip()
    arity = get_family(name).arity
    pieces = rest.replace("x", ",").split(",")
    if not sep or not rest or len(pieces) != arity:
        need = ("one index, e.g. {}:5" if arity == 1
                else "two indices, e.g. {}:3,4")
        raise InputError(f"family {name!r} needs " + need.format(name))
    try:
        return FamilySpec(name, tuple(int(p) for p in pieces))
    except ValueError:
        raise InputError(f"bad index {rest!r} for family {name!r}") from None


def get_family(name: str) -> Family:
    fam = FAMILIES.get(name)
    if fam is None:
        raise InputError(f"unknown graph family {name!r}")
    return fam


def family_order(spec: FamilySpec) -> int:
    """Order of the graph a spec builds, read off the registry."""
    if spec.name == "du":
        return sum(family_order(p) for p in spec.parts)
    fam = get_family(spec.name)
    if min(spec.params) < fam.least:
        raise InputError(f"family {spec.name!r} needs indices >= {fam.least}, "
                         f"got {family_label(spec)}")
    return fam.order(*spec.params)


def make_family(spec: FamilySpec) -> Graph:
    n = family_order(spec)
    if n > MAX_ORDER:
        raise CapError(f"family {family_label(spec)} has order {n}, over "
                       f"the bound of {MAX_ORDER}")
    if spec.name == "du":
        return disjoint_union(make_family(p) for p in spec.parts)
    return FAMILIES[spec.name].build(*spec.params)


def family_member(name: str, k: int) -> Graph:
    """The k-th member; a two-index family runs along its diagonal."""
    return make_family(FamilySpec(name, (k,) * get_family(name).arity))


def family_note(spec: FamilySpec) -> list[str]:
    """Advisory notes for degenerate but permitted parameter choices."""
    notes = []
    if spec.name == "cyclesq" and spec.params[0] in (3, 4):
        notes.append(
            f"cyclesq:{spec.params[0]} degenerates to the complete graph; "
            "distance-2 closure only separates from n = 5 on")
    for part in spec.parts:
        notes.extend(family_note(part))
    return notes


def family_label(spec: FamilySpec) -> str:
    if spec.name == "du":
        return "du(" + ",".join(family_label(p) for p in spec.parts) + ")"
    if spec.name == "grid":
        return "grid:{}x{}".format(*spec.params)
    return spec.name + ":" + ",".join(str(p) for p in spec.params)


# -------------------------------------------------------------- graph text


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {edge_count(g)}"]
    for u, v in edge_list(g):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("graph header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError("graph header must be 'n m'") from None
    if n > MAX_ORDER:
        raise CapError(f"graph order {n} is over the bound of {MAX_ORDER}")
    if len(lines) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise InputError(f"bad edge line {ln!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise InputError(f"bad edge line {ln!r}") from None
        if not u < v:
            raise InputError(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    return make_graph(n, edges)


# -------------------------------------------------------------- isomorphism


def _lower_twins(adj) -> list[int]:
    """Per vertex v, the mask of the u < v with N(u) - v = N(v) - u."""
    return [sum(1 << u for u in range(v)
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
            for v in range(len(adj))]


def canonical_form(g: Graph) -> str:
    """Lexicographically minimal adjacency bit string over relabellings.

    The string lists the upper triangle column by column: placing vertex k
    appends its adjacency to the k previously placed vertices.  Equal
    strings characterize isomorphic graphs, and sorting by the string gives
    a stable order on isomorphism classes.  As each column placed at step k
    has k bits, the search keeps, level by level, the partial orders whose
    columns so far are least, trying one vertex per twin class; a step that
    collects more than CANON_WIDTH of them raises CapError.  Narrowing the
    unplaced vertices to the non-neighbours of each placed w (a 0 bit) when
    any remain (else a 1 bit) leaves those whose column is least.
    """
    n, adj = g.n, g.adj
    lower = _lower_twins(adj)
    # (unplaced vertices, placed vertices in placement order)
    level = [((1 << n) - 1 ^ 1 << v, (v,)) for v in range(n) if not lower[v]]
    code = []
    for k in range(1, n):
        best, nxt = 1 << k, []
        for free, order in level:
            least, c = free, 0
            for w in order:
                rest = least & ~adj[w]
                if rest:
                    least, c = rest, c << 1
                else:
                    c = c << 1 | 1
            if c > best:
                continue
            if c < best:
                best, nxt = c, []
            for v in bits(least):
                if lower[v] & free:
                    continue
                nxt.append((free & ~(1 << v), order + (v,)))
                if len(nxt) > CANON_WIDTH:
                    raise CapError(f"canonical form search reached "
                                   f"{len(nxt)} partial orders at step {k} of "
                                   f"{n - 1}, over the bound of {CANON_WIDTH}")
        code.append(format(best, f"0{k}b"))
        level = nxt
    return "".join(code)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact test: equal order, size and canonical form.

    Raises CapError when either canonical-form search passes CANON_WIDTH.
    """
    return (g.n == h.n and edge_count(g) == edge_count(h)
            and canonical_form(g) == canonical_form(h))


# -------------------------------------------------------------- enumeration


@functools.lru_cache(maxsize=None)
def _enumerate_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (empty_graph(1),)
    top = 1 << (n - 1)
    classes: dict[str, Graph] = {}
    for base in _enumerate_classes(n - 1):
        lower = _lower_twins(base.adj)
        for mask in range(top):
            # a twin swap of the base gives a smaller mask of the same class
            if any(lower[v] & ~mask for v in bits(mask)):
                continue
            g = Graph(n, tuple(a | top if mask >> u & 1 else a
                               for u, a in enumerate(base.adj)) + (mask,))
            classes.setdefault(canonical_form(g), g)
    return tuple(classes[key] for key in sorted(classes))


def enumerate_graphs(n: int, caps: Caps = DEFAULT_CAPS) -> tuple[Graph, ...]:
    """All isomorphism classes of order n, sorted by canonical form."""
    if n < 1:
        raise InputError(f"enumeration needs n >= 1, got {n}")
    if n > caps.enum_n:
        raise CapError(f"enumeration capped at n <= {caps.enum_n}, got {n}; "
                       "raise the cap explicitly")
    return _enumerate_classes(n)


def graphs_up_to(n_bound: int, caps: Caps = DEFAULT_CAPS) -> list[Graph]:
    """Classes of every order 1..n_bound, in (order, canonical form) order."""
    if n_bound < 1:
        raise InputError(f"enumeration needs a bound >= 1, got {n_bound}")
    out: list[Graph] = []
    for n in range(1, n_bound + 1):
        out.extend(enumerate_graphs(n, caps))
    return out
