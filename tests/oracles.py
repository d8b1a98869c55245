"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: permutation expansion for
determinants, explicit assignment scans for colorings, exhaustive
vertex-subset, set-partition and edge-subset enumeration,
deletion-contraction for the Tutte polynomial, a depth-first canonical
form, a backtracking isomorphism test (isomorphic_by_search, the
package's former is_isomorphic) and a class enumeration that dedupes by
it.  Nothing shares algorithmic code with the package beyond the Graph
accessors; the package decides isomorphism only by canonical forms, and
polynomial arithmetic here is done on plain coefficient lists.  The
exceptions are the last sections (below) and char_poly_by_interpolation,
the package's former characteristic polynomial: n + 1 Bareiss
determinants and Newton interpolation from graphpoly.poly, which its
modular Hessenberg path does not use.  matchings_by_memo is the
package's former matching count, a memo over vertex masks that shares
nothing with the frontier sweep replacing it.  relabel,
induced_subgraph, complement_graph and degrees are graph helpers that
only the tests use.

The last sections hold former library functions that only the tests
called, and they run the package's enumeration and polynomials:
property_relation, check_p_unique, and the recurrence helpers verify and
extend.  check_p_unique decides that a match is not g itself with
isomorphic_by_search, so it checks recognize's count of one without the
package's canonical forms; verify recomputes every window of a relation
without fit's code.  chromatic_blocks is the package's former chromatic
sweep (partitions into independent blocks, with the retired-block count
in each state) on the package's frontier engine, and
elimination_order_by_recount its former greedy order, which recounts the
frontier for every candidate at every step.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from graphpoly.caps import Caps, DEFAULT_CAPS
from graphpoly.errors import InputError
from graphpoly.graph import (
    Graph,
    bits,
    edge_count,
    edge_list,
    enumerate_graphs,
    graphs_up_to,
)
from graphpoly.invariants import (
    PolyKind,
    _frontier_sweep,
    _settle,
    compute_poly,
)
from graphpoly.poly import UniPoly, int_determinant, interpolate
from graphpoly.properties import GraphProperty
from graphpoly.recognition import DEGREE_FORCED_KINDS
from graphpoly.recurrence import PolySequence, RecurrenceSpec


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def degrees(g: Graph) -> list[int]:
    return [a.bit_count() for a in g.adj]


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation perm (perm[v] is the new name)."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise InputError("relabelling must be a permutation of the vertices")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))


def induced_subgraph(g: Graph, vertices) -> Graph:
    verts = sorted(set(vertices))
    if not verts:
        raise InputError("induced subgraph needs a nonempty vertex set")
    if verts[0] < 0 or verts[-1] >= g.n:
        raise InputError("induced subgraph vertex out of range")
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        row = 0
        for u in bits(g.adj[v]):
            if u in index:
                row |= 1 << index[u]
        adj[index[v]] = row
    return Graph(len(verts), tuple(adj))


def complement_graph(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple((full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, adj)


# ---------------------------------------------------------------- poly lists


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _matrix(g: Graph, which: str):
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for u, v in edge_list(g):
        mat[u][v] = mat[v][u] = 1
    if which == "laplacian":
        lap = [[-mat[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            lap[i][i] = sum(mat[i])
        return lap
    return mat


def perm_char(g: Graph, matrix: str = "adjacency"):
    """det(X*I - M) by permutation expansion; ascending int coefficients."""
    return perm_char_of_matrix(_matrix(g, matrix))


def perm_char_of_matrix(mat):
    """det(X*I - mat) for a square integer matrix, by permutation expansion."""
    n = len(mat)
    total = []
    for perm in permutations(range(n)):
        term = [_perm_sign(perm)]
        for i in range(n):
            j = perm[i]
            entry = [-mat[i][j], 1] if i == j else [-mat[i][j]]
            term = pmul(term, entry)
            if not term:
                break
        total = padd(total, term)
    return tuple(total)


def char_poly_by_interpolation(g: Graph, matrix: str = "adjacency"):
    """det(X*I - M) through its values at X = 0..n; a UniPoly."""
    mat = _matrix(g, matrix)
    n = g.n
    xs = range(n + 1)
    ys = [int_determinant([[(x if i == j else 0) - mat[i][j]
                            for j in range(n)] for i in range(n)])
          for x in xs]
    return interpolate(xs, ys)


def perm_det(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = _perm_sign(perm)
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


# ---------------------------------------------------------------- colorings


def proper_colorings(g: Graph, k: int) -> int:
    edges = edge_list(g)
    count = 0
    for assign in product(range(k), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in edges):
            count += 1
    return count


def class_colorings(g: Graph, pred, k: int) -> int:
    """Maps V -> [k] whose nonempty color classes all induce pred-graphs."""
    count = 0
    for assign in product(range(k), repeat=g.n):
        classes = {}
        for v, c in enumerate(assign):
            classes.setdefault(c, []).append(v)
        if all(pred(induced_subgraph(g, vs)) for vs in classes.values()):
            count += 1
    return count


def acyclic_orientations(g: Graph) -> int:
    edges = edge_list(g)
    m = len(edges)
    count = 0
    for mask in range(1 << m):
        out = [[] for _ in range(g.n)]
        for idx, (u, v) in enumerate(edges):
            if mask >> idx & 1:
                out[u].append(v)
            else:
                out[v].append(u)
        indeg = [0] * g.n
        for u in range(g.n):
            for v in out[u]:
                indeg[v] += 1
        queue = [v for v in range(g.n) if indeg[v] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen == g.n:
            count += 1
    return count


# ---------------------------------------------------------------- partitions


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def partition_blocks(g: Graph, pred) -> dict:
    """j -> number of partitions into j blocks, each inducing a pred-graph."""
    out = {}
    for part in set_partitions(range(g.n)):
        if all(pred(induced_subgraph(g, block)) for block in part):
            out[len(part)] = out.get(len(part), 0) + 1
    return out


def stirling2(n: int, j: int) -> int:
    if n == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def falling_value(k, j: int):
    out = 1
    for t in range(j):
        out *= k - t
    return out


# ---------------------------------------------------------------- properties
# The builtin property classes decided on a whole Graph, from its edge
# list and a union-find of its own rather than the package's vertex masks.


def _component_sizes(g: Graph):
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edge_list(g):
        root[find(u)] = find(v)
    sizes = {}
    for v in range(g.n):
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return list(sizes.values())


def _cycle_exactly(i: int, g: Graph) -> bool:
    return (g.n == i and len(edge_list(g)) == i
            and all(d == 2 for d in degrees(g))
            and len(_component_sizes(g)) == 1)


def _cycle_plus_isolated(i: int, g: Graph) -> bool:
    degs = degrees(g)
    if len(edge_list(g)) != i or any(d not in (0, 2) for d in degs):
        return False
    if degs.count(2) != i:
        return False
    return sum(1 for size in _component_sizes(g) if size > 1) == 1


_PROPERTY_ORACLES = {
    "edgeless": lambda g: not edge_list(g),
    "clique": lambda g: len(edge_list(g)) == g.n * (g.n - 1) // 2,
    "connected": lambda g: len(_component_sizes(g)) == 1,
    "disconnected": lambda g: len(_component_sizes(g)) >= 2,
    "forest": lambda g: len(edge_list(g)) == g.n - len(_component_sizes(g)),
    "match_like": lambda g: all(size <= 2 for size in _component_sizes(g)),
    "only_K1": lambda g: g.n == 1,
    "pair_K2_E2": lambda g: g.n == 2,
    "triple_K1_K2_E2": lambda g: g.n <= 2,
    "cycle_exactly": _cycle_exactly,
    "cycle_plus_isolated": _cycle_plus_isolated,
}


def property_oracle(name: str):
    """Graph predicate of a builtin property name, e.g. 'cycle_exactly:4'."""
    head, sep, rest = name.partition(":")
    pred = _PROPERTY_ORACLES[head]
    if sep:
        return lambda g: pred(int(rest), g)
    return pred


# ---------------------------------------------------------------- isomorphism classes


def _vertex_profiles(g: Graph) -> list[tuple]:
    degs = degrees(g)
    tri = [0] * g.n
    for u, v in edge_list(g):
        common = g.adj[u] & g.adj[v]
        c = common.bit_count()
        tri[u] += c
        tri[v] += c
    return [
        (degs[v], tri[v], tuple(sorted(degs[u] for u in bits(g.adj[v]))))
        for v in range(g.n)
    ]


def isomorphic_by_search(g: Graph, h: Graph) -> bool:
    """Exact test by backtracking over profile-compatible assignments."""
    if g.n != h.n:
        return False
    if edge_count(g) != edge_count(h):
        return False
    pg = _vertex_profiles(g)
    ph = _vertex_profiles(h)
    if sorted(pg) != sorted(ph):
        return False
    freq: dict[tuple, int] = {}
    for p in pg:
        freq[p] = freq.get(p, 0) + 1
    order = sorted(range(g.n), key=lambda v: (freq[pg[v]], -pg[v][0], v))
    candidates = [[w for w in range(h.n) if ph[w] == pg[v]] for v in order]

    image = [-1] * g.n       # image[position in order] = h-vertex
    used = [False] * h.n

    def assign(k: int) -> bool:
        if k == g.n:
            return True
        v = order[k]
        for w in candidates[k]:
            if used[w]:
                continue
            ok = True
            for i in range(k):
                u = order[i]
                if (g.adj[v] >> u & 1) != (h.adj[w] >> image[i] & 1):
                    ok = False
                    break
            if ok:
                used[w] = True
                image[k] = w
                if assign(k + 1):
                    return True
                used[w] = False
        return False

    return assign(0)


def canonical_form_dfs(g: Graph) -> str:
    """Least upper-triangle bit string, column by column, over relabellings.

    Depth-first over vertex orders, cutting an order as soon as its code
    so far exceeds the best full code found.
    """
    n, adj = g.n, g.adj
    best = None

    def extend(order, used, code):
        nonlocal best
        if len(order) == n:
            if best is None or code < best:
                best = list(code)
            return
        for v in range(n):
            if used >> v & 1:
                continue
            newcode = code + [adj[u] >> v & 1 for u in order]
            if best is not None and newcode > best[:len(newcode)]:
                continue
            extend(order + [v], used | 1 << v, newcode)

    extend([], 0, [])
    return "".join("1" if b else "0" for b in best)


def _extend_by_vertex(g: Graph, neighbor_mask: int) -> Graph:
    adj = list(g.adj)
    for u in range(g.n):
        if neighbor_mask >> u & 1:
            adj[u] |= 1 << g.n
    adj.append(neighbor_mask)
    return Graph(g.n + 1, tuple(adj))


@functools.lru_cache(maxsize=None)
def enumerate_classes(n: int) -> tuple:
    """Classes of order n, each the first extension met of its class.

    Every class of order n-1 is extended by one vertex in all 2^(n-1)
    ways; an extension is kept unless an isomorphic one is already in its
    (order, size, sorted vertex profiles) bucket; the kept graphs are
    sorted by canonical_form_dfs.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    buckets = {}
    for base in enumerate_classes(n - 1):
        for mask in range(1 << (n - 1)):
            g = _extend_by_vertex(base, mask)
            fp = (g.n, edge_count(g), tuple(sorted(_vertex_profiles(g))))
            bucket = buckets.setdefault(fp, [])
            if not any(isomorphic_by_search(g, rep) for rep in bucket):
                bucket.append(g)
    reps = [g for bucket in buckets.values() for g in bucket]
    reps.sort(key=canonical_form_dfs)
    return tuple(reps)


# ---------------------------------------------------------------- vertex subsets


def induced_subset_counts(g: Graph, pred, contains_null: bool):
    """Vertex subsets whose induced graph satisfies pred, by size.

    The empty subset counts exactly when contains_null; ascending list.
    """
    counts = [1 if contains_null else 0]
    for size in range(1, g.n + 1):
        counts.append(sum(1 for subset in combinations(range(g.n), size)
                          if pred(induced_subgraph(g, subset))))
    return counts


def dominating_sets_by_size(g: Graph):
    """Vertex subsets every vertex is in or adjacent to, by size."""
    counts = [0]
    for size in range(1, g.n + 1):
        total = 0
        for subset in combinations(range(g.n), size):
            reached = set(subset)
            for u, v in edge_list(g):
                if u in subset or v in subset:
                    reached.update((u, v))
            if len(reached) == g.n:
                total += 1
        counts.append(total)
    return counts


# ---------------------------------------------------------------- matchings


def matchings_by_size(g: Graph):
    edges = edge_list(g)
    counts = {0: 1}
    for size in range(1, g.n // 2 + 1):
        total = 0
        for subset in combinations(edges, size):
            used = set()
            ok = True
            for u, v in subset:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                total += 1
        if total == 0:
            break
        counts[size] = total
    return tuple(counts[i] for i in sorted(counts))


def matchings_by_memo(g: Graph):
    """The package's former matching counts: the lowest vertex of a mask is
    unmatched or matched to a neighbour in it, memoized over vertex masks."""
    adj = g.adj
    memo = {0: [1]}

    def count(mask):
        known = memo.get(mask)
        if known is not None:
            return known
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        acc = list(count(rest))                 # u unmatched
        for v in range(g.n):
            if (adj[u] & rest) >> v & 1:        # u matched to v
                acc = padd(acc, [0] + count(rest ^ (1 << v)))
        memo[mask] = acc
        return acc

    out = count((1 << g.n) - 1)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------- cliques


def maximal_cliques_by_size(g: Graph):
    """Subset scan: cliques contained in no larger clique, counted by size."""
    verts = range(g.n)
    cliques = []
    for size in range(1, g.n + 1):
        for subset in combinations(verts, size):
            if all(has_edge(g, u, v) for u, v in combinations(subset, 2)):
                cliques.append(set(subset))
    out = {}
    for c in cliques:
        if not any(c < other for other in cliques):
            out[len(c)] = out.get(len(c), 0) + 1
    return out


# ---------------------------------------------------------------- tutte


def _reachable(n, edges, src, dst, skip_idx):
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for idx, (a, b) in enumerate(edges):
            if idx == skip_idx:
                continue
            w = b if a == u else a if b == u else None
            if w is not None and w not in seen:
                seen.add(w)
                stack.append(w)
    return dst in seen


def tutte_dc(n, edges):
    """Deletion-contraction on a multigraph edge list; {(i,j): coeff}."""
    edges = [tuple(e) for e in edges]
    if not edges:
        return {(0, 0): 1}
    u, v = edges[0]
    rest = edges[1:]
    if u == v:
        inner = tutte_dc(n, rest)
        return {(i, j + 1): c for (i, j), c in inner.items()}
    if not _reachable(n, edges, u, v, skip_idx=0):
        contracted = [(u if a == v else a, u if b == v else b)
                      for a, b in rest]
        inner = tutte_dc(n, contracted)
        return {(i + 1, j): c for (i, j), c in inner.items()}
    out = dict(tutte_dc(n, rest))
    contracted = [(u if a == v else a, u if b == v else b) for a, b in rest]
    for (i, j), c in tutte_dc(n, contracted).items():
        out[(i, j)] = out.get((i, j), 0) + c
    return {k: c for k, c in out.items() if c != 0}


def tutte_rank_sum(g: Graph):
    """Whitney rank sum over all 2^m edge subsets by union-find; {(i,j): coeff}."""
    edges = edge_list(g)
    n, m = g.n, len(edges)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rank_of(subset):
        for i in range(n):
            parent[i] = i
        r = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    rank_full = rank_of(edges)
    counts = {}
    for emask in range(1 << m):
        subset = [e for idx, e in enumerate(edges) if emask >> idx & 1]
        r = rank_of(subset)
        key = (rank_full - r, len(subset) - r)
        counts[key] = counts.get(key, 0) + 1
    # expand (X-1)^a (Y-1)^b binomially
    out = {}
    for (a, b), cnt in counts.items():
        for i in range(a + 1):
            for j in range(b + 1):
                c = cnt * binom(a, i) * binom(b, j) * (-1) ** (a - i + b - j)
                out[(i, j)] = out.get((i, j), 0) + c
    return {k: c for k, c in out.items() if c != 0}


# ---------------------------------------------------------------- primes

# deliberately disjoint from the package's Miller-Rabin bases 2..37
SPRP_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_strong_probable_prime(n: int, bases=SPRP_BASES) -> bool:
    """Trial division by the primes below 100, then strong-probable-prime
    tests to the given bases."""
    if n < 2:
        return False
    small = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        if all(pow(x, 2 ** r, n) != n - 1 for r in range(1, s)):
            return False
    return True


# ---------------------------------------------------------------- misc


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def factorial(n: int) -> int:
    out = 1
    for t in range(2, n + 1):
        out *= t
    return out


def laguerre_closed(n: int):
    """L_n by the explicit sum: sum_k C(n,k) (-1)^k / k! X^k."""
    return tuple(Fraction(binom(n, k) * (-1) ** k, factorial(k))
                 for k in range(n + 1))


# ---------------------------------------------------------------- normal form


def is_normal(c) -> bool:
    """An int, or a Fraction whose denominator exceeds 1: never a bool, a
    float or a whole-number Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# ---------------------------------------------------------------- property relation


@dataclass(frozen=True)
class PropertyRelation:
    """How two properties sit relative to each other on a bounded universe."""

    relation: str  # equal | complement | incomparable
    bound: int
    in_both: Graph | None
    in_first_only: Graph | None
    in_second_only: Graph | None
    in_neither: Graph | None


def property_relation(c1: GraphProperty, c2: GraphProperty, n_bound: int,
                      caps: Caps = DEFAULT_CAPS) -> PropertyRelation:
    """Pointwise equal, pointwise complementary, or neither (with witnesses).

    The four membership regions get their first witness in universe order;
    equality means both exclusive regions stay empty, complementarity means
    the agreement regions (both, neither) stay empty.
    """
    in_both = in_first = in_second = in_neither = None
    for g in graphs_up_to(n_bound, caps):
        a, b = c1.holds(g), c2.holds(g)
        if a and b and in_both is None:
            in_both = g
        elif a and not b and in_first is None:
            in_first = g
        elif b and not a and in_second is None:
            in_second = g
        elif not a and not b and in_neither is None:
            in_neither = g
    if in_first is None and in_second is None:
        relation = "equal"
    elif in_both is None and in_neither is None:
        relation = "complement"
    else:
        relation = "incomparable"
    return PropertyRelation(relation=relation, bound=n_bound,
                            in_both=in_both, in_first_only=in_first,
                            in_second_only=in_second, in_neither=in_neither)


# ---------------------------------------------------------------- P-uniqueness


@dataclass(frozen=True)
class UniquenessVerdict:
    unique: bool
    counterexample: Graph | None
    bound: int


def check_p_unique(g: Graph, pk: PolyKind, n_bound: int) -> UniquenessVerdict:
    """Search the universe for a non-isomorphic graph with the same value.

    Degree-forced kinds only ever collide within one order, so the scan
    stays there; the rest scan every order up to the bound.  The first
    match that isomorphic_by_search tells apart from g ends the scan.  The
    verdict is relative to the bound by construction.
    """
    if g.n > n_bound:
        raise InputError(
            f"graph order {g.n} exceeds the requested bound {n_bound}")
    value = compute_poly(pk, g)
    orders = ((g.n,) if pk.kind in DEGREE_FORCED_KINDS
              else range(1, n_bound + 1))
    for n in orders:
        for h in enumerate_graphs(n):
            if compute_poly(pk, h) == value \
                    and not isomorphic_by_search(g, h):
                return UniquenessVerdict(unique=False, counterexample=h,
                                         bound=n_bound)
    return UniquenessVerdict(unique=True, counterexample=None, bound=n_bound)


# ---------------------------------------------------------------- recurrences


def verify(spec: RecurrenceSpec, seq: PolySequence) -> bool:
    """Exact check of the relation on every window of the sequence."""
    if len(seq.terms) <= spec.order:
        raise InputError(
            f"verification needs more than {spec.order} terms")
    q, fs, terms = spec.order, spec.coefficients, seq.terms
    return all(sum((fs[t] * terms[s + t] for t in range(q)), UniPoly.zero())
               == terms[s + q] for s in range(len(terms) - q))


def extend(spec: RecurrenceSpec, count: int) -> PolySequence:
    """The seeds followed by `count` terms generated from the relation."""
    if count < 0:
        raise InputError("count must be nonnegative")
    terms = list(spec.seeds)
    q = spec.order
    for _ in range(count):
        acc = UniPoly.zero()
        for t in range(q):
            acc = acc + spec.coefficients[t] * terms[len(terms) - q + t]
        terms.append(acc)
    return PolySequence(base_index=0, terms=tuple(terms), label="extended")


# ---------------------------------------------------------------- frontier sweeps


def elimination_order_by_recount(g: Graph) -> list[int]:
    """Greedy vertex order keeping the set of half-done vertices small."""
    n = g.n
    unprocessed = set(range(n))
    processed_mask = 0
    order = []
    for _ in range(n):
        best_v = -1
        best_key = None
        for v in unprocessed:
            new_mask = processed_mask | 1 << v
            frontier = 0
            for u in bits(new_mask):
                if g.adj[u] & ~new_mask:
                    frontier += 1
            done_neighbors = (g.adj[v] & processed_mask).bit_count()
            key = (frontier, -done_neighbors, v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        order.append(best_v)
        unprocessed.remove(best_v)
        processed_mask |= 1 << best_v
    return order


def retire_masks(g: Graph, order: list[int]) -> list[int]:
    """Per step of the order, the mask of vertices retiring there.

    A vertex leaves the frontier at the step that processes the later of
    itself and its last neighbour in the order.
    """
    pos = {v: i for i, v in enumerate(order)}
    gone_at = [0] * g.n
    for v in range(g.n):
        gone_at[max([pos[v]] + [pos[u] for u in bits(g.adj[v])])] |= 1 << v
    return gone_at


def chromatic_blocks(g: Graph) -> tuple[int, ...]:
    """Partitions of V into j independent blocks, via the frontier sweep.

    A state is the blocks restricted to the frontier, as sorted bitmasks,
    and the number t of retired blocks.  No vertex processed later is
    adjacent to a retired block, so v may join any of the t retired blocks
    as well as a frontier block it has no edge into, or start a new block.
    """
    adj = g.adj

    def expand(state, v, ahead, gone):
        blocks, t = state
        for i, b in enumerate(blocks):
            if not b & adj[v]:
                live, shut = _settle(
                    blocks[:i] + (b | 1 << v,) + blocks[i + 1:], gone)
                yield (live, t + shut), 1
        live, shut = _settle(blocks + (1 << v,), gone)
        yield (live, t + shut), 1
        if t:
            yield (live, t - 1 + shut), t

    out = [0] * (g.n + 1)
    sweep = _frontier_sweep(g, ((), 0), expand, "chromatic")
    for (_, t), ways in sweep.items():
        out[t] += ways
    return tuple(out)
