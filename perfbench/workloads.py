"""Workload op lists, their seeded inputs, and the checks on every output.

An op is one `python -m graphpoly ...` invocation.  Its check receives the
op's parsed JSON output and the outputs of the other ops of the same pass,
and raises CheckFailed when the output is wrong.  The checks are
independent of the program: brute-force polynomials computed here,
identities between polynomial kinds, and values stored in expected.json
for the seeds committed with the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Output keys that legitimately differ between runs of the same op: the
# timing, and the temporary path a graph file was read from.
VOLATILE_KEYS = ("elapsed_ms", "graph")

# Sizes (n, m) of the seeded connected random graphs of `large-graph`.
LARGE_SIZES = {
    "indep": (18, 27),
    "dom": (20, 30),
    "forest": (16, 24),
    "shared": (12, 18),
    "genchrom": (10, 15),
}


class CheckFailed(Exception):
    """An op's output is not what the program should have printed."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict, dict], None]
    seeded: bool  # True when the output depends on the seed


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------ polynomials
# Integer polynomials are ascending coefficient lists without trailing zeros.


def _trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _compose(p: list[int], q: list[int]) -> list[int]:
    """p(q(X)) by Horner."""
    acc: list[int] = []
    for c in reversed(p):
        acc = _add(_mul(acc, q), [c])
    return acc


def _uni(text: str) -> list[int]:
    return [] if text == "0" else _trim([int(t) for t in text.split(" ")])


def _bi(text: str) -> list[list[int]]:
    """Grid of a bivariate result: row i holds the coefficients of x^i y^j."""
    return [[int(t) for t in row.split(" ")] for row in text.split(";")]


def _coef(p: list[int], k: int) -> int:
    return p[k] if 0 <= k < len(p) else 0


# ------------------------------------------------------------ graphs


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.strip().splitlines()
    n, m = (int(t) for t in lines[0].split())
    edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    _require(len(edges) == m, f"graph text has {len(edges)} edges, header {m}")
    return n, edges


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree on shuffled labels plus random extra edges."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, n):
        u, v = labels[i], labels[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled graph of order n, so a random class."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.5]


def independence_poly(n: int, edges) -> list[int]:
    """Independent sets by size, by I(G) = I(G - v) + X I(G - N[v])."""
    adj = _adjacency(n, edges)
    memo: dict[int, list[int]] = {0: [1]}

    def count(mask: int) -> list[int]:
        known = memo.get(mask)
        if known is None:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            known = _add(count(rest), [0] + count(rest & ~adj[v]))
            memo[mask] = known
        return known

    return count((1 << n) - 1)


def domination_poly(n: int, edges) -> list[int]:
    """Dominating sets by size: covers of the two vertex halves, paired."""
    closed = [a | 1 << v for v, a in enumerate(_adjacency(n, edges))]

    def covers(vertices) -> list[int]:
        table = [0]  # bit j of the index picks the j-th of vertices
        for v in vertices:
            table += [c | closed[v] for c in table]
        return table

    full = (1 << n) - 1
    low, high = covers(range(n // 2)), covers(range(n // 2, n))
    counts = [0] * (n + 1)
    for hi, hc in enumerate(high):
        need = full & ~hc
        size = hi.bit_count()
        for lo, lc in enumerate(low):
            if lc & need == need:
                counts[size + lo.bit_count()] += 1
    return _trim(counts)


def forest_ind_poly(n: int, edges) -> list[int]:
    """Nonempty vertex sets inducing a forest, by size.

    Sets grow in increasing vertex order; a vertex may join when its
    neighbours in the set lie in distinct components.  Forests are closed
    under induced subgraphs, so a rejected set is never extended.
    """
    adj = _adjacency(n, edges)
    counts = [0] * (n + 1)

    def grow(start: int, size: int, comps: list[int]) -> None:
        counts[size] += 1
        for v in range(start, n):
            touched = [c for c in comps if adj[v] & c]
            if any((adj[v] & c).bit_count() > 1 for c in touched):
                continue
            merged = 1 << v
            for c in touched:
                merged |= c
            grow(v + 1, size + 1,
                 [c for c in comps if not adj[v] & c] + [merged])

    grow(0, 0, [])
    counts[0] = 0
    return _trim(counts)


def matching_defect_poly(n: int, edges) -> list[int]:
    """sum_k (-1)^k m_k X^(n-2k); the lowest vertex is unmatched or matched."""
    adj = _adjacency(n, edges)

    def matchings(mask: int) -> list[int]:
        if not mask:
            return [1]
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        out = matchings(rest)
        nbrs = adj[u] & rest
        while nbrs:
            v = nbrs & -nbrs
            out = _add(out, [0] + matchings(rest & ~v))
            nbrs ^= v
        return out

    out = [0] * (n + 1)
    for k, c in enumerate(matchings((1 << n) - 1)):
        out[n - 2 * k] = (-1) ** k * c
    return _trim(out)


def isomorphic(n: int, edges_a, edges_b) -> bool:
    """Brute force over relabellings; meant for orders up to 7."""
    if len(edges_a) != len(edges_b):
        return False
    adj_a, adj_b = _adjacency(n, edges_a), _adjacency(n, edges_b)
    if sorted(a.bit_count() for a in adj_a) != sorted(b.bit_count() for b in adj_b):
        return False
    target = set(edges_b)
    for perm in permutations(range(n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target
               for u, v in edges_a):
            return True
    return False


# ------------------------------------------------------------ expected values


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def stable_fields(out: dict) -> dict:
    return {k: v for k, v in out.items() if k not in VOLATILE_KEYS}


def expected_check(stored: dict | None) -> Callable[[dict, dict], None]:
    """Compare an output with its stored value, when one is stored."""
    def check(out: dict, _pass: dict) -> None:
        if stored is not None:
            _require(stable_fields(out) == stored,
                     "output differs from the stored expected value")
    return check


def _both(*checks) -> Callable[[dict, dict], None]:
    def check(out: dict, outputs: dict) -> None:
        for c in checks:
            c(out, outputs)
    return check


# ------------------------------------------------------------ universe


def _compare_op(p: str, q: str, mode: str, bound: int) -> tuple[str, tuple]:
    name = f"compare-{p.split(':')[0]}-{q.split(':')[0]}-{mode}{bound}"
    argv = ("compare", "--p", p, "--q", q, "--mode", mode, "--bound", str(bound))
    return name, argv


def _compare_shape(p: str, q: str, mode: str, bound: int):
    def check(out: dict, _pass: dict) -> None:
        _require((out["p"], out["q"], out["mode"], out["bound"])
                 == (p, q, mode, bound), "compare echoed other arguments")
        for direction in ("p_le_q", "q_le_p"):
            verdict = out[direction]
            _require(verdict["refuted"] == ("witness" in verdict),
                     f"{direction}: refutation without witness or vice versa")
            if mode == "sdp" and verdict["refuted"]:
                (n1, e1), (n2, e2) = (_parse_graph_text(t)
                                      for t in verdict["witness"])
                _require(n1 == n2 and len(e1) == len(e2),
                         f"{direction}: sdp witness pair is not similar")
    return check


def _recognize_check(n: int, edges, poly_of, query: list[int]):
    def check(out: dict, _pass: dict) -> None:
        matches = [_parse_graph_text(t) for t in out["matches"]]
        _require(out["count"] == len(matches), "count differs from matches")
        for mn, me in matches:
            _require(poly_of(mn, me) == query,
                     "a match does not have the query polynomial")
        _require(any(mn == n and isomorphic(n, edges, me)
                     for mn, me in matches),
                 "the seeded target class is not among the matches")
    return check


def universe_ops(seed: int, tmp: Path, expected: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for p, q, mode, bound in (("chrom", "indep", "dp", 7),
                              ("mu", "char", "sdp", 7),
                              ("genchrom:connected", "ind:connected", "sdp", 7),
                              ("tutte", "chrom", "sdp", 6)):
        name, argv = _compare_op(p, q, mode, bound)
        check = _both(_compare_shape(p, q, mode, bound),
                      expected_check(expected.get("*", {}).get(name)))
        ops.append(Op(name, argv, check, seeded=False))
    stored = expected.get(str(seed), {})
    for kind, poly_of, extra in (("mu", matching_defect_poly, ()),
                                 ("indep", independence_poly, ("--bound", "7"))):
        edges = random_graph(rng, 7)
        query = poly_of(7, edges)
        path = tmp / f"universe-{kind}.poly"
        path.write_text(" ".join(str(c) for c in query) + "\n")
        name = f"recognize-{kind}"
        argv = ("recognize", "--poly", kind, "--input", str(path), *extra)
        check = _both(_recognize_check(7, edges, poly_of, query),
                      expected_check(stored.get(name)))
        ops.append(Op(name, argv, check, seeded=True))
    return ops


# ------------------------------------------------------------ large-graph


def _oracle_check(kind: str, oracle, n: int, edges, *coefficient_checks):
    """Equality with a polynomial computed here, after cheap coefficient checks."""
    expected = []

    def check(out: dict, _pass: dict) -> None:
        p = _uni(out["result"])
        for k, value, what in coefficient_checks:
            _require(_coef(p, k) == value, f"{kind}: [X^{k}] is not {what}")
        if not expected:
            expected.append(oracle(n, edges))
        _require(p == expected[0], f"{kind} differs from {oracle.__name__}")
    return check


def _indep_check(n: int, edges):
    return _oracle_check("indep", independence_poly, n, edges,
                         (1, n, "n"), (2, comb(n, 2) - len(edges), "C(n,2) - m"))


def _dom_check(n: int, edges):
    # connected, so every set of n - 1 vertices dominates
    return _oracle_check("dom", domination_poly, n, edges,
                         (0, 0, "0"), (n, 1, "1"), (n - 1, n, "n"))


def _forest_check(n: int, edges):
    adj = _adjacency(n, edges)
    triangles = sum((adj[u] & adj[v]).bit_count() for u, v in edges) // 3
    return _oracle_check("ind:forest", forest_ind_poly, n, edges,
                         (1, n, "n"), (2, comb(n, 2), "C(n,2)"),
                         (3, comb(n, 3) - triangles, "C(n,3) - triangles"))


def _tutte_of(outputs: dict) -> list[list[int]]:
    out = outputs.get("tutte")
    _require(out is not None, "the tutte op of this pass gave no output")
    return _bi(out["result"])


def _shared_checks(n: int, edges) -> dict[str, Callable[[dict, dict], None]]:
    """Identities tying span:forest, span:connected and chrom to the tutte op.

    The graph is connected, so k = 1 below.
    """
    m = len(edges)

    def tutte(out: dict, _pass: dict) -> None:
        t = _bi(out["result"])
        _require(sum(c * 2 ** (i + j) for i, row in enumerate(t)
                     for j, c in enumerate(row)) == 2 ** m,
                 "tutte: T(2,2) is not 2^m")

    def forest(out: dict, outputs: dict) -> None:
        t = _tutte_of(outputs)
        t21 = sum(c * 2 ** i for i, row in enumerate(t) for c in row)
        _require(sum(_uni(out["result"])) == t21,
                 "span:forest at 1 is not T(2,1)")

    def connected(out: dict, outputs: dict) -> None:
        t = _tutte_of(outputs)
        width = max(len(row) for row in t)
        t1y = _trim([sum(row[j] for row in t if j < len(row))
                     for j in range(width)])
        rhs = _mul([0] * (n - 1) + [1], _compose(t1y, [1, 1]))
        _require(_uni(out["result"]) == rhs,
                 "span:connected(X) is not X^(n-1) T(1, 1+X)")

    def chrom(out: dict, outputs: dict) -> None:
        t = _tutte_of(outputs)
        tx0 = _trim([row[0] for row in t])
        rhs = _mul([0, (-1) ** (n - 1)], _compose(tx0, [1, -1]))
        _require(_uni(out["result"]) == rhs,
                 "chrom(L) is not (-1)^(n-1) L T(1-L, 0)")

    return {"tutte": tutte, "span-forest": forest,
            "span-connected": connected, "chrom": chrom}


def _genchrom_check(n: int, edges):
    m = len(edges)

    def check(out: dict, _pass: dict) -> None:
        p = _uni(out["result"])
        # sum_j b_j X_(j) with b_n = 1, b_(n-1) = m and b_1 = 1 (connected)
        _require(len(p) == n + 1 and p[n] == 1, "genchrom: not monic of degree n")
        _require(p[n - 1] == m - comb(n, 2), "genchrom: [X^(n-1)] is not m - C(n,2)")
        _require(p[0] == 0 and sum(p) == 1, "genchrom: P(0) or P(1) wrong")
    return check


def large_graph_ops(seed: int, tmp: Path, expected: dict,
                    sizes: dict = LARGE_SIZES) -> list[Op]:
    rng = random.Random(seed)
    graphs = {}
    for key, (n, m) in sizes.items():
        edges = random_connected(rng, n, m)
        path = tmp / f"large-{key}.graph"
        path.write_text(graph_text(n, edges))
        graphs[key] = (n, edges, str(path))
    shared = _shared_checks(*graphs["shared"][:2])
    plan = [
        ("indep", "indep", "indep", _indep_check(*graphs["indep"][:2])),
        ("dom", "dom", "dom", _dom_check(*graphs["dom"][:2])),
        ("ind-forest", "ind:forest", "forest", _forest_check(*graphs["forest"][:2])),
        ("tutte", "tutte", "shared", shared["tutte"]),
        ("span-forest", "span:forest", "shared", shared["span-forest"]),
        ("span-connected", "span:connected", "shared", shared["span-connected"]),
        ("chrom", "chrom", "shared", shared["chrom"]),
        ("genchrom-connected", "genchrom:connected", "genchrom",
         _genchrom_check(*graphs["genchrom"][:2])),
    ]
    stored = expected.get(str(seed), {})
    return [Op(name, ("compute", "--poly", poly, "--graph", graphs[key][2]),
               _both(check, expected_check(stored.get(name))), seeded=True)
            for name, poly, key, check in plan]


# ------------------------------------------------------------ family-fit


def _fit_check(family: str, expect_found: bool | None):
    lo, hi = (int(t) for t in family.split(":")[1].split(".."))

    def check(out: dict, _pass: dict) -> None:
        _require(out["terms"] == hi - lo + 1, "fit: wrong number of terms")
        if expect_found is not None:
            _require(out["found"] == expect_found,
                     f"fit: found is {out['found']}, expected {expect_found}")
        if out["found"]:
            _require(out["verified_terms"] == out["terms"],
                     "fit: verified_terms differs from terms")
    return check


def family_fit_ops(seed: int, tmp: Path, expected: dict) -> list[Op]:
    plan = [
        ("chrom", "ladder:3..24", 4, 4, True),
        ("chrom", "mobius:2..24", 4, 4, True),
        ("chrom", "cyclesq:5..30", 8, 3, True),
        ("char", "ladder:3..24", 6, 2, False),
        ("charL", "cycle:3..40", 4, 2, True),
        ("char", "wheel:3..40", 4, 2, None),
    ]
    stored = expected.get("*", {})
    ops = []
    for poly, family, order, deg, found in plan:
        name = f"fit-{poly}-{family.split(':')[0]}"
        argv = ("fit", "--poly", poly, "--family", family,
                "--max-order", str(order), "--max-deg", str(deg))
        check = _both(_fit_check(family, found), expected_check(stored.get(name)))
        ops.append(Op(name, argv, check, seeded=False))
    # the inputs are fixed by definition; the seed only shuffles the order
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "universe": universe_ops,
    "large-graph": large_graph_ops,
    "family-fit": family_fit_ops,
}


def build(workload: str, seed: int, tmp: Path) -> list[Op]:
    return WORKLOADS[workload](seed, tmp, load_expected().get(workload, {}))


# ------------------------------------------------------------ set-up probe


def _setup_check(out: dict, _pass: dict) -> None:
    _require(out.get("result") == "0 1", "ortho T_1 is not X")


SETUP_OP = Op("setup", ("ortho", "--family", "T", "--n", "1"), _setup_check,
              seeded=False)


def check_pass(ops: list[Op], outputs: dict) -> dict[str, str]:
    """Problems by op name; ops missing from outputs already failed."""
    problems = {}
    for op in ops:
        out = outputs.get(op.name)
        if out is None:
            continue
        try:
            op.check(out, outputs)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            problems[op.name] = f"{type(exc).__name__}: {exc}"
    return problems
