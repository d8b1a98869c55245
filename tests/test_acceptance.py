"""Acceptance gate: the checks that define a working build.

Each criterion prints one PASS/FAIL line straight to the terminal
(bypassing capture) and then asserts, so a full run always shows the
eleven verdicts.  All equality checks are exact; each criterion also
carries a wall-clock budget.
"""

import time

import pytest

import oracles
from oracles import check_p_unique, verify
from graphpoly.dpower import (
    compare,
    dom_inexpressibility_suite,
    evaluate_handle,
    incomparability_suite,
    parse_handle,
)
from graphpoly.graph import (
    complete_graph,
    edge_count,
    empty_graph,
    enumerate_graphs,
    is_isomorphic,
    make_family,
    parse_family_spec,
    path_graph,
)
from graphpoly.invariants import (
    char_poly,
    chromatic,
    compute_poly,
    dominating,
    gen_ind,
    gen_span,
    matching_defect,
    parse_poly_kind,
    tutte,
)
from graphpoly.poly import BiPoly, UniPoly
from graphpoly.recognition import (
    brute_recognize,
    family_recognize,
    identity_suite,
)
from graphpoly.recurrence import family_sequence, fit
from graphpoly.orthopoly import hermite_he
from graphpoly.properties import builtin, complement_property


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, elapsed, budget):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {num:02d} {name}: {verdict} "
                  f"({elapsed:.1f}s, budget {budget:.0f}s)")
    return _announce


def finish(announce, num, name, ok, start, budget):
    elapsed = time.monotonic() - start
    announce(num, name, ok and elapsed < budget, elapsed, budget)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, \
        f"criterion {num} ({name}) took {elapsed:.1f}s, budget {budget}s"


def fam(text):
    return make_family(parse_family_spec(text))


def one_plus_x_power(n):
    out = UniPoly.one()
    for _ in range(n):
        out = out * UniPoly([1, 1])
    return out


def bipoly_x_power(m):
    return BiPoly([[0]] * m + [[1]])


def test_c01_matching_identities(announce):
    start = time.monotonic()
    rep = identity_suite(n_max=12, bipartite_max=5)
    item = {it["name"]: it for it in rep["items"]}
    ok = rep["identities_hold"]
    ok = ok and item["cycle-chebyshev-t"]["checked"] == list(range(3, 13))
    ok = ok and item["path-chebyshev-u"]["checked"] == list(range(1, 13))
    ok = ok and set(range(1, 11)) <= set(item["clique-hermite"]["checked"])
    ok = ok and item["bipartite-laguerre"]["checked"] == list(range(1, 6))
    unscaled = item["bipartite-laguerre-unscaled"]
    ok = ok and not unscaled["ok"]
    ok = ok and unscaled["failures"] == [2, 3, 4, 5]
    ok = ok and 1 not in unscaled["failures"]
    finish(announce, 1, "matching-identities", ok, start, 5)


def test_c02_complement_identities(announce):
    start = time.monotonic()
    ind_props = [builtin(n) for n in
                 ("edgeless", "connected", "forest", "cycle_exactly:3")]
    span_props = [builtin(n) for n in
                  ("match_like", "cycle_plus_isolated:3")]
    ok = True
    for n in range(1, 7):
        vertex_total = one_plus_x_power(n)
        for g in enumerate_graphs(n):
            for c in ind_props:
                got = gen_ind(g, c) + gen_ind(g, complement_property(c))
                ok = ok and got == vertex_total
            edge_total = one_plus_x_power(edge_count(g))
            for d in span_props:
                got = gen_span(g, d) + gen_span(g, complement_property(d))
                ok = ok and got == edge_total
    finish(announce, 2, "complement-identities", ok, start, 30)


def test_c03_dominating(announce):
    start = time.monotonic()
    ok = dominating(complete_graph(2)) == UniPoly([0, 2, 1])
    ok = ok and dominating(empty_graph(2)) == UniPoly([0, 0, 1])
    rep = dom_inexpressibility_suite()
    ok = ok and rep["all_contradict"]
    ok = ok and len(rep["branches"]) == 3
    finish(announce, 3, "dominating-inexpressibility", ok, start, 1)


def test_c04_clique_recurrence_and_trees(announce):
    start = time.monotonic()
    ok = True
    prev = chromatic(complete_graph(1))
    for n in range(2, 9):
        cur = chromatic(complete_graph(n))
        ok = ok and cur == UniPoly([1 - n, 1]) * prev
        prev = cur
    forest, conn = builtin("forest"), builtin("connected")
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if forest.holds(g) and conn.holds(g):
                ok = ok and tutte(g) == bipoly_x_power(edge_count(g))
    finish(announce, 4, "clique-recurrence-tree-tutte", ok, start, 10)


def test_c05_recurrence_fitting(announce):
    start = time.monotonic()
    char, chrom = parse_poly_kind("char"), parse_poly_kind("chrom")

    spec = fit(family_sequence(char, "path", 1, 12), 3, 2)
    ok = spec is not None and spec.order == 2
    ok = ok and spec.coefficients == (UniPoly([-1]), UniPoly.x())

    cyc = family_sequence(chrom, "cycle", 3, 14)
    spec = fit(cyc, 3, 2)
    ok = ok and spec is not None and spec.order == 2 and verify(spec, cyc)

    base = UniPoly([1, 1])
    terms, cur = [], base
    for _ in range(10):
        terms.append(cur)
        cur = cur * base
    spec = fit(tuple(terms), 2, 2)
    ok = ok and spec.order == 1 and spec.coefficients == (base,)

    ok = ok and fit(family_sequence(chrom, "clique", 1, 14), 4, 4) is None
    finish(announce, 5, "recurrence-fitting", ok, start, 20)


def test_c06_family_c_finiteness(announce):
    start = time.monotonic()
    cases = [
        ("char", "cycle", 3, 16, 4, 2),
        ("char", "path", 1, 14, 3, 2),
        ("char", "wheel", 3, 16, 6, 2),
        ("char", "ladder", 3, 19, 9, 4),
        ("char", "mobius", 2, 18, 9, 4),
        ("chrom", "cycle", 3, 14, 2, 2),
        ("chrom", "path", 1, 12, 2, 2),
        ("chrom", "wheel", 3, 14, 4, 4),
        ("chrom", "ladder", 3, 14, 4, 4),
        ("chrom", "mobius", 2, 13, 4, 4),
    ]
    ok = True
    for kind, family, lo, hi, q_max, d_max in cases:
        terms = family_sequence(parse_poly_kind(kind), family, lo, hi)
        spec = fit(terms, q_max, d_max)
        good = spec is not None and verify(spec, terms)
        # the fitter trains on a prefix; at least three verified terms
        # beyond the last training window must remain
        good = good and len(terms) >= spec.order + 3
        ok = ok and good
    finish(announce, 6, "family-c-finiteness", ok, start, 180)


def test_c07_uniqueness(announce):
    start = time.monotonic()
    mu, char = parse_poly_kind("mu"), parse_poly_kind("char")
    ok = True
    for n in range(3, 8):
        ok = ok and check_p_unique(fam(f"cycle:{n}"), mu, 7).unique
    for n in range(1, 8):
        ok = ok and check_p_unique(fam(f"clique:{n}"), mu, 7).unique
        ok = ok and check_p_unique(fam(f"path:{n}"), char, 7).unique
    verdict = check_p_unique(path_graph(4), parse_poly_kind("tutte"), 4)
    ok = ok and not verdict.unique
    cx = verdict.counterexample
    ok = ok and cx is not None and builtin("forest").holds(cx) \
        and builtin("connected").holds(cx)
    finish(announce, 7, "uniqueness-shadows", ok, start, 120)


def test_c08_recognition_round_trip(announce):
    start = time.monotonic()
    kinds = [parse_poly_kind(k) for k in ("char", "mu", "chrom")]
    ok = True
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for pk in kinds:
                matches = brute_recognize(compute_poly(pk, g), pk).matches
                ok = ok and any(is_isomorphic(g, h) for h in matches)
    ok = ok and family_recognize(hermite_he(5), parse_poly_kind("mu"),
                                 "clique") == 5
    finish(announce, 8, "recognition-round-trip", ok, start, 60)


def test_c09_separations(announce):
    start = time.monotonic()
    ok = True
    for variant, pairs in (("ind", ((3, 5), (5, 3), (4, 6))),
                           ("span", ((3, 5), (5, 3), (4, 6))),
                           ("genchrom", ((3, 4), (4, 3)))):
        for i, j in pairs:
            rep = incomparability_suite(variant, i, j)
            ok = ok and rep["all_ok"] and rep["mutual_refutation"]
    only_k1, pair = builtin("only_K1"), builtin("pair_K2_E2")
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            ok = ok and gen_ind(g, only_k1) == UniPoly.monomial(1, n)
            ok = ok and gen_ind(g, pair) \
                == UniPoly.monomial(2, n * (n - 1) // 2)
    finish(announce, 9, "dp-separations", ok, start, 60)


def test_c10_dp_vs_sdp(announce):
    start = time.monotonic()
    chrom, tutte_h = parse_handle("chrom"), parse_handle("tutte")
    forward, backward = compare(chrom, tutte_h, "dp", 6)
    ok = forward is not None and backward is not None
    g, h = forward
    ok = ok and evaluate_handle(tutte_h, g) == evaluate_handle(tutte_h, h)
    ok = ok and evaluate_handle(chrom, g) != evaluate_handle(chrom, h)
    forward, _ = compare(chrom, tutte_h, "sdp", 6)
    ok = ok and forward is None
    for p_text, q_text in (("chrom", "tutte"), ("chrom", "indep"),
                           ("indep", "char"), ("chrom", "char"),
                           ("mu", "char")):
        # dp no-refutation forces sdp no-refutation, both directions
        p, q = parse_handle(p_text), parse_handle(q_text)
        dp, sdp = compare(p, q, "dp", 6), compare(p, q, "sdp", 6)
        ok = ok and all(d is not None or s is None
                        for d, s in zip(dp, sdp))
    finish(announce, 10, "dp-vs-sdp", ok, start, 180)


def test_c11_oracle_invariants(announce):
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            p = chromatic(g)
            for k in (1, 2, 3, 4):
                ok = ok and p.evaluate(k) == oracles.proper_colorings(g, k)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            ok = ok and abs(chromatic(g).evaluate(-1)) \
                == oracles.acyclic_orientations(g)
    forest = builtin("forest")
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            if forest.holds(g):
                ok = ok and matching_defect(g) == char_poly(g)
    finish(announce, 11, "oracle-invariants", ok, start, 180)
