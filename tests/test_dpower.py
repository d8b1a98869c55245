"""Distinctive-power comparisons, gadget suites, and inexpressibility checks."""

import pytest

import oracles
from oracles import property_relation
import graphpoly.dpower
import graphpoly.graph
from graphpoly.caps import Caps
from graphpoly.dpower import (
    compare,
    cycle_copies,
    dom_inexpressibility_suite,
    evaluate_handle,
    incomparability_suite,
    parse_handle,
    sdp_equiv_complement_check,
    tailed_mix,
)
from graphpoly.errors import CapError, InputError
from graphpoly.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_count,
    empty_graph,
    enumerate_graphs,
    is_isomorphic,
    parse_graph,
    path_graph,
    similar,
)
from graphpoly.invariants import PolyKind, parse_poly_kind
from graphpoly.poly import UniPoly
from graphpoly.properties import builtin, parse_property


class TestHandles:
    def test_parse_round_trip(self):
        for text in ("chrom", "tutte", "char", "indep", "mu", "dom",
                     "ind:connected", "span:cycleE:4", "genchrom:cycle:3",
                     "prop:connected"):
            h = parse_handle(text)
            assert parse_handle(h.label()) == h

    def test_bad_handles(self):
        with pytest.raises(InputError):
            parse_handle("spectra")
        with pytest.raises(InputError):
            parse_handle("ind")

    def test_isomorphism_invariance(self):
        import random
        rng = random.Random(13)
        handles = [parse_handle(t) for t in
                   ("chrom", "char", "indep", "tutte", "prop:connected",
                    "ind:forest")]
        for g in enumerate_graphs(4):
            perm = list(range(4))
            rng.shuffle(perm)
            h = oracles.relabel(g, perm)
            for handle in handles:
                assert evaluate_handle(handle, g) == evaluate_handle(handle, h)

    def test_property_handle_is_binary(self):
        h = parse_handle("prop:connected")
        assert evaluate_handle(h, path_graph(3)) == 1
        assert evaluate_handle(h, empty_graph(3)) == 0

    def test_handles_are_poly_kinds(self):
        assert parse_handle("chrom") == parse_poly_kind("chrom")
        assert parse_handle("ind:forest") == parse_poly_kind("ind:forest")
        assert parse_handle("prop:connected") \
            == PolyKind("prop", parse_property("connected"))


class TestCaches:
    def test_no_module_level_mutable_state(self):
        compare(parse_handle("chrom"), parse_handle("indep"), "dp", 4)
        held = [name for name, value in vars(graphpoly.dpower).items()
                if isinstance(value, (dict, list, set))
                and not name.startswith("__")]
        assert held == []

    def test_a_handle_compared_with_itself_is_evaluated_once(self,
                                                            monkeypatch):
        calls = []

        def counting(handle, g, caps=None):
            calls.append(g)
            return evaluate_handle(handle, g)

        monkeypatch.setattr(graphpoly.dpower, "evaluate_handle", counting)
        tutte = parse_handle("tutte")
        rep = compare(tutte, parse_handle("tutte"), "dp", 5)
        assert not rep.p_le_q.refuted and not rep.q_le_p.refuted
        assert len(calls) == len(graphpoly.graph.graphs_up_to(5)) == 52


class TestCompare:
    def test_chromatic_vs_tutte_dp(self):
        rep = compare(parse_handle("chrom"), parse_handle("tutte"), "dp", 6)
        assert rep.p_le_q.refuted and rep.q_le_p.refuted
        g, h = rep.p_le_q.witness
        assert is_isomorphic(g, complete_graph(1))
        assert is_isomorphic(h, empty_graph(2))

    def test_chromatic_vs_tutte_sdp(self):
        rep = compare(parse_handle("chrom"), parse_handle("tutte"), "sdp", 6)
        assert not rep.p_le_q.refuted

    def test_witnesses_reverify(self):
        pairs = [("chrom", "tutte", "dp"), ("chrom", "indep", "dp"),
                 ("indep", "char", "dp"), ("chrom", "tutte", "sdp")]
        for p_text, q_text, mode in pairs:
            p, q = parse_handle(p_text), parse_handle(q_text)
            rep = compare(p, q, mode, 5)
            for fine, verdict in ((p, rep.p_le_q), (q, rep.q_le_p)):
                coarse = q if fine is p else p
                if not verdict.refuted:
                    continue
                g, h = verdict.witness
                assert evaluate_handle(coarse, g) == evaluate_handle(coarse, h)
                assert evaluate_handle(fine, g) != evaluate_handle(fine, h)
                if mode == "sdp":
                    assert similar(g, h)

    def test_pairwise_separations_frozen(self):
        # scan-discovered witnesses for the three classical polynomials
        chrom, indep, char = (parse_handle(t)
                              for t in ("chrom", "indep", "char"))
        tri_plus_dot = disjoint_union([cycle_graph(3), empty_graph(1)])
        p3_plus_dot = disjoint_union([path_graph(3), empty_graph(1)])
        two_edges = disjoint_union([path_graph(2), path_graph(2)])
        star = complete_bipartite(1, 4)
        c4_plus_dot = disjoint_union([cycle_graph(4), empty_graph(1)])

        rep = compare(chrom, indep, "dp", 6)
        assert is_isomorphic(rep.p_le_q.witness[0], tri_plus_dot)
        assert is_isomorphic(rep.p_le_q.witness[1], path_graph(4))
        assert is_isomorphic(rep.q_le_p.witness[0], p3_plus_dot)
        assert is_isomorphic(rep.q_le_p.witness[1], two_edges)

        rep = compare(chrom, char, "dp", 6)
        assert is_isomorphic(rep.p_le_q.witness[0], star)
        assert is_isomorphic(rep.p_le_q.witness[1], c4_plus_dot)
        assert is_isomorphic(rep.q_le_p.witness[0], p3_plus_dot)
        assert is_isomorphic(rep.q_le_p.witness[1], two_edges)

        rep = compare(indep, char, "dp", 6)
        assert is_isomorphic(rep.p_le_q.witness[0], star)
        assert is_isomorphic(rep.p_le_q.witness[1], c4_plus_dot)
        assert is_isomorphic(rep.q_le_p.witness[0], tri_plus_dot)
        assert is_isomorphic(rep.q_le_p.witness[1], path_graph(4))

    def test_monotone_in_bound(self):
        chrom, tutte = parse_handle("chrom"), parse_handle("tutte")
        first = None
        for bound in (2, 3, 4, 5):
            rep = compare(chrom, tutte, "dp", bound)
            assert rep.p_le_q.refuted
            if first is None:
                first = rep.p_le_q.witness
            assert rep.p_le_q.witness == first

    def test_equivalent_count_invariants(self):
        # both handles determine exactly n(G)
        rep = compare(parse_handle("ind:set(K1)"),
                      parse_handle("genchrom:set(K1)"), "dp", 5)
        assert not rep.p_le_q.refuted
        assert not rep.q_le_p.refuted

    def test_implication_lemma(self):
        for p_text, q_text in (("chrom", "tutte"), ("indep", "char"),
                               ("chrom", "char"), ("mu", "char"),
                               ("prop:connected", "chrom")):
            # dp no-refutation forces sdp no-refutation, both directions
            p, q = parse_handle(p_text), parse_handle(q_text)
            dp, sdp = compare(p, q, "dp", 5), compare(p, q, "sdp", 5)
            assert dp.p_le_q.refuted or not sdp.p_le_q.refuted, (p_text, q_text)
            assert dp.q_le_p.refuted or not sdp.q_le_p.refuted, (p_text, q_text)

    def test_complementary_properties_same_report(self):
        third = parse_handle("indep")
        a = compare(parse_handle("prop:connected"), third, "dp", 5)
        b = compare(parse_handle("prop:not(connected)"), third, "dp", 5)
        assert a.p_le_q.refuted == b.p_le_q.refuted
        assert a.q_le_p.refuted == b.q_le_p.refuted
        assert a.p_le_q.witness == b.p_le_q.witness
        assert a.q_le_p.witness == b.q_le_p.witness

    def test_cap(self):
        from graphpoly.errors import CapError
        with pytest.raises(CapError):
            compare(parse_handle("chrom"), parse_handle("char"), "dp", 8)

    def test_bad_mode(self):
        with pytest.raises(InputError):
            compare(parse_handle("chrom"), parse_handle("char"), "both", 4)


class TestPropertyRelation:
    def test_complement_pair(self):
        rel = property_relation(builtin("connected"),
                                builtin("disconnected"), 5)
        assert rel.relation == "complement"

    def test_equal(self):
        rel = property_relation(builtin("connected"), builtin("connected"), 5)
        assert rel.relation == "equal"

    def test_incomparable_regions(self):
        rel = property_relation(builtin("forest"), builtin("connected"), 5)
        assert rel.relation == "incomparable"
        forest, conn = builtin("forest"), builtin("connected")
        g = rel.in_first_only
        assert forest.holds(g) and not conn.holds(g)
        h = rel.in_second_only
        assert conn.holds(h) and not forest.holds(h)
        assert forest.holds(rel.in_both) and conn.holds(rel.in_both)


class TestGadgets:
    def test_cycle_copies(self):
        g = cycle_copies(5, 2)
        assert g.n == 10 and edge_count(g) == 10

    def test_tailed_mix(self):
        g = tailed_mix(5, 2)
        assert g.n == 10 and edge_count(g) == 10
        assert similar(g, cycle_copies(5, 2))
        assert not is_isomorphic(g, cycle_copies(5, 2))

    def test_incomparability_ind(self):
        for i, j in ((3, 5), (5, 3), (4, 6)):
            rep = incomparability_suite("ind", i, j)
            assert rep["all_ok"], (i, j)
            assert rep["mutual_refutation"]

    def test_incomparability_span(self):
        for i, j in ((3, 5), (5, 3), (4, 6)):
            rep = incomparability_suite("span", i, j)
            assert rep["all_ok"], (i, j)
            assert rep["mutual_refutation"]

    def test_incomparability_genchrom(self):
        for i, j in ((3, 4), (4, 3)):
            rep = incomparability_suite("genchrom", i, j)
            assert rep["all_ok"], (i, j)
            assert rep["mutual_refutation"]

    def test_hypothesis_violations(self):
        with pytest.raises(InputError):
            incomparability_suite("ind", 3, 3)
        with pytest.raises(InputError):
            incomparability_suite("ind", 4, 5)  # adjacent indices
        with pytest.raises(InputError):
            incomparability_suite("genchrom", 4, 4)
        with pytest.raises(InputError):
            incomparability_suite("ind", 2, 5)
        with pytest.raises(InputError):
            incomparability_suite("ind", 3, 5, k=1)
        with pytest.raises(InputError):
            incomparability_suite("det", 3, 5)

    def test_genchrom_allows_adjacent_indices(self):
        rep = incomparability_suite("genchrom", 4, 5)
        assert rep["all_ok"]

    def test_expected_polynomial_values(self):
        from graphpoly.invariants import gen_ind, gen_span
        # k copies of C_5 against the property "induces exactly C_5"
        g = cycle_copies(5, 2)
        assert gen_ind(g, builtin("cycle_exactly:5")) \
            == UniPoly.monomial(5, 2)
        assert gen_ind(g, builtin("cycle_exactly:3")).is_zero()
        ghat = tailed_mix(5, 2)
        assert gen_ind(ghat, builtin("cycle_exactly:5")) \
            == UniPoly.monomial(5)
        # spanning variant with the isolated-vertex-tolerant property
        assert gen_span(g, builtin("cycle_plus_isolated:5")) \
            == UniPoly.monomial(5, 2)
        assert gen_span(ghat, builtin("cycle_plus_isolated:5")) \
            == UniPoly.monomial(5)

    def test_span_adjacent_index_value(self):
        # the tail edge closes a shorter cycle: picking the (i-1)-cycle
        # inside one tailed copy is the single extra spanning witness
        from graphpoly.invariants import gen_span
        ghat = tailed_mix(4, 2)
        assert gen_span(ghat, builtin("cycle_plus_isolated:3")) \
            == UniPoly.monomial(3)


class TestComplementChecks:
    def test_ind_properties_equivalent(self):
        for name in ("edgeless", "connected", "forest", "cycle:3"):
            rep = sdp_equiv_complement_check(parse_property(name), "ind", 5)
            assert rep["mode"] == "sdp"
            assert rep["equivalent_up_to_bound"], name

    def test_span_properties_equivalent_with_closure_note(self):
        for name in ("match", "cycleE:3"):
            rep = sdp_equiv_complement_check(parse_property(name), "span", 5)
            assert rep["equivalent_up_to_bound"], name
            assert "closure" in rep["closure_note"]

    def test_span_rejects_unclosed_property(self):
        with pytest.raises(InputError):
            sdp_equiv_complement_check(parse_property("cycle:3"), "span", 5)

    def test_closure_check_stops_at_the_enumeration_cap(self):
        # the check enumerates orders below the bound; none past enum_n
        classes = graphpoly.graph._enumerate_classes
        classes.cache_clear()
        with pytest.raises(CapError):
            sdp_equiv_complement_check(builtin("forest"), "span", 5,
                                       Caps(enum_n=3))
        misses = classes.cache_info().misses
        classes(4)
        assert classes.cache_info().misses == misses + 1  # order 4 is new

    def test_partition_kind_separates_connectivity(self):
        rep = sdp_equiv_complement_check(parse_property("connected"),
                                         "genchrom", 5)
        assert rep["mode"] == "dp"
        assert not rep["equivalent_up_to_bound"]
        g, h = map(parse_graph, rep["report"]["p_le_q"]["witness"])
        assert {g.n, h.n} == {1, 2}

    def test_bad_kind(self):
        with pytest.raises(InputError):
            sdp_equiv_complement_check(parse_property("edgeless"), "tutte", 5)


class TestDomSuite:
    def test_all_branches_contradict(self):
        rep = dom_inexpressibility_suite()
        assert rep["all_contradict"]
        assert {b["name"] for b in rep["branches"]} \
            == {"subset", "spanning", "partition"}

    def test_branch_values(self):
        rep = dom_inexpressibility_suite()
        by_name = {b["name"]: b for b in rep["branches"]}
        subset_cases = {c["name"]: c for c in by_name["subset"]["cases"]}
        assert any(c["lhs"] != c["rhs"] for c in subset_cases.values())
        partition = by_name["partition"]["cases"]
        assert any(c["rhs"] == 3 for c in partition)
        for branch in rep["branches"]:
            for case in branch["cases"]:
                assert case["clash"]
