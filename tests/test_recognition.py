"""Recognition: brute universe scans, family routes, uniqueness, screens."""

import pytest

from oracles import check_p_unique
from graphpoly.errors import InputError
from graphpoly.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    is_isomorphic,
    path_graph,
)
from graphpoly.invariants import (
    chromatic,
    compute_poly,
    matching_defect,
    maximal_clique_profile,
    parse_poly_kind,
)
from graphpoly.orthopoly import hermite_he
from graphpoly.poly import UniPoly
from graphpoly.recognition import (
    brute_recognize,
    chromatic_screen,
    family_recognize,
    identity_suite,
    maxcl_trivial_recognize,
)


class TestBruteRecognize:
    def test_defect_of_triangle(self):
        result = brute_recognize(UniPoly([0, -3, 0, 1]), parse_poly_kind("mu"))
        assert len(result.matches) == 1
        assert is_isomorphic(result.matches[0], cycle_graph(3))

    def test_defect_of_four_cycle(self):
        result = brute_recognize(UniPoly([2, 0, -4, 0, 1]),
                                 parse_poly_kind("mu"))
        assert len(result.matches) == 1
        assert is_isomorphic(result.matches[0], cycle_graph(4))

    def test_impossible_chromatic(self):
        result = brute_recognize(UniPoly([7, 0, 1]), parse_poly_kind("chrom"))
        assert result.matches == ()

    def test_round_trip_small(self):
        kinds = [parse_poly_kind(k) for k in ("char", "mu", "chrom")]
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                for pk in kinds:
                    result = brute_recognize(compute_poly(pk, g), pk)
                    assert any(is_isomorphic(g, h) for h in result.matches)

    def test_non_monic_input_matches_nothing(self):
        result = brute_recognize(UniPoly([0, 0, 2]), parse_poly_kind("char"))
        assert result.matches == ()

    def test_bound_required_without_degree_force(self):
        with pytest.raises(InputError):
            brute_recognize(UniPoly([1, 1]), parse_poly_kind("indep"))
        result = brute_recognize(UniPoly([1, 1]), parse_poly_kind("indep"),
                                 n_bound=3)
        assert len(result.matches) == 1
        assert result.matches[0].n == 1

    def test_matches_reverify(self):
        pk = parse_poly_kind("chrom")
        p = chromatic(path_graph(4))
        result = brute_recognize(p, pk)
        assert result.matches
        for h in result.matches:
            assert compute_poly(pk, h) == p


class TestFamilyRecognize:
    def test_hermite_five(self):
        rec = family_recognize(hermite_he(5), parse_poly_kind("mu"), "clique")
        assert rec.found
        assert rec.index == 5
        assert rec.uniqueness_assumed

    def test_mismatch_returns_absent(self):
        rec = family_recognize(hermite_he(5) + UniPoly.one(),
                               parse_poly_kind("mu"), "clique")
        assert not rec.found
        assert rec.index is None

    def test_cycle_defect(self):
        rec = family_recognize(matching_defect(cycle_graph(6)),
                               parse_poly_kind("mu"), "cycle")
        assert rec.index == 6

    def test_degree_below_family_range(self):
        rec = family_recognize(UniPoly([0, 1]), parse_poly_kind("mu"), "cycle")
        assert not rec.found

    def test_no_degree_map_for_indep(self):
        with pytest.raises(InputError):
            family_recognize(UniPoly([0, 1]), parse_poly_kind("indep"),
                             "cycle")

    def test_agrees_with_brute(self):
        cases = [("mu", "cycle", range(3, 8)), ("mu", "clique", range(1, 8)),
                 ("char", "path", range(1, 8)),
                 ("chrom", "cycle", range(3, 7))]
        for kind, family, indices in cases:
            pk = parse_poly_kind(kind)
            for n in indices:
                from graphpoly.graph import make_family, parse_family_spec
                g = make_family(parse_family_spec(f"{family}:{n}"))
                p = compute_poly(pk, g)
                rec = family_recognize(p, pk, family)
                assert rec.index == n, (kind, family, n)
                brute = brute_recognize(p, pk)
                assert any(is_isomorphic(g, h) for h in brute.matches)

    def test_two_index_families_agree_with_brute(self):
        pk = parse_poly_kind("mu")
        cases = [("cbipartite", k, complete_bipartite(k, k))
                 for k in (1, 2, 3)] + [("grid", 2, cycle_graph(4))]
        for family, k, g in cases:
            p = compute_poly(pk, g)
            assert family_recognize(p, pk, family).index == k, (family, k)
            brute = brute_recognize(p, pk)
            assert any(is_isomorphic(g, h) for h in brute.matches)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            family_recognize(hermite_he(3), parse_poly_kind("mu"), "torus")


class TestUniqueness:
    def test_cycle_defect_unique(self):
        verdict = check_p_unique(cycle_graph(5), parse_poly_kind("mu"),
                                 n_bound=5)
        assert verdict.unique
        assert verdict.counterexample is None

    def test_path_characteristic_unique(self):
        verdict = check_p_unique(path_graph(4), parse_poly_kind("char"),
                                 n_bound=4)
        assert verdict.unique

    def test_tutte_tree_counterexample(self):
        verdict = check_p_unique(path_graph(4), parse_poly_kind("tutte"),
                                 n_bound=4)
        assert not verdict.unique
        assert is_isomorphic(verdict.counterexample, complete_bipartite(1, 3))

    def test_chromatic_forest_counterexample(self):
        verdict = check_p_unique(
            disjoint_union([path_graph(3), empty_graph(1)]),
            parse_poly_kind("chrom"), n_bound=4)
        assert not verdict.unique
        assert is_isomorphic(verdict.counterexample,
                             disjoint_union([path_graph(2), path_graph(2)]))

    @pytest.mark.parametrize("kind", ["mu", "char", "chrom", "indep", "tutte"])
    def test_recognize_count_of_one_is_p_uniqueness(self, kind):
        # the CLI asks for P-uniqueness as `recognize --bound B` on P(G):
        # G is P-unique up to B exactly when the scan returns one class
        pk = parse_poly_kind(kind)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                result = brute_recognize(compute_poly(pk, g), pk, 5)
                assert (len(result.matches) == 1) \
                    == check_p_unique(g, pk, 5).unique, (kind, g)


def identity_item(rep, name):
    """The identity-suite item of that name."""
    return next(it for it in rep["items"] if it["name"] == name)


def screen_check(rep, name):
    """The outcome of the screen check of that name."""
    return next(c["ok"] for c in rep["checks"] if c["name"] == name)


class TestIdentitySuite:
    def test_all_identities_hold(self):
        rep = identity_suite(n_max=10, bipartite_max=4)
        assert rep["identities_hold"]
        for name in ("cycle-chebyshev-t", "path-chebyshev-u",
                     "clique-hermite", "bipartite-laguerre"):
            assert identity_item(rep, name)["ok"], name

    def test_identities_hold_past_order_20(self):
        # K_22 and K_{12,12} have more than the 20 vertices of --cap-n
        rep = identity_suite(n_max=22, bipartite_max=12)
        assert rep["identities_hold"]
        assert identity_item(rep, "clique-hermite")["checked"][-1] == 22
        assert identity_item(rep, "bipartite-laguerre")["checked"][-1] == 12

    def test_unscaled_laguerre_fails_beyond_one(self):
        rep = identity_suite(n_max=6, bipartite_max=4)
        record = identity_item(rep, "bipartite-laguerre-unscaled")
        assert not record["ok"]
        assert record["failures"] == [2, 3, 4]
        # the record does not poison the overall verdict
        assert rep["identities_hold"]

    def test_ranges(self):
        rep = identity_suite(n_max=6, bipartite_max=3)
        checked = {it["name"]: it["checked"] for it in rep["items"]}
        assert checked["cycle-chebyshev-t"] == [3, 4, 5, 6]
        assert checked["path-chebyshev-u"] == [1, 2, 3, 4, 5, 6]
        assert checked["bipartite-laguerre"] == [1, 2, 3]


class TestChromaticScreen:
    def test_real_chromatic_passes(self):
        rep = chromatic_screen(chromatic(cycle_graph(5)))
        assert rep["all_pass"]

    def test_nonzero_constant_rejected(self):
        rep = chromatic_screen(UniPoly([1, 0, 1]))
        assert not screen_check(rep, "zero-constant-term")
        assert not rep["all_pass"]

    def test_triangle_chromatic_passes(self):
        rep = chromatic_screen(UniPoly([0, 2, -3, 1]))
        assert rep["all_pass"]

    def test_fraction_coefficients_rejected(self):
        from fractions import Fraction
        rep = chromatic_screen(UniPoly([0, Fraction(1, 2), 1]))
        assert not screen_check(rep, "integer-coefficients")

    def test_sign_alternation_detects_positive_middle(self):
        rep = chromatic_screen(UniPoly([0, 1, 1, 1]))
        assert not screen_check(rep, "alternating-signs")

    def test_never_fails_on_connected_graphs(self):
        from graphpoly.properties import builtin
        conn = builtin("connected")
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                if conn.holds(g):
                    rep = chromatic_screen(chromatic(g))
                    assert rep["all_pass"], (n, g)


class TestMaxclBuild:
    def test_two_disjoint_edges(self):
        g = maxcl_trivial_recognize(UniPoly([0, 0, 2]))
        assert maximal_clique_profile(g) == UniPoly([0, 0, 2])
        assert g.n == 4

    def test_single_vertex(self):
        g = maxcl_trivial_recognize(UniPoly([0, 1]))
        assert is_isomorphic(g, complete_graph(1))

    def test_mixed_profile(self):
        s = UniPoly([0, 3, 0, 1])
        g = maxcl_trivial_recognize(s)
        assert maximal_clique_profile(g) == s
        assert g.n == 3 + 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            maxcl_trivial_recognize(UniPoly([1, 1]))
        with pytest.raises(InputError):
            maxcl_trivial_recognize(UniPoly([0, -1]))
        from fractions import Fraction
        with pytest.raises(InputError):
            maxcl_trivial_recognize(UniPoly([0, Fraction(1, 2)]))
        with pytest.raises(InputError):
            maxcl_trivial_recognize(UniPoly.zero())
