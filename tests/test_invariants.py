"""Graph polynomial computations against fixtures and brute-force oracles."""

import random

import pytest

import oracles
from oracles import complement_graph
from graphpoly import invariants
from graphpoly.caps import Caps
from graphpoly.errors import CapError, InputError
from graphpoly.graph import (
    complete_bipartite,
    complete_graph,
    component_masks,
    cycle_graph,
    disjoint_union,
    edge_count,
    edge_list,
    empty_graph,
    enumerate_graphs,
    family_member,
    graphs_up_to,
    grid_graph,
    ladder_graph,
    make_family,
    make_graph,
    parse_family_spec,
    path_graph,
    wheel_graph,
)
from graphpoly.invariants import (
    char_poly,
    chromatic,
    compute_poly,
    dominating,
    gen_chromatic,
    gen_chromatic_blocks,
    gen_ind,
    gen_span,
    independence,
    matching_defect,
    matching_generating,
    matching_numbers,
    maximal_clique_profile,
    parse_poly_kind,
    tutte,
)
from graphpoly.orthopoly import chebyshev_t, chebyshev_u
from graphpoly.poly import (
    BiPoly,
    UniPoly,
    falling_to_monomial,
    int_determinant,
)
from graphpoly.properties import (
    GraphProperty,
    builtin,
    check_closed_isolated,
    complement_property,
)

X = UniPoly.x()


def one_plus_x_power(n):
    out = UniPoly.one()
    base = UniPoly([1, 1])
    for _ in range(n):
        out = out * base
    return out


def grid_dict(bp):
    return {(i, j): c for i, row in enumerate(bp.grid)
            for j, c in enumerate(row) if c}


class TestCharPoly:
    def test_fixtures(self):
        assert char_poly(complete_graph(2)) == UniPoly([-1, 0, 1])
        assert char_poly(path_graph(3)) == UniPoly([0, -2, 0, 1])
        assert char_poly(cycle_graph(3)) == UniPoly([-2, -3, 0, 1])

    def test_monic_of_degree_n(self):
        for g in enumerate_graphs(5):
            p = char_poly(g)
            assert p.degree == g.n
            assert p.leading_coefficient() == 1

    def test_matches_permutation_expansion(self):
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert tuple(char_poly(g).integer_coefficients()) \
                    == oracles.perm_char(g)

    def test_laplacian_matches_permutation_expansion(self):
        rng = random.Random(10)
        sample = list(enumerate_graphs(5))
        rng.shuffle(sample)
        for g in sample[:10]:
            assert tuple(char_poly(g, "laplacian").integer_coefficients()) \
                == oracles.perm_char(g, "laplacian")

    def test_laplacian_of_complete_graph(self):
        # eigenvalues 0 and n with multiplicity n-1
        n = 5
        q = X
        shift = UniPoly([-n, 1])
        for _ in range(n - 1):
            q = q * shift
        assert char_poly(complete_graph(n), "laplacian") == q

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(11)
        classes = list(enumerate_graphs(4))
        for _ in range(10):
            g, h = rng.choice(classes), rng.choice(classes)
            assert char_poly(disjoint_union([g, h])) \
                == char_poly(g) * char_poly(h)

    def test_unknown_matrix(self):
        with pytest.raises(InputError):
            char_poly(complete_graph(2), "incidence")

    @pytest.mark.parametrize("matrix", ["adjacency", "laplacian"])
    def test_matches_interpolation_on_every_class_to_order_7(self, matrix):
        for g in graphs_up_to(7):
            assert char_poly(g, matrix) \
                == oracles.char_poly_by_interpolation(g, matrix)

    @pytest.mark.parametrize("family, lo, hi, matrix", [
        ("ladder", 3, 24, "adjacency"), ("wheel", 3, 40, "adjacency"),
        ("cycle", 3, 40, "laplacian"), ("clique", 1, 40, "laplacian")])
    def test_matches_interpolation_along_families(self, family, lo, hi,
                                                  matrix):
        for k in range(lo, hi + 1):
            g = family_member(family, k)
            assert char_poly(g, matrix) \
                == oracles.char_poly_by_interpolation(g, matrix)

    def test_paths_give_chebyshev_u(self):
        two_x = UniPoly([0, 2])
        for n in range(1, 41):
            assert char_poly(path_graph(n)).substitute(two_x) \
                == chebyshev_u(n)

    def test_cycles_give_chebyshev_t(self):
        two_x = UniPoly([0, 2])
        for n in range(3, 41):
            assert char_poly(cycle_graph(n)).substitute(two_x) \
                == 2 * chebyshev_t(n) - 2

    def test_second_coefficient_counts_edges(self):
        rng = random.Random(12)
        for n in range(2, 41):
            graphs = [path_graph(n), complete_graph(n),
                      make_graph(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n)
                                     if rng.random() < 0.3])]
            if n >= 4:
                graphs.append(wheel_graph(n - 1))
            for g in graphs:
                assert char_poly(g).coefficient(n - 2) == -edge_count(g)

    def test_laplacian_linear_coefficient_counts_spanning_trees(self):
        for g in (ladder_graph(20), wheel_graph(12), grid_graph(4, 4)):
            n = g.n
            trees = oracles.evaluate_bivariate(tutte(g), 1, 1)
            assert char_poly(g, "laplacian").coefficient(1) \
                == (-1) ** (n - 1) * n * trees


class TestMatchings:
    def test_fixtures(self):
        assert matching_numbers(complete_graph(3)) == (1, 3)
        assert matching_numbers(cycle_graph(4)) == (1, 4, 2)
        assert matching_numbers(empty_graph(5)) == (1,)

    def test_against_edge_subset_scan(self):
        for n in (2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert matching_numbers(g) == oracles.matchings_by_size(g)

    def test_generating_polynomial(self):
        assert matching_generating(complete_graph(3)) == UniPoly([1, 3])
        assert matching_generating(empty_graph(5)) == UniPoly.one()
        assert matching_generating(cycle_graph(4)) == UniPoly([1, 4, 2])

    def test_defect_fixtures(self):
        assert matching_defect(cycle_graph(3)) == UniPoly([0, -3, 0, 1])
        assert matching_defect(complete_graph(4)) == UniPoly([3, 0, -6, 0, 1])
        assert matching_defect(complete_bipartite(2, 2)) \
            == UniPoly([2, 0, -4, 0, 1])

    def test_defect_encodes_generating_counts(self):
        for g in enumerate_graphs(5):
            mu = matching_defect(g)
            counts = matching_numbers(g)
            n = g.n
            for k, m_k in enumerate(counts):
                assert mu.coefficient(n - 2 * k) == (-1) ** k * m_k
            assert mu.degree == n

    def test_forest_identity(self):
        forest = builtin("forest")
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                if forest.holds(g):
                    assert matching_defect(g) == char_poly(g)

    def test_sweep_matches_memo_on_every_class_to_order_7(self):
        for g in graphs_up_to(7):
            assert matching_numbers(g) == oracles.matchings_by_memo(g), g

    @pytest.mark.parametrize("spec", ["clique:20", "cbipartite:10x10",
                                      "ladder:10", "grid:4x5", "wheel:19"])
    def test_sweep_matches_memo_on_families(self, spec):
        g = make_family(parse_family_spec(spec))
        assert matching_numbers(g) == oracles.matchings_by_memo(g)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_sweep_matches_memo_on_random_20_vertex_graphs(self, density):
        rng = random.Random(f"matching {density}")
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        for _ in range(3):
            g = make_graph(20, [e for e in pairs if rng.random() < density])
            assert matching_numbers(g) == oracles.matchings_by_memo(g)

    def test_chebyshev_identities_to_100_vertices(self):
        # mu(P_n; 2X) = U_n(X) and mu(C_n; 2X) = 2 T_n(X)
        double_x = UniPoly([0, 2])
        for n in range(3, 101):
            assert matching_defect(path_graph(n)).substitute(double_x) \
                == chebyshev_u(n)
            assert matching_defect(cycle_graph(n)).substitute(double_x) \
                == 2 * chebyshev_t(n)

    def test_forest_identity_on_random_60_vertex_trees(self):
        rng = random.Random(16)
        for _ in range(5):
            g = make_graph(60, [(rng.randrange(v), v) for v in range(1, 60)])
            assert matching_defect(g) == char_poly(g)


class TestGenInd:
    def test_counts_all_vertex_subsets(self):
        only_k1 = builtin("only_K1")
        pair = builtin("pair_K2_E2")
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert gen_ind(g, only_k1) == UniPoly.monomial(1, n)
                expect = UniPoly.monomial(2, n * (n - 1) // 2)
                assert gen_ind(g, pair) == expect

    def test_contains_null_adds_constant_term(self):
        g = path_graph(2)
        assert gen_ind(g, builtin("edgeless")).coefficient(0) == 1
        assert gen_ind(g, builtin("connected")).coefficient(0) == 0

    def test_complement_identity(self):
        names = ["edgeless", "connected", "forest", "clique", "match_like",
                 "cycle_exactly:3", "disconnected"]
        for n in range(1, 7):
            expect = one_plus_x_power(n)
            for g in enumerate_graphs(n):
                for name in names:
                    c = builtin(name)
                    total = gen_ind(g, c) + gen_ind(g, complement_property(c))
                    assert total == expect, (name, n)

    def test_independence_fixtures(self):
        assert independence(path_graph(3)) == UniPoly([1, 3, 1])
        assert independence(complete_graph(6)) == UniPoly([1, 6])
        assert independence(empty_graph(2)) == UniPoly([1, 2, 1])

    def test_independence_is_edgeless_gen_ind(self):
        # a fresh predicate object is not recognised, so it takes the 2^n loop
        edgeless = builtin("edgeless")
        generic = GraphProperty(
            "edgeless", lambda adj, mask: edgeless.predicate(adj, mask),
            contains_null=True)
        for g in enumerate_graphs(4):
            assert independence(g) == gen_ind(g, generic)

    def test_sweep_classes_match_subset_scan(self):
        for name in ("edgeless", "forest"):
            c = builtin(name)
            for n in range(1, 8):
                for g in enumerate_graphs(n):
                    expect = oracles.induced_subset_counts(
                        g, c.holds, c.contains_null)
                    assert gen_ind(g, c) == UniPoly(expect), (name, g)

    def test_path_recurrence(self):
        # I(P_n) = I(P_(n-1)) + X I(P_(n-2)): delete an end vertex or take it
        prev, cur = UniPoly([1, 1]), UniPoly([1, 2])
        for n in range(3, 41):
            prev, cur = cur, cur + X * prev
            assert independence(path_graph(n)) == cur

    def test_forests_in_cycles(self):
        # every proper vertex subset of C_n induces a forest
        forest = builtin("forest")
        for n in range(3, 41):
            expect = one_plus_x_power(n) - UniPoly.monomial(n) \
                - UniPoly.one()
            assert gen_ind(cycle_graph(n), forest) == expect

    def test_ladder_transfer_matrix(self):
        # a rung of the circular ladder takes neither end, the first or the
        # second; T[a][b] weighs rung state b after a, so I(L_k) = tr(T^k)
        zero, one = UniPoly.zero(), UniPoly.one()
        t = [[one, X, X], [one, zero, X], [one, X, zero]]
        power = t
        for k in range(2, 25):
            power = [[sum((power[i][j] * t[j][l] for j in range(3)), zero)
                      for l in range(3)] for i in range(3)]
            if k >= 3:
                assert independence(ladder_graph(k)) \
                    == power[0][0] + power[1][1] + power[2][2], k

    def test_independence_is_complement_clique_polynomial(self):
        rng = random.Random(15)
        clique = builtin("clique")
        for n in range(1, 11):
            for _ in range(4):
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                g = make_graph(n, [e for e in pairs if rng.random() < 0.4])
                assert independence(g) \
                    == UniPoly.one() + gen_ind(complement_graph(g), clique)

    SWEEPS = [
        ("independence", lambda g: independence(g)),
        ("ind:forest", lambda g: gen_ind(g, builtin("forest"))),
        ("domination", lambda g: dominating(g)),
        ("chromatic", lambda g: chromatic(g)),
        ("rank-nullity", lambda g: tutte(g)),
        ("matching", lambda g: matching_numbers(g)),
    ]

    @pytest.mark.parametrize("name,run", SWEEPS)
    def test_state_cap_names_polynomial_count_and_step(self, name, run,
                                                       monkeypatch):
        monkeypatch.setattr(invariants, "MAX_STATES", 3)
        with pytest.raises(CapError, match=rf"^{name} frontier sweep reached "
                           r"\d+ states at step \d+ of 16, over the cap of 3$"):
            run(grid_graph(4, 4))

    @pytest.mark.parametrize("name,run", SWEEPS)
    def test_count_bit_cap_names_polynomial_bits_and_step(self, name, run,
                                                          monkeypatch):
        monkeypatch.setattr(invariants, "MAX_COUNT_BITS", 40)
        with pytest.raises(CapError, match=rf"^{name} frontier sweep reached "
                           r"\d+ count bits at step \d+ of 16, over the cap "
                           r"of 40$"):
            run(grid_graph(4, 4))


    def test_every_property_and_complement_match_graph_oracle(self):
        # the mask predicates against the Graph-based oracles, through
        # gen_ind and gen_chromatic_blocks
        names = ["edgeless", "clique", "connected", "disconnected", "forest",
                 "match_like", "only_K1", "pair_K2_E2", "triple_K1_K2_E2",
                 "cycle_exactly:3", "cycle_plus_isolated:3"]
        for name in names:
            oracle = oracles.property_oracle(name)
            for c, pred in ((builtin(name), oracle),
                            (complement_property(builtin(name)),
                             lambda h, oracle=oracle: not oracle(h))):
                for n in range(1, 6):
                    for g in enumerate_graphs(n):
                        assert gen_ind(g, c) == UniPoly(
                            oracles.induced_subset_counts(
                                g, pred, c.contains_null)), (c.name, g)
                        ref = oracles.partition_blocks(g, pred)
                        assert list(gen_chromatic_blocks(g, c)) == [
                            ref.get(j, 0) for j in range(n + 1)], (c.name, g)


class TestGenSpan:
    def test_match_like_recovers_matching_polynomial(self):
        # gen_span reads the matching sweep, so the check is the brute-force
        # count over edge subsets, not matching_generating
        ml = builtin("match_like")
        for g in graphs_up_to(6):
            assert gen_span(g, ml).coeffs == oracles.matchings_by_size(g)

    def test_complement_identity_over_edges(self):
        for name in ("match_like", "cycle_plus_isolated:3"):
            d = builtin(name)
            for n in range(1, 7):
                for g in enumerate_graphs(n):
                    total = gen_span(g, d) \
                        + gen_span(g, complement_property(d))
                    assert total == one_plus_x_power(edge_count(g))

    def test_match_like_beyond_the_edge_cap(self):
        # ladder:12 has 36 edges, far over the cap of the 2^m loop
        g = ladder_graph(12)
        p = compute_poly(parse_poly_kind("span:match"), g)
        assert p == compute_poly(parse_poly_kind("mgen"), g)
        # the prism C_n x K_2 with n even has L_n + 2 perfect matchings,
        # L_n the Lucas numbers; L_12 = 322
        assert p.coefficient(12) == 322 + 2

    def test_rank_nullity_classes_match_subset_loop(self):
        # a fresh predicate object is not recognised, so it takes the 2^m loop
        for name in ("forest", "connected", "disconnected"):
            d = builtin(name)
            generic = GraphProperty(
                name, lambda adj, mask, d=d: d.predicate(adj, mask))
            for n in range(1, 7):
                for g in enumerate_graphs(n):
                    assert gen_span(g, d) == gen_span(g, generic), (name, g)


class TestGenChromatic:
    def test_blocks_match_partition_scan(self):
        names = ["edgeless", "connected", "forest"]
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                for name in names:
                    c = builtin(name)
                    blocks = gen_chromatic_blocks(g, c)
                    ref = oracles.partition_blocks(g, c.holds)
                    assert list(blocks) == [ref.get(j, 0)
                                            for j in range(len(blocks))]

    def test_stirling_blocks_on_empty_graphs(self):
        edgeless = builtin("edgeless")
        for n in (1, 2, 3, 4, 5):
            blocks = gen_chromatic_blocks(empty_graph(n), edgeless)
            assert list(blocks[1:]) == [oracles.stirling2(n, j)
                                        for j in range(1, n + 1)]

    def test_connected_path_fixture(self):
        p = gen_chromatic(path_graph(3), builtin("connected"))
        assert p == UniPoly([0, 1, -1, 1])

    def test_disconnected_vanishes_on_cliques(self):
        disc = builtin("disconnected")
        for i in range(1, 6):
            assert gen_chromatic(complete_graph(i), disc).is_zero()

    def test_evaluation_matches_class_colorings(self):
        rng = random.Random(12)
        names = ["edgeless", "connected", "forest"]
        graphs = [g for n in (1, 2, 3, 4) for g in enumerate_graphs(n)]
        graphs += rng.sample(list(enumerate_graphs(5)), 8)
        for g in graphs:
            for name in names:
                c = builtin(name)
                p = gen_chromatic(g, c)
                for k in (1, 2, 3):
                    assert p.evaluate(k) \
                        == oracles.class_colorings(g, c.holds, k)

    def test_permissive_and_strict_conventions(self):
        conn = builtin("connected")
        for i in (2, 3, 4):
            g = complete_graph(i)
            assert gen_chromatic(g, conn).evaluate(2) == 2 ** i
            # with both classes nonempty: b_2 two-block partitions, 2! ways
            blocks = gen_chromatic_blocks(g, conn)
            assert blocks[2] * oracles.factorial(2) == 2 ** i - 2

    def test_partition_cap(self):
        with pytest.raises(CapError):
            gen_chromatic(path_graph(11), builtin("connected"))

    def test_edgeless_sweep_matches_convolution(self):
        # the former chromatic sweep's block counts against the subset
        # convolution, which a fresh predicate object always takes
        edgeless = builtin("edgeless")
        generic = GraphProperty(
            "edgeless", lambda adj, mask: edgeless.predicate(adj, mask))
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        for g in graphs + [ladder_graph(5)]:
            assert oracles.chromatic_blocks(g) \
                == gen_chromatic_blocks(g, generic), g

    def test_edgeless_beyond_the_partition_cap(self):
        # ladder:8 has 16 vertices, over the partition cap of 10
        g = ladder_graph(8)
        assert compute_poly(parse_poly_kind("genchrom:edgeless"), g) \
            == compute_poly(parse_poly_kind("chrom"), g)

    def test_cycle_block_lemma(self):
        # chi_{C_i}(k copies of C_i) counts ordered assignments of the
        # copies to classes; zero whenever the property asks for C_j, j != i.
        for i in (3, 4, 5):
            for k in (1, 2):
                g = disjoint_union([cycle_graph(i)] * k)
                own = gen_chromatic(g, builtin(f"cycle_exactly:{i}"))
                for lam in range(k, k + 3):
                    assert own.evaluate(lam) == oracles.falling_value(lam, k)
                for j in (3, 4, 5):
                    if j != i:
                        other = builtin(f"cycle_exactly:{j}")
                        assert gen_chromatic(g, other).is_zero()


class TestChromatic:
    def test_fixtures(self):
        assert chromatic(cycle_graph(3)) == UniPoly([0, 2, -3, 1])
        assert chromatic(empty_graph(4)) == UniPoly.monomial(4)
        # chi(C_5) = (X-1)^5 - (X-1)
        q = UniPoly.one()
        for _ in range(5):
            q = q * UniPoly([-1, 1])
        assert chromatic(cycle_graph(5)) == q - UniPoly([-1, 1])

    def test_clique_recurrence(self):
        prev = chromatic(complete_graph(1))
        for n in range(2, 9):
            cur = chromatic(complete_graph(n))
            assert cur == UniPoly([1 - n, 1]) * prev
            prev = cur

    def test_agrees_with_partition_route(self):
        # dual route: frontier sweep vs block counting
        edgeless = builtin("edgeless")
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert chromatic(g) == gen_chromatic(g, edgeless)
                assert chromatic(g) == falling_to_monomial(
                    gen_chromatic_blocks(g, edgeless))
                assert oracles.chromatic_blocks(g) \
                    == gen_chromatic_blocks(g, edgeless)

    @pytest.mark.parametrize("spec", [None, "ladder:30", "mobius:30",
                                      "wheel:40", "clique:14", "cyclesq:30",
                                      "grid:6x6"])
    def test_colour_sweep_matches_former_block_sweep(self, spec):
        # None stands for every class up to order 7
        graphs = graphs_up_to(7) if spec is None \
            else [make_family(parse_family_spec(spec))]
        for g in graphs:
            assert chromatic(g) \
                == falling_to_monomial(oracles.chromatic_blocks(g)), g

    def test_digit_check_raises_on_a_leftover(self, monkeypatch):
        # a final count one unit of x^(n+1) too large leaves a digit over
        g = cycle_graph(4)
        sweep = invariants._frontier_sweep

        def padded(*args):
            states = sweep(*args)
            return {**states, "pad": 1 << (edge_count(g) + 2) * (g.n + 1)}

        monkeypatch.setattr(invariants, "_frontier_sweep", padded)
        with pytest.raises(ValueError, match="digit check"):
            chromatic(g)

    def test_proper_coloring_counts(self):
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                p = chromatic(g)
                for k in (1, 2, 3, 4):
                    assert p.evaluate(k) == oracles.proper_colorings(g, k)

    def test_proper_coloring_counts_order_seven_sample(self):
        rng = random.Random(14)
        for g in rng.sample(list(enumerate_graphs(7)), 25):
            p = chromatic(g)
            for k in (2, 3, 4):
                assert p.evaluate(k) == oracles.proper_colorings(g, k)

    def test_acyclic_orientation_count_at_minus_one(self):
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert abs(chromatic(g).evaluate(-1)) \
                    == oracles.acyclic_orientations(g)

    def test_wheel_and_grid_values(self):
        # spot values computed from the frontier sweep on denser graphs
        w5 = chromatic(wheel_graph(5))
        for k in (1, 2, 3, 4):
            assert w5.evaluate(k) == oracles.proper_colorings(wheel_graph(5), k)
        g23 = chromatic(grid_graph(2, 3))
        for k in (1, 2, 3):
            assert g23.evaluate(k) == oracles.proper_colorings(grid_graph(2, 3), k)


class TestTutte:
    def test_trees_give_pure_x_power(self):
        forest = builtin("forest")
        conn = builtin("connected")
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                if forest.holds(g) and conn.holds(g):
                    m = edge_count(g)
                    expect = {} if m == 0 else {(m, 0): 1}
                    got = grid_dict(tutte(g))
                    if m == 0:
                        assert got == {(0, 0): 1}
                    else:
                        assert got == expect

    def test_fixtures(self):
        assert tutte(cycle_graph(3)) == BiPoly([[0, 1], [1], [1]])
        assert tutte(empty_graph(4)) == BiPoly([[1]])

    def test_matches_deletion_contraction(self):
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                assert grid_dict(tutte(g)) \
                    == oracles.tutte_dc(g.n, edge_list(g))

    def test_matches_edge_subset_rank_sum(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert grid_dict(tutte(g)) == oracles.tutte_rank_sum(g)

    def test_clique_7_passes_identities(self):
        assert_tutte_identities(complete_graph(7))

    @pytest.mark.parametrize("spec", ["clique:8", "ladder:20", "wheel:12",
                                      "grid:4x4", "grid:5x5", "ladder:30"])
    def test_identities_beyond_brute_force(self, spec):
        assert_tutte_identities(make_family(parse_family_spec(spec)))

    def test_state_cap_names_count_and_step(self, monkeypatch):
        monkeypatch.setattr(invariants, "MAX_STATES", 20)
        with pytest.raises(CapError,
                           match=r"reached \d+ states at step \d+ of 7"):
            tutte(complete_graph(7))


def assert_tutte_identities(g):
    """Evaluations of T(G), G connected, that other computations pin down."""
    t = tutte(g)
    n = g.n

    def at(x, y):
        return oracles.evaluate_bivariate(t, x, y)

    assert len(component_masks(g)) == 1
    assert at(2, 2) == 2 ** edge_count(g)
    assert at(2, 1) == gen_span(g, builtin("forest")).evaluate(1)
    # spanning trees, by the matrix-tree theorem: a Laplacian cofactor
    cofactor = [[g.adj[i].bit_count() if i == j else -(g.adj[i] >> j & 1)
                 for j in range(1, n)] for i in range(1, n)]
    assert at(1, 1) == int_determinant(cofactor)
    # P(G; L) = (-1)^(n-1) L T(1-L, 0); both sides have degree n
    p = chromatic(g)
    for lam in range(n + 1):
        assert p.evaluate(lam) \
            == (-1) ** (n - 1) * lam * at(1 - lam, 0)


def test_elimination_order_matches_recount():
    # the incremental frontier count against recounting it per candidate,
    # and the retire masks against each vertex's last neighbour in the order
    rng = random.Random(17)
    graphs = list(graphs_up_to(7))
    # the families and ranges of the chromatic and characteristic fits
    for name, lo, hi in (("ladder", 3, 24), ("mobius", 2, 24),
                         ("cyclesq", 5, 30), ("cycle", 3, 40),
                         ("wheel", 3, 40)):
        graphs += [family_member(name, k) for k in range(lo, hi + 1)]
    graphs += [grid_graph(k, k) for k in range(2, 10)]
    graphs += [complete_graph(n) for n in range(1, 20)]
    for _ in range(300):
        n = rng.randint(1, 29)
        p = rng.random()
        graphs.append(make_graph(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n)
                                     if rng.random() < p]))
    for g in graphs:
        order = oracles.elimination_order_by_recount(g)
        assert invariants._sweep_schedule(g) \
            == (order, oracles.retire_masks(g, order)), g


# each capped function: a run under a Caps value, the field that bounds it,
# and the input's size on that field; the 2^n and 2^m loops run only for
# the classes that no sweep counts, and match_like is closed under isolated
# vertices, so its check enumerates up to order bound - 1
CAPPED = {
    "gen_ind": (lambda caps: gen_ind(
        path_graph(4), builtin("connected"), caps), "subset_n", 4),
    "gen_span": (lambda caps: gen_span(
        complete_graph(4), builtin("cycle_plus_isolated:3"), caps),
        "subset_m", 6),
    "gen_chromatic": (lambda caps: gen_chromatic(
        path_graph(4), builtin("connected"), caps), "partition_n", 4),
    "maximal_clique_profile": (lambda caps: maximal_clique_profile(
        path_graph(4), caps), "subset_n", 4),
    "enumerate_graphs": (lambda caps: enumerate_graphs(4, caps), "enum_n", 4),
    "graphs_up_to": (lambda caps: graphs_up_to(4, caps), "enum_n", 4),
    "check_closed_isolated": (lambda caps: check_closed_isolated(
        builtin("match_like"), 5, caps), "enum_n", 4),
}


@pytest.mark.parametrize("name", CAPPED)
def test_caps_bound_each_capped_function(name):
    run, field, size = CAPPED[name]
    with pytest.raises(CapError, match=f"capped at [nm] <= {size - 1}, "
                                       f"got {size}"):
        run(Caps(**{field: size - 1}))
    run(Caps(**{field: size}))


@pytest.mark.parametrize("spec", ["ladder:8", "grid:3x4", "wheel:9",
                                  "cbipartite:3x4"])
def test_frontier_sweeps_ignore_vertex_labels(spec):
    # a relabelling changes the elimination order, so every transition set
    # of the frontier engine runs on another schedule
    forest, connected = builtin("forest"), builtin("connected")

    def sweeps(h):
        return (chromatic(h), tutte(h), independence(h), dominating(h),
                matching_numbers(h), gen_ind(h, forest),
                gen_span(h, connected))

    g = make_family(parse_family_spec(spec))
    expect = sweeps(g)
    rng = random.Random(spec)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert sweeps(oracles.relabel(g, perm)) == expect


class TestDominating:
    def test_fixtures(self):
        assert dominating(complete_graph(2)) == UniPoly([0, 2, 1])
        assert dominating(empty_graph(2)) == UniPoly([0, 0, 1])
        assert dominating(path_graph(3)) == UniPoly([0, 1, 3, 1])

    def test_never_counts_empty_set(self):
        for g in enumerate_graphs(4):
            p = dominating(g)
            assert p.coefficient(0) == 0
            assert p.coefficient(g.n) == 1

    def test_matches_subset_scan(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                expect = oracles.dominating_sets_by_size(g)
                assert dominating(g) == UniPoly(expect), g

    def test_cycle_recurrence(self):
        # Kotek et al. 2012: D(C_n) = X (D(C_(n-1)) + D(C_(n-2)) + D(C_(n-3)))
        d = [dominating(cycle_graph(n)) for n in (3, 4, 5)]
        for n in range(6, 31):
            d.append(X * (d[-1] + d[-2] + d[-3]))
            assert dominating(cycle_graph(n)) == d[-1]


class TestMaximalCliques:
    def test_fixtures(self):
        assert maximal_clique_profile(complete_graph(4)) \
            == UniPoly.monomial(4)
        assert maximal_clique_profile(path_graph(3)) == UniPoly.monomial(2, 2)
        assert maximal_clique_profile(empty_graph(3)) == UniPoly.monomial(1, 3)

    def test_clique_deeper_than_the_recursion_limit(self):
        # K_n nests n deep, past the default recursion limit of 1000
        profile = maximal_clique_profile(complete_graph(1024),
                                         Caps(subset_n=1024))
        assert profile == UniPoly.monomial(1024)

    def test_against_subset_scan(self):
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                prof = maximal_clique_profile(g)
                ref = oracles.maximal_cliques_by_size(g)
                mine = {i: prof.coefficient(i) for i in range(g.n + 1)
                        if prof.coefficient(i)}
                assert mine == ref


class TestPolyKinds:
    def test_parse_and_label_round_trip(self):
        for text in ("char", "charL", "mu", "mgen", "chrom", "indep", "dom",
                     "maxcl", "tutte", "ind:connected", "span:match",
                     "genchrom:cycle:3"):
            pk = parse_poly_kind(text)
            assert parse_poly_kind(pk.label()) == pk

    def test_property_requirements(self):
        with pytest.raises(InputError):
            parse_poly_kind("ind")
        with pytest.raises(InputError):
            parse_poly_kind("char:connected")
        with pytest.raises(InputError):
            parse_poly_kind("det")

    def test_dispatch(self):
        g = cycle_graph(3)
        assert compute_poly(parse_poly_kind("chrom"), g) == chromatic(g)
        assert compute_poly(parse_poly_kind("tutte"), g) == tutte(g)
        assert compute_poly(parse_poly_kind("span:match"), g) \
            == matching_generating(g)
        assert compute_poly(parse_poly_kind("charL"), g) \
            == char_poly(g, "laplacian")


@pytest.mark.parametrize("kind", sorted(invariants._KINDS))
def test_coefficients_in_normal_form_on_every_class_to_order_6(kind):
    takes_property = invariants._KINDS[kind][0]
    labels = [f"{kind}:{name}" for name in ("connected", "edgeless")] \
        if takes_property else [kind]
    for label in labels:
        pk = parse_poly_kind(label)
        for g in graphs_up_to(6):
            p = compute_poly(pk, g)
            coeffs = [c for row in p.grid for c in row] \
                if isinstance(p, BiPoly) else p.coeffs
            assert all(oracles.is_normal(c) for c in coeffs), (label, g)
