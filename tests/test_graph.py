"""Graph construction, families, isomorphism, and enumeration."""

import random
import re

import pytest

import oracles
from oracles import complement_graph
from graphpoly.errors import CapError, InputError
from graphpoly.graph import (
    CANON_WIDTH,
    FAMILIES,
    MAX_ORDER,
    FamilySpec,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_count,
    edge_list,
    empty_graph,
    enumerate_graphs,
    family_label,
    family_member,
    family_note,
    format_graph,
    graphs_up_to,
    grid_graph,
    is_isomorphic,
    make_family,
    make_graph,
    parse_family_spec,
    parse_graph,
    path_graph,
    signature,
    similar,
    tailed_cycle,
    wheel_graph,
)

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def fam(text):
    return make_family(parse_family_spec(text))


class TestConstruction:
    def test_make_graph_sorts_edges(self):
        g = make_graph(3, [(2, 1), (0, 1)])
        assert edge_list(g) == [(0, 1), (1, 2)]

    def test_rejects_loops(self):
        with pytest.raises(InputError):
            make_graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            make_graph(2, [(0, 2)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(InputError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_needs_positive_order(self):
        with pytest.raises(InputError):
            make_graph(0, [])

    def test_adjacency_symmetric_and_irreflexive(self):
        g = make_graph(4, [(0, 2), (1, 3)])
        for u in range(4):
            assert not oracles.has_edge(g, u, u)
            for v in range(4):
                assert oracles.has_edge(g, u, v) == oracles.has_edge(g, v, u)


class TestFileFormat:
    def test_round_trip(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_graph(format_graph(g)) == g

    def test_blank_lines_ignored(self):
        g = parse_graph("3 2\n\n0 1\n\n1 2\n")
        assert edge_list(g) == [(0, 1), (1, 2)]

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError):
            parse_graph("3 2\n0 1\n")

    def test_endpoints_must_be_increasing(self):
        with pytest.raises(InputError):
            parse_graph("3 1\n1 0\n")


class TestFamilies:
    def test_signatures_match_size_formulas(self):
        cases = [
            ("path:7", (7, 6, 1)),
            ("cycle:7", (7, 7, 1)),
            ("clique:6", (6, 15, 1)),
            ("wheel:5", (6, 10, 1)),
            ("ladder:5", (10, 15, 1)),
            ("mobius:5", (10, 15, 1)),
            ("cyclesq:7", (7, 14, 1)),
            ("grid:3x4", (12, 17, 1)),
            ("cbipartite:2,3", (5, 6, 1)),
            ("empty:4", (4, 0, 4)),
        ]
        for text, expect in cases:
            s = signature(fam(text))
            assert (s.n, s.m, s.k) == expect, text

    def test_index_bounds(self):
        for bad in ("path:0", "cycle:2", "wheel:2", "ladder:2", "mobius:1",
                    "cyclesq:2", "clique:0", "empty:0", "grid:0x3",
                    "cbipartite:2,-1", "grid:-40x-40"):
            with pytest.raises(InputError):
                fam(bad)

    def test_small_wheel_is_complete(self):
        assert is_isomorphic(fam("wheel:3"), complete_graph(4))

    def test_small_mobius_is_complete(self):
        assert is_isomorphic(fam("mobius:2"), complete_graph(4))

    def test_degenerate_cyclesq_flagged(self):
        assert is_isomorphic(fam("cyclesq:4"), complete_graph(4))
        assert family_note(parse_family_spec("cyclesq:4"))
        assert not family_note(parse_family_spec("cyclesq:5"))

    def test_disjoint_union_spec(self):
        g = fam("du(cycle:3,cycle:3)")
        s = signature(g)
        assert (s.n, s.m, s.k) == (6, 6, 2)

    def test_family_label_round_trip(self):
        assert family_label(parse_family_spec("grid:3x4")) == "grid:3x4"
        assert family_label(parse_family_spec("du(cycle:3,path:2)")) \
            == "du(cycle:3,path:2)"

    def test_unknown_family(self):
        with pytest.raises(InputError):
            parse_family_spec("torus:5")

    def test_cycle_vertices_in_circular_order(self):
        assert edge_list(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_tailed_cycle_shape(self):
        g = tailed_cycle(5)
        assert g.n == 5 and edge_count(g) == 5
        assert sorted(oracles.degrees(g)) == [1, 2, 2, 2, 3]

    def test_tailed_cycle_needs_room_for_the_cycle(self):
        with pytest.raises(InputError):
            tailed_cycle(3)


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_order_and_label_round_trip(self, name):
        row = FAMILIES[name]
        for k in range(row.least, row.least + 4):
            spec = FamilySpec(name, (k,) * row.arity)
            assert row.order(*spec.params) == make_family(spec).n
            assert parse_family_spec(family_label(spec)) == spec

    def test_member_runs_along_the_diagonal(self):
        assert is_isomorphic(family_member("cbipartite", 3),
                             complete_bipartite(3, 3))
        assert is_isomorphic(family_member("grid", 3), grid_graph(3, 3))
        assert is_isomorphic(family_member("wheel", 5), fam("wheel:5"))


class TestOrderBound:
    def test_graph_header_over_the_bound(self):
        with pytest.raises(CapError, match=f"{MAX_ORDER + 1}.*{MAX_ORDER}"):
            parse_graph(f"{MAX_ORDER + 1} 0\n")
        assert parse_graph(f"{MAX_ORDER} 0\n").n == MAX_ORDER

    def test_family_over_the_bound(self):
        for text, n in ((f"path:{MAX_ORDER + 1}", MAX_ORDER + 1),
                        ("grid:33x32", 33 * 32),
                        (f"ladder:{MAX_ORDER // 2 + 1}", MAX_ORDER + 2),
                        (f"du(path:{MAX_ORDER},path:1)", MAX_ORDER + 1)):
            with pytest.raises(CapError, match=f"order {n}, .*{MAX_ORDER}"):
                fam(text)


class TestSurgery:
    def test_complement_involution(self):
        for g in enumerate_graphs(4):
            assert complement_graph(complement_graph(g)) == g
        g = complete_graph(4)
        assert edge_count(complement_graph(g)) == 0

    def test_disjoint_union_counts(self):
        g = disjoint_union([cycle_graph(3), path_graph(2)])
        s = signature(g)
        assert (s.n, s.m, s.k) == (5, 4, 2)

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        h = oracles.induced_subgraph(g, [0, 1, 2])
        assert edge_list(h) == [(0, 1), (1, 2)]


class TestIsomorphism:
    def test_relabel_preserves_class(self):
        rng = random.Random(6)
        for n in (2, 3, 4, 5):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                assert is_isomorphic(g, oracles.relabel(g, perm))

    def test_canonical_iff_isomorphic(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4, 5):
            classes = enumerate_graphs(n)
            canons = [canonical_form(g) for g in classes]
            assert len(set(canons)) == len(canons)
            for g, c in zip(classes, canons):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(oracles.relabel(g, perm)) == c

    def test_canonical_form_matches_depth_first_oracle(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert canonical_form(g) == oracles.canonical_form_dfs(g)

    def test_canonical_form_of_relabellings_matches_oracle(self):
        rng = random.Random(9)
        extremes = [empty_graph(7), complete_graph(7), complete_bipartite(1, 6),
                    complete_bipartite(3, 4),
                    disjoint_union([complete_graph(2)] * 3 + [empty_graph(1)])]
        # past the enumeration order: canonical_form has no order cap
        extremes += [fam(spec) for spec in ("ladder:4", "mobius:4", "cyclesq:8",
                                            "grid:3x3", "wheel:8")]
        for g in graphs_up_to(6) + extremes:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = oracles.relabel(g, perm)
            assert canonical_form(h) == oracles.canonical_form_dfs(h) \
                == canonical_form(g)

    def test_canonical_form_of_every_extension_matches_oracle(self):
        # every one-vertex extension of every class to order 6: a superset
        # of the graphs enumeration keys, twin-skipped masks included
        for n in range(1, 6):
            for base in enumerate_graphs(n):
                for mask in range(1 << n):
                    g = oracles._extend_by_vertex(base, mask)
                    assert canonical_form(g) == oracles.canonical_form_dfs(g)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_canonical_form_of_random_graphs_matches_oracle(self, density):
        rng = random.Random(f"canonical {density}")
        for n in range(8, 12):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = make_graph(n, [e for e in pairs if rng.random() < density])
            perm = list(range(n))
            rng.shuffle(perm)
            h = oracles.relabel(g, perm)
            assert canonical_form(g) == oracles.canonical_form_dfs(g) \
                == canonical_form(h) == oracles.canonical_form_dfs(h)

    def test_is_isomorphic_agrees_with_search_oracle(self):
        classes = graphs_up_to(6)
        for i, g in enumerate(classes):
            for h in classes[i:]:
                assert is_isomorphic(g, h) == (g is h) \
                    == oracles.isomorphic_by_search(g, h)
        rng = random.Random(10)
        for n in range(1, 6):
            same_order = enumerate_graphs(n)
            for g in same_order:
                perm = list(range(n))
                rng.shuffle(perm)
                h = oracles.relabel(g, perm)
                for c in same_order:
                    assert is_isomorphic(h, c) == (c is g) \
                        == oracles.isomorphic_by_search(h, c)

    def test_canonical_search_width_bound(self):
        with pytest.raises(CapError) as exc:
            canonical_form(cycle_graph(20))
        found = re.fullmatch(r"canonical form search reached (\d+) partial "
                             r"orders at step (\d+) of 19, over the bound "
                             r"of (\d+)", str(exc.value))
        assert found, str(exc.value)
        assert int(found[1]) > CANON_WIDTH == int(found[3])
        assert 1 <= int(found[2]) <= 19
        # is_isomorphic compares canonical forms, so it shares the bound
        with pytest.raises(CapError, match="canonical form search"):
            is_isomorphic(cycle_graph(20), cycle_graph(20))

    @pytest.mark.parametrize("spec, step, of", [("cycle:20", 4, 19),
                                                ("ladder:10", 4, 19),
                                                ("path:30", 3, 29)])
    def test_canonical_search_width_message(self, spec, step, of):
        # the bound is checked after every partial order a level keeps, so
        # the count that trips it is exactly one past CANON_WIDTH
        with pytest.raises(CapError) as exc:
            canonical_form(fam(spec))
        assert str(exc.value) == (
            f"canonical form search reached 100001 partial orders at step "
            f"{step} of {of}, over the bound of 100000")

    def test_signature_isomorphism_invariant(self):
        rng = random.Random(8)
        for g in enumerate_graphs(5):
            perm = list(range(5))
            rng.shuffle(perm)
            assert signature(g) == signature(oracles.relabel(g, perm))

    def test_similar_uses_vertex_edge_component_counts(self):
        star = complete_bipartite(1, 3)
        assert similar(path_graph(4), star)
        assert not is_isomorphic(path_graph(4), star)
        assert not similar(path_graph(4), cycle_graph(4))


class TestEnumeration:
    def test_class_counts(self):
        for n, count in CLASS_COUNTS.items():
            assert len(enumerate_graphs(n)) == count, n

    def test_matches_bucket_and_dedupe_oracle(self):
        # same representatives, same labels, same order
        for n in range(1, 8):
            assert enumerate_graphs(n) == oracles.enumerate_classes(n), n

    def test_graphs_up_to_needs_a_positive_bound(self):
        for bound in (0, -3):
            with pytest.raises(InputError):
                graphs_up_to(bound)

    def test_deterministic(self):
        assert enumerate_graphs(5) == enumerate_graphs(5)

    def test_pairwise_non_isomorphic(self):
        classes = enumerate_graphs(4)
        for i, g in enumerate(classes):
            for h in classes[i + 1:]:
                assert not oracles.isomorphic_by_search(g, h)

    def test_cap(self):
        with pytest.raises(CapError):
            enumerate_graphs(8)

    def test_graphs_up_to_is_ordered_by_n(self):
        gs = graphs_up_to(4)
        assert len(gs) == 1 + 2 + 4 + 11
        assert [g.n for g in gs] == sorted(g.n for g in gs)


class TestGridFamily:
    def test_grid_edges(self):
        g = grid_graph(2, 3)
        assert g.n == 6 and edge_count(g) == 7

    def test_grid_one_by_n_is_path(self):
        assert is_isomorphic(grid_graph(1, 4), path_graph(4))
