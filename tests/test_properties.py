"""Builtin graph properties, the DSL, complements, and closure checks."""

import random
import re

import pytest

import oracles
from graphpoly.errors import InputError
from graphpoly.graph import (
    bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    graphs_up_to,
    path_graph,
)
from graphpoly.properties import (
    builtin,
    check_closed_isolated,
    complement_property,
    parse_property,
)

BUILTIN_NAMES = [
    "edgeless", "clique", "connected", "disconnected", "forest",
    "match_like", "only_K1", "pair_K2_E2", "triple_K1_K2_E2",
    "cycle_exactly:3", "cycle_plus_isolated:3",
]
SHORT_FORMS = {
    "match": "match_like",
    "set(K1)": "only_K1",
    "set(K2,E2)": "pair_K2_E2",
    "set(K1,K2,E2)": "triple_K1_K2_E2",
    "cycle:4": "cycle_exactly:4",
    "cycleE:4": "cycle_plus_isolated:4",
}


class TestFixtures:
    def test_forest(self):
        forest = builtin("forest")
        assert forest.holds(path_graph(4))
        assert not forest.holds(cycle_graph(4))
        assert forest.holds(empty_graph(3))

    def test_clique(self):
        clique = builtin("clique")
        assert clique.holds(complete_graph(1))
        assert clique.holds(complete_graph(4))
        assert not clique.holds(path_graph(3))

    def test_connectivity_of_k1(self):
        assert builtin("connected").holds(complete_graph(1))
        assert not builtin("disconnected").holds(complete_graph(1))

    def test_match_like(self):
        ml = builtin("match_like")
        assert ml.holds(disjoint_union([complete_graph(2), empty_graph(1)]))
        assert not ml.holds(path_graph(3))

    def test_cycle_exactly(self):
        c3 = builtin("cycle_exactly:3")
        assert c3.holds(cycle_graph(3))
        assert not c3.holds(disjoint_union([cycle_graph(3), empty_graph(1)]))
        assert not c3.holds(cycle_graph(4))

    def test_cycle_plus_isolated(self):
        c3e = builtin("cycle_plus_isolated:3")
        assert c3e.holds(cycle_graph(3))
        assert c3e.holds(disjoint_union([cycle_graph(3), empty_graph(2)]))
        assert not c3e.holds(cycle_graph(4))
        assert not c3e.holds(
            disjoint_union([cycle_graph(3), complete_graph(2)]))

    def test_small_set_properties(self):
        assert builtin("only_K1").holds(complete_graph(1))
        assert not builtin("only_K1").holds(complete_graph(2))
        assert builtin("pair_K2_E2").holds(empty_graph(2))
        assert builtin("pair_K2_E2").holds(complete_graph(2))
        assert not builtin("pair_K2_E2").holds(empty_graph(1))
        assert builtin("triple_K1_K2_E2").holds(empty_graph(1))

    def test_contains_null_defaults(self):
        assert builtin("edgeless").contains_null
        for name in BUILTIN_NAMES:
            if name != "edgeless":
                assert not builtin(name).contains_null, name


class TestDsl:
    def test_aliases(self):
        assert parse_property("match").name == "match_like"
        assert parse_property("set(K1)").name == "only_K1"
        assert parse_property("set(K2,E2)").name == "pair_K2_E2"
        assert parse_property("set(K1,K2,E2)").name == "triple_K1_K2_E2"

    def test_cycle_short_forms(self):
        assert parse_property("cycle:5").name == "cycle_exactly:5"
        assert parse_property("cycleE:5").name == "cycle_plus_isolated:5"

    def test_negation(self):
        c = parse_property("not(connected)")
        assert c.name == "not(connected)"
        assert c.holds(empty_graph(2))
        assert not c.holds(path_graph(2))
        assert c.contains_null

    def test_unknown_name(self):
        with pytest.raises(InputError):
            parse_property("planar")

    def test_bad_cycle_index(self):
        with pytest.raises(InputError):
            parse_property("cycle:2")


class TestTable:
    def test_short_forms_resolve_to_their_row(self):
        for short, name in SHORT_FORMS.items():
            row = builtin(name)
            for c in (builtin(short), parse_property(short)):
                assert (c.name, c.contains_null) == (name, row.contains_null)
                if ":" not in name:
                    assert c.predicate is row.predicate

    @pytest.mark.parametrize("text,message", [
        ("planar", "unknown property 'planar'"),
        ("edgeless:3", "unknown property 'edgeless:3'"),
        ("cycle:2", "cycle properties need length >= 3, got 2"),
        ("cycleE:x", "bad cycle length 'x'"),
        ("cycle_exactly:", "bad cycle length ''"),
    ])
    def test_errors(self, text, message):
        for parse in (builtin, parse_property):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                parse(text)


class TestMaskPredicates:
    def test_every_mask_agrees_with_the_graph_oracle(self):
        # holds(g, mask) decides the graph that mask induces in g
        cases = []
        for name in BUILTIN_NAMES + ["cycle_exactly:4", "cycle_plus_isolated:4"]:
            c = builtin(name)
            cases.append((c, complement_property(c),
                          oracles.property_oracle(name)))
        for g in graphs_up_to(6):
            for mask in range(1, 1 << g.n):
                h = oracles.induced_subgraph(g, bits(mask))
                for c, notc, oracle in cases:
                    expect = oracle(h)
                    assert c.holds(g, mask) == expect, (c.name, g, mask)
                    assert notc.holds(g, mask) != expect, (c.name, g, mask)


class TestComplement:
    def test_pointwise_negation_everywhere(self):
        props = [builtin(name) for name in BUILTIN_NAMES]
        for n in (1, 2, 3, 4, 5):
            for g in enumerate_graphs(n):
                for c in props:
                    assert c.holds(g) != complement_property(c).holds(g)

    def test_disconnected_is_complement_of_connected(self):
        notc = complement_property(builtin("connected"))
        disc = builtin("disconnected")
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert notc.holds(g) == disc.holds(g)

    def test_complement_flips_null_flag(self):
        c = complement_property(builtin("edgeless"))
        assert not c.contains_null


class TestIsomorphismInvariance:
    def test_predicates_ignore_labels(self):
        rng = random.Random(9)
        props = [builtin(name) for name in BUILTIN_NAMES]
        for n in (2, 3, 4, 5):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = oracles.relabel(g, perm)
                for c in props:
                    assert c.holds(g) == c.holds(h), c.name


class TestClosure:
    def test_match_like_closed(self):
        assert check_closed_isolated(builtin("match_like"), bound=6) is None

    def test_cycle_exactly_not_closed(self):
        witness = check_closed_isolated(builtin("cycle_exactly:3"), bound=6)
        assert witness is not None
        assert witness.n == 3

    def test_cycle_plus_isolated_closed(self):
        assert check_closed_isolated(
            builtin("cycle_plus_isolated:3"), bound=6) is None

    def test_connected_not_closed(self):
        witness = check_closed_isolated(builtin("connected"), bound=6)
        assert witness is not None
        assert witness.n == 1
