"""Fitting, verifying, and extending C-finite recurrences for polynomial sequences."""

from fractions import Fraction

import pytest

import oracles
from oracles import extend, verify
from graphpoly.errors import InputError
from graphpoly.graph import complete_bipartite, grid_graph
from graphpoly.invariants import char_poly, parse_poly_kind
from graphpoly.orthopoly import chebyshev_t, chebyshev_u
from graphpoly.poly import UniPoly
from graphpoly.recurrence import (
    RecurrenceSpec,
    family_sequence,
    fit,
    parse_family_range,
)

X = UniPoly.x()


def char_seq(family, lo, hi):
    return family_sequence(parse_poly_kind("char"), family, lo, hi)


def chrom_seq(family, lo, hi):
    return family_sequence(parse_poly_kind("chrom"), family, lo, hi)


def geometric_one_plus_x(count):
    base = UniPoly([1, 1])
    terms = []
    cur = base
    for _ in range(count):
        terms.append(cur)
        cur = cur * base
    return tuple(terms)


class TestFit:
    def test_path_characteristic(self):
        spec = fit(char_seq("path", 1, 12), max_order=3, max_deg=2)
        assert spec is not None
        assert spec.order == 2
        assert spec.coefficients == (UniPoly([-1]), X)

    def test_cycle_chromatic(self):
        spec = fit(chrom_seq("cycle", 3, 14), max_order=3, max_deg=2)
        assert spec.order == 2
        assert spec.coefficients == (UniPoly([-1, 1]), UniPoly([-2, 1]))

    def test_constant_sequence(self):
        spec = fit((UniPoly.one(),) * 8, max_order=2, max_deg=1)
        assert spec.order == 1
        assert spec.coefficients == (UniPoly.one(),)

    def test_geometric(self):
        spec = fit(geometric_one_plus_x(8), max_order=2, max_deg=2)
        assert spec.order == 1
        assert spec.coefficients == (UniPoly([1, 1]),)

    def test_rediscovers_chebyshev_recurrence(self):
        for gen in (chebyshev_t, chebyshev_u):
            spec = fit(tuple(gen(n) for n in range(10)), max_order=3,
                       max_deg=2)
            assert spec.order == 2
            assert spec.coefficients == (UniPoly([-1]), UniPoly([0, 2]))

    def test_rational_coefficients_in_normal_form(self):
        # p_n = 2^(10-n) (1 + X): integral terms, p_{n+1} = p_n / 2
        terms = tuple(UniPoly([2 ** (10 - n)] * 2) for n in range(10))
        spec = fit(terms, max_order=2, max_deg=1)
        assert spec.coefficients == (UniPoly([Fraction(1, 2)]),)
        for f in spec.coefficients + spec.seeds:
            assert all(oracles.is_normal(c) for c in f.coeffs)
        assert all(oracles.is_normal(c)
                   for t in extend(spec, 12) for c in t.coeffs)

    def test_clique_chromatic_not_c_finite_at_small_bounds(self):
        assert fit(chrom_seq("clique", 1, 14), max_order=4, max_deg=4) is None

    def test_clique_characteristic_double_root(self):
        spec = fit(char_seq("clique", 1, 12), max_order=2, max_deg=2)
        assert spec.order == 2
        f0, f1 = spec.coefficients
        assert f0 == UniPoly([-1, -2, -1])  # -(X+1)^2
        assert f1 == UniPoly([2, 2])        # 2(X+1)

    def test_clique_defect_not_c_finite_at_small_bounds(self):
        seq = family_sequence(parse_poly_kind("mu"), "clique", 1, 12)
        assert fit(seq, max_order=2, max_deg=1) is None
        assert fit(seq, max_order=3, max_deg=2) is None

    def test_too_few_terms(self):
        seq = char_seq("path", 1, 6)
        with pytest.raises(InputError, match="at least"):
            fit(seq, max_order=3, max_deg=2)

    def test_holdout_counts_toward_the_terms_needed(self):
        # fit needs max_order + max_deg + holdout + 1 terms, so that every
        # cell keeps a training window: 18 terms allow a holdout of 14
        seq = chrom_seq("cycle", 3, 20)
        assert fit(seq, max_order=2, max_deg=1, holdout=14) is not None
        for holdout in (15, 30):
            with pytest.raises(InputError, match=f"holdout {holdout} needs"):
                fit(seq, max_order=2, max_deg=1, holdout=holdout)

    def test_bad_bounds(self):
        seq = char_seq("path", 1, 12)
        with pytest.raises(InputError):
            fit(seq, max_order=0, max_deg=1)
        with pytest.raises(InputError):
            fit(seq, max_order=2, max_deg=-1)


class TestSoundnessAndMinimality:
    def test_returned_spec_verifies_everywhere(self):
        cases = [
            (char_seq("path", 1, 14), 3, 2),
            (chrom_seq("cycle", 3, 15), 3, 2),
            (char_seq("cycle", 3, 16), 4, 2),
            (chrom_seq("wheel", 3, 14), 4, 4),
        ]
        for seq, q_max, d_max in cases:
            spec = fit(seq, q_max, d_max)
            assert spec is not None
            assert verify(spec, seq)

    def test_lexicographic_minimality(self):
        seq = char_seq("path", 1, 12)
        found = fit(seq, 3, 2)
        assert (found.order, 1) == (2, 1)
        # no smaller cell admits a verifying recurrence
        assert fit(seq, 1, 2) is None
        smaller_d = fit(seq, 2, 0)
        assert smaller_d is None

    def test_closure_under_sum(self):
        pa = char_seq("path", 3, 16)
        pb = char_seq("cycle", 3, 16)
        fa = fit(pa, 2, 1)
        fb = fit(pb, 3, 1)
        assert fa.order == 2 and fb.order == 3
        summed = tuple(a + b for a, b in zip(pa, pb))
        fs = fit(summed, fa.order + fb.order, max(1, 1))
        assert fs is not None
        assert verify(fs, summed)

    def test_complement_transfer_on_paths(self):
        # induced 3-cycles never occur in paths, so one side is the zero
        # sequence and the other is (1+X)^n shifted by it; both must fit.
        from graphpoly.invariants import gen_ind
        from graphpoly.graph import path_graph
        from graphpoly.properties import builtin, complement_property
        c = builtin("cycle_exactly:3")
        terms = tuple(gen_ind(path_graph(n), c) for n in range(1, 10))
        comp_terms = tuple(gen_ind(path_graph(n), complement_property(c))
                           for n in range(1, 10))
        direct = fit(terms, 1, 2)
        comp = fit(comp_terms, 1, 2)
        assert direct is not None
        assert comp is not None
        assert comp.coefficients == (UniPoly([1, 1]),)


class TestVerify:
    def test_perturbed_coefficient_fails(self):
        seq = char_seq("path", 1, 12)
        spec = fit(seq, 2, 1)
        broken = RecurrenceSpec(
            order=spec.order,
            coefficients=(spec.coefficients[0] + UniPoly.one(),
                          spec.coefficients[1]),
            seeds=spec.seeds,
            degree_bound=spec.degree_bound)
        assert verify(spec, seq)
        assert not verify(broken, seq)

    def test_chebyshev_relation(self):
        spec = RecurrenceSpec(
            order=2,
            coefficients=(UniPoly([-1]), UniPoly([0, 2])),
            seeds=(chebyshev_t(0), chebyshev_t(1)),
            degree_bound=1)
        t_seq = tuple(chebyshev_t(n) for n in range(10))
        u_seq = tuple(chebyshev_u(n) for n in range(10))
        assert verify(spec, t_seq)
        u_spec = RecurrenceSpec(
            order=2,
            coefficients=(UniPoly([-1]), UniPoly([0, 2])),
            seeds=(chebyshev_u(0), chebyshev_u(1)),
            degree_bound=1)
        assert verify(u_spec, u_seq)

    def test_needs_more_terms_than_order(self):
        spec = RecurrenceSpec(order=2, coefficients=(UniPoly([-1]), X),
                              seeds=(UniPoly.one(), X), degree_bound=1)
        with pytest.raises(InputError):
            verify(spec, (UniPoly.one(),))


class TestExtend:
    def test_chebyshev_terms(self):
        spec = RecurrenceSpec(
            order=2,
            coefficients=(UniPoly([-1]), UniPoly([0, 2])),
            seeds=(chebyshev_t(0), chebyshev_t(1)),
            degree_bound=1)
        out = extend(spec, 3)
        assert len(out) == 5
        assert out[2:] == tuple(chebyshev_t(n) for n in (2, 3, 4))

    def test_zero_count_returns_seeds(self):
        spec = RecurrenceSpec(order=1, coefficients=(UniPoly.one(),),
                              seeds=(UniPoly.one(),), degree_bound=0)
        assert extend(spec, 0) == spec.seeds

    def test_path_characteristic_regenerates(self):
        seq = char_seq("path", 1, 12)
        spec = fit(seq, 2, 1)
        assert extend(spec, 6)[:8] == seq[:8]

    def test_negative_count(self):
        spec = RecurrenceSpec(order=1, coefficients=(UniPoly.one(),),
                              seeds=(UniPoly.one(),), degree_bound=0)
        with pytest.raises(InputError):
            extend(spec, -1)


class TestFamilyPlumbing:
    def test_parse_family_range(self):
        assert parse_family_range("cycle:3..14") == ("cycle", 3, 14)
        for bad in ("cycle", "cycle:5", "cycle:9..3", "cycle:a..b"):
            with pytest.raises(InputError):
                parse_family_range(bad)

    def test_sequence_length(self):
        seq = family_sequence(parse_poly_kind("char"), "path", 1, 8)
        assert len(seq) == 8

    def test_two_index_families_run_along_the_diagonal(self):
        assert char_seq("cbipartite", 1, 4) == tuple(
            char_poly(complete_bipartite(k, k)) for k in range(1, 5))
        assert char_seq("grid", 2, 3) == (char_poly(grid_graph(2, 2)),
                                          char_poly(grid_graph(3, 3)))

    def test_bivariate_kind_rejected(self):
        with pytest.raises(InputError):
            family_sequence(parse_poly_kind("tutte"), "path", 1, 8)

    def test_fit_of_a_family_sequence(self):
        terms = family_sequence(parse_poly_kind("char"), "cycle", 3, 14)
        spec = fit(terms, 3, 2)
        assert spec is not None
        assert spec.order == 3
        assert verify(spec, terms)
        absent = family_sequence(parse_poly_kind("mu"), "clique", 1, 12)
        assert fit(absent, 2, 1) is None

    def test_fit_family_index_bounds_propagate(self):
        with pytest.raises(InputError):
            family_sequence(parse_poly_kind("char"), "cycle", 1, 12)
