"""Exact polynomial arithmetic, parsing, and linear algebra."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from graphpoly import poly
from graphpoly.errors import InputError
from graphpoly.poly import (
    MINUS_INFINITY,
    BiPoly,
    UniPoly,
    falling_to_monomial,
    int_char_poly,
    int_determinant,
    interpolate,
    solve_linear_exact,
)

X = UniPoly.x()


def rand_poly(rng, max_deg=4, span=6):
    return UniPoly([Fraction(rng.randint(-span, span), rng.randint(1, 3))
                    for _ in range(rng.randint(0, max_deg + 1))])


class TestUniPolyBasics:
    def test_zero_is_empty(self):
        assert UniPoly.zero().coeffs == ()
        assert UniPoly([0, 0, 0]).is_zero()
        assert UniPoly.zero().degree == MINUS_INFINITY

    def test_trailing_zeros_stripped(self):
        assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_degree_and_leading(self):
        p = UniPoly([2, 0, -4, 0, 1])
        assert p.degree == 4
        assert p.leading_coefficient() == 1
        assert p.coefficient(0) == 2
        assert p.coefficient(9) == 0

    def test_monomial(self):
        assert UniPoly.monomial(3).text() == "0 0 0 1"
        assert UniPoly.monomial(0, 5) == UniPoly([5])

    def test_evaluate(self):
        p = UniPoly([2, 0, -4, 0, 1])  # X^4 - 4X^2 + 2
        assert p.evaluate(0) == 2
        assert p.evaluate(2) == 2
        assert p.evaluate(Fraction(1, 2)) == Fraction(17, 16)

    def test_integer_coefficients_rejects_fractions(self):
        with pytest.raises(ValueError):
            UniPoly([Fraction(1, 2)]).integer_coefficients()


class TestNormalForm:
    def test_whole_fraction_is_an_int(self):
        p = UniPoly((Fraction(4, 2),))
        assert p == UniPoly((2,))
        assert hash(p) == hash(UniPoly((2,)))
        assert type(p.coeffs[0]) is int

    def test_parse_keeps_only_real_denominators(self):
        coeffs = UniPoly.parse("1/2 2/1").coeffs
        assert coeffs == (Fraction(1, 2), 2)
        assert [type(c) for c in coeffs] == [Fraction, int]

    def test_bools_become_ints(self):
        assert [type(c) for c in UniPoly((True, False, True)).coeffs] \
            == [int, int, int]

    def test_arithmetic_stays_normal(self):
        rng = random.Random(5)
        half = UniPoly([Fraction(1, 2), Fraction(-1, 2)])
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            for p in (a + b, a - b, a * b, a * 2, half * 2, a.substitute(b)):
                assert all(oracles.is_normal(c) for c in p.coeffs)
        assert (half * 2).coeffs == (1, -1)
        assert type(half.evaluate(1)) is int
        assert half.evaluate(2) == Fraction(-1, 2)
        assert type(UniPoly().coefficient(3)) is int

    def test_solution_is_normal(self):
        sol = solve_linear_exact([[2, 0], [0, 3]], [4, 1])
        assert sol == [2, Fraction(1, 3)]
        assert all(oracles.is_normal(c) for c in sol)

    def test_falling_expansion_against_falling_factorials(self):
        rng = random.Random(6)
        cases = [[rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
                 for _ in range(30)]
        cases.append([Fraction(1, 2), 3, Fraction(-2, 3)])
        for c in cases:
            mono = falling_to_monomial(c)
            assert all(oracles.is_normal(x) for x in mono.coeffs)
            for k in range(11):
                assert mono.evaluate(k) == sum(
                    cj * oracles.falling_value(k, j) for j, cj in enumerate(c))


class TestFloatRefusal:
    def test_constructor(self):
        with pytest.raises(TypeError):
            UniPoly((0.5, 1))
        with pytest.raises(TypeError):
            UniPoly.monomial(2, 1.0)

    def test_arithmetic(self):
        p = UniPoly((1, 2))
        for op in (lambda: p + 0.5, lambda: 0.5 + p, lambda: p - 0.5,
                   lambda: 0.5 - p, lambda: p * 0.5, lambda: 0.5 * p):
            with pytest.raises(TypeError):
                op()

    def test_evaluate(self):
        with pytest.raises(TypeError):
            UniPoly((1, 2)).evaluate(0.1)
        with pytest.raises(TypeError):
            BiPoly([[0, 1], [1]]).evaluate(0.5, 1)
        with pytest.raises(TypeError):
            BiPoly([[0, 1], [1]]).evaluate(1, 0.5)

    def test_linear_algebra(self):
        with pytest.raises(TypeError):
            solve_linear_exact([[0.5]], [1])
        with pytest.raises(TypeError):
            int_determinant([[0.5, 0], [0, 2]])
        with pytest.raises(TypeError):
            interpolate([0, 1], [0.1, 1])

    def test_bivariate_grid(self):
        with pytest.raises(TypeError):
            BiPoly([[0.5]])
        with pytest.raises(ValueError):
            BiPoly([[Fraction(1, 2)]])
        assert BiPoly([[Fraction(4, 2)]]).grid == ((2,),)


class TestTextFormat:
    def test_parse_ascending(self):
        assert UniPoly.parse("2 0 -4 0 1") == UniPoly([2, 0, -4, 0, 1])

    def test_rational_round_trip(self):
        text = "1 -3 3/2 -1/6"
        assert UniPoly.parse(text).text() == text

    def test_zero_prints_as_plain_zero(self):
        assert UniPoly.zero().text() == "0"
        assert UniPoly.parse("0").is_zero()

    def test_bad_token_rejected(self):
        with pytest.raises(InputError):
            UniPoly.parse("1 two 3")


class TestRingAxioms:
    def test_random_axioms(self):
        rng = random.Random(0)
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == UniPoly.zero()

    def test_substitute_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            p = rand_poly(rng)
            assert p.substitute(X) == p

    def test_substitute_scaling(self):
        p = UniPoly([0, -3, 0, 4])  # 4X^3 - 3X
        doubled = p.substitute(UniPoly([0, 2]))
        assert doubled == UniPoly([0, -6, 0, 32])


class TestFallingFactorial:
    def test_known_expansion(self):
        # X_(3) = X(X-1)(X-2)
        assert falling_to_monomial([0, 0, 0, 1]) == UniPoly([0, 2, -3, 1])

    def test_degree_preserved_and_linear(self):
        rng = random.Random(2)
        for _ in range(20):
            a = [rng.randint(-4, 4) for _ in range(5)]
            b = [rng.randint(-4, 4) for _ in range(5)]
            pa, pb = falling_to_monomial(a), falling_to_monomial(b)
            summed = falling_to_monomial([x + y for x, y in zip(a, b)])
            assert summed == pa + pb
        assert falling_to_monomial([0, 0, 1]).degree == 2

    def test_evaluation_round_trip(self):
        c = [1, 4, 2]
        mono = falling_to_monomial(c)
        for k in range(6):
            assert mono.evaluate(k) == sum(
                cj * math.perm(k, j) for j, cj in enumerate(c))

    def test_falling_value(self):
        # the basis element X_(j) evaluates to the falling factorial k_(j)
        assert falling_to_monomial([0, 0, 0, 1]).evaluate(5) == 60
        assert falling_to_monomial([0, 0, 0, 0, 1]).evaluate(2) == 0


class TestInterpolate:
    def test_recovers_polynomial(self):
        p = UniPoly([3, -1, 0, 2])
        xs = list(range(p.degree + 1))
        ys = [p.evaluate(x) for x in xs]
        assert interpolate(xs, ys) == p

    def test_constant(self):
        assert interpolate([0], [7]) == UniPoly([7])


class TestLinearAlgebra:
    def test_determinant_matches_permutation_expansion(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                mat = [[rng.randint(-5, 5) for _ in range(n)]
                       for _ in range(n)]
                assert int_determinant(mat) == oracles.perm_det(mat)

    def test_solve_exact(self):
        rows = [[2, 1], [1, 3]]
        rhs = [5, 10]
        sol = solve_linear_exact(rows, rhs)
        assert sol == [Fraction(1), Fraction(3)]

    def test_solve_residual_is_zero(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                    for _ in range(n + rng.randint(0, 2))]
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = [sum(r[i] * x[i] for i in range(n)) for r in rows]
            sol = solve_linear_exact(rows, rhs)
            assert sol is not None
            for r, b in zip(rows, rhs):
                assert sum(c * s for c, s in zip(r, sol)) == b

    def test_inconsistent_returns_none(self):
        assert solve_linear_exact([[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_zeroes_free_vars(self):
        sol = solve_linear_exact([[1, 1]], [3])
        assert sol is not None
        assert sum(sol) == 3
        assert sol.count(0) >= 1


class TestIntCharPoly:
    def test_matches_permutation_expansion(self):
        # sparse, signed and unsymmetric, so pivots are swapped in and
        # subdiagonal entries vanish
        rng = random.Random(4)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(12):
                mat = [[rng.choice((0, 0, 0, 1, -1, 3, -7))
                        for _ in range(n)] for _ in range(n)]
                assert tuple(int_char_poly(mat)) \
                    == oracles.perm_char_of_matrix(mat)

    def test_zero_and_identity(self):
        assert int_char_poly([[0] * 3 for _ in range(3)]) == [0, 0, 0, 1]
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert int_char_poly(eye) == [1, -4, 6, -4, 1]

    def test_non_square_is_an_input_error(self):
        with pytest.raises(InputError):
            int_char_poly([[1, 2], [3]])

    def test_moduli_are_the_largest_primes_below_2_to_61(self):
        moduli = [poly._modulus(i) for i in range(8)]
        assert moduli[0] == 2 ** 61 - 1
        assert all(a > b for a, b in zip(moduli, moduli[1:]))
        assert len(set(moduli)) == len(moduli)
        assert all(oracles.is_strong_probable_prime(p) for p in moduli)
        # and no prime is skipped between two of them
        for hi, lo in zip(moduli, moduli[1:]):
            assert not any(oracles.is_strong_probable_prime(c)
                           for c in range(lo + 1, hi))

    def test_primality_agrees_with_an_independent_check(self):
        for n in range(3000):
            assert poly._is_prime(n) == oracles.is_strong_probable_prime(n)
        # strong pseudoprimes to the bases 2..7 and 2..31
        for n in (3215031751, 3825123056546413051):
            assert not oracles.is_strong_probable_prime(n)
            assert not poly._is_prime(n)
        # the least strong pseudoprime to all of 2..37, where the library's
        # test stops being exact, far above the moduli
        psi12 = 318665857834031151167461
        assert not oracles.is_strong_probable_prime(psi12)
        assert poly._is_prime(psi12) and psi12 > 2 ** 78

    def test_lift_across_three_moduli(self, monkeypatch):
        # the Laplacian of K_40 has char poly X (X - 40)^39: coefficients of
        # both signs up to 2^200, past the product of two moduli
        n = 40
        rows = [[n - 1 if i == j else -1 for j in range(n)] for i in range(n)]
        residues = []
        real = poly._char_poly_mod

        def spy(rows, p):
            residues.append(p)
            return real(rows, p)

        monkeypatch.setattr(poly, "_char_poly_mod", spy)
        expected = [0] + [oracles.binom(n - 1, k) * (-n) ** (n - 1 - k)
                          for k in range(n)]
        assert int_char_poly(rows) == expected
        assert len(residues) >= 3
        assert min(expected) < -poly._modulus(0) * poly._modulus(1)


class TestBiPoly:
    def test_text_round_trip(self):
        p = BiPoly([[0, 1], [1], [1]])
        assert BiPoly.parse(p.text()) == p
        assert BiPoly().text() == "0"

    def test_trailing_rows_trimmed(self):
        assert BiPoly([[1], [0], [0]]) == BiPoly([[1]])

    def test_evaluate(self):
        p = BiPoly([[0, 1], [1], [1]])  # X^2 + X + Y
        assert p.evaluate(2, 3) == 9
