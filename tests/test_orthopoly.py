"""Chebyshev, Hermite, and Laguerre generators."""

from fractions import Fraction

import pytest

import oracles
from graphpoly.errors import CapError, InputError
from graphpoly.graph import MAX_ORDER
from graphpoly.orthopoly import chebyshev_t, chebyshev_u, hermite_he, laguerre, ortho
from graphpoly.poly import UniPoly


class TestChebyshevT:
    def test_fixtures(self):
        assert chebyshev_t(0) == UniPoly.one()
        assert chebyshev_t(1) == UniPoly.x()
        assert chebyshev_t(3) == UniPoly([0, -3, 0, 4])

    def test_recurrence_step(self):
        for n in range(2, 12):
            two_x = UniPoly([0, 2])
            assert chebyshev_t(n) \
                == two_x * chebyshev_t(n - 1) - chebyshev_t(n - 2)

    def test_parity(self):
        minus_x = UniPoly([0, -1])
        for n in range(8):
            t = chebyshev_t(n)
            assert t.substitute(minus_x) == (t if n % 2 == 0 else -t)


class TestChebyshevU:
    def test_fixtures(self):
        assert chebyshev_u(1) == UniPoly([0, 2])
        assert chebyshev_u(2) == UniPoly([-1, 0, 4])
        assert chebyshev_u(3) == UniPoly([0, -4, 0, 8])

    def test_leading_coefficient(self):
        for n in range(9):
            assert chebyshev_u(n).leading_coefficient() == 2 ** n


class TestHermite:
    def test_fixtures(self):
        assert hermite_he(2) == UniPoly([-1, 0, 1])
        assert hermite_he(3) == UniPoly([0, -3, 0, 1])
        assert hermite_he(4) == UniPoly([3, 0, -6, 0, 1])

    def test_monic(self):
        for n in range(10):
            assert hermite_he(n).leading_coefficient() == 1


class TestLaguerre:
    def test_fixtures(self):
        assert laguerre(1) == UniPoly([1, -1])
        assert laguerre(2) == UniPoly([1, -2, Fraction(1, 2)])
        assert laguerre(3) == UniPoly(
            [1, -3, Fraction(3, 2), Fraction(-1, 6)])

    def test_leading_coefficient(self):
        for n in range(8):
            expect = Fraction((-1) ** n, oracles.factorial(n))
            assert laguerre(n).leading_coefficient() == expect

    def test_closed_form(self):
        for n in range(8):
            assert tuple(laguerre(n).coeffs) == oracles.laguerre_closed(n)


class TestOrtho:
    def test_degrees(self):
        for tag, gen in (("T", chebyshev_t), ("U", chebyshev_u),
                         ("He", hermite_he), ("L", laguerre)):
            for n in range(7):
                p = ortho(tag, n)
                assert p == gen(n)
                assert p.degree == n

    def test_unknown_family(self):
        with pytest.raises(InputError):
            ortho("P", 3)

    def test_negative_index(self):
        with pytest.raises(InputError):
            ortho("T", -1)


@pytest.mark.parametrize("tag", ["He", "T", "U", "L"])
def test_coefficients_in_normal_form(tag):
    for n in range(13):
        assert all(oracles.is_normal(c) for c in ortho(tag, n).coeffs)


def test_index_over_the_order_bound():
    for gen in (chebyshev_t, chebyshev_u):
        with pytest.raises(CapError, match=f"{MAX_ORDER + 1}.*{MAX_ORDER}"):
            gen(MAX_ORDER + 1)
