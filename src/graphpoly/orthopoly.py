"""Classical orthogonal polynomial families over exact rationals.

Each generator follows the standard three-term recurrence:

* Chebyshev T:  T_0 = 1, T_1 = X,  T_{n+1} = 2 X T_n - T_{n-1}
* Chebyshev U:  U_0 = 1, U_1 = 2X, same recurrence as T
* Hermite He:   He_0 = 1, He_1 = X, He_{n+1} = X He_n - n He_{n-1}
  (the probabilist normalization, leading coefficient 1)
* Laguerre L:   L_0 = 1, L_1 = 1 - X,
  (n+1) L_{n+1} = (2n + 1 - X) L_n - n L_{n-1}

Laguerre coefficients are genuinely rational: L_2 = (X^2 - 4X + 2)/2.
Indices above graph.MAX_ORDER raise CapError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapError, InputError
from .graph import MAX_ORDER
from .poly import UniPoly


def _three_term(n: int, first: UniPoly, step) -> UniPoly:
    """p_n for p_0 = 1, p_1 = first and p_(k+1) = step(k, p_k, p_(k-1))."""
    if n < 0:
        raise InputError(f"polynomial index must be nonnegative, got {n}")
    if n > MAX_ORDER:
        raise CapError(
            f"polynomial index {n} is over the bound of {MAX_ORDER}")
    if n == 0:
        return UniPoly.one()
    prev, cur = UniPoly.one(), first
    for k in range(1, n):
        prev, cur = cur, step(k, cur, prev)
    return cur


def _chebyshev_step(k: int, p: UniPoly, q: UniPoly) -> UniPoly:
    return UniPoly([0, 2]) * p - q


def chebyshev_t(n: int) -> UniPoly:
    return _three_term(n, UniPoly.x(), _chebyshev_step)


def chebyshev_u(n: int) -> UniPoly:
    return _three_term(n, UniPoly([0, 2]), _chebyshev_step)


def hermite_he(n: int) -> UniPoly:
    return _three_term(n, UniPoly.x(), lambda k, p, q: UniPoly.x() * p - k * q)


def laguerre(n: int) -> UniPoly:
    return _three_term(n, UniPoly([1, -1]), lambda k, p, q: Fraction(1, k + 1)
                       * (UniPoly([2 * k + 1, -1]) * p - k * q))


_FAMILIES = {
    "T": chebyshev_t,
    "U": chebyshev_u,
    "He": hermite_he,
    "L": laguerre,
}


def ortho(family: str, n: int) -> UniPoly:
    """Look up a family by its conventional letter tag."""
    gen = _FAMILIES.get(family)
    if gen is None:
        raise InputError(
            f"unknown family {family!r}, expected one of {sorted(_FAMILIES)}")
    return gen(n)
