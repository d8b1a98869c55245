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


def _check_index(n: int) -> None:
    if n < 0:
        raise InputError(f"polynomial index must be nonnegative, got {n}")
    if n > MAX_ORDER:
        raise CapError(
            f"polynomial index {n} is over the bound of {MAX_ORDER}")


def chebyshev_t(n: int) -> UniPoly:
    _check_index(n)
    prev, cur = UniPoly.one(), UniPoly.x()
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, UniPoly([0, 2]) * cur - prev
    return cur


def chebyshev_u(n: int) -> UniPoly:
    _check_index(n)
    prev, cur = UniPoly.one(), UniPoly([0, 2])
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, UniPoly([0, 2]) * cur - prev
    return cur


def hermite_he(n: int) -> UniPoly:
    _check_index(n)
    prev, cur = UniPoly.one(), UniPoly.x()
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, UniPoly.x() * cur - k * prev
    return cur


def laguerre(n: int) -> UniPoly:
    _check_index(n)
    prev, cur = UniPoly.one(), UniPoly([1, -1])
    if n == 0:
        return prev
    for k in range(1, n):
        mid = UniPoly([2 * k + 1, -1]) * cur - k * prev
        prev, cur = cur, Fraction(1, k + 1) * mid
    return cur


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
