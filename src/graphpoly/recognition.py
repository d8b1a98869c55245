"""Recognition of graphs from polynomial values, plus identity suites.

Three entry points:

* brute_recognize scans isomorphism classes and keeps graphs whose
  polynomial equals the query exactly.  The characteristic, matching and
  chromatic kinds are monic of degree n, so the query's degree pins the
  order and the scan stays within a single order; other kinds need an
  explicit bound.  G is P-unique up to a bound B >= n(G) exactly when
  the scan of P(G) with bound B returns a single class.
* family_recognize counts up from the family's least index to the member
  whose order is the query's degree (two-index families run along their
  diagonal) and checks that member.  A hit means "equal polynomial
  value"; reading it as "isomorphic to the family member" additionally
  assumes the family is recognizable from this polynomial, and the
  result carries that assumption as a flag rather than a claim.
* identity_suite and chromatic_screen package the matching-polynomial
  identities against the classical orthogonal families and the cheap
  necessary conditions for chromatic values.  A failed screen check
  certifies the input is no chromatic polynomial; passes certify nothing.
  Both return their reports as the JSON dicts the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .caps import Caps, DEFAULT_CAPS
from .errors import CapError, InputError
from .graph import (
    MAX_ORDER,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    family_member,
    get_family,
    path_graph,
)
from .invariants import (
    PolyKind,
    compute_poly,
    matching_defect,
    maximal_clique_profile,
)
from .orthopoly import chebyshev_t, chebyshev_u, hermite_he, laguerre
from .poly import UniPoly

DEGREE_FORCED_KINDS = ("char", "charL", "mu", "chrom")

@dataclass(frozen=True)
class RecognitionResult:
    """All universe members realizing the query polynomial."""

    matches: tuple[Graph, ...]
    bound: int


@dataclass(frozen=True)
class FamilyRecognition:
    index: int | None
    uniqueness_assumed: bool = True

    @property
    def found(self) -> bool:
        return self.index is not None


def _query_order(p: UniPoly) -> int | None:
    """Order a monic degree-n kind would force, None if no graph can match."""
    if p.is_zero() or p.degree < 1:
        return None
    return int(p.degree)


def _scan_orders(pk, forced: int | None, n_bound: int | None) -> range:
    """Orders a class scan for pk visits.

    A degree-forced kind scans its forced order alone, and nothing when
    there is none or it lies past n_bound; any other kind scans every
    order up to the n_bound it requires.
    """
    if pk.kind in DEGREE_FORCED_KINDS:
        if forced is None or (n_bound is not None and forced > n_bound):
            return range(0)
        return range(forced, forced + 1)
    if n_bound is None:
        raise InputError(
            f"kind {pk.label()!r} has no degree-forced order; "
            "an explicit bound is required")
    return range(1, n_bound + 1)


def brute_recognize(p: UniPoly, pk: PolyKind, n_bound: int | None = None,
                    caps: Caps = DEFAULT_CAPS) -> RecognitionResult:
    """Exhaustive scan for graphs whose polynomial equals p.

    Degree-forced kinds derive the scanned order from p itself; passing a
    smaller n_bound on top of that empties the universe instead of lying
    about it.  Other kinds scan every order up to the mandatory n_bound.
    A bound below 1 raises InputError.
    """
    if n_bound is not None and n_bound < 1:
        raise InputError(f"recognition needs a bound >= 1, got {n_bound}")
    # only degree-forced kinds read the query's degree; a tutte query has none
    forced = _query_order(p) if pk.kind in DEGREE_FORCED_KINDS else None
    matches = tuple(g for n in _scan_orders(pk, forced, n_bound)
                    for g in enumerate_graphs(n, caps)
                    if compute_poly(pk, g, caps) == p)
    bound = n_bound if n_bound is not None else forced or 0
    return RecognitionResult(matches=matches, bound=bound)


def family_recognize(p: UniPoly, pk: PolyKind,
                     family: str) -> FamilyRecognition:
    """Check the one family member whose order matches the query degree.

    The degree-forced kinds read no cap, so none is taken.
    """
    if pk.kind not in DEGREE_FORCED_KINDS:
        raise InputError(
            f"kind {pk.label()!r} does not force the order from the degree")
    fam = get_family(family)
    order = _query_order(p) or 0
    idx = fam.least
    while (n := fam.order(*(idx,) * fam.arity)) < order:
        idx += 1
    found = n == order and compute_poly(pk, family_member(family, idx)) == p
    return FamilyRecognition(index=idx if found else None)


# ------------------------------------------------------------ identity suite


def _identity_item(name: str, results) -> dict:
    """One identity over (n, holds) pairs; it is ok when none failed."""
    results = list(results)
    failures = [n for n, holds in results if not holds]
    return {"name": name, "checked": [n for n, _ in results],
            "failures": failures, "ok": not failures}


def identity_suite(n_max: int = 12, bipartite_max: int = 5) -> dict:
    """Match the defect matching polynomial against the classical families.

    Items: mu(C_n; 2X) = 2 T_n(X) for n >= 3; mu(P_n; 2X) = U_n(X);
    mu(K_n; X) = He_n(X); mu(K_{n,n}; X) = (-1)^n n! L_n(X^2).  The
    bipartite item runs on its own bound since the matching counts of
    K_{n,n} are exhaustive in 2n vertices.  A final record item evaluates
    the same bipartite identity without the n! factor; it agrees at n = 1
    and breaks from n = 2 on, which the report keeps as data so nobody
    reintroduces the unscaled form.  "identities_hold" covers the four
    substantive items and leaves that record out.
    """
    if n_max < 3 or bipartite_max < 1:
        raise InputError("identity suite needs n_max >= 3, bipartite_max >= 1")
    double_x = UniPoly([0, 2])
    x_squared = UniPoly([0, 0, 1])
    bipartite = [(n, matching_defect(complete_bipartite(n, n)),
                  (-1) ** n * laguerre(n).substitute(x_squared))
                 for n in range(1, bipartite_max + 1)]
    items = [
        _identity_item("cycle-chebyshev-t", (
            (n, matching_defect(cycle_graph(n)).substitute(double_x)
             == 2 * chebyshev_t(n)) for n in range(3, n_max + 1))),
        _identity_item("path-chebyshev-u", (
            (n, matching_defect(path_graph(n)).substitute(double_x)
             == chebyshev_u(n)) for n in range(1, n_max + 1))),
        _identity_item("clique-hermite", (
            (n, matching_defect(complete_graph(n)) == hermite_he(n))
            for n in range(1, n_max + 1))),
        _identity_item("bipartite-laguerre", (
            (n, mu == factorial(n) * lag) for n, mu, lag in bipartite)),
        _identity_item("bipartite-laguerre-unscaled", (
            (n, mu == lag) for n, mu, lag in bipartite)),
    ]
    identities_hold = all(it["ok"] for it in items
                          if it["name"] != "bipartite-laguerre-unscaled")
    return {"items": items, "identities_hold": identities_hold}


# ------------------------------------------------------------ screens


def chromatic_screen(p: UniPoly) -> dict:
    """Cheap filters every chromatic polynomial of a graph satisfies."""
    checks: dict[str, bool] = {}
    try:
        coeffs = list(p.integer_coefficients())
        integral = True
    except ValueError:
        coeffs = list(p.coeffs)
        integral = False
    checks["integer-coefficients"] = integral
    checks["monic"] = not p.is_zero() and p.leading_coefficient() == 1
    checks["zero-constant-term"] = p.is_zero() or p.coefficient(0) == 0

    alternating = not p.is_zero()
    if alternating:
        d = int(p.degree)
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            expected_negative = (d - i) % 2 == 1
            if (c < 0) != expected_negative:
                alternating = False
                break
    checks["alternating-signs"] = alternating

    magnitudes = [abs(c) for c in coeffs]
    descending = False
    unimodal = True
    for prev, cur in zip(magnitudes, magnitudes[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            unimodal = False
            break
    checks["unimodal"] = unimodal

    checks["log-concave"] = all(
        magnitudes[i] * magnitudes[i] >= magnitudes[i - 1] * magnitudes[i + 1]
        for i in range(1, len(magnitudes) - 1))

    return {"input": p.text(),
            "checks": [{"name": name, "ok": ok}
                       for name, ok in checks.items()],
            "all_pass": all(checks.values())}


def maxcl_trivial_recognize(s: UniPoly,
                            caps: Caps = DEFAULT_CAPS) -> Graph:
    """Invert the maximal-clique profile on its full image.

    A profile sum a_i X^i (a_0 = 0, a_i >= 0, not all zero) is realized by
    the disjoint union of a_i cliques of each size i, and by construction
    that union has exactly the prescribed maximal cliques.  Its order
    sum i a_i is checked against MAX_ORDER before anything is built, and
    the witness is re-verified, by a maximal-clique search capped at
    caps.subset_n vertices, before being returned.
    """
    if s.is_zero():
        raise InputError("the zero profile is realized by no graph")
    try:
        coeffs = s.integer_coefficients()
    except ValueError:
        raise InputError("profile coefficients must be integers") from None
    if coeffs[0] != 0:
        raise InputError("profile constant term must be zero")
    if any(c < 0 for c in coeffs):
        raise InputError("profile coefficients must be nonnegative")
    order = sum(size * count for size, count in enumerate(coeffs))
    if order > MAX_ORDER:
        raise CapError(f"profile witness has order {order}, over the bound "
                       f"of {MAX_ORDER}")
    parts = []
    for size, count in enumerate(coeffs):
        parts.extend(complete_graph(size) for _ in range(count))
    witness = disjoint_union(parts)
    if maximal_clique_profile(witness, caps) != s:
        raise ValueError("constructed witness failed re-verification")
    return witness
