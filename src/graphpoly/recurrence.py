"""Fitting linear recurrences to polynomial sequences.

The model: a sequence p_0, p_1, ... of univariate polynomials satisfies

    p_{n+q} = f_0 p_n + f_1 p_{n+1} + ... + f_{q-1} p_{n+q-1}

where the f_t are fixed polynomials (independent of n) of degree at most d.
fit searches (q, d) cells in lexicographic order, assembling for each cell
the exact linear system obtained by matching X-power coefficients of the
relation over the leading windows of the sequence; the last few windows are
held out and any candidate must reproduce them exactly, which kills
solutions that merely interpolate the training rows.  Everything is exact:
integral sequences give integer rows, and only the solved coefficients can
be rational, so a returned spec is a proof that the relation holds on the
given terms, never an approximation.

family_sequence computes the terms of one kind along a graph family, and
fit takes any tuple of terms.  check_fit_bounds checks fit's bounds against
a term count, so a caller can check a range before computing any term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .errors import InputError
from .graph import family_member, family_order, member_spec
from .invariants import BIVARIATE_KINDS, PolyKind, compute_poly
from .poly import UniPoly, solve_linear_exact


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-q relation with coefficients stored low index first (f_0..f_{q-1})."""

    order: int
    coefficients: tuple[UniPoly, ...]
    seeds: tuple[UniPoly, ...]
    degree_bound: int

    def __post_init__(self):
        if self.order < 1 or len(self.coefficients) != self.order:
            raise InputError("coefficient count must equal the order")
        if len(self.seeds) != self.order:
            raise InputError("seed count must equal the order")


def _relation_rows(terms, start: int, q: int, d: int):
    """Coefficient-matching rows for the window starting at `start`."""
    target = terms[start + q]
    rmax = -1
    if not target.is_zero():
        rmax = int(target.degree)
    for t in range(q):
        pt = terms[start + t]
        if not pt.is_zero():
            rmax = max(rmax, int(pt.degree) + d)
    rows, rhs = [], []
    width = q * (d + 1)
    for r in range(rmax + 1):
        row = [0] * width
        for t in range(q):
            pt = terms[start + t]
            base = t * (d + 1)
            for e in range(min(d, r) + 1):
                c = pt.coefficient(r - e)
                if c:
                    row[base + e] = c
        rows.append(row)
        rhs.append(target.coefficient(r))
    return rows, rhs


def _coefficients_from(solution, q: int, d: int) -> tuple[UniPoly, ...]:
    return tuple(UniPoly(solution[t * (d + 1):(t + 1) * (d + 1)])
                 for t in range(q))


def _holds_everywhere(fs, terms, q: int) -> bool:
    for s in range(len(terms) - q):
        acc = UniPoly.zero()
        for t in range(q):
            acc = acc + fs[t] * terms[s + t]
        if acc != terms[s + q]:
            return False
    return True


def _solve_cell(terms, q: int, d: int, holdout: int):
    """Coefficients for one (q, d) cell, or None.

    The training system is overdetermined, so rows are fed in window by
    window and solved as soon as they outnumber the unknowns; a candidate
    from that prefix either passes the full-sequence check (in which case
    it solves the whole training system too) or we fall back to solving
    the complete system once before rejecting the cell.
    """
    train = len(terms) - q - holdout
    width = q * (d + 1)
    rows, rhs = [], []
    s = 0
    # the least prefix of windows with more rows than unknowns, then all
    for whole in (False, True):
        while s < train and (whole or len(rows) <= width):
            wr, wb = _relation_rows(terms, s, q, d)
            rows.extend(wr)
            rhs.extend(wb)
            s += 1
        solution = solve_linear_exact(rows, rhs)
        if solution is None:
            return None
        fs = _coefficients_from(solution, q, d)
        if _holds_everywhere(fs, terms, q):
            return fs
        if s == train:
            return None


def check_fit_bounds(count: int, max_order: int, max_deg: int,
                     holdout: int) -> None:
    """Raise InputError unless count terms can be fitted at these bounds."""
    if max_order < 1:
        raise InputError("max_order must be at least 1")
    if max_deg < 0:
        raise InputError("max_deg must be nonnegative")
    if holdout < 1:
        raise InputError("holdout must be at least 1")
    need = max_order + max_deg + holdout + 1
    if count < need:
        raise InputError(
            f"fitting at bounds ({max_order}, {max_deg}) with holdout "
            f"{holdout} needs at least {need} terms, got {count}")


def fit(terms: tuple[UniPoly, ...], max_order: int, max_deg: int,
        holdout: int = 3) -> RecurrenceSpec | None:
    """Minimal (order, degree) recurrence within the bounds, or None.

    Cells are tried in lexicographic order with the order as the major
    key, so the first hit is the minimal one.  Holdout windows never feed
    the linear system; a spec is only returned after it reproduces every
    term of the sequence, held-out ones included.
    """
    check_fit_bounds(len(terms), max_order, max_deg, holdout)
    for q in range(1, max_order + 1):
        for d in range(max_deg + 1):
            fs = _solve_cell(terms, q, d, holdout)
            if fs is not None:
                return RecurrenceSpec(order=q, coefficients=fs,
                                      seeds=terms[:q], degree_bound=d)
    return None


# ------------------------------------------------------------ family plumbing


def parse_family_range(text: str) -> tuple[str, int, int]:
    """Split 'cycle:3..14' into (family name, first index, last index)."""
    head, sep, rest = text.partition(":")
    if not sep or ".." not in rest:
        raise InputError(
            f"expected a ranged family like cycle:3..14, got {text!r}")
    lo_text, _, hi_text = rest.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InputError(f"bad range bounds in {text!r}") from None
    if lo > hi:
        raise InputError(f"empty range in {text!r}")
    return head, lo, hi


def family_sequence(pk: PolyKind, family: str, n_from: int, n_to: int,
                    caps: Caps = DEFAULT_CAPS) -> tuple[UniPoly, ...]:
    """Polynomial values of one kind along a family, by member index; a
    last (largest) member over MAX_ORDER is refused before any term."""
    if pk.kind in BIVARIATE_KINDS:
        raise InputError("recurrence fitting works on univariate kinds only")
    family_order(member_spec(family, n_to))
    return tuple(compute_poly(pk, family_member(family, i), caps)
                 for i in range(n_from, n_to + 1))
