"""Command-line entry point.

One verb per task: compute, ortho, fit, recognize, screen, maxcl-build,
compare, suite, enumerate.  Machine-readable JSON goes to stdout, human
diagnostics to stderr, and re-running a command reproduces the JSON byte
for byte except for the elapsed_ms field.  Exit codes: 0 for a completed
run (a refuted comparison is still a result), 2 for bad input, 3 for a
resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .caps import Caps, DEFAULT_CAPS
from .dpower import (
    compare,
    comparison_json,
    dom_inexpressibility_suite,
    incomparability_suite,
    parse_handle,
    sdp_equiv_complement_check,
)
from .errors import CapError, InputError
from .graph import (
    enumerate_graphs,
    family_label,
    family_note,
    format_graph,
    make_family,
    parse_family_spec,
    parse_graph,
)
from .invariants import BIVARIATE_KINDS, compute_poly, parse_poly_kind
from .orthopoly import ortho
from .poly import BiPoly, UniPoly
from .properties import parse_property
from .recognition import (
    brute_recognize,
    chromatic_screen,
    family_recognize,
    identity_suite,
    maxcl_trivial_recognize,
)
from .recurrence import fit_family, parse_family_range

SCHEMA_VERSION = 1


def _load_graph(text: str):
    """Graph plus display label and notes, from family DSL or a file."""
    if text.startswith("family:"):
        spec = parse_family_spec(text[len("family:"):])
        return make_family(spec), family_label(spec), family_note(spec)
    path = Path(text)
    try:
        content = path.read_text()
    except OSError:
        raise InputError(
            f"graph argument {text!r} is neither family:<spec> nor a "
            "readable file") from None
    return parse_graph(content), text, []


def _read_poly_file(path_text: str) -> str:
    try:
        return Path(path_text).read_text()
    except OSError:
        raise InputError(f"cannot read polynomial file {path_text!r}") \
            from None


def _load_poly(path_text: str, bivariate: bool):
    content = _read_poly_file(path_text).strip()
    if bivariate:
        return BiPoly.parse(content)
    return UniPoly.parse(content)


# ------------------------------------------------------------ verb handlers


def _cmd_compute(args, caps: Caps) -> dict:
    pk = parse_poly_kind(args.poly)
    g, label, notes = _load_graph(args.graph)
    value = compute_poly(pk, g, caps)
    notes = list(notes)
    if pk.kind == "span":
        notes.append(
            "property closure under isolated vertices is unverified; "
            "values of graphs of different order are not comparable")
    out = {"poly": pk.label(), "graph": label, "result": value.text()}
    if notes:
        out["notes"] = notes
    return out


def _cmd_ortho(args, caps: Caps) -> dict:
    value = ortho(args.family, args.n)
    return {"family": args.family, "n": args.n, "result": value.text()}


def _cmd_fit(args, caps: Caps) -> dict:
    family, lo, hi = parse_family_range(args.family)
    report = fit_family(parse_poly_kind(args.poly), family, lo, hi,
                        args.max_order, args.max_deg, args.holdout, caps)
    out = {
        "poly": args.poly,
        "family": args.family,
        "max_order": args.max_order,
        "max_deg": args.max_deg,
        "holdout": args.holdout,
        "found": report.found,
        "terms": len(report.sequence.terms),
    }
    if report.spec is not None:
        spec = report.spec
        out["q"] = spec.order
        out["d"] = spec.degree_bound
        out["coeffs"] = [f.text() for f in spec.coefficients]
        out["seeds"] = [s.text() for s in spec.seeds]
        out["verified_terms"] = len(report.sequence.terms)
    return out


def _cmd_recognize(args, caps: Caps) -> dict:
    pk = parse_poly_kind(args.poly)
    p = _load_poly(args.input, pk.kind in BIVARIATE_KINDS)
    if args.family:
        rep = family_recognize(p, pk, args.family)
        return {
            "poly": pk.label(),
            "family": args.family,
            "found": rep.found,
            "index": rep.index,
            "uniqueness_assumed": rep.uniqueness_assumed,
        }
    result = brute_recognize(p, pk, args.bound, caps)
    return {
        "poly": pk.label(),
        "method": "brute",
        "bound": result.bound,
        "count": len(result.matches),
        "matches": [format_graph(g) for g in result.matches],
    }


def _cmd_screen(args, caps: Caps) -> dict:
    return chromatic_screen(_load_poly(args.input, False))


def _cmd_maxcl_build(args, caps: Caps) -> dict:
    p = _load_poly(args.input, False)
    witness = maxcl_trivial_recognize(p, caps)
    return {"profile": p.text(), "graph": format_graph(witness),
            "verified": True}


def _cmd_compare(args, caps: Caps) -> dict:
    p = parse_handle(args.p)
    q = parse_handle(args.q)
    return comparison_json(compare(p, q, args.mode, args.bound, caps))


def _require(args, names: list[str], suite: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise InputError(
            f"suite {suite!r} needs --" + ", --".join(missing))


def _cmd_suite(args, caps: Caps) -> dict:
    name = args.name
    if name == "incomparability":
        _require(args, ["variant", "i", "j"], name)
        report = incomparability_suite(args.variant, args.i, args.j,
                                       k=args.k, caps=caps)
    elif name == "dom":
        report = dom_inexpressibility_suite()
    elif name == "sdp-complement":
        _require(args, ["prop", "kind", "bound"], name)
        report = sdp_equiv_complement_check(parse_property(args.prop),
                                            args.kind, args.bound, caps)
    elif name == "identities":
        report = identity_suite(n_max=args.n_max,
                                bipartite_max=args.bipartite_max)
    else:
        raise InputError(f"unknown suite {name!r}")
    return {"suite": name, **report}


def _cmd_enumerate(args, caps: Caps) -> dict:
    classes = enumerate_graphs(args.n, caps)
    out = {"n": args.n, "count": len(classes)}
    if not args.count_only:
        out["graphs"] = [format_graph(g) for g in classes]
    return out


# ------------------------------------------------------------ wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap-n", type=int, default=None,
                        help="vertex-count cap for enumeration and "
                             "vertex-subset sums")
    common.add_argument("--cap-m", type=int, default=None,
                        help="edge-count cap for span: properties summed "
                             "over all edge subsets")
    common.add_argument("--cap-partition", type=int, default=None,
                        help="vertex-count cap for partition polynomials")

    parser = argparse.ArgumentParser(
        prog="graphpoly",
        description="Exact graph polynomial workbench")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="evaluate a graph polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--graph", required=True,
                   help="family:<spec> or a graph file path")

    p = sub.add_parser("ortho", parents=[common],
                       help="classical orthogonal polynomials")
    p.add_argument("--family", required=True, choices=["T", "U", "He", "L"])
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a recurrence along a graph family")
    p.add_argument("--poly", required=True)
    p.add_argument("--family", required=True,
                   help="ranged family, e.g. cycle:3..14")
    p.add_argument("--max-order", required=True, type=int)
    p.add_argument("--max-deg", required=True, type=int)
    p.add_argument("--holdout", type=int, default=3)

    p = sub.add_parser("recognize", parents=[common],
                       help="graphs matching a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--input", required=True, help="polynomial file")
    p.add_argument("--family", default=None)
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("screen", parents=[common],
                       help="chromatic necessary-condition checks")
    p.add_argument("--input", required=True, help="polynomial file")

    p = sub.add_parser("maxcl-build", parents=[common],
                       help="build the clique-union witness of a profile")
    p.add_argument("--input", required=True, help="polynomial file")

    p = sub.add_parser("compare", parents=[common],
                       help="distinctive-power comparison")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--mode", required=True, choices=["dp", "sdp"])
    p.add_argument("--bound", required=True, type=int)

    p = sub.add_parser("suite", parents=[common],
                       help="packaged verification suites")
    p.add_argument("--name", required=True,
                   choices=["incomparability", "dom", "sdp-complement",
                            "identities"])
    p.add_argument("--variant", default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--prop", default=None)
    p.add_argument("--kind", default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--bipartite-max", type=int, default=5)

    p = sub.add_parser("enumerate", parents=[common],
                       help="isomorphism classes of a given order")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--count-only", action="store_true")

    return parser


_HANDLERS = {
    "compute": _cmd_compute,
    "ortho": _cmd_ortho,
    "fit": _cmd_fit,
    "recognize": _cmd_recognize,
    "screen": _cmd_screen,
    "maxcl-build": _cmd_maxcl_build,
    "compare": _cmd_compare,
    "suite": _cmd_suite,
    "enumerate": _cmd_enumerate,
}


def _effective_caps(args) -> Caps:
    caps = DEFAULT_CAPS
    for flag, fields in (("cap_n", ("enum_n", "subset_n")),
                         ("cap_m", ("subset_m",)),
                         ("cap_partition", ("partition_n",))):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be "
                             f"nonnegative, got {value}")
        if value is not None:
            caps = replace(caps, **dict.fromkeys(fields, value))
    return caps


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        caps = _effective_caps(args)
        body = _HANDLERS[args.verb](args, caps)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.verb,
        **body,
        "caps": asdict(caps),
        # perfbench/expected.json and recorded tests store it; goes at schema 2
        "jobs": 1,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    try:
        print(json.dumps(report, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send the rest of the output, and the flush
        # at interpreter exit, to devnull instead of raising again there
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
