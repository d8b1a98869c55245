"""Traced runs: time graphpoly's public functions from outside the package.

As a script, `python tracing.py SPANS_OUT OP_ID -- CLI_ARGS...` wraps the
functions named in SPANNED, plus the two counted leaves
`graph.induced_from_mask` and `GraphProperty.holds`, in every graphpoly
module that holds them, runs `graphpoly.cli.main(CLI_ARGS)` and writes the
spans to SPANS_OUT.

Each call of a SPANNED function becomes a span [name, start, end, parent,
op, leaf_s, work]: parent is the index of the enclosing span (-1 for the
root `cli.main`), leaf_s the time spent in the counted leaves directly
inside it, and work a per-function quantity (classes returned, subsets
swept).  The counted leaves run up to a million times in one op, so they
keep only a call count, a total time and a count of true results.

The parent process sums the spans of every op of a pass into per-layer
metrics with LayerTotals.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SPANNED = {
    "graph": ("enumerate_graphs", "canonical_form", "is_isomorphic"),
    "invariants": ("compute_poly", "gen_ind", "dominating", "tutte",
                   "gen_span", "gen_chromatic", "chromatic", "char_poly"),
    "poly": ("falling_to_monomial", "int_determinant", "interpolate",
             "solve_linear_exact"),
    "recurrence": ("family_sequence", "fit"),
    "dpower": ("compare", "evaluate_handle"),
    "recognition": ("brute_recognize",),
}

# Work recorded on a span: 2^n or 2^m subsets for the subset sweeps,
# computed from the input size, not counted by the program; and
# [order, classes returned] for an enumeration.
_VERTEX_SWEEPS = {"invariants.gen_ind", "invariants.dominating",
                  "invariants.gen_chromatic"}
_EDGE_SWEEPS = {"invariants.tutte", "invariants.gen_span"}

NAME, START, END, PARENT, OP, LEAF_S, WORK = range(7)

# The per-layer metrics, in report order: `.s` is inclusive time, `.self_s`
# time minus traced callees, `.calls` a count.  BENCHMARK.json lists them.
PER_LAYER = (
    ("graph.enumerate_graphs.self_s", "s"),
    ("graph.canonical_form.s", "s"),
    ("graph.canonical_form.calls", "count"),
    ("graph.is_isomorphic.s", "s"),
    ("graph.is_isomorphic.calls", "count"),
    ("graph.is_isomorphic.per_class", "calls/class"),
    ("graph.induced_from_mask.calls", "count"),
    ("properties.holds.s", "s"),
    ("properties.holds.calls", "count"),
    ("properties.holds.true_ratio", "ratio"),
    ("invariants.gen_ind.s", "s"),
    ("invariants.dominating.s", "s"),
    ("invariants.tutte.s", "s"),
    ("invariants.gen_span.s", "s"),
    ("invariants.gen_chromatic.s", "s"),
    ("invariants.subsets_visited", "count"),
    ("invariants.chromatic.s", "s"),
    ("invariants.chromatic.calls", "count"),
    ("poly.falling_to_monomial.s", "s"),
    ("invariants.char_poly.s", "s"),
    ("invariants.char_poly.calls", "count"),
    ("poly.int_determinant.s", "s"),
    ("poly.int_determinant.calls", "count"),
    ("poly.interpolate.s", "s"),
    ("poly.solve_linear_exact.s", "s"),
    ("poly.solve_linear_exact.calls", "count"),
    ("recurrence.family_sequence.s", "s"),
    ("recurrence.fit.self_s", "s"),
    ("recurrence.solves_per_fit", "solves/fit"),
    ("dpower.compare.self_s", "s"),
    ("dpower.evaluate_handle.calls", "count"),
    ("dpower.cache_hit_ratio", "ratio"),
    ("recognition.brute_recognize.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.leaf_depth = 0
        self.counters: dict[str, list] = {}  # name -> [calls, s, true]

    def span(self, name: str, fn):
        spans, stack, op = self.spans, self.stack, self.op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], op, 0.0, _work(name, args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if name == "graph.enumerate_graphs":
                rec[WORK] = [args[0], len(result)]
            return result
        return wrapper

    def counted(self, name: str, fn):
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.leaf_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_depth -= 1
                stats[0] += 1
                stats[1] += dt
                # a counted call inside another is already in that one's time
                if self.leaf_depth == 0 and stack[-1] >= 0:
                    spans[stack[-1]][LEAF_S] += dt
            if result is True:
                stats[2] += 1
            return result
        return wrapper


def _work(name: str, args) -> int:
    if name in _VERTEX_SWEEPS:
        return 1 << args[0].n
    if name in _EDGE_SWEEPS:
        return 1 << sum(a.bit_count() for a in args[0].adj) // 2
    return 0


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(rec: Recorder):
    """Wrap the traced functions; returns the wrapped `cli.main`.

    Modules import library functions by name, so each wrapper is rebound
    in every graphpoly module that holds the original, not only in the
    module defining it.
    """
    import graphpoly.cli
    from graphpoly.properties import GraphProperty

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "graphpoly"
                                     or key.startswith("graphpoly."))]
    for short, names in SPANNED.items():
        home = sys.modules[f"graphpoly.{short}"]
        for fname in names:
            original = getattr(home, fname)
            _rebind(modules, original, rec.span(f"{short}.{fname}", original))
    original = graphpoly.graph.induced_from_mask
    _rebind(modules, original, rec.counted("graph.induced_from_mask", original))
    GraphProperty.holds = rec.counted("properties.holds", GraphProperty.holds)
    return rec.span("cli.main", graphpoly.cli.main)


def run(argv: list[str], op: str) -> tuple[int, Recorder]:
    rec = Recorder(op)
    main = install(rec)
    return main(argv), rec


# ------------------------------------------------------------ aggregation


def span_self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus its child spans and direct counted calls."""
    self_s = [s[END] - s[START] - s[LEAF_S] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
    return self_s


def _has_ancestor(spans, idx: int, name: str) -> bool:
    idx = spans[idx][PARENT]
    while idx >= 0:
        if spans[idx][NAME] == name:
            return True
        idx = spans[idx][PARENT]
    return False


class LayerTotals:
    """Per-layer sums over the traced ops of one pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, list] = {}
        self.classes = 0
        self.subsets = 0
        self.solves_in_fit = 0
        self.computed_in_eval = 0
        self.op_wall_s = 0.0
        self.attributed_s = 0.0

    def add_op(self, spans: list[list], counters: dict, op_wall_s: float) -> None:
        self_s = span_self_times(spans)
        enumerated: dict[int, int] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s[i]
            if not _has_ancestor(spans, i, name):
                self.incl_s[name] = self.incl_s.get(name, 0.0) + s[END] - s[START]
            if name == "graph.enumerate_graphs":
                n, count = s[WORK]
                enumerated[n] = count  # the class cache fills once per order
            elif s[WORK] and not _has_ancestor(spans, i, name):
                self.subsets += s[WORK]
            if name == "poly.solve_linear_exact" and _has_ancestor(
                    spans, i, "recurrence.fit"):
                self.solves_in_fit += 1
            if name == "invariants.compute_poly" and s[PARENT] >= 0 and \
                    spans[s[PARENT]][NAME] == "dpower.evaluate_handle":
                self.computed_in_eval += 1
        self.classes += sum(enumerated.values())
        for name, (calls, secs, true) in counters.items():
            acc = self.counters.setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += secs
            acc[2] += true
        self.op_wall_s += op_wall_s
        self.attributed_s += sum(self_s) + sum(
            s[LEAF_S] for s in spans)

    def metrics(self, untraced_wall_s: float, traced_wall_s: float) -> dict:
        """PER_LAYER metrics as name -> (value, unit); 0 where nothing ran."""
        calls, incl_s = dict(self.calls), dict(self.incl_s)
        for name, (n, secs, _) in self.counters.items():
            calls[name], incl_s[name] = n, secs
        fields = {"s": incl_s, "self_s": self.self_s, "calls": calls}

        def ratio(num, den):
            return num / den if den else 0.0

        holds = self.counters.get("properties.holds", [0, 0.0, 0])
        evals = calls.get("dpower.evaluate_handle", 0)
        derived = {
            "graph.is_isomorphic.per_class":
                ratio(calls.get("graph.is_isomorphic", 0), self.classes),
            "properties.holds.true_ratio": ratio(holds[2], holds[0]),
            "invariants.subsets_visited": self.subsets,
            "recurrence.solves_per_fit":
                ratio(self.solves_in_fit, calls.get("recurrence.fit", 0)),
            "dpower.cache_hit_ratio":
                1.0 - ratio(self.computed_in_eval, evals) if evals else 0.0,
            "cli.self_s": self.self_s.get("cli.main", 0.0),
            "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
            "trace.unattributed_s": self.op_wall_s - self.attributed_s,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                fn, _, field = name.rpartition(".")
                value = fields[field].get(fn, 0)
            out[name] = (value, unit)
        return out


def main() -> int:
    spans_out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracing.py SPANS_OUT OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    code, rec = run(argv, op)
    sys.stdout.flush()
    with open(spans_out, "w") as fh:
        json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
