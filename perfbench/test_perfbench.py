"""Self-tests of the benchmark: its output checks and its span accounting."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Small graphs, so the program's outputs take milliseconds to compute.
SMALL_SIZES = {"indep": (9, 12), "dom": (9, 12), "forest": (8, 11),
               "shared": (7, 10), "genchrom": (6, 8)}


def _program_output(argv) -> dict:
    from graphpoly.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return json.loads(buf.getvalue())


def _flip_one_coefficient(out: dict) -> dict:
    out = copy.deepcopy(out)
    rows = [row.split(" ") for row in out["result"].split(";")]
    row = rows[len(rows) // 2]
    k = len(row) // 2
    row[k] = str(int(row[k]) + 1)
    out["result"] = ";".join(" ".join(r) for r in rows)
    return out


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    ops = workloads.large_graph_ops(7, tmp, {}, sizes=SMALL_SIZES)
    return ops, {op.name: _program_output(op.argv) for op in ops}


def test_checks_accept_the_programs_outputs(small_pass):
    ops, outputs = small_pass
    assert workloads.check_pass(ops, outputs) == {}


@pytest.mark.parametrize("name", ["indep", "dom", "ind-forest", "tutte",
                                  "span-forest", "span-connected", "chrom",
                                  "genchrom-connected"])
def test_one_flipped_coefficient_fails_the_op(small_pass, name):
    ops, outputs = small_pass
    bad = dict(outputs, **{name: _flip_one_coefficient(outputs[name])})
    assert name in workloads.check_pass(ops, bad)


def test_stored_values_catch_a_flipped_coefficient(tmp_path):
    ops = workloads.build("family-fit", 1, tmp_path)
    stored = workloads.load_expected()["family-fit"]["*"]
    op = next(o for o in ops if o.name == "fit-chrom-ladder")
    out = copy.deepcopy(stored[op.name])
    assert workloads.check_pass([op], {op.name: out}) == {}
    first = out["coeffs"][0].split(" ")
    out["coeffs"][0] = " ".join([str(int(first[0]) + 1), *first[1:]])
    assert op.name in workloads.check_pass([op], {op.name: out})


def test_span_self_times_and_unattributed_add_up_to_op_wall(tmp_path):
    runner = run.Runner(ROOT, tmp_path, time.monotonic() + 60)
    op = workloads.Op("sdp5", ("compare", "--p", "genchrom:connected",
                               "--q", "ind:connected", "--mode", "sdp",
                               "--bound", "5"), lambda out, _: None, False)
    res, trace = runner.traced(op)
    assert res.output is not None and trace is not None, res.error
    spans = trace["spans"]

    def depth(i):
        d = 0
        while spans[i][tracing.PARENT] >= 0:
            i, d = spans[i][tracing.PARENT], d + 1
        return d

    assert max(depth(i) for i in range(len(spans))) >= 3
    assert trace["counters"]["properties.holds"][0] > 0
    self_s = tracing.span_self_times(spans)
    assert min(self_s) > -1e-6  # children never outlast their parent

    totals = tracing.LayerTotals()
    totals.add_op(spans, trace["counters"], res.wall_s)
    metrics = totals.metrics(res.wall_s, res.wall_s)
    unattributed = metrics["trace.unattributed_s"][0]
    leaf_s = sum(s[tracing.LEAF_S] for s in spans)
    assert 0 < unattributed < res.wall_s
    assert sum(self_s) + leaf_s + unattributed == pytest.approx(res.wall_s, abs=1e-9)
    root = spans[0]
    assert root[tracing.NAME] == "cli.main"
    assert sum(self_s) + leaf_s == pytest.approx(
        root[tracing.END] - root[tracing.START], abs=1e-9)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "universe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
