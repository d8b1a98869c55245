"""graphpoly benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is a fresh `python -m graphpoly`
process started only after the previous one exited, so every op pays what
a CLI user pays: interpreter start, imports, and filling the per-process
enumeration and value caches.  Nothing is pre-warmed.

--trace 0 repeats passes over the workload's op list, at least two and
then as many as fit in --seconds of op time, and reports the end-to-end
metrics, medians over passes.  --trace 1 makes one untraced and one traced
pass and reports per-layer metrics; the traced pass runs each op through
tracing.py.  Every op's output is checked (workloads.py); an op fails on a
nonzero exit, a timeout or a failed check.  The last line of stdout is one
JSON object with the result.

--record stores this seed's outputs in expected.json after they pass
every other check; it is how the committed seeds got their values.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

SETUP_SAMPLES_PER_PASS = 5
MIN_PASSES = 2
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed for reading, not in the result line: one op's wall time varies
# by up to +-30% between back-to-back runs on a shared 2-vCPU machine, so
# the slowest op of a pass cannot be held to a 25% bound.
INFORMATIONAL = {"slowest_op_s": "s"}
DEADLINE_S = 170.0  # the whole run ends well within 180 s


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: dict | None  # parsed stdout when the process exited 0
    error: str


class Runner:
    """Starts one op process at a time and measures it."""

    def __init__(self, root: Path, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")

    def spawn(self, argv: list[str]) -> OpResult:
        out_path = self.tmp / "stdout"
        err_path = self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env)
            status, usage, timed_out = self._reap(proc)
            wall = time.perf_counter() - t0
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024
        if timed_out:
            return OpResult(wall, cpu, rss, None, "timed out")
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err_path.read_text(errors="replace").strip()[-300:]
            return OpResult(wall, cpu, rss, None, f"exit {code}: {tail}")
        try:
            output = json.loads(out_path.read_text())
        except ValueError as exc:
            return OpResult(wall, cpu, rss, None, f"bad JSON: {exc}")
        return OpResult(wall, cpu, rss, output, "")

    def _reap(self, proc: subprocess.Popen):
        """Wait for exit, killing the process at the deadline; rusage via wait4."""
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timeout_ms = max(0.0, self.deadline - time.monotonic()) * 1000
            timed_out = not poller.poll(timeout_ms)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(fd)
        return status, usage, timed_out

    def cli(self, op: workloads.Op) -> OpResult:
        return self.spawn(["-m", "graphpoly", *op.argv])

    def traced(self, op: workloads.Op) -> tuple[OpResult, dict | None]:
        spans_path = self.tmp / "spans.json"
        spans_path.unlink(missing_ok=True)
        res = self.spawn([tracing.__file__, str(spans_path), op.name, "--", *op.argv])
        if res.output is None or not spans_path.is_file():
            return res, None
        return res, json.loads(spans_path.read_text())


@dataclass
class PassResult:
    ops: dict  # op name -> OpResult
    problems: dict  # op name -> why it failed

    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops.values())

    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.ops.values())

    def slowest_op_s(self) -> float:
        return max(r.wall_s for r in self.ops.values())

    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.ops.values())


def run_pass(runner: Runner, ops: list[workloads.Op], launch=None) -> PassResult:
    launch = launch or runner.cli
    results = {}
    problems = {}
    for op in ops:
        if time.monotonic() >= runner.deadline:
            problems[op.name] = "not run: deadline reached"
            continue
        res = launch(op)
        results[op.name] = res
        if res.output is None:
            problems[op.name] = res.error
    outputs = {name: r.output for name, r in results.items() if r.output is not None}
    problems.update(workloads.check_pass(ops, outputs))
    return PassResult(results, problems)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, metrics: dict, samples: dict,
           attempted: int, failures: list[str], info: dict) -> None:
    """Human-readable lines, then the one-line JSON result.

    `info` holds metrics printed for reading but left out of the result.
    """
    failed = len(failures)
    print(f"workload {workload}, seed {seed}: {attempted} ops attempted, "
          f"{failed} failed")
    for name, (value, unit) in (metrics | info).items():
        n = samples.get(name)
        where = f"  (median of {n})" if n else ""
        print(f"  {name:40s} {_fmt(value):>14s} {unit}{where}")
    print(f"  {'failed_frac':40s} {_fmt(failed / attempted):>14s} ratio"
          f"  ({failed} of {attempted} ops)")
    for line in failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(runner: Runner, ops, seconds: float):
    failures = []
    attempted = 0
    setup = []
    passes = []
    while True:
        # set-up samples are spread over the run, a few before each pass
        for _ in range(SETUP_SAMPLES_PER_PASS):
            res = runner.cli(workloads.SETUP_OP)
            attempted += 1
            problem = res.error or workloads.check_pass(
                [workloads.SETUP_OP], {"setup": res.output}).get("setup")
            if problem:
                failures.append(f"setup: {problem}")
            setup.append(res.wall_s)
        p = run_pass(runner, ops)
        attempted += len(ops)
        failures += [f"{name}: {why}" for name, why in p.problems.items()]
        if not p.ops:
            break
        passes.append(p)
        if time.monotonic() >= runner.deadline:
            break
        # at least MIN_PASSES, so a median never rests on one pass; then
        # another pass only if it should end within --seconds of op time
        spent = sum(q.wall_s() for q in passes)
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
            break
    metrics = {}
    info = {}
    samples = {}
    for name, unit in (END_TO_END | INFORMATIONAL).items():
        values = setup if name == "setup_s" else [getattr(p, name)() for p in passes]
        into = info if name in INFORMATIONAL else metrics
        into[name] = (statistics.median(values), unit)
        samples[name] = len(values)
    return metrics, info, samples, attempted, failures, passes


def per_layer(runner: Runner, ops):
    untraced = run_pass(runner, ops)
    totals = tracing.LayerTotals()

    def launch(op):
        res, trace = runner.traced(op)
        if trace is not None:
            totals.add_op(trace["spans"], trace["counters"], res.wall_s)
        elif res.output is not None:
            res.output, res.error = None, "no spans written"
        return res

    traced = run_pass(runner, ops, launch)
    failures = [f"{n}: {w}" for n, w in untraced.problems.items()]
    failures += [f"traced {n}: {w}" for n, w in traced.problems.items()]
    metrics = totals.metrics(untraced.wall_s(), traced.wall_s())
    return metrics, {}, {}, 2 * len(ops), failures, [untraced]


def record(workload: str, seed: int, ops, passes) -> None:
    expected = workloads.load_expected()
    bucket = expected.setdefault(workload, {})
    for op in ops:
        key = str(seed) if op.seeded else "*"
        out = passes[0].ops[op.name].output
        bucket.setdefault(key, {})[op.name] = workloads.stable_fields(out)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed} in {workloads.EXPECTED_PATH.name}",
          file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graphpoly" / "__init__.py").is_file():
        print("error: run from the root of a graphpoly checkout "
              "(src/graphpoly not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, tmp, deadline)
        # compiles the package once and proves it is the checkout's copy
        res = runner.spawn(["-c", "import json, graphpoly.cli; "
                            "print(json.dumps(graphpoly.__file__))"])
        if res.output is None or not Path(res.output).is_relative_to(root / "src"):
            print(f"error: graphpoly does not import from {root / 'src'}: "
                  f"{res.output or res.error}", file=sys.stderr)
            return 2
        ops = workloads.build(args.workload, args.seed, tmp)
        if args.trace:
            metrics, info, samples, attempted, failures, passes = per_layer(
                runner, ops)
        else:
            metrics, info, samples, attempted, failures, passes = end_to_end(
                runner, ops, args.seconds)
        if args.record:
            if failures:
                print("error: not recording outputs that fail their checks",
                      file=sys.stderr)
                return 1
            record(args.workload, args.seed, ops, passes)
        report(args.workload, args.seed, metrics, samples, attempted, failures,
               info)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
