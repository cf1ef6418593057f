"""Benchmark of the subgroup-atlas CLI: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process at a time, closed loop: each pass runs in a fresh Python
process that imports the package from ./src and calls
`subgroup_atlas.cli.main(argv)` in-process for every invocation of the pass,
one after the other, with stdout captured.  A pass starts only after the
previous one returned.  Every output is checked against the independent
oracle and against the bytes of the first pass.

--trace 0 reports run_p75_s, setup_s and peak_rss_mb; --trace 1 alternates
untraced and traced passes and reports the per-layer split.  The last line
of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import COUNTERS, SELF_METRICS  # noqa: E402

DEADLINE_S = 165.0     # stop starting passes when a pass could end past this


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBGROUP_ATLAS_CAP", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, plan_path: str, started: float):
        self.plan_path = plan_path
        self.started = started
        self.env = _child_env()

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, mode: str) -> dict | None:
        """One child; None when it failed to produce a result."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, self.plan_path, repr(t_spawn), mode],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"{mode} pass timed out\n")
            return None
        finally:
            _stop_group(proc)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{mode} pass exited {proc.returncode}:\n{err[-3000:]}\n")
            return None
        return json.loads(lines[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group, the copies it forked
    included, and wait until the group is empty (at most a few seconds)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Window:
    """The measuring window: a pass starts only if it is expected to end
    within --seconds (and before the deadline); the first pass always runs."""

    def __init__(self, runner: Runner, seconds: int):
        self.runner = runner
        self.end = time.monotonic() + seconds
        self.longest = 0.0

    def another(self, done: int) -> bool:
        if done == 0:
            return True
        now = time.monotonic()
        return now + self.longest <= self.end and self.runner.left() > self.longest

    @contextlib.contextmanager
    def timed(self):
        t0 = time.monotonic()
        yield
        self.longest = max(self.longest, time.monotonic() - t0)


class Checker:
    """Counts attempted and failed invocations of every pass."""

    def __init__(self, expects: list[oracle.Expect]):
        self.expects = expects
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, sample: dict | None) -> None:
        n = len(self.expects)
        self.attempted += n
        if sample is None:
            self.failed += n
            return
        outs = [inv["out"] for inv in sample["invocations"]]
        if self.first is None:
            self.first = outs
        for exp, inv, first in zip(self.expects, sample["invocations"], self.first):
            problems = oracle.check(exp, inv["rc"], inv["out"])
            if inv["exc"]:
                problems.insert(0, f"raised {inv['exc']}")
            if inv["out"] != first:
                problems.append("output bytes differ from the first pass")
            if problems:
                self.failed += 1
                sys.stderr.write(f"FAILED {' '.join(exp.argv)}: {'; '.join(problems)}\n"
                                 f"{inv['err']}")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _describe(name: str, values: list[float], unit: str) -> str:
    q1, q3 = _quartiles(values)
    return (f"{name:<24} median {statistics.median(values):.6g} {unit}"
            f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def _measure(runner: Runner, checker: Checker, seconds: int) -> dict:
    runner.spawn("setup")  # warm-up: byte-compiles and fills the file cache
    setups = []
    samples: list[dict] = []
    window = Window(runner, seconds)
    while window.another(len(samples)):
        with window.timed():
            s = runner.spawn("run")
            extra = runner.spawn("setup") if s is not None else None
        checker.add(s)
        if s is None:
            break
        samples.append(s)
        setups.append(s["setup_s"])
        if extra is not None:
            setups.append(extra["setup_s"])
    if not samples:
        return {}
    passes = [s["run_s"] for s in samples]
    rss = [s["peak_rss_mb"] for s in samples]
    print(_describe("run_s", passes, "s"))
    print(_describe("setup_s", setups, "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    # The upper quartile of the pass times: on a shared host the fast passes
    # come and go with the other tenants' load, while the slow side holds.
    return {"run_p75_s": (_quartiles(passes)[1], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def _measure_traced(runner: Runner, checker: Checker, seconds: int) -> dict:
    runner.spawn("setup")
    plain, traced = [], []
    window = Window(runner, seconds)
    while window.another(len(traced)):
        with window.timed():
            pair = (runner.spawn("run"), runner.spawn("trace"))
        for s in pair:
            checker.add(s)
        if None in pair:
            break
        plain.append(pair[0])
        traced.append(pair[1])
    if not traced:
        return {}
    missing = traced[0].get("missing")
    if missing:
        sys.stderr.write(f"not traced (metrics dropped): {', '.join(missing)}\n")
    # The layer split of the traced pass with the median run_s, so that its
    # self times add up to its run_s.
    rep = sorted(traced, key=lambda s: s["run_s"])[(len(traced) - 1) // 2]
    units = {m: "s" for m in SELF_METRICS.values()} | {"audits.total_s": "s"}
    units |= {m: unit for m, (unit, _needs) in COUNTERS.items()}
    out = {name: (value, units[name]) for name, value in rep["layers"].items()}
    run_plain = statistics.median(s["run_s"] for s in plain)
    out["trace.run_s"] = (rep["run_s"], "s")
    out["trace.overhead_s"] = (rep["run_s"] - run_plain, "s")
    self_sum = sum(v for k, (v, u) in out.items() if k in SELF_METRICS.values())
    print(_describe("run_s (untraced)", [s["run_s"] for s in plain], "s"))
    print(_describe("run_s (traced)", [s["run_s"] for s in traced], "s"))
    print(f"{'sum of layer self times':<24} {self_sum:.6g} s"
          f"  (trace.run_s - sum = {rep['run_s'] - self_sum:.3g} s)")
    for name, (value, unit) in out.items():
        print(f"{name:<24} {value:.6g} {unit}" if unit == "s" else f"{name:<24} {value} {unit}")
    return out


def _write_plan(workload: str, seed: int) -> tuple[str, list[oracle.Expect]]:
    expects, files = inputs.build(workload, seed)
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    for fname, doc in files.items():
        with open(os.path.join(work, fname), "w", encoding="utf-8") as f:
            json.dump(doc, f)
    argv = [[os.path.join(work, a[1:]) if a.startswith("@") else a for a in e.argv]
            for e in expects]
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump({"argv": argv}, f)
    return plan_path, expects


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # A stop request unwinds through spawn(), which ends the running child.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "subgroup_atlas", "cli.py")):
        sys.stderr.write(f"no package source under {os.path.join(ROOT, 'src')}\n")
        return 2
    plan_path, expects = _write_plan(args.workload, args.seed)
    try:
        runner = Runner(plan_path, started)
        checker = Checker(expects)
        print(f"workload {args.workload}  seed {args.seed}  {len(expects)} invocation(s) per pass"
              f"  trace {args.trace}")
        measure = _measure_traced if args.trace else _measure
        metrics = measure(runner, checker, args.seconds)
    finally:
        shutil.rmtree(os.path.dirname(plan_path), ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    frac = checker.failed / checker.attempted
    print(f"{'failed_frac':<24} {checker.failed}/{checker.attempted} = {frac:.6g}")
    if not metrics:
        sys.stderr.write("no pass completed\n")
        return 1
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
