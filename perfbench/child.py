"""One fresh process: set up, run one workload pass, report as JSON.

Usage: python3 child.py PLAN T_SPAWN MODE, where PLAN is the plan file the
parent wrote, T_SPAWN the parent's time.monotonic() just before starting this
process, and MODE one of setup, run or trace.  The last stdout line is the
result object.

Each invocation of a pass runs in a forked copy of this process, taken after
set-up, and calls `cli.main(argv)` there in-process.  So every invocation
starts from the same heap, as a fresh CLI process would, and its peak
resident set does not depend on the invocations that ran before it.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup(plan_path: str):
    sys.path.insert(0, SRC)
    from subgroup_atlas import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    return cli, plan


def _run_here(main, argv: list[str], tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    exc = None
    t0 = time.perf_counter()
    try:
        rc = tracer.call("cli", main, argv) if tracer else main(argv)
    except Exception as e:  # any raise is a failed invocation, reported by the parent
        rc, exc = None, repr(e)
    finally:
        run_s = time.perf_counter() - t0
        sys.stdout, sys.stderr = real_out, real_err
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:], "exc": exc,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": tracer.layer_metrics() if tracer else None}


def _invoke(main, argv: list[str], tracer) -> dict:
    """One invocation in a forked copy; waits for the copy to end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            data = json.dumps(_run_here(main, argv, tracer)).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"rc": None, "out": "", "err": "", "exc": f"forked copy ended with {status}",
                "run_s": 0.0, "peak_rss_mb": 0.0, "layers": None}
    return json.loads(data)


def _sum_layers(parts: list[dict]) -> dict:
    total: dict = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0) + value
    return total


def main() -> None:
    plan_path, t_spawn, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli, plan = _setup(plan_path)
    result = {"setup_s": time.monotonic() - t_spawn}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        # Objects that exist now stay out of the collector's scans, so the
        # forked copies do not write to (and copy) every page they share.
        gc.freeze()
        invocations = [_invoke(cli.main, argv, tracer) for argv in plan["argv"]]
        result["invocations"] = invocations
        result["run_s"] = sum(inv.pop("run_s") for inv in invocations)
        result["peak_rss_mb"] = max(inv.pop("peak_rss_mb") for inv in invocations)
        layers = [inv.pop("layers") for inv in invocations]
        if tracer:
            result["layers"] = _sum_layers([part for part in layers if part])
            result["missing"] = tracer.missing
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
