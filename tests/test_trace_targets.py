"""The per-layer trace in perfbench/tracer.py wraps package functions by
name and silently drops the metrics of a name it cannot find, so every name
it targets must still resolve in subgroup_atlas."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    missing = []
    for _layer, modname, names in tracer.TARGETS:
        for name in names:
            obj = importlib.import_module(f"{tracer.PKG}.{modname}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{modname}.{name}")
    assert missing == []
