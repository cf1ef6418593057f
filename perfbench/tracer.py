"""Per-layer spans recorded from outside the package.

`install` wraps the package's public functions, at every module attribute
that binds them, so each call records a span (layer, start, end, parent) and
feeds the layer's counters.  A layer's self time is its spans' durations
minus the time their child spans cover.  A name that is missing from the
package is skipped and the metrics that need it are dropped.
"""

from __future__ import annotations

import functools
import sys
import time

PKG = "subgroup_atlas"

TOWERS = ("parse_tower_spec", "build_tower", "make_zp", "make_zpn", "make_heisenberg",
          "make_dihedral2", "make_pirim", "make_wilson", "make_product", "custom_tower",
          "direct_product_tower", "truncate")
CONSTRUCT = ("FiniteGroup.__init__", "Homomorphism.__init__", "Homomorphism._verify",
             "from_elements", "generate_from", "load_group_json", "cyclic", "dihedral",
             "quaternion8", "direct_product", "quotient")
LATTICE = ("build_lattice_tower", "isolated_nodes", "density_check", "basic_open_fiber",
           "to_dot")
FILTRATION = ("cb_filtration", "solitary_candidates", "conjugation_audit",
              "height_bound_audit")
AUDITS = ("frattini_stability_audit", "wilson_commutator_audit",
          "pirim_irreducibility_audit", "bn_recurrence_audit", "solitary_criterion_hxz_audit",
          "virtually_zp_audit", "goursat_full_audit", "certify_solitary",
          "pirim_h_node_certificates")
REPORT = ("analysis_report", "report_to_json", "verdict_to_json", "report_to_table",
          "report_to_dot", "audit_results_to_json", "audit_results_to_table")

# (layer, module, names): the span layer of each wrapped function.
TARGETS = (
    ("towers", "towers", TOWERS),
    ("groups.construct", "groups", CONSTRUCT),
    ("groups.enumerate", "groups", ("all_subgroups",)),
    ("lattice", "lattice", LATTICE),
    ("filtration", "filtration", FILTRATION),
    ("audits", "audits", AUDITS),
    ("classify", "classify", ("classify", "analyze_tower")),
    ("report", "report", REPORT),
)

# Self-time metric of each layer; "cli" is the root span around cli.main.
SELF_METRICS = {
    "cli": "cli.self_s",
    "towers": "towers.self_s",
    "groups.construct": "groups.construct_s",
    "groups.enumerate": "groups.enumerate_s",
    "lattice": "lattice.self_s",
    "filtration": "filtration.self_s",
    "audits": "audits.self_s",
    "classify": "classify.self_s",
    "report": "report.self_s",
}

# Counter metric -> (unit, the wrapped name it needs).
COUNTERS = {
    "groups.tables_built": ("count", "FiniteGroup.__init__"),
    "groups.table_cells": ("count", "FiniteGroup.__init__"),
    "groups.hom_checks": ("count", "Homomorphism._verify"),
    "groups.hom_check_cells": ("count", "Homomorphism._verify"),
    "groups.enumerate_calls": ("count", "all_subgroups"),
    "groups.enumerate_misses": ("count", "all_subgroups"),
    "groups.subgroups": ("count", "all_subgroups"),
    "lattice.builds": ("count", "build_lattice_tower"),
    "lattice.nodes": ("count", "build_lattice_tower"),
    "filtration.calls": ("count", "cb_filtration"),
    "audits.calls": ("count", "*audits"),
    "classify.calls": ("count", "classify"),
    "report.bytes": ("bytes", "*report"),
}

# Wrapped name (or "*layer" for every name of a layer) -> counting hook.
HOOKS = {
    "FiniteGroup.__init__": "_on_table",
    "Homomorphism._verify": "_on_hom_check",
    "all_subgroups": "_on_enumerate",
    "build_lattice_tower": "_on_lattice_build",
    "cb_filtration": "_on_filtration",
    "classify": "_on_classify",
    "*audits": "_on_audit",
    "*report": "_on_report",
}


class Tracer:
    """Spans kept in memory: [layer, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTERS}
        self.found: set[str] = set()
        self.missing: list[str] = []
        self._lattice_depth = 0

    # -- spans -------------------------------------------------------------------

    def enter(self, layer: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def leave(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, layer: str, fn, *args, **kwargs):
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        hook = getattr(self, HOOKS.get(name) or HOOKS.get("*" + layer) or "", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return self.call(layer, fn, *args, **kwargs)
            return hook(layer, fn, args, kwargs)

        return traced

    def _on_table(self, layer, fn, args, kwargs):
        out = self.call(layer, fn, *args, **kwargs)
        self.counts["groups.tables_built"] += 1
        self.counts["groups.table_cells"] += args[0].order ** 2
        return out

    def _on_hom_check(self, layer, fn, args, kwargs):
        out = self.call(layer, fn, *args, **kwargs)
        self.counts["groups.hom_checks"] += 1
        self.counts["groups.hom_check_cells"] += args[0].source.order ** 2
        return out

    def _on_enumerate(self, layer, fn, args, kwargs):
        G = args[0] if args else kwargs["G"]
        miss = getattr(G, "_subgroups", None) is None
        out = self.call(layer, fn, *args, **kwargs)
        self.counts["groups.enumerate_calls"] += 1
        if miss:
            self.counts["groups.enumerate_misses"] += 1
            self.counts["groups.subgroups"] += len(out)
        return out

    def _on_lattice_build(self, layer, fn, args, kwargs):
        self._lattice_depth += 1
        try:
            out = self.call(layer, fn, *args, **kwargs)
        finally:
            self._lattice_depth -= 1
        if self._lattice_depth == 0:
            self.counts["lattice.builds"] += 1
            self.counts["lattice.nodes"] += sum(out.counts_per_level())
        return out

    def _on_filtration(self, layer, fn, args, kwargs):
        self.counts["filtration.calls"] += 1
        return self.call(layer, fn, *args, **kwargs)

    def _on_classify(self, layer, fn, args, kwargs):
        self.counts["classify.calls"] += 1
        return self.call(layer, fn, *args, **kwargs)

    def _on_audit(self, layer, fn, args, kwargs):
        self.counts["audits.calls"] += 1
        return self.call(layer, fn, *args, **kwargs)

    def _on_report(self, layer, fn, args, kwargs):
        out = self.call(layer, fn, *args, **kwargs)
        if isinstance(out, str):
            self.counts["report.bytes"] += len(out.encode("utf-8"))
        return out

    def install(self) -> None:
        """Wrap every target at each attribute of the package that binds it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for layer, modname, names in TARGETS:
            home = sys.modules.get(f"{PKG}.{modname}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                self.found.add(name)
                if layer in ("audits", "report"):
                    self.found.add("*" + layer)
                wrapped = self.wrap(layer, name, original)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    # -- aggregation ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer, inclusive audit time and the counters."""
        self_s = {layer: 0.0 for layer in SELF_METRICS}
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        audits_total = 0.0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_s[i]
            if layer == "audits" and not self._inside(parent, "audits"):
                audits_total += end - start
        layers_found = {"cli"} | {layer for layer, _m, names in TARGETS
                                  if any(n in self.found for n in names)}
        out = {SELF_METRICS[layer]: v for layer, v in self_s.items() if layer in layers_found}
        if "audits" in layers_found:
            out["audits.total_s"] = audits_total
        for name, (_unit, needs) in COUNTERS.items():
            if needs in self.found:
                out[name] = self.counts[name]
        return out

    def _inside(self, idx: int, layer: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == layer:
                return True
            idx = self.spans[idx][3]
        return False
