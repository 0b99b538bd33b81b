"""Per-layer metrics of a traced run, named `<module>.<function>.<stat>`.

`span_metrics` reduces a tracer's spans and counters; `run_metrics` adds the
facts read from the run's CSVs and the tracing overhead.  `LAYER_METRICS`
lists every name with its unit and direction, in the order `BENCHMARK.json`
declares them.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import MODULES, SUITES

_TIMED = {
    "bimodule": ("relative_tensor", "gns_tensor", "pi_phi"),
    "cells": ("collapse", "refinement", "elementary", "generating_rank",
              "unit_report", "cp_from_unit"),
    "dilation": ("tower_build", "dilate", "split", "law_defect",
                 "compression_defect", "cocycle"),
    "heatmarkov": ("cell_match_defect", "heat_kernel", "heat_dilation_defect"),
    "classify": ("cocycle_equivalence",),
}


def _layer_metrics() -> list[tuple[str, str, str]]:
    out = [
        ("bimodule.gram_quotient.calls", "count", "lower"),
        ("bimodule.gram_quotient.self_s", "s", "lower"),
        ("bimodule.gram_quotient.pre_dim_max", "count", "lower"),
        ("bimodule.gram_quotient.kept_ratio", "1", "higher"),
        ("bimodule.gram_quotient.gram_mb", "MB", "lower"),
    ]
    for module, names in _TIMED.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count", "lower"))
            out.append((f"{module}.{name}.self_s", "s", "lower"))
        if module == "cells":
            out += [("cells.cell.calls", "count", "lower"),
                    ("cells.cell.build_ratio", "1", "lower"),
                    ("cells.cell.rebuilds", "count", "lower")]
        if module == "dilation":
            out += [("dilation.minimality_evidence.self_s", "s", "lower"),
                    ("dilation.minimality_evidence.columns", "count", "lower")]
    out += [
        ("cpdyn.evaluate.calls", "count", "lower"),
        ("cpdyn.evaluate.repeat_ratio", "1", "lower"),
        ("cpdyn.verify_ucp.calls", "count", "lower"),
        ("algebra.lmult_matrix.calls", "count", "lower"),
        ("algebra.rmult_matrix.calls", "count", "lower"),
        ("algebra.solve.calls", "count", "lower"),
        ("partition.calls", "count", "lower"),
    ]
    out += [(f"cli.suite.{s}.s", "s", "lower") for s in SUITES]
    out += [
        ("cli.load_config.s", "s", "lower"),
        ("cli.dilate.levels", "count", "higher"),
        ("cli.refine.chain_depth", "count", "higher"),
        ("cli.checks", "count", "higher"),
    ]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


LAYER_METRICS = _layer_metrics()


def span_metrics(tracer) -> dict[str, float]:
    """Everything the spans and counters of one traced run determine."""
    calls: Counter = Counter(tracer.counts)
    self_s: dict[str, float] = defaultdict(float)
    dur: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = {m: 0.0 for m in MODULES}
    pre, kept, columns = [], [], 0
    for (label, start, end, _, sizes), own in zip(tracer.spans, tracer.self_times()):
        calls[label] += 1
        self_s[label] += own
        dur[label] += end - start
        module_self[label.split(".")[0]] += own
        if label == "bimodule.gram_quotient":
            pre.append(sizes["pre"])
            kept.append(sizes["kept"])
        elif label == "dilation.minimality_evidence":
            columns += sizes["columns"]
    out = {
        "bimodule.gram_quotient.calls": calls["bimodule.gram_quotient"],
        "bimodule.gram_quotient.self_s": self_s["bimodule.gram_quotient"],
        "bimodule.gram_quotient.pre_dim_max": max(pre, default=0),
        "bimodule.gram_quotient.kept_ratio": sum(kept) / sum(pre) if pre else 0.0,
        "bimodule.gram_quotient.gram_mb": sum(16 * n * n for n in pre) / 1e6,
        "cells.cell.calls": calls["cells.cell"],
        "cells.cell.build_ratio": (calls["cells.cell.builds"] / calls["cells.cell"]
                                   if calls["cells.cell"] else 0.0),
        "cells.cell.rebuilds": calls["cells.cell.rebuilds"],
        "dilation.minimality_evidence.self_s": self_s["dilation.minimality_evidence"],
        "dilation.minimality_evidence.columns": columns,
        "cpdyn.evaluate.calls": calls["cpdyn.evaluate"],
        "cpdyn.evaluate.repeat_ratio": (calls["cpdyn.evaluate.repeats"] / calls["cpdyn.evaluate"]
                                        if calls["cpdyn.evaluate"] else 0.0),
        "cpdyn.verify_ucp.calls": calls["cpdyn.verify_ucp"],
        "algebra.lmult_matrix.calls": calls["algebra.lmult_matrix"],
        "algebra.rmult_matrix.calls": calls["algebra.rmult_matrix"],
        "algebra.solve.calls": calls["algebra.solve"],
        "partition.calls": sum(v for k, v in calls.items() if k.startswith("partition.")),
        "cli.load_config.s": dur["cli.load_config"],
    }
    for module, names in _TIMED.items():
        for name in names:
            out[f"{module}.{name}.calls"] = calls[f"{module}.{name}"]
            out[f"{module}.{name}.self_s"] = self_s[f"{module}.{name}"]
    for s in SUITES:
        out[f"cli.suite.{s}.s"] = dur[f"cli.suite.{s}"]
    for m in MODULES:
        out[f"{m}.self_s"] = module_self[m]
    return out


def run_metrics(spans: dict[str, float], meta: dict[str, dict], n_checks: int,
                overhead_s: float) -> dict[str, float]:
    """Span metrics plus the CSV `# meta` facts and the tracing overhead."""
    out = dict(spans)
    out["cli.dilate.levels"] = int(meta.get("dilate", {}).get("levels", 0))
    out["cli.refine.chain_depth"] = int(meta.get("refine", {}).get("chain-depth", 0))
    out["cli.checks"] = n_checks
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _ in LAYER_METRICS}
