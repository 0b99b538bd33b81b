"""Outside-in tracer for prodsys.

The tracer wraps public functions and methods of the `prodsys` modules
from outside the package.  A function imported by several modules is
patched in every one of them (and in module-level dicts such as the CLI's
suite table), so `prodsys.cells.relative_tensor` and
`prodsys.dilation.relative_tensor` both record.  `uninstall` puts every
original object back and `restored` confirms it.

Timed targets record one span each: label, start, end, parent span and
optional sizes.  Tiny hot functions are only counted.  Spans stay in
memory; `write_spans` dumps them as JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

MODULES = ("algebra", "partition", "cpdyn", "bimodule", "cells",
           "dilation", "classify", "heatmarkov", "cli")

SUITES = ("check-cp", "cells", "refine", "roundtrip", "dilate", "classify", "heat")


@dataclass(frozen=True)
class Target:
    label: str          # "<module>.<name>", the metric prefix
    module: str         # prodsys submodule that defines the object
    qualname: str       # "func" or "Class.method"
    timed: bool = True  # False: count calls only
    sizes: str = ""     # name of the size probe on Probes, if any


def _t(label, qualname, sizes=""):
    return Target(label, label.split(".")[0], qualname, True, sizes)


def _c(label, module, qualname):
    return Target(label, module, qualname, False)


TARGETS = (
    _c("algebra.lmult_matrix", "algebra", "lmult_matrix"),
    _c("algebra.rmult_matrix", "algebra", "rmult_matrix"),
    _c("algebra.solve", "algebra", "StandardForm.solve_left"),
    _c("algebra.solve", "algebra", "StandardForm.solve_right"),
    _t("algebra.standard_form", "standard_form"),
    *(_t("partition." + f, f) for f in (
        "partition", "parse_partition", "uniform", "join", "refines",
        "grouping", "common_refinement", "coarsenings")),
    _t("cpdyn.evaluate", "evaluate", "evaluate"),
    _t("cpdyn.verify_ucp", "verify_ucp"),
    _t("cpdyn.choi_blocks", "choi_blocks"),
    _t("cpdyn.semigroup_from_generator", "semigroup_from_generator"),
    _t("cpdyn.lindblad_generator", "lindblad_generator"),
    _t("bimodule.gram_quotient", "gram_quotient", "gram_quotient"),
    _t("bimodule.relative_tensor", "relative_tensor", "relative_tensor"),
    _t("bimodule.gns_tensor", "gns_tensor", "gns_tensor"),
    _t("bimodule.pi_phi", "pi_phi"),
    _t("bimodule.left_element_of", "left_element_of"),
    _t("bimodule.product_formula_defect", "product_formula_defect"),
    _t("bimodule.verify_map", "verify_map"),
    _t("bimodule.l2_bimodule", "l2_bimodule"),
    _t("cells.cell", "CellSystem.cell", "cell"),
    _t("cells.gns", "CellSystem.gns"),
    _t("cells.collapse", "CellSystem.collapse"),
    _t("cells.refinement", "CellSystem.refinement"),
    _t("cells.elementary", "CellSystem.elementary"),
    _t("cells.multiply", "CellSystem.multiply"),
    _t("cells.canonical_unit", "canonical_unit"),
    _t("cells.unit_report", "unit_report"),
    _t("cells.cp_from_unit", "cp_from_unit"),
    _t("cells.semigroup_defect", "semigroup_defect"),
    _t("cells.generating_rank", "generating_rank"),
    _t("dilation.tower_build", "TruncatedLimit.__init__", "tower_build"),
    _t("dilation.split", "TruncatedLimit.split"),
    _t("dilation.embed_matrix", "TruncatedLimit.embed_matrix"),
    _t("dilation.dilate", "dilate", "dilate"),
    _t("dilation.compression_defect", "compression_defect"),
    _t("dilation.minimality_evidence", "minimality_evidence", "minimality_evidence"),
    _t("dilation.continuity_profile", "continuity_profile"),
    _t("dilation.law_defect", "Cocycle.law_defect"),
    _t("dilation.cocycle", "cocycle_from_unit"),
    _t("dilation.unit_from_cocycle", "unit_from_cocycle"),
    _t("dilation.unit_level_vectors", "unit_level_vectors"),
    _t("dilation.corner_isometry_defect", "corner_isometry_defect"),
    _t("classify.cocycle_equivalence", "cocycle_equivalence"),
    _t("classify.inner_semigroup", "inner_semigroup"),
    _t("classify.canonical_iso", "canonical_iso"),
    _t("heatmarkov.cell_match_defect", "cell_match_defect"),
    _t("heatmarkov.heat_kernel", "heat_kernel"),
    _t("heatmarkov.heat_dilation_defect", "heat_dilation_defect"),
    _t("heatmarkov.path_measure", "path_measure"),
    _t("heatmarkov.l2_cell", "l2_cell"),
    _t("heatmarkov.embed_base_adjoint", "embed_base_adjoint"),
    _t("heatmarkov.make_model", "make_model"),
    _t("heatmarkov.graph_model", "graph_model"),
    _t("cli.main", "main"),
    _t("cli.load_config", "load_config"),
    _t("cli.write_csv", "write_csv"),
    _t("cli.print_report", "print_report"),
    *(_t("cli.suite." + s, "suite_" + s.replace("-", "_")) for s in SUITES),
)


class Probes:
    """Size probes: record input sizes on spans and derived run counters.

    A probe gets (args, kwargs, result) and returns the span's sizes.
    Objects used as identity keys are kept alive so ids are never reused.
    """

    def __init__(self, counts: Counter):
        self.keep: list = []
        self.evaluated: set = set()
        self.cells: dict = {}
        self.counts = counts

    def gram_quotient(self, args, kwargs, out):
        return {"pre": int(args[0].shape[0]), "kept": int(out[2].size)}

    def relative_tensor(self, args, kwargs, out):
        return {"pre": int(args[0].dim * args[1].dim), "kept": int(out.dim)}

    def gns_tensor(self, args, kwargs, out):
        d = args[1].dim
        return {"pre": d * d, "kept": int(out.dim)}

    def evaluate(self, args, kwargs, out):
        sg, t = args[0], args[1]
        key = (id(sg), float(t))
        if key in self.evaluated:
            self.counts["cpdyn.evaluate.repeats"] += 1
        else:
            self.evaluated.add(key)
            self.keep.append(sg)
        return None

    def cell(self, args, kwargs, out):
        cs, p = args[0], args[1]
        key = (id(cs.semigroup), tuple(p.parts))
        seen = self.cells.setdefault(key, [])
        built = not any(obj is out for obj in seen)
        if built:
            if seen:
                self.counts["cells.cell.rebuilds"] += 1
            self.counts["cells.cell.builds"] += 1
            seen.append(out)
            self.keep.append(cs.semigroup)
        return {"parts": len(p), "dim": int(out.dim), "built": int(built)}

    def tower_build(self, args, kwargs, out):
        tl = args[0]
        return {"levels": int(tl.levels), "top_dim": int(tl.spaces[-1].dim)}

    def dilate(self, args, kwargs, out):
        return {"level": int(out.level), "dim": int(out.matrix.shape[0])}

    def minimality_evidence(self, args, kwargs, out):
        tl = args[0]
        depth = args[1] if len(args) > 1 else kwargs.get("depth")
        elements = args[2] if len(args) > 2 else kwargs.get("elements")
        n = depth if depth is not None else tl.levels
        d = tl.sf.algebra.dim
        b = d if elements is None else len(list(elements))
        return {"levels": int(n), "columns": d * b ** n, "top_dim": int(out.top_dim)}


def _resolve(module, qualname: str):
    """(owner, attribute, original) of a module function or class method."""
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, qualname, getattr(module, qualname)


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []    # [label, start, end, parent, sizes]
        self.counts: Counter = Counter()
        self.probes = Probes(self.counts)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, key, original, is_item)

    # -- wrappers -------------------------------------------------------

    def _timed(self, label: str, fn: Callable, probe: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, label: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded prodsys module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for name in MODULES:
                importlib.import_module("prodsys." + name)
            for tg in TARGETS:
                self._install(tg)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, tg: Target) -> None:
        module = importlib.import_module("prodsys." + tg.module)
        owner, attr, orig = _resolve(module, tg.qualname)
        if tg.timed:
            probe = getattr(self.probes, tg.sizes) if tg.sizes else None
            wrapped = self._timed(tg.label, orig, probe)
        else:
            wrapped = self._counted(tg.label, orig)
        if owner is not module:
            self._patch(owner, attr, orig, wrapped, item=False)
            return
        for mod in _prodsys_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, key, orig, wrapped, item=False)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patch(value, k, orig, wrapped, item=True)

    def _patch(self, owner, key, orig, wrapped, item: bool) -> None:
        if item:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig, item))

    def uninstall(self) -> None:
        """Put every original object back, last patch first."""
        while self._patches:
            owner, key, orig, item = self._patches.pop()
            if item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def patch_sites(self) -> list[tuple]:
        return list(self._patches)

    # -- output ---------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times([(s[1], s[2], s[3]) for s in self.spans])

    def write_spans(self, path, origin: float = 0.0) -> None:
        """One JSON line per span, times in seconds from `origin`."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (label, start, end, parent, sizes) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": label, "parent": parent,
                    "start": start - origin, "end": end - origin,
                    "self": selfs[i], "sizes": sizes or {},
                }) + "\n")


def _prodsys_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "prodsys" or name.startswith("prodsys."))]


def restored(patches: list[tuple]) -> list[str]:
    """Names of patch sites whose original object is not back in place."""
    bad = []
    for owner, key, orig, item in patches:
        current = owner[key] if item else (
            owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key))
        if current is not orig:
            bad.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{key}")
    return bad


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Duration of each (start, end, parent) span minus its children's coverage.

    Coverage is the length of the union of the direct children's intervals,
    clipped to the parent's interval, so overlapping children count once.
    """
    children: dict[int, list[int]] = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][0], start), min(spans[c][1], end))
                           for c in children.get(i, ())):
            if b <= reach:
                continue
            covered += b - max(a, reach)
            reach = b
        out.append((end - start) - covered)
    return out
