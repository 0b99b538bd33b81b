"""Command-line driver: configuration ingestion, suites and reports.

Suites re-run the library's verification checks on a configured instance
and emit one record per check: identifier, law tag, defect, tolerance and
verdict.  Records go to stdout as a table and to one CSV file per suite.
Outputs are deterministic: randomized checks draw from the standard
library's `random.Random`, seeded by `--seed` and recorded in the report
header, so no run imports `numpy.random`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import (
    Algebra,
    diagonal_state,
    make_algebra,
    make_state,
    standard_form,
)
from .bimodule import NotCompletelyPositiveError, inner, product_formula_defect, verify_map
from .cells import (
    CellSystem,
    EmptyCouplingError,
    canonical_unit,
    cp_from_unit,
    generating_rank,
    semigroup_defect,
    unit_report,
)
from .classify import (
    block_permutation_semigroup,
    cocycle_equivalence,
    identity_semigroup,
    inner_semigroup,
)
from .cpdyn import (
    NonFiniteActionError,
    evaluate,
    identity_generator,
    law_defect,
    lindblad_generator,
    semigroup_from_generator,
    stochastic_pair_generator,
    unitary_conjugation_generator,
    verify_ucp,
)
from .dilation import (
    TruncatedLimit,
    TruncationError,
    UnitLawError,
    cocycle_from_unit,
    compression_defect,
    continuity_profile,
    corner_isometry_defect,
    minimality_evidence,
    unit_from_cocycle,
)
from .heatmarkov import (
    ModelError,
    cell_match_defect,
    embed_base_adjoint,
    graph_model,
    heat_dilation_defect,
    heat_kernel,
    make_model,
    path_measure,
)
from .partition import Partition, parse_partition, uniform

DEFAULT_SEED = 20250808

SUITES = ("check-cp", "cells", "refine", "roundtrip", "dilate", "classify", "heat")


class Check(NamedTuple):
    suite: str
    check_id: str
    anchor: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


class Report:
    def __init__(self, suite: str, seed: int, meta: dict | None = None):
        self.suite, self.seed, self.meta = suite, seed, {} if meta is None else meta
        self.checks, self.artifacts = [], {}

    def add(self, check_id: str, anchor: str, defect: float, tolerance: float):
        self.checks.append(Check(self.suite, check_id, anchor, float(defect), tolerance))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def complex_matrix(data, n: int | None = None) -> np.ndarray:
    """Row-major nested lists of [re, im] pairs to a complex matrix, n x n if n is given."""
    try:
        m = np.array(data, dtype=float)
    except (TypeError, ValueError):
        m = np.zeros(0)
    if m.ndim != 3 or m.shape[2] != 2 or n is not None and m.shape[:2] != (n, n):
        raise ValueError(f"expected {n or 'm'} x {n or 'n'} [re, im] pairs, got {data!r:.80}")
    return m.view(complex)[..., 0]


def real_matrix(data) -> np.ndarray:
    """Row-major nested lists of numbers to a real matrix."""
    try:
        m = np.array(data, dtype=float)
    except (TypeError, ValueError):
        m = np.zeros(0)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix of numbers, got {data!r:.80}")
    return m


def element_from_config(algebra: Algebra, data):
    """One matrix per algebra block; a one-block algebra also takes its bare matrix."""
    blocks = [data] if len(algebra.blocks) == 1 and np.ndim(data) == 3 else data
    if not isinstance(blocks, list) or len(blocks) != len(algebra.blocks):
        raise ValueError(f"expected a matrix per block of {list(algebra.blocks)}, got {data!r:.60}")
    return algebra.element([complex_matrix(b, n) for b, n in zip(blocks, algebra.blocks)])


_JSON_TYPES = {dict: "object", list: "array", int: "integer", str: "string",
               (int, float): "number", (str, int, float): "string or number"}


def _field(raw: dict, key: str, default, kind=dict, items=None):
    """The value under key, default if absent, of the kind, and with items a list of entries
    of that kind (a boolean is no number); any other value is a configuration error."""
    value = raw.get(key, default)
    if not _is(value, kind) or items is not None and not all(_is(v, items) for v in value):
        want = _JSON_TYPES[kind] + (f" of {_JSON_TYPES[items]}s" if items else "")
        raise ValueError(f"'{key}' must be a JSON {want}, got {value!r:.80}")
    return value


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _read_only(raw: dict, where: str, *keys: str):
    """Refuse a key of a configuration section that is not read for its chosen variant."""
    if unread := sorted(set(raw) - set(keys)):
        raise ValueError(f"{where} has keys that are not read: {', '.join(map(repr, unread))}; "
                         f"it reads {', '.join(map(repr, keys))}")


# the keys each semigroup variant reads besides 'builtin', by builtin name (None: a generator)
_SEMIGROUP_KEYS = {"stochastic_pair": (), "identity": (), "unitary_conjugation": ("hamiltonian",),
                   "lindblad": ("jumps", "hamiltonian"), None: ("generator",)}


class ExperimentConfig:
    def __init__(self, algebra: Algebra, sf, semigroup, partitions: list[Partition],
                 delta: Fraction, levels: int, seed: int, tol_scale: float, markov):
        self.algebra, self.sf, self.semigroup, self.partitions = algebra, sf, semigroup, partitions
        self.delta, self.levels, self.seed, self.tol_scale = delta, levels, seed, tol_scale
        self.markov = markov

    def tol(self, value: float) -> float:
        return value * self.tol_scale

    @cached_property
    def cells(self) -> CellSystem:
        """Cell system shared by the cells, refine, roundtrip and dilate suites."""
        return CellSystem(self.semigroup, self.sf)


def load_config(path: str | None, seed: int | None, tol_scale: float) -> ExperimentConfig:
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"the tolerance scale must be finite and positive, got {tol_scale}")
    raw = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(raw, dict):
        raise ValueError(f"the configuration must be a JSON object, got {raw!r:.80}")
    _read_only(raw, "the configuration", "algebra", "state", "semigroup", "partitions", "grid",
               "markov", "seed")
    blocks = _field(raw, "algebra", [1, 1], list, items=int)
    algebra = make_algebra(blocks)
    state_cfg = _field(raw, "state", {"weights": [1.0 / len(blocks)] * len(blocks)})
    _read_only(state_cfg, "'state'", "weights" if "weights" in state_cfg else "density")
    if "weights" in state_cfg:
        state = diagonal_state(algebra, _field(state_cfg, "weights", None, list, items=(int, float)))
    else:
        density = _field(state_cfg, "density", None, list)
        state = make_state(algebra, [complex_matrix(b) for b in density])
    sf = standard_form(algebra, state)

    sg_cfg = _field(raw, "semigroup", {"builtin": "stochastic_pair"})
    builtin = sg_cfg.get("builtin")
    _read_only(sg_cfg, "'semigroup'", "builtin", *_SEMIGROUP_KEYS.get(builtin, ()))
    if builtin == "stochastic_pair":
        pair, gen = stochastic_pair_generator()
        if algebra != pair:
            raise ValueError(f"the stochastic_pair semigroup needs algebra {list(pair.blocks)}, "
                             f"configured {list(algebra.blocks)}")
    elif builtin == "identity":
        gen = identity_generator(algebra)
    elif builtin == "unitary_conjugation":
        h = element_from_config(algebra, sg_cfg["hamiltonian"])
        gen = unitary_conjugation_generator(algebra, h)
    elif builtin == "lindblad":
        jumps = [element_from_config(algebra, j) for j in _field(sg_cfg, "jumps", None, list)]
        ham = element_from_config(algebra, sg_cfg["hamiltonian"]) if "hamiltonian" in sg_cfg else None
        gen = lindblad_generator(algebra, jumps, ham)
    elif builtin is None and "generator" in sg_cfg:
        gen = complex_matrix(sg_cfg["generator"])
    else:
        raise ValueError(f"unknown semigroup specification {sg_cfg}")
    semigroup = semigroup_from_generator(algebra, gen)

    parts = _field(raw, "partitions", ["1", "1/2,1/2", "1/4,1/4,1/4,1/4"], list, items=str)
    partitions = [parse_partition(p) for p in parts]
    grid = _field(raw, "grid", {})
    _read_only(grid, "'grid'", "delta", "levels")
    raw_delta = _field(grid, "delta", "1/4", (str, int, float))
    delta = Fraction(raw_delta)  # a float reads exactly
    levels = _field(grid, "levels", 4, int)
    # times are also keyed and evaluated as floats, so delta must be one: finite and nonzero
    if not 0 < delta <= sys.float_info.max or float(delta) == 0 or levels < 1:
        raise ValueError("the grid needs delta > 0 with a finite nonzero float value and "
                         f"levels >= 1, configured {raw_delta} and {levels}")
    markov = _field(raw, "markov", {})
    _read_only(markov, "'markov'", *(("mu", "laplacian") if "laplacian" in markov
                                     else ("graph", "states")))
    if "laplacian" in markov:
        model = make_model(_field(markov, "mu", None, list, items=(int, float)),
                           real_matrix(_field(markov, "laplacian", None, list)))
    else:
        model = graph_model(_field(markov, "graph", "cycle", str), _field(markov, "states", 5, int))
    config_seed = _field(raw, "seed", DEFAULT_SEED, int)
    return ExperimentConfig(
        algebra=algebra, sf=sf, semigroup=semigroup, partitions=partitions,
        delta=delta, levels=levels, seed=seed if seed is not None else config_seed,
        tol_scale=tol_scale, markov=model,
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_check_cp(cfg: ExperimentConfig) -> Report:
    rep = Report("check-cp", cfg.seed)
    for k in range(0, cfg.levels + 1):
        t = k * cfg.delta
        u = verify_ucp(evaluate(cfg.semigroup, t), cfg.tol(1e-10))
        rep.add(f"unital[{t}]", "ucp-map", u.unital_defect, cfg.tol(1e-10))
        rep.add(f"choi[{t}]", "ucp-map", max(0.0, -u.choi_min_eigenvalue), cfg.tol(1e-10))
    worst = law_defect(lambda t: evaluate(cfg.semigroup, t).action,
                       [(s, t) for s in [cfg.delta, 2 * cfg.delta]
                        for t in [cfg.delta, 3 * cfg.delta]])
    rep.add("semigroup-law", "semigroup-law", worst, cfg.tol(1e-10))
    return rep


def suite_cells(cfg: ExperimentConfig) -> Report:
    rep = Report("cells", cfg.seed)
    cs = cfg.cells
    for p in cfg.partitions:
        cell = cs.cell(p)
        # canonical unit vectors generate their parts: n^T (prod_t m_t) n is the cell's dim
        predicted, _ = generating_rank(canonical_unit(cs, p.parts), p)
        rep.add(f"dim{p}={cell.dim}", "cell-construction", abs(cell.dim - predicted), 0.5)
        if cell.gram_eigs.size:
            ratio = float(cell.gram_eigs.min() / cell.gram_eigs.max())
            rep.add(f"gram-spread{p}", "cell-construction", 0.0 if ratio > 0 else 1.0, 0.5)
        # composition checked on generator vectors (spanning-family images)
        pre = cell.h.dim * cell.k.dim
        cols = random.Random(cfg.seed).sample(range(pre), min(4, pre))
        basis = np.zeros((pre, len(cols)))
        basis[cols, range(len(cols))] = 1.0
        vecs = cell.embed_apply(basis)
        _, worst_res, _ = inner(cell, vecs, vecs, cfg.sf)
        rep.add(f"bounded-vector{p}", "bounded-vector-composition", worst_res, cfg.tol(1e-10))
    rng = random.Random(cfg.seed)
    draws = [[cfg.algebra.element([_complex_normal(rng, n) for n in cfg.algebra.blocks])
              for _ in range(4)] for _ in range(20)]
    worst = product_formula_defect(evaluate(cfg.semigroup, cfg.delta), draws, cfg.sf,
                                   g=cs.gns(cfg.delta)).max()
    rep.add("product-formula", "bounded-vector-composition", worst, cfg.tol(1e-10))
    return rep


# Largest product of a prefix cell's dimension and the next part's GNS
# dimension that a suite extends a cell by; generic semigroups on matrix
# blocks grow cell dimensions geometrically in the number of parts, so deep
# chains are only walked while they stay cheap.
_SPACE_BUDGET = 1500


def _affordable(cs: CellSystem, candidates: list[Partition]) -> list[Partition]:
    """The longest prefix of the candidates whose cells stay within the budget.

    Each cell is built part by part; the walk stops at the first candidate
    with an extension past `_SPACE_BUDGET`.
    """
    out = []
    for p in candidates:
        for i in range(1, len(p)):
            if cs.cell(Partition(p.parts[:i])).dim * cs.gns(p.parts[i]).dim > _SPACE_BUDGET:
                return out
        cs.cell(p)
        out.append(p)
    return out


def suite_refine(cfg: ExperimentConfig) -> Report:
    rep = Report("refine", cfg.seed)
    cs = cfg.cells
    chain = _affordable(cs, [uniform(1, 2 ** k) for k in range(5)])
    rep.meta["chain-depth"] = str(len(chain[-1]))
    steps = [cs.refinement(fine, coarse) for coarse, fine in zip(chain, chain[1:])]
    for fine, a in zip(chain[1:], steps):
        r = verify_map(a, bilinear=True, isometric=True, tol=cfg.tol(1e-10))
        rep.add(f"isometry[{len(fine)}]", "refinement-isometry",
                max(r.bilinear_defect, r.isometry_defect), cfg.tol(1e-10))
    worst = 0.0
    for i in range(len(chain) - 2):
        a20 = cs.refinement(chain[i + 2], chain[i]).matrix
        worst = max(worst, float(np.linalg.norm(steps[i + 1].matrix @ steps[i].matrix - a20, 2)))
    rep.add("composition-law", "refinement-functoriality", worst, cfg.tol(1e-10))
    return rep


def suite_roundtrip(cfg: ExperimentConfig) -> Report:
    parts = min(cfg.levels, 3)
    rep = Report("roundtrip", cfg.seed, meta={"rank-parts": str(parts)})
    cs = cfg.cells
    grid = [k * cfg.delta for k in range(cfg.levels + 1)]
    unit = canonical_unit(cs, grid)
    ur = unit_report(unit)
    rep.add("unit-unital", "unit-axioms", ur.unital_defect, cfg.tol(1e-10))
    rep.add("unit-factorization", "unit-axioms", ur.factorization_defect, cfg.tol(1e-10))
    family = cp_from_unit(unit)
    worst = max(
        float(np.linalg.norm(tm.action - evaluate(cfg.semigroup, t).action, 2))
        for t, tm in family.items()
    )
    rep.add("induced-semigroup", "unit-semigroup-correspondence", worst, cfg.tol(1e-10))
    rep.add("induced-law", "semigroup-law", semigroup_defect(family), cfg.tol(1e-10))
    rank, dim = generating_rank(unit, uniform(cfg.delta * parts, parts))
    rep.add("generating-rank", "generating-unit", float(abs(dim - rank)), 0.5)
    return rep


def suite_dilate(cfg: ExperimentConfig) -> Report:
    cs = cfg.cells
    levels = len(_affordable(cs, [uniform(k * cfg.delta, k) for k in range(1, cfg.levels + 1)]))
    rep = Report("dilate", cfg.seed,
                 meta={"delta": str(cfg.delta), "levels": str(levels),
                       "horizon": str(levels * cfg.delta)})
    grid = [k * cfg.delta for k in range(levels + 1)]
    unit = canonical_unit(cs, grid)
    tl = TruncatedLimit(unit, cfg.delta, levels)
    basis = list(cfg.algebra.basis())
    defects = [compression_defect(tl, k * cfg.delta, basis) for k in range(1, levels + 1)]
    rep.artifacts["dilate_residuals"] = [["t", "basis_index", "defect"]] + [
        [str(k * cfg.delta), str(mu), f"{defects[k - 1][mu]:.6e}"]
        for mu in range(len(basis)) for k in range(1, levels + 1)]
    rep.add("compression", "dilation-compression", max(d.max() for d in defects), cfg.tol(1e-9))
    try:
        mini = minimality_evidence(tl)
        rank_defect = float(abs(mini.top_dim - mini.span_rank))
    except UnitLawError as exc:  # the orbit rank rests on the unit law: not decided
        rep.meta["unit-law"] = f"level {exc.level} defect {exc.defect:.6e}"
        rank_defect = np.inf
    rep.add("minimality", "orbit-span", rank_defect, 0.5)
    prof = continuity_profile(tl)
    rep.add("continuity-sup", "unit-continuity", max(prof.values()), 10.0)
    w = cocycle_from_unit(tl, unit)
    rep.add("cocycle-law", "cocycle-unit-correspondence", w.law_defect(), cfg.tol(1e-9))
    back = unit_from_cocycle(tl, w)
    expected = tl.unit_level
    round_defect = max(float(np.linalg.norm(back[t] - expected[tl.grid_index(t)])) for t in back)
    rep.add("cocycle-roundtrip", "cocycle-unit-correspondence", round_defect, cfg.tol(1e-9))
    rep.add("corner-isometry", "cocycle-unit-correspondence",
            corner_isometry_defect(tl, w), cfg.tol(1e-9))
    return rep


def suite_classify(cfg: ExperimentConfig) -> Report:
    rep = Report("classify", cfg.seed)
    rng = random.Random(cfg.seed)
    alg = make_algebra([2])
    h = alg.element([_hermitian(rng, 2)])
    g = alg.element([_hermitian(rng, 2)])
    alpha = inner_semigroup(alg, h)
    beta = inner_semigroup(alg, g)
    res = cocycle_equivalence(alpha, beta, cfg.delta, cfg.levels, tol=cfg.tol(1e-9))
    rep.add("perturbed-pair", "cocycle-equivalence",
            res.conjugation_defect if res.equivalent else np.inf, cfg.tol(1e-9))
    for t, worst in sorted(res.conjugation_defects.items()):
        rep.add(f"conjugation[{t}]", "cocycle-equivalence", worst, cfg.tol(1e-9))
    res_rev = cocycle_equivalence(beta, alpha, cfg.delta, cfg.levels, tol=cfg.tol(1e-9))
    rep.add("symmetric", "cocycle-equivalence",
            0.0 if res_rev.equivalent == res.equivalent else np.inf, 0.5)
    alg2 = make_algebra([1, 1])
    swap = block_permutation_semigroup(alg2, (1, 0), cfg.delta)
    res2 = cocycle_equivalence(identity_semigroup(alg2), swap, cfg.delta, cfg.levels,
                               tol=cfg.tol(1e-9))
    rep.add("distinguishes-permutation", "cocycle-equivalence",
            np.inf if res2.equivalent else 0.0, 0.5)
    return rep


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard Gaussian draws of the given shape, row-major."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)


def _complex_normal(rng: random.Random, n: int) -> np.ndarray:
    """An n x n matrix with standard Gaussian real, then imaginary, parts."""
    return _normal(rng, n, n) + 1j * _normal(rng, n, n)


def _hermitian(rng: random.Random, n: int) -> np.ndarray:
    x = _complex_normal(rng, n)
    return (x + x.conj().T) / 2


def suite_heat(cfg: ExperimentConfig) -> Report:
    levels = min(cfg.levels, 3)
    rep = Report("heat", cfg.seed, meta={"levels": str(levels)})
    mdl = cfg.markov
    kernel_delta, _ = heat_kernel(mdl, float(cfg.delta))
    rep.artifacts["heat_kernel"] = (
        [["t", str(cfg.delta)]] + [[f"{v:.12e}" for v in row] for row in kernel_delta]
    )
    for t in [float(cfg.delta), 1.0]:
        _, kr = heat_kernel(mdl, t)
        rep.add(f"kernel-symmetry[{t}]", "kernel-properties", kr.symmetry_defect, cfg.tol(1e-12))
        rep.add(f"kernel-mass[{t}]", "kernel-properties", kr.mass_defect, cfg.tol(1e-12))
        rep.add(f"kernel-composition[{t}]", "kernel-properties", kr.composition_defect, cfg.tol(1e-12))
    pm = path_measure(mdl, uniform(1, 2))
    rep.add("path-mass", "path-measure", abs(pm.mass - 1.0), cfg.tol(1e-12))
    cs = CellSystem(mdl.semigroup, mdl.standard_form())
    for p in [Partition((Fraction(1),)), uniform(1, 2)]:
        defect, dc, dp = cell_match_defect(mdl, p, cs)
        rep.add(f"cell-match{p}", "path-space-cells", defect, cfg.tol(1e-10))
        rep.add(f"cell-dims{p}", "path-space-cells", float(abs(dc - dp)), 0.5)
    p2 = uniform(1, 2)
    base = embed_base_adjoint(mdl, p2, np.ones((mdl.states,) * 3))
    rep.add("adjoint-mass", "base-projection", float(np.abs(base - 1.0).max()), cfg.tol(1e-12))
    direct, formula = heat_dilation_defect(mdl, cfg.delta, levels,
                                           cfg.delta, _normal(random.Random(cfg.seed), mdl.states))
    rep.add("dilation-direct", "dilation-compression", direct, cfg.tol(1e-10))
    rep.add("dilation-formula", "base-projection", formula, cfg.tol(1e-10))
    return rep


RUNNERS = {
    "check-cp": suite_check_cp,
    "cells": suite_cells,
    "refine": suite_refine,
    "roundtrip": suite_roundtrip,
    "dilate": suite_dilate,
    "classify": suite_classify,
    "heat": suite_heat,
}


def write_csv(report: Report, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report.suite}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# seed", report.seed])
        for key, value in sorted(report.meta.items()):
            writer.writerow([f"# {key}", value])
        writer.writerow(["suite", "check_id", "anchor", "defect", "tolerance", "pass"])
        for c in report.checks:
            writer.writerow([c.suite, c.check_id, c.anchor,
                             f"{c.defect:.6e}", f"{c.tolerance:.6e}",
                             "pass" if c.passed else "FAIL"])
    for name, rows in report.artifacts.items():
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(rows)
    return path


def print_report(report: Report):
    print(f"== suite {report.suite} (seed {report.seed}) ==")
    width = max((len(c.check_id) for c in report.checks), default=10)
    for c in report.checks:
        verdict = "pass" if c.passed else "FAIL"
        print(f"  {c.check_id:<{width}}  {c.anchor:<32} defect {c.defect:.3e}"
              f"  tol {c.tolerance:.1e}  {verdict}")
    print(f"  -> {'all passed' if report.passed else 'FAILURES PRESENT'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="prodsys",
        description="Verification suites for cells, dilations and cocycle classification",
    )
    parser.add_argument("suite", choices=SUITES + ("all",))
    parser.add_argument("--config", default=None, help="JSON experiment configuration")
    parser.add_argument("--out", default="reports", help="output directory for CSV reports")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.seed, args.tol_scale)
        Path(args.out).mkdir(parents=True, exist_ok=True)  # an --out naming a file stops here
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        try:
            report = RUNNERS[name](cfg)
        except TruncationError as exc:
            print(f"suite {name}: truncation error: {exc}", file=sys.stderr)
            if exc.max_time is not None:
                print(f"  max admissible time: {exc.max_time}", file=sys.stderr)
            ok = False
            continue
        except NotCompletelyPositiveError as exc:
            print(f"suite {name}: not completely positive: {exc}", file=sys.stderr)
            ok = False
            continue
        except (EmptyCouplingError, NonFiniteActionError, ModelError) as exc:
            print(f"suite {name}: {exc}", file=sys.stderr)
            ok = False
            continue
        print_report(report)
        path = write_csv(report, Path(args.out))
        print(f"  csv: {path}")
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
