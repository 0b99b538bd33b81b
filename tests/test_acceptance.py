"""End-to-end acceptance checks, one test per criterion.

Each test computes its defects first and then emits a single verdict line,
pass or fail, before asserting; tolerances are fixed here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from prodsys.algebra import (
    diagonal_state,
    make_algebra,
    standard_form,
)
from prodsys.bimodule import gns_tensor, product_formula_defect, verify_map
from prodsys.cells import CellSystem, canonical_unit, cp_from_unit
from prodsys.classify import E0Semigroup, cocycle_equivalence, inner_semigroup
from prodsys.cpdyn import (
    evaluate,
    lindblad_generator,
    semigroup_from_generator,
    stochastic_pair_generator,
)
from prodsys.dilation import (
    TruncatedLimit,
    cocycle_from_levels,
    cocycle_from_unit,
    compression_defect,
    continuity_profile,
    corner_isometry_defect,
    minimality_evidence,
    unit_from_cocycle,
    unit_level_vectors,
)
from prodsys.heatmarkov import (
    cell_match_defect,
    embed_base_adjoint,
    graph_model,
    heat_dilation_defect,
    heat_kernel,
)
from prodsys.partition import Partition, partition, refines, uniform

from conftest import SEED, path_maps, random_element, random_hermitian, random_state


def verdict(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def stochastic_system(weights=(0.5, 0.5)):
    algebra, gen = stochastic_pair_generator()
    sf = standard_form(algebra, diagonal_state(algebra, list(weights)))
    return CellSystem(semigroup_from_generator(algebra, gen), sf)


def lindblad_system(seed=SEED):
    rng = np.random.default_rng(seed)
    algebra = make_algebra([2])
    v = random_element(algebra, rng)
    h = random_hermitian(algebra, rng)
    sg = semigroup_from_generator(algebra, lindblad_generator(algebra, [v], h))
    sf = standard_form(algebra, random_state(algebra, rng))
    return CellSystem(sg, sf)


def random_rational_partition(rng, total: Fraction, n: int) -> Partition:
    """Seeded partition with n parts and denominator-24 rational cuts."""
    while True:
        cuts = sorted(rng.choice(np.arange(1, 24), size=n - 1, replace=False)) if n > 1 else []
        parts, prev = [], Fraction(0)
        for c in cuts:
            parts.append(total * Fraction(int(c), 24) - prev)
            prev = total * Fraction(int(c), 24)
        parts.append(total - prev)
        if all(p > 0 for p in parts):
            return Partition(tuple(parts))


def test_criterion_1_dimension_law():
    start = time.monotonic()
    cs = stochastic_system()
    rng = np.random.default_rng(SEED)
    mismatches = []
    for t in [Fraction(1, 2), Fraction(1), Fraction(2)]:
        for n in range(1, 7):
            for p in [uniform(t, n), random_rational_partition(rng, t, n)]:
                if cs.cell(p).dim != n + 2:
                    mismatches.append((t, p, cs.cell(p).dim))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 5.0
    verdict(1, ok, f"cell dimension is parts+2 for 1..6 parts at t in (1/2, 1, 2) "
                   f"[{elapsed:.2f}s]" + (f" mismatches {mismatches}" if mismatches else ""))


def test_criterion_2_product_formula_oracle():
    cs = lindblad_system()
    sf = cs.sf
    tm = evaluate(cs.semigroup, 0.6)
    g = gns_tensor(tm, sf)
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        xs = [random_element(sf.algebra, rng) for _ in range(4)]
        worst = max(worst, product_formula_defect(tm, [xs], sf, g=g)[0])
    verdict(2, worst <= 1e-10,
            f"bounded-vector product formula on 100 seeded quadruples (max defect {worst:.2e})")


def test_criterion_3_refinement_net():
    cs = stochastic_system()
    chain = [uniform(1, 2 ** k) for k in range(5)]  # 1, 2, 4, 8, 16 parts
    worst_iso = 0.0
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert refines(chain[j], chain[i])
            a = cs.refinement(chain[j], chain[i])
            rep = verify_map(a, bilinear=True, isometric=True, tol=1e-10)
            worst_iso = max(worst_iso, rep.bilinear_defect, rep.isometry_defect)
    worst_comp = 0.0
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            for k in range(j + 1, len(chain)):
                comp = cs.refinement(chain[k], chain[j]).matrix @ cs.refinement(chain[j], chain[i]).matrix
                direct = cs.refinement(chain[k], chain[i]).matrix
                worst_comp = max(worst_comp, float(np.linalg.norm(comp - direct, 2)))
    verdict(3, worst_iso <= 1e-10 and worst_comp <= 1e-10,
            f"dyadic refinement net to 16 parts: isometry defect {worst_iso:.2e}, "
            f"composition defect {worst_comp:.2e}")


def test_criterion_4_unit_semigroup_roundtrip():
    worst = 0.0
    for cs in [stochastic_system(), lindblad_system()]:
        grid = [Fraction(k, 4) for k in range(0, 9)]
        unit = canonical_unit(cs, grid)
        family = cp_from_unit(unit)
        for t, tm in family.items():
            d = np.linalg.norm(tm.action - evaluate(cs.semigroup, t).action, 2)
            worst = max(worst, float(d))
    verdict(4, worst <= 1e-10,
            f"unit-induced semigroup reproduces the original on the grid (max defect {worst:.2e})")


def test_criterion_5_dilation_tower():
    start = time.monotonic()
    cs = stochastic_system()
    delta, levels = Fraction(1, 8), 8
    grid = [k * delta for k in range(levels + 1)]
    unit = canonical_unit(cs, grid)
    tl = TruncatedLimit(unit, delta, levels)
    worst = 0.0
    for x in cs.sf.algebra.basis():
        for k in range(1, levels):
            worst = max(worst, compression_defect(tl, k * delta, [x])[0])
    mini = minimality_evidence(tl)
    elapsed = time.monotonic() - start
    verdict(5, worst <= 1e-9 and mini.full and elapsed < 60.0,
            f"compression identity at step 1/8 up to level 7 (max defect {worst:.2e}), "
            f"orbit span {mini.span_rank}/{mini.top_dim} [{elapsed:.2f}s]")


def test_criterion_6_cocycle_unit_bijection():
    cs = stochastic_system()
    delta, levels = Fraction(1, 4), 4
    grid = [k * delta for k in range(levels + 1)]
    base = canonical_unit(cs, grid)
    tl = TruncatedLimit(base, delta, levels)
    rng = np.random.default_rng(SEED + 2)
    rates = [0.0, float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.9, 1.6))]
    worst_unit, worst_cocycle, worst_law = 0.0, 0.0, 0.0
    corner_ok = True
    for rate in rates:
        lam = base.scaled(rate)
        w = cocycle_from_unit(tl, lam)
        worst_law = max(worst_law, w.law_defect())
        back = unit_from_cocycle(tl, w)
        expected = unit_level_vectors(tl, lam)
        worst_unit = max(worst_unit, max(
            float(np.linalg.norm(back[t] - expected[t])) for t in back))
        again = cocycle_from_levels(tl, back)
        worst_cocycle = max(worst_cocycle, max(
            float(np.linalg.norm(again.values[t].matrix - w.values[t].matrix, 2))
            for t in w.values))
        if rate == 0.0:
            corner_ok = corner_isometry_defect(tl, w) <= 1e-9
    ok = worst_unit <= 1e-9 and worst_cocycle <= 1e-9 and worst_law <= 1e-9 and corner_ok
    verdict(6, ok,
            f"unit/cocycle roundtrips on three seeded contractive units "
            f"(defects {worst_unit:.2e}, {worst_cocycle:.2e}, law {worst_law:.2e}); "
            f"unital case isometric on the corner")


def test_criterion_7_markov_suite():
    models = {"two-state chain": graph_model("path", 2), "5-state cycle": graph_model("cycle", 5)}
    worst_kernel, worst_gram, worst_adj, worst_dil = 0.0, 0.0, 0.0, 0.0
    dims_ok = True
    rng = np.random.default_rng(SEED + 3)
    for name, mdl in models.items():
        for t in [0.25, 0.5, 1.0, 2.0]:
            _, rep = heat_kernel(mdl, t)
            worst_kernel = max(worst_kernel, rep.symmetry_defect, rep.mass_defect,
                               rep.composition_defect)
        sf = mdl.standard_form()
        sg = semigroup_from_generator(sf.algebra, -mdl.laplacian.astype(complex))
        cs = CellSystem(sg, sf)
        for p in [partition([1]), uniform(1, 2)]:
            defect, dc, dp = cell_match_defect(mdl, p, cs)
            dims_ok = dims_ok and dc == dp
            worst_gram = max(worst_gram, defect)
        p2 = uniform(1, 2)
        cell_embed, _ = path_maps(mdl, p2)
        _, base_lift = path_maps(mdl, Partition(()))
        cols = []
        for y in range(mdl.states):
            ext = np.zeros((mdl.states,) * 3)
            ext[..., y] = 1.0
            cols.append(cell_embed @ ext.reshape(-1))
        b = np.column_stack(cols) @ base_lift
        f = rng.standard_normal((mdl.states,) * 3)
        formula = embed_base_adjoint(mdl, p2, f)
        matrix_route = base_lift.conj().T @ (b.conj().T @ (cell_embed @ f.reshape(-1)))
        worst_adj = max(worst_adj, float(np.abs(formula - matrix_route).max()))
        direct, formula_d = heat_dilation_defect(mdl, Fraction(1, 4), 3, Fraction(1, 2),
                                                 rng.standard_normal(mdl.states))
        worst_dil = max(worst_dil, direct, formula_d)
    ok = (worst_kernel <= 1e-12 and worst_gram <= 1e-10 and worst_adj <= 1e-12
          and worst_dil <= 1e-10 and dims_ok)
    verdict(7, ok,
            f"kernel properties {worst_kernel:.2e}, path-cell Gram match {worst_gram:.2e}, "
            f"adjoint formula {worst_adj:.2e}, tower compression {worst_dil:.2e}")


def test_criterion_8_classifier():
    rng = np.random.default_rng(SEED + 4)
    alg = make_algebra([2])

    def herm():
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return alg.element([(x + x.conj().T) / 2])

    h, g = herm(), herm()
    alpha = inner_semigroup(alg, h)
    delta, levels = Fraction(1, 4), 4
    # perturb alpha by the seeded unitary cocycle w_t = u_t^* c_t
    w_true = {}
    for k in range(1, levels + 1):
        t = float(k * delta)
        u = scipy.linalg.expm(1j * t * h.mats[0])
        c = scipy.linalg.expm(1j * t * g.mats[0])
        w_true[k * delta] = alg.element([u.conj().T @ c])

    def beta_action(t):
        wt = w_true.get(Fraction(t))
        if wt is None:
            u = scipy.linalg.expm(1j * float(t) * h.mats[0])
            c = scipy.linalg.expm(1j * float(t) * g.mats[0])
            wt = alg.element([u.conj().T @ c])
        conj = wt.adjoint()
        mat = np.zeros((4, 4), dtype=complex)
        for mu, x in enumerate(alg.basis()):
            mat[:, mu] = (conj * alpha.apply(t, x) * wt).vec()
        return mat

    beta = E0Semigroup(alg, beta_action)
    rep = cocycle_equivalence(alpha, beta, delta, levels, tol=1e-9)

    hp = herm()

    def broken_action(t):
        k = int(Fraction(t) / delta)
        shift = 0.3 if (k % 2 == 0 and k > 0) else 0.0
        u = scipy.linalg.expm(1j * (float(t) + shift) * hp.mats[0])
        return np.kron(u.conj().T, u.T)

    broken = E0Semigroup(alg, broken_action)
    rep2 = cocycle_equivalence(alpha, broken, delta, levels, tol=1e-9)
    ok = (rep.equivalent and rep.conjugation_defect <= 1e-9
          and rep.cocycle_law_defect <= 1e-9
          and not rep2.equivalent and rep2.first_failing_time == 2 * delta)
    verdict(8, ok,
            f"classifier certifies the seeded cocycle perturbation (residual "
            f"{rep.conjugation_defect:.2e}) and rejects the broken family at its first "
            f"bad grid time {rep2.first_failing_time}")


def test_criterion_9_continuity_profile_decreases():
    algebra, gen = stochastic_pair_generator()
    sf = standard_form(algebra, diagonal_state(algebra, [0.5, 0.5]))
    sg = semigroup_from_generator(algebra, gen)
    profiles = {}
    for k in [2, 3, 4]:
        delta = Fraction(1, 2 ** k)
        cs = CellSystem(sg, sf)
        unit = canonical_unit(cs, [j * delta for j in range(3)])
        tl = TruncatedLimit(unit, delta, 2)
        prof = continuity_profile(tl)
        profiles[delta] = [prof[(delta, mu)] for mu in range(sf.dim)]
    ok = all(
        profiles[Fraction(1, 4)][mu] > profiles[Fraction(1, 8)][mu]
        > profiles[Fraction(1, 16)][mu] > 0
        for mu in range(sf.dim)
    )
    verdict(9, ok, "shift-to-corner profile at the grid step strictly decreases when "
                   "the step halves (1/4 -> 1/8 -> 1/16) for every basis element")
