import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from prodsys.algebra import diagonal_state, lmult_matrix, make_algebra, standard_form
from prodsys.bimodule import Bimodule, l2_bimodule, numerical_rank, pi_phi, tensor_vec
import prodsys.cells
from prodsys.cells import CellSystem, Unit, canonical_unit, generating_rank
from prodsys.cli import load_config, suite_dilate
from prodsys.cpdyn import evaluate, identity_generator, semigroup_from_generator
from prodsys.dilation import (
    Cocycle,
    TruncatedLimit,
    TruncatedOperator,
    TruncationError,
    _standard_zinv,
    cocycle_from_levels,
    cocycle_from_unit,
    compression_defect,
    continuity_profile,
    corner_isometry_defect,
    dilate,
    minimality_evidence,
    represent,
    unit_from_cocycle,
    unit_level_vectors,
)

from conftest import (
    adapted_defect,
    cell_target_elementary,
    compose,
    corner_projection,
    dense_left,
    dense_maps,
    embedding_isometry_defect,
    level_recursion_embed,
    load_module,
    loop_compression_defect,
    loop_tower_cocycle_law_defect,
    mixed_semigroup,
    random_element,
)


def make_tl(pair, delta=Fraction(1, 4), levels=4):
    sg, sf = pair
    cs = CellSystem(sg, sf)
    grid = [k * delta for k in range(levels + 1)]
    unit = canonical_unit(cs, grid)
    return TruncatedLimit(cs, unit, delta, levels), cs, unit


def test_tower_dimensions(pair):
    tl, _, _ = make_tl(pair)
    assert [s.dim for s in tl.spaces] == [2, 3, 4, 5, 6]


def test_embeddings_are_isometries_and_compose(pair):
    tl, _, _ = make_tl(pair)
    for k in range(tl.levels + 1):
        for j in range(k + 1):
            b = tl.embed_matrix(k, j)
            assert np.linalg.norm(b.conj().T @ b - np.eye(tl.spaces[j].dim), 2) < 1e-10
    worst = 0.0
    for k in range(tl.levels + 1):
        for j in range(k + 1):
            for i in range(j + 1):
                d = np.linalg.norm(
                    tl.embed_matrix(k, j) @ tl.embed_matrix(j, i) - tl.embed_matrix(k, i), 2)
                worst = max(worst, d)
    assert worst < 1e-10


def test_identity_semigroup_tower_is_flat():
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    sg = semigroup_from_generator(alg, identity_generator(alg))
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 4)
    unit = canonical_unit(cs, [k * delta for k in range(5)])
    tl = TruncatedLimit(cs, unit, delta, 4)
    assert all(s.dim == sf.dim for s in tl.spaces)
    for k in range(5):
        b = tl.embed_matrix(4, k)
        assert np.linalg.norm(b @ b.conj().T - np.eye(tl.spaces[4].dim), 2) < 1e-12


def test_non_unital_unit_breaks_embedding_isometry(pair):
    sg, sf = pair
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 4)
    grid = [k * delta for k in range(4)]
    unital_tl = TruncatedLimit(cs, canonical_unit(cs, grid), delta, 3)
    assert embedding_isometry_defect(unital_tl) < 1e-10
    damped_tl = TruncatedLimit(cs, canonical_unit(cs, grid).scaled(0.5), delta, 3)
    assert embedding_isometry_defect(damped_tl) > 1e-2


def test_representation_is_faithful_unital_multiplicative(pair, rng):
    tl, _, _ = make_tl(pair)
    alg = tl.sf.algebra
    p = represent(tl, alg.identity()).on_top()
    assert np.linalg.norm(p @ p - p, 2) < 1e-12
    assert np.linalg.norm(p - corner_projection(tl), 2) < 1e-12
    for _ in range(5):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        pxy = represent(tl, x * y).on_top()
        px, py = represent(tl, x).on_top(), represent(tl, y).on_top()
        assert np.linalg.norm(px @ py - pxy, 2) < 1e-10
        assert abs(np.linalg.norm(px, 2) - x.norm()) < 1e-10


def tower(request, system, levels):
    sg_sf = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    return make_tl(sg_sf, levels=levels)


# cell dimensions grow as 4^k and 5^k on the m2_lindblad and mixed towers
TOWERS = [("pair", 4), ("m2_lindblad", 3), ("mixed", 2)]


def embed_oracle(tl, k, j):
    """The connecting map as the collapse of level k at k - j times xi (x) I; the reference."""
    if j == k:
        return np.eye(tl.spaces[k].dim, dtype=complex)
    jmat = tl.system.collapse(tl.partition_at(k), k - j)
    return jmat @ np.kron(tl.unit_level[k - j][:, None], np.eye(tl.spaces[j].dim))


@pytest.mark.parametrize("system, levels", TOWERS)
def test_embed_recursion_matches_collapse(request, monkeypatch, system, levels):
    # the connecting maps, the collapse of level k applied to xi (x) I, match
    # the dense collapse and the level recursion, also for a non-unital unit;
    # no collapse of level k's own partition is formed on the way
    _, cs, unit = tower(request, system, levels)
    collapse = CellSystem.collapse

    for lam in [unit, unit.scaled(0.5)]:
        tl = TruncatedLimit(cs, lam, Fraction(1, 4), levels)
        got = {}
        for k in range(levels + 1):
            def no_own_collapse(self, p, a, k=k):
                if p == tl.partition_at(k):
                    raise AssertionError(f"a connecting map formed the collapse of level {k} at {a}")
                return collapse(self, p, a)

            with monkeypatch.context() as m:
                m.setattr(CellSystem, "collapse", no_own_collapse)
                got.update({(k, j): tl.embed_matrix(k, j) for j in range(k + 1)})
        for (k, j), b in got.items():
            for ref in (embed_oracle(tl, k, j), level_recursion_embed(tl, k, j)):
                assert b.shape == ref.shape
                assert np.abs(b - ref).max() < 1e-12 * max(1.0, np.abs(ref).max()), (k, j)


def test_dilate_corner_unit_stays_identity(request):
    # theta(1) = 1 from every level, at a tolerance scaled by the frame weights
    for system, levels in TOWERS:
        tl, _, _ = tower(request, system, levels)
        scale = max(tl.sf.frame_weights)
        for level in range(tl.levels):
            one = TruncatedOperator(tl, level, np.eye(tl.spaces[level].dim, dtype=complex))
            for j in range(1, tl.levels - level + 1):
                out = dilate(tl, j * tl.delta, one)
                assert out.level == level + j
                assert np.abs(out.matrix - np.eye(tl.spaces[level + j].dim)).max() < 1e-12 * scale


def test_dilate_matches_relative_tensor_formula(m2_lindblad):
    # fold (op (x) 1) unfold from `split`, which forms the relative tensor of
    # the two levels; the operators are represented algebra elements and the
    # values of the unit's cocycle, which are not
    for system, levels in [(m2_lindblad, 3), (mixed_semigroup(), 2)]:
        tl, _, unit = make_tl(system, levels=levels)
        w = cocycle_from_unit(tl, unit)
        for j in range(1, tl.levels + 1):
            for level in range(tl.levels - j + 1):
                fold, unfold = tl.split(level + j, j)
                ops = [represent(tl, x).at_level(level) for x in tl.sf.algebra.basis()]
                ops.append(w.values[level * tl.delta].matrix)
                for op in ops:
                    expected = fold @ np.kron(op, np.eye(tl.spaces[j].dim)) @ unfold
                    got = dilate(tl, j * tl.delta, TruncatedOperator(tl, level, op))
                    assert got.level == level + j
                    assert np.abs(got.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("system, levels", TOWERS)
def test_frame_sum_is_right_action_of_center(request, system, levels):
    # Psi_k = sum_a L_{e_a} L_{e_a}* over the coordinate basis of each level
    tl, _, _ = tower(request, system, levels)
    weights = tl.sf.frame_weights
    z = tl.sf.algebra.diagonal(weights)
    for space in tl.spaces:
        maps = np.stack([pi_phi(space, e, tl.sf) for e in np.eye(space.dim)])
        psi = np.einsum("aij,akj->ik", maps, maps.conj())
        assert np.abs(psi - space.right_matrix(z)).max() < 1e-12 * max(weights)


@pytest.mark.parametrize("system, levels", TOWERS)
def test_frame_inverse_passes_through_the_corner(request, system, levels):
    # the corner is right-linear, R_k(z^-1) k0 = k0 R_0(z^-1), which is all that
    # lets theta apply R(z^-1) on the standard space only (`_standard_zinv`);
    # no quotient carries a right stack: R(x) is read off its blocks,
    # (+)_i I_kk (x) R_i(x), and must be the right factor's action carried
    # through the pair space, E (I (x) R_k(x)) L
    tl, _, _ = tower(request, system, levels)
    assert all(space.right is None for space in tl.spaces[1:])
    zinv = tl.sf.algebra.diagonal(1.0 / tl.sf.frame_weights)
    assert np.array_equal(np.diag(_standard_zinv(tl.sf)), tl.spaces[0].right_matrix(zinv))
    for k, space in enumerate(tl.spaces):
        k0 = tl.corner(k)
        want = k0 * _standard_zinv(tl.sf)
        assert np.abs(space.right_matrix(zinv) @ k0 - want).max() <= 1e-12 * np.abs(want).max()
    for k, space in enumerate(tl.spaces[1:], 1):
        factor, (embed, lift) = tl.spaces[1] if k > 1 else l2_bimodule(tl.sf), dense_maps(space)
        for x in tl.sf.algebra.basis():  # no basis element is symmetric on every block
            dense = embed @ np.kron(np.eye(space.quotient.hd), factor.right_matrix(x)) @ lift
            assert np.abs(space.right_matrix(x) - dense).max() <= 1e-12 * np.abs(dense).max()


def test_corner_maps_of_a_deep_tower_stay_small(monkeypatch, tmp_path):
    # the corner embedding of the dim-1024 top of the lindblad_m2 workload
    # (seed 307) at levels 4 and the cocycle's bounded-vector maps apply the
    # right action part by part: 68.5 MiB peak when pi_phi read a dense stack
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    cfg = load_config(str(path), 307, 1.0)
    delta, levels = cfg.delta, 4
    unit = canonical_unit(cfg.cells, [k * delta for k in range(levels + 1)])
    tl = TruncatedLimit(cfg.cells, unit, delta, levels)
    tracemalloc.start()
    try:
        k0 = tl.embed_matrix(levels, 0)
        cocycle_from_unit(tl, unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k0.shape == (1024, 4)
    assert peak < 4 * 2**20, peak


def test_checks_on_a_deep_tower_assemble_no_left_stack(monkeypatch, tmp_path):
    # the levels-4 tower of the lindblad_m2 workload (seed 307), built and
    # checked by the compression defect over the basis, the cocycle law and
    # the continuity profile, each applying the left parts of its level:
    # 136.9 MiB peak when every cell assembled a dense left stack, 34.7 without
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    cfg = load_config(str(path), 307, 1.0)
    delta, levels = cfg.delta, 4
    tracemalloc.start()
    try:
        unit = canonical_unit(cfg.cells, [k * delta for k in range(levels + 1)])
        tl = TruncatedLimit(cfg.cells, unit, delta, levels)
        worst = max(compression_defect(tl, k * delta, [x])[0]
                    for x in cfg.algebra.basis() for k in range(1, levels + 1))
        law = cocycle_from_unit(tl, unit).law_defect()
        continuity_profile(tl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tl.spaces[-1].dim == 1024 and max(worst, law) < 1e-9
    assert all(space.left is None for space in tl.spaces[1:])
    assert peak < 70 * 2**20, peak


def test_continuity_profile_memory_on_a_built_tower(monkeypatch, tmp_path):
    # the levels-4 tower of the lindblad_m2 workload (seed 307), built: the
    # profile applies the connecting maps to the top to d columns per level,
    # 14.6 MiB peak; 30.9 MiB when it formed the dense maps and a 1024-square
    # identity at the top
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    cfg = load_config(str(path), 307, 1.0)
    delta, levels = cfg.delta, 4
    unit = canonical_unit(cfg.cells, [k * delta for k in range(levels + 1)])
    tl = TruncatedLimit(cfg.cells, unit, delta, levels)
    tracemalloc.start()
    try:
        profile = continuity_profile(tl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tl.spaces[-1].dim == 1024 and len(profile) == levels * cfg.sf.dim
    assert peak < 22 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_warm_cocycle_law_forms_no_dense_value(monkeypatch, tmp_path):
    # the levels-4 tower of the lindblad_m2 workload (seed 307), its collapse
    # steps built by a first call: the law applies each w_s as its rank-d
    # factors b_s (R_0(z^-1) k0_s*), 2.8 MiB peak; 19.2 MiB when each w_s was
    # formed as a level-sized matrix and multiplied by the level's R(z^-1)
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    cfg = load_config(str(path), 307, 1.0)
    delta, levels = cfg.delta, 4
    unit = canonical_unit(cfg.cells, [k * delta for k in range(levels + 1)])
    tl = TruncatedLimit(cfg.cells, unit, delta, levels)
    w = cocycle_from_unit(tl, unit)
    cold = w.law_defect()
    tracemalloc.start()
    try:
        warm = w.law_defect()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tl.spaces[-1].dim == 1024 and warm == cold < 1e-9
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("system", ["pair", "m2_lindblad"])
def test_dilate_suite_forms_no_right_action(request, monkeypatch, system):
    # R(z^-1) is applied on the standard space only: no check places a level's
    # right action, which `dilate`, the public dense form, still does
    sg, sf = request.getfixturevalue(system)
    cfg = replace(load_config(None, 307, 1.0), algebra=sf.algebra, sf=sf, semigroup=sg, levels=3)
    monkeypatch.setattr(Bimodule, "right_matrix", lambda *args: pytest.fail("right_matrix formed"))
    rep = suite_dilate(cfg)
    assert rep.meta["levels"] == "3" and len(rep.checks) == 6 and rep.passed


@pytest.mark.parametrize("system, levels", TOWERS)
def test_dilated_representation_is_left_action(request, system, levels):
    # theta_t(pi(x)) is the left action of x on the level-t space
    tl, _, _ = tower(request, system, levels)
    scale = max(tl.sf.frame_weights)
    for k in range(tl.levels + 1):
        for x in tl.sf.algebra.basis():
            got = dilate(tl, k * tl.delta, represent(tl, x))
            assert got.level == k
            want = np.tensordot(x.vec(), dense_left(tl.spaces[k]), axes=1)
            assert np.abs(got.matrix - want).max() < 1e-12 * scale


@pytest.mark.parametrize("system, levels", TOWERS)
def test_thin_compression_matches_dense(request, system, levels):
    tl, cs, _ = tower(request, system, levels)
    for k in range(tl.levels + 1):
        t = k * tl.delta
        for x in tl.sf.algebra.basis():
            theta = dilate(tl, t, represent(tl, x))
            k0 = tl.embed_matrix(k, 0)
            dense = np.linalg.norm(k0.conj().T @ theta.matrix @ k0
                                   - lmult_matrix(evaluate(cs.semigroup, t)(x)), 2)
            assert abs(compression_defect(tl, t, [x])[0] - dense) < 1e-13


# the pair tower as deep as the pair_tower benchmark workload
ORACLE_TOWERS = [("pair", 16), ("m2_lindblad", 3), ("mixed", 2)]


@pytest.mark.parametrize("system, levels", ORACLE_TOWERS)
def test_stacked_compression_matches_the_element_loop(request, monkeypatch, system, levels):
    tl, cs, _ = tower(request, system, levels)
    basis = list(tl.sf.algebra.basis())

    def both(k):
        got = compression_defect(tl, k * tl.delta, basis)
        want = [loop_compression_defect(tl, k * tl.delta, x) for x in basis]
        assert got.shape == (len(basis),) and np.abs(got - want).max() <= 1e-13
        return got

    assert max(both(k).max() for k in range(tl.levels + 1)) < 1e-9
    # the top level's collapse C scaled by 1 + 1e-6: that level fails, on both routes alike
    top, apply = tl.partition_at(tl.levels), cs.apply_collapse

    def scaled(p, a, x, adjoint=False):
        out = apply(p, a, x, adjoint)
        return out * (1 + 1e-6) if p == top and not adjoint else out

    monkeypatch.setattr(cs, "apply_collapse", scaled)
    assert both(tl.levels).min() > 1e-8
    assert both(tl.levels - 1).max() < 1e-9


def test_compression_identity(pair):
    tl, _, _ = make_tl(pair)
    for x in tl.sf.algebra.basis():
        for k in range(0, tl.levels + 1):
            assert compression_defect(tl, k * tl.delta, [x])[0] < 1e-9


def test_compression_identity_near_log2(pair):
    # closest dyadic grid point to log 2 at step 1/8; both sides evaluated there
    sg, sf = pair
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 8)
    grid = [k * delta for k in range(9)]
    tl = TruncatedLimit(cs, canonical_unit(cs, grid), delta, 8)
    t = Fraction(round(np.log(2.0) * 8), 8)
    e1 = sf.algebra.element([[[1.0]], [[0.0]]])
    assert compression_defect(tl, t, [e1])[0] < 1e-9
    theta = dilate(tl, t, represent(tl, e1))
    k0 = tl.embed_matrix(theta.level, 0)
    compressed = k0.conj().T @ theta.matrix @ k0
    expected = lmult_matrix(evaluate(sg, t)(e1))
    assert abs(evaluate(sg, t)(e1).mats[0][0, 0] - np.exp(-float(t))) < 1e-12
    assert np.linalg.norm(compressed - expected, 2) < 1e-9


def test_dilation_is_multiplicative_and_semigroup(pair, rng):
    tl, _, _ = make_tl(pair)
    alg = tl.sf.algebra
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    t = tl.delta
    tx = dilate(tl, t, represent(tl, x))
    ty = dilate(tl, t, represent(tl, y))
    txy = dilate(tl, t, represent(tl, x * y))
    assert np.linalg.norm(tx.matrix @ ty.matrix - txy.matrix, 2) < 1e-9
    # theta_s of theta_t equals theta_(s+t) while inside the horizon
    a = represent(tl, x)
    lhs = dilate(tl, tl.delta, dilate(tl, 2 * tl.delta, a))
    rhs = dilate(tl, 3 * tl.delta, a)
    assert lhs.level == rhs.level
    assert np.linalg.norm(lhs.matrix - rhs.matrix, 2) < 1e-9


def test_corner_compression_operator_identity(pair, rng):
    tl, _, _ = make_tl(pair)
    alg = tl.sf.algebra
    p = corner_projection(tl)
    for x in alg.basis():
        for k in [1, 2, 3]:
            theta = dilate(tl, k * tl.delta, represent(tl, x)).on_top()
            lhs = p @ theta @ p
            rhs = represent(tl, evaluate(tl.system.semigroup, k * tl.delta)(x)).on_top()
            assert np.linalg.norm(lhs - rhs, 2) < 1e-9


def test_horizon_and_grid_errors(pair):
    tl, _, _ = make_tl(pair)
    a = represent(tl, tl.sf.algebra.identity())
    with pytest.raises(TruncationError):
        dilate(tl, Fraction(1, 3), a)
    b = dilate(tl, 2 * tl.delta, a)
    with pytest.raises(TruncationError) as err:
        dilate(tl, 3 * tl.delta, b)
    assert err.value.max_time == 2 * tl.delta


def block_unit_levels(tl, block):
    """Level vectors of the unit t -> p xi_t, p the central projection onto one block.

    Level 1 is p xi_delta, and level k fuses level k - 1 with it, so the unit
    law holds; the unit generates the proper sub-bimodule p E_delta.
    """
    p = tl.sf.algebra.diagonal([float(i == block) for i in range(len(tl.sf.algebra.blocks))])
    xi = np.tensordot(p.vec(), dense_left(tl.spaces[1]), axes=1) @ tl.unit_level[1]
    levels = [tl.sf.cyclic, xi]
    for k in range(2, tl.levels + 1):
        levels.append(tl.spaces[k].quotient.embed_pairs(levels[-1][:, None], xi[:, None])[:, 0])
    return levels


def test_minimality_full_and_subsampled(pair):
    tl, cs, _ = make_tl(pair, levels=3)
    rep = minimality_evidence(tl)
    assert rep.full
    assert rep.top_dim == 5
    # the unit cut down to the second block spans p E_delta and its powers only
    tl.unit_level = block_unit_levels(tl, 1)
    sub = minimality_evidence(tl)
    assert not sub.full
    assert (sub.span_rank, sub.top_dim) == (2, 5)
    cut = Unit(cs, {tl.delta: tl.unit_level[1]})
    family = cell_target_elementary(cs, cut, tl.partition_at(3).parts)
    assert sub.span_rank == numerical_rank(family)


def test_minimality_identity_semigroup():
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    sg = semigroup_from_generator(alg, identity_generator(alg))
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 2)
    unit = canonical_unit(cs, [k * delta for k in range(4)])
    tl = TruncatedLimit(cs, unit, delta, 3)
    rep = minimality_evidence(tl)
    assert rep.full and rep.top_dim == sf.dim


def test_minimality_of_a_block_unit_of_the_identity_semigroup():
    # t -> p_1 Omega is a unit of the identity semigroup on [1, 1]; it spans
    # one of the two dimensions at every level, its zero corners included
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    cs = CellSystem(semigroup_from_generator(alg, identity_generator(alg)), sf)
    delta = Fraction(1, 2)
    p1 = alg.diagonal([1.0, 0.0])
    vectors = {k * delta: tensor_vec(cs.gns(k * delta), p1, sf.cyclic) for k in range(1, 5)}
    unit = Unit(cs, {Fraction(0): sf.cyclic, **vectors})
    for levels in range(1, 5):
        tl = TruncatedLimit(cs, unit, delta, levels)
        rep = minimality_evidence(tl)
        oracle = numerical_rank(cell_target_elementary(cs, unit, tl.partition_at(levels).parts))
        assert (rep.span_rank, rep.top_dim) == (oracle, 2) == (1, 2)
        assert generating_rank(unit, tl.partition_at(levels)) == (1, 2)


def test_minimality_is_full_on_a_fine_lindblad_tower(m2_lindblad):
    # the one-part decision: the fold over 4 parts of 1/16 has 4^5 columns,
    # and an SVD of it lost directions to the product of the parts' conditions
    tl, _, _ = make_tl(m2_lindblad, delta=Fraction(1, 16), levels=4)
    rep = minimality_evidence(tl)
    assert rep.full and rep.top_dim == 1024


def test_continuity_profile_identity_semigroup_vanishes():
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    sg = semigroup_from_generator(alg, identity_generator(alg))
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 4)
    unit = canonical_unit(cs, [k * delta for k in range(5)])
    tl = TruncatedLimit(cs, unit, delta, 4)
    prof = continuity_profile(tl)
    assert max(prof.values()) < 1e-12


def test_continuity_profile_matches_closed_form(pair, m2_lindblad):
    # m2_lindblad's unit vectors are complex, so a conjugated contraction shows
    for system, levels in [(pair, 4), (m2_lindblad, 2)]:
        tl, cs, _ = make_tl(system, levels=levels)
        sg, sf = cs.semigroup, cs.sf
        prof = continuity_profile(tl)
        for (t, mu), value in prof.items():
            x = list(sf.algebra.basis())[mu]
            tm = evaluate(sg, t)
            sq = (sf.state(tm(x.adjoint() * x)).real
                  - 2 * sf.state(tm(x.adjoint()) * x).real
                  + sf.state(x.adjoint() * x).real)
            assert abs(value ** 2 - sq) < 1e-12


def test_continuity_profile_decreases_when_halving(pair):
    sg, sf = pair
    values = {}
    for k in [2, 3, 4]:
        delta = Fraction(1, 2 ** k)
        cs = CellSystem(sg, sf)
        unit = canonical_unit(cs, [j * delta for j in range(3)])
        tl = TruncatedLimit(cs, unit, delta, 2)
        prof = continuity_profile(tl)
        values[delta] = [prof[(delta, mu)] for mu in range(sf.dim)]
    for mu in range(sf.dim):
        assert values[Fraction(1, 4)][mu] > values[Fraction(1, 8)][mu] > values[Fraction(1, 16)][mu] > 0


def test_cocycle_of_unit_moves_corner_to_unit_line(pair):
    tl, cs, unit = make_tl(pair)
    w = cocycle_from_unit(tl, unit)
    levels = unit_level_vectors(tl, unit)
    for t, op in w.values.items():
        if t == 0:
            continue
        k = tl.grid_index(t)
        for x in tl.sf.algebra.basis():
            lhs = op.at_level(k) @ tl.embed_matrix(k, 0) @ tl.sf.embed_right(x)
            rhs = tl.spaces[k].right_matrix(x) @ levels[t]
            assert np.linalg.norm(lhs - rhs) < 1e-10


def dense_law_defect(w):
    """Cocycle law on dense top-level products theta_t(w_s) w_t, the reference."""
    tl, values = w.tl, w.values
    worst = 0.0
    times = sorted(t for t in values if t > 0)
    for s in times:
        for t in times:
            if s + t not in values or values[s].level + tl.grid_index(t) > tl.levels:
                continue
            lhs = compose(dilate(tl, t, values[s]), values[t])
            rhs = values[s + t]
            lvl = max(lhs.level, rhs.level)
            worst = max(worst, float(np.linalg.norm(lhs.at_level(lvl) - rhs.at_level(lvl), 2)))
    return worst


def dense_corner_defect(w):
    """Corner isometry defect from the dense top-level values, the reference."""
    tl = w.tl
    k0 = tl.embed_matrix(tl.levels, 0)
    worst = 0.0
    for t, op in w.values.items():
        if t > 0:
            wk = op.on_top() @ k0
            worst = max(worst, float(np.linalg.norm(wk.conj().T @ wk - np.eye(tl.sf.dim), 2)))
    return worst


@pytest.mark.parametrize("system, levels", TOWERS)
def test_thin_cocycle_law_matches_dense(request, system, levels, rng):
    tl, _, unit = tower(request, system, levels)
    for lam in [unit, unit.scaled(0.5)]:
        w = cocycle_from_unit(tl, lam)
        assert abs(w.law_defect() - dense_law_defect(w)) < 1e-12
        assert abs(corner_isometry_defect(tl, w) - dense_corner_defect(w)) < 1e-12
    # a broken value at 2 delta: both routes see the same defect
    two = 2 * tl.delta
    broken = Cocycle(tl, {**w.maps, two: 1.1 * w.maps[two]})
    defect = broken.law_defect()
    assert abs(defect - dense_law_defect(broken)) < 1e-12 * defect
    assert defect > 0.05 * np.linalg.norm(w.values[two].matrix, 2)
    assert abs(corner_isometry_defect(tl, broken) - dense_corner_defect(broken)) < 1e-12
    # a value at 2 delta off the corner's range: b_t and k0_t no longer coincide
    skewed = Cocycle(tl, {**w.maps, two: w.maps[two] + 0.1 * rng.standard_normal(w.maps[two].shape)})
    defect = corner_isometry_defect(tl, skewed)
    assert defect > 1e-3 and abs(defect - dense_corner_defect(skewed)) < 1e-12 * max(1.0, defect)
    # the law's thin Y needs only the corner to be right-linear, not b_t
    defect = skewed.law_defect()
    assert defect > 1e-3 and abs(defect - dense_law_defect(skewed)) < 1e-12 * max(1.0, defect)


@pytest.mark.parametrize("system, levels", ORACLE_TOWERS)
def test_stacked_cocycle_law_matches_the_pair_loop(request, system, levels):
    tl, _, unit = tower(request, system, levels)
    for lam in [unit, unit.scaled(0.5)]:
        w = cocycle_from_unit(tl, lam)
        assert w.law_defect() == loop_tower_cocycle_law_defect(w) < 1e-9
    # one cocycle map negated: the law fails, bit for bit as on the pair loop
    two = 2 * tl.delta
    broken = Cocycle(tl, {**w.maps, two: -w.maps[two]})
    assert broken.law_defect() == loop_tower_cocycle_law_defect(broken) > 1e-9


def test_cocycle_law_and_adaptedness(pair):
    tl, cs, unit = make_tl(pair)
    w = cocycle_from_unit(tl, unit)
    assert w.law_defect() < 1e-9
    assert adapted_defect(w) < 1e-12
    assert corner_isometry_defect(tl, w) < 1e-9  # unital case


def test_scaled_unit_scales_cocycle(pair):
    tl, cs, unit = make_tl(pair)
    w1 = cocycle_from_unit(tl, unit)
    w2 = cocycle_from_unit(tl, unit.scaled(0.5))
    for t in w1.values:
        if t == 0:
            continue
        scale = np.exp(-0.5 * float(t))
        assert np.linalg.norm(w2.values[t].matrix - scale * w1.values[t].matrix, 2) < 1e-10
    assert w2.law_defect() < 1e-9


def test_expanding_unit_rejected_as_cocycle_source(pair):
    tl, cs, unit = make_tl(pair)
    with pytest.raises(ValueError):
        cocycle_from_unit(tl, unit.scaled(-0.3))


def test_unit_cocycle_roundtrips(pair, rng):
    tl, cs, unit = make_tl(pair)
    for rate in [0.0, 0.41, 0.73]:
        lam = unit.scaled(rate)
        w = cocycle_from_unit(tl, lam)
        back = unit_from_cocycle(tl, w)
        expected = unit_level_vectors(tl, lam)
        for t in back:
            assert np.linalg.norm(back[t] - expected[t]) < 1e-9
        again = cocycle_from_levels(tl, back)
        for t in w.values:
            lvl = w.values[t].level
            assert np.linalg.norm(again.values[t].matrix - w.values[t].matrix, 2) < 1e-9


def word_loop_family(tl):
    """One decreasing word per choice of basis letters, as columns; the reference."""
    n, basis = tl.levels, list(tl.sf.algebra.basis())
    k0 = tl.embed_matrix(n, 0)
    thetas = {(k, i): dilate(tl, k * tl.delta, represent(tl, x)).on_top()
              for k in range(1, n + 1) for i, x in enumerate(basis)}
    cols = []
    for y in basis:
        for combo in np.ndindex(*([len(basis)] * n)):
            v = k0 @ tl.sf.embed_left(y)
            for k in range(1, n + 1):
                v = thetas[(k, combo[n - k])] @ v
            cols.append(v)
    return np.column_stack(cols)


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_minimality_rank_matches_word_loop(pair, m2_lindblad, levels):
    # b_y in the last slot spans what y does, also for the non-tracial
    # density of m2_lindblad; the words' rank is that of the identity
    systems = [pair] + [m2_lindblad] * (levels <= 3) + [mixed_semigroup()] * (levels <= 2)
    for system in systems:
        tl, _, _ = make_tl(system, levels=levels)
        rep = minimality_evidence(tl)
        words = word_loop_family(tl)
        sv = np.linalg.svd(words, compute_uv=False)
        assert rep.span_rank == int(np.sum(sv > 1e-10 * sv[0])) == rep.top_dim


def test_minimality_family_stays_thin(pair, monkeypatch):
    # the unthinned fold of 16 levels has 2^16 * 2 = 2^17 columns in 18 rows;
    # the identity ranks one part's corners, each of at most n_i n_j vectors
    tl, cs, unit = make_tl(pair, delta=Fraction(1, 16), levels=16)
    ranked = []
    rank = prodsys.cells.numerical_rank

    def recording(z):
        ranked.append(z.shape)
        return rank(z)

    monkeypatch.setattr(prodsys.cells, "numerical_rank", recording)
    rep = minimality_evidence(tl)
    assert rep.full and rep.top_dim == 18
    assert ranked == [(tl.spaces[1].dim, 1)] * 4
    full = cell_target_elementary(cs, unit, tl.partition_at(16).parts)
    assert full.shape == (18, 2 ** 17)
    assert numerical_rank(full) == rep.span_rank


def test_minimality_needs_the_unit_law(pair):
    # a sign flip at 2 delta leaves every level isometric but breaks xi_2d = xi_d (x) xi_d
    cs = CellSystem(*pair)
    delta = Fraction(1, 4)
    unit = canonical_unit(cs, [k * delta for k in range(4)])
    unit.vectors[2 * delta] = -unit.vectors[2 * delta]
    tl = TruncatedLimit(cs, unit, delta, 3)
    with pytest.raises(ValueError, match="unit law fails at level 2"):
        minimality_evidence(tl)


def test_cocycle_law_builds_one_extension_per_target_and_cut(pair, monkeypatch):
    # theta_t(w_s) applies C* and C of one collapse step: the step is built
    # once, where each application had built its own
    tl, _, unit = make_tl(pair, levels=6)
    w = cocycle_from_unit(tl, unit)
    built, extension = [], prodsys.cells.extension

    def counting_extension(e, x_adjoint, sub):
        built.append((id(e), id(sub)))  # one cell per target, one suffix cell per cut
        return extension(e, x_adjoint, sub)

    monkeypatch.setattr(prodsys.cells, "extension", counting_extension)
    assert w.law_defect() < 1e-9
    assert built and len(built) == len(set(built))
