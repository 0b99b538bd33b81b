from fractions import Fraction

import numpy as np
import pytest

from prodsys.algebra import diagonal_state, lmult_matrix, make_algebra, standard_form
from prodsys.bimodule import pi_phi
from prodsys.cells import CellSystem, canonical_unit
from prodsys.cpdyn import evaluate, identity_generator, semigroup_from_generator
import prodsys.dilation
from prodsys.dilation import (
    Cocycle,
    TruncatedLimit,
    TruncatedOperator,
    TruncationError,
    cocycle_from_levels,
    cocycle_from_unit,
    compression_defect,
    continuity_profile,
    corner_isometry_defect,
    corner_projection,
    dilate,
    frame_weights,
    minimality_evidence,
    represent,
    unit_from_cocycle,
    unit_level_vectors,
)

from conftest import cell_target_elementary, mixed_semigroup, random_element


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
    assert unital_tl.embedding_isometry_defect() < 1e-10
    damped_tl = TruncatedLimit(cs, canonical_unit(cs, grid).scaled(0.5), delta, 3)
    assert damped_tl.embedding_isometry_defect() > 1e-2


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


def test_dilate_corner_unit_stays_identity(request):
    # theta(1) = 1 from every level, at a tolerance scaled by the frame weights
    for system, levels in TOWERS:
        tl, _, _ = tower(request, system, levels)
        scale = max(frame_weights(tl.sf))
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
    weights = frame_weights(tl.sf)
    z = tl.sf.algebra.diagonal(weights)
    for space in tl.spaces:
        maps = np.stack([pi_phi(space, e, tl.sf) for e in np.eye(space.dim)])
        psi = np.einsum("aij,akj->ik", maps, maps.conj())
        assert np.abs(psi - space.right_matrix(z)).max() < 1e-12 * max(weights)


@pytest.mark.parametrize("system, levels", TOWERS)
def test_dilated_representation_is_left_action(request, system, levels):
    # theta_t(pi(x)) is the left action of x on the level-t space
    tl, _, _ = tower(request, system, levels)
    scale = max(frame_weights(tl.sf))
    for k in range(tl.levels + 1):
        for x in tl.sf.algebra.basis():
            got = dilate(tl, k * tl.delta, represent(tl, x))
            assert got.level == k
            assert np.abs(got.matrix - tl.spaces[k].left_matrix(x)).max() < 1e-12 * scale


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
            assert abs(compression_defect(tl, t, x) - dense) < 1e-13


def test_compression_identity(pair):
    tl, _, _ = make_tl(pair)
    for x in tl.sf.algebra.basis():
        for k in range(0, tl.levels + 1):
            assert compression_defect(tl, k * tl.delta, x) < 1e-9


def test_compression_identity_near_log2(pair):
    # closest dyadic grid point to log 2 at step 1/8; both sides evaluated there
    sg, sf = pair
    cs = CellSystem(sg, sf)
    delta = Fraction(1, 8)
    grid = [k * delta for k in range(9)]
    tl = TruncatedLimit(cs, canonical_unit(cs, grid), delta, 8)
    t = Fraction(round(np.log(2.0) * 8), 8)
    e1 = sf.algebra.element([[[1.0]], [[0.0]]])
    assert compression_defect(tl, t, e1) < 1e-9
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


def test_minimality_full_and_subsampled(pair):
    tl, _, _ = make_tl(pair, levels=3)
    rep = minimality_evidence(tl)
    assert rep.full
    assert rep.top_dim == 5
    sub = minimality_evidence(tl, elements=[tl.sf.algebra.identity()])
    assert not sub.full
    assert sub.span_rank < sub.top_dim


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


def test_continuity_profile_matches_closed_form(pair):
    tl, cs, _ = make_tl(pair)
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
            lhs = dilate(tl, t, values[s]).compose(values[t])
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
def test_thin_cocycle_law_matches_dense(request, system, levels):
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


def test_cocycle_law_and_adaptedness(pair):
    tl, cs, unit = make_tl(pair)
    w = cocycle_from_unit(tl, unit)
    assert w.law_defect() < 1e-9
    assert w.adapted_defect() < 1e-12
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


def word_loop_family(tl, depth, elements):
    """One decreasing word per choice of letters, as columns; the reference."""
    k0 = tl.embed_matrix(tl.levels, 0)
    thetas = {(k, i): dilate(tl, k * tl.delta, represent(tl, x)).on_top()
              for k in range(1, depth + 1) for i, x in enumerate(elements)}
    cols = []
    for y in tl.sf.algebra.basis():
        for combo in np.ndindex(*([len(elements)] * depth)):
            v = k0 @ tl.sf.embed_left(y)
            for k in range(1, depth + 1):
                v = thetas[(k, combo[depth - k])] @ v
            cols.append(v)
    return np.column_stack(cols)


def recorded_minimality(monkeypatch, tl, **kwargs):
    """(report, family whose rank it took) of one `minimality_evidence` call."""
    seen = []
    rank = prodsys.dilation.numerical_rank

    def recording(z, rtol):
        seen.append(z)
        return rank(z, rtol)

    monkeypatch.setattr(prodsys.dilation, "numerical_rank", recording)
    rep = minimality_evidence(tl, **kwargs)
    monkeypatch.setattr(prodsys.dilation, "numerical_rank", rank)
    (z,) = seen
    return rep, z


def assert_same_singular_values(z, reference):
    got = np.linalg.svd(z, compute_uv=False)
    full = np.linalg.svd(reference, compute_uv=False)
    n = min(len(got), len(full))
    scale = 1e-12 * full[0]
    assert np.abs(got[:n] - full[:n]).max() <= scale
    assert got[n:].max(initial=0.0) <= scale and full[n:].max(initial=0.0) <= scale


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_minimality_rank_matches_word_loop(pair, m2_lindblad, monkeypatch, depth):
    # with b_y in the last slot the fold has the words' singular values,
    # also for the non-tracial density of m2_lindblad
    towers = [(pair, 3), (pair, 4), (m2_lindblad, 2), (m2_lindblad, 3), (mixed_semigroup(), 2)]
    for system, levels in towers:
        if depth > levels:
            continue
        tl, _, _ = make_tl(system, levels=levels)
        alg = tl.sf.algebra
        basis = list(alg.basis())
        for elements in [basis, basis[:1], [alg.identity()], [basis[-1], alg.identity()]]:
            rep, z = recorded_minimality(monkeypatch, tl, depth=depth, elements=elements)
            words = word_loop_family(tl, depth, elements)
            sv = np.linalg.svd(words, compute_uv=False)
            assert rep.span_rank == int(np.sum(sv > 1e-10 * sv[0]))
            assert_same_singular_values(z, words)


def test_minimality_family_stays_thin(pair, monkeypatch):
    # the unthinned fold of 16 levels has 2^16 * 2 = 2^17 columns in 18 rows
    tl, cs, unit = make_tl(pair, delta=Fraction(1, 16), levels=16)
    rep, z = recorded_minimality(monkeypatch, tl)
    assert rep.full and rep.top_dim == 18
    assert z.shape[1] <= z.shape[0] == 18
    # b_y in place of y in the last slot: y is the minor column index
    full = cell_target_elementary(cs, unit, tl.partition_at(16).parts)
    full = (full.reshape(18, -1, 2) @ (tl.sf.solve_right_matrix @ tl.sf.embed_left_matrix))
    full = full.reshape(18, -1)
    assert full.shape == (18, 2 ** 17)
    assert_same_singular_values(z, full)


def test_minimality_depth_bounds(pair):
    tl, _, _ = make_tl(pair, levels=3)
    with pytest.raises(TruncationError):
        minimality_evidence(tl, depth=4)
    rep = minimality_evidence(tl, depth=0)
    assert rep.span_rank == tl.sf.dim and rep.top_dim == 5


def test_minimality_needs_the_unit_law(pair):
    # a sign flip at 2 delta leaves every level isometric but breaks xi_2d = xi_d (x) xi_d
    cs = CellSystem(*pair)
    delta = Fraction(1, 4)
    unit = canonical_unit(cs, [k * delta for k in range(4)])
    unit.vectors[2 * delta] = -unit.vectors[2 * delta]
    tl = TruncatedLimit(cs, unit, delta, 3)
    assert minimality_evidence(tl, depth=0).span_rank == tl.sf.dim
    with pytest.raises(ValueError, match="unit law fails at level 2"):
        minimality_evidence(tl, depth=1)
