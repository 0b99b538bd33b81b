import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import prodsys.cpdyn
from prodsys.algebra import expm
from prodsys.bimodule import GRAM_RTOL
from prodsys.cells import CellSystem
from prodsys.cli import Check
from prodsys.cpdyn import semigroup_from_generator
from prodsys.dilation import TruncationError, grid_index
from prodsys.heatmarkov import (
    HeatDilation,
    ModelError,
    _glued_columns,
    box,
    cell_match_defect,
    embed_base_adjoint,
    graph_model,
    heat_dilation_defect,
    heat_kernel,
    l2_cell,
    make_model,
    path_measure,
)
from prodsys.partition import Partition, grouping, partition, uniform

from conftest import SEED, path_maps, reversible_chain


# -- oracles: the dense routes that the production checks replace ------------

def slot_product(fs, gs):
    """Path function f1(x1) g1(x2) f2(x2) ... fn(xn) gn(x_{n+1})."""
    n = len(fs)
    factors = [np.asarray(fs[0], dtype=complex)]
    for i in range(1, n):
        factors.append(np.asarray(gs[i - 1], dtype=complex) * np.asarray(fs[i], dtype=complex))
    factors.append(np.asarray(gs[n - 1], dtype=complex))
    out = factors[0]
    for v in factors[1:]:
        out = out[..., None] * v
    return out


def indicator_products(m, n):
    """`slot_product` of every choice of state indicator slots, as columns.

    Column (f_1, g_1, ..., f_n, g_n), in kron order, is the indicator of
    the path (f_1, ..., f_n, g_n) if g_i = f_{i+1} for all i < n, else zero:
    I (x) C (x) ... (x) C (x) I with C[x, (g, f)] = delta(x, g) delta(x, f).
    """
    eye = np.eye(m)
    glue = np.einsum("xg,xf->xgf", eye, eye).reshape(m, m * m)
    return functools.reduce(np.kron, [eye] + [glue] * (n - 1) + [eye])


def dense_cell_match_oracle(mdl, p, cs):
    """Largest entry of the m^{2n}-square Gram difference over all slot columns."""
    n = len(p)
    z = cs.family(p.parts, [np.eye(cs.sf.dim)] * n, [cs.sf.embed_left_matrix] * n)
    y = path_maps(mdl, p)[0] @ indicator_products(mdl.states, n)
    return float(np.abs(z.conj().T @ z - y.conj().T @ y).max())


def dense_theta(hd, op, op_level, t):
    """Target-level matrix of the shifted operator, lifted by np.kron."""
    j = grid_index(t, hd.delta, hd.levels)
    pre = np.sqrt(hd.weights[op_level])
    a_func = np.kron((op / pre[:, None]) * pre[None, :], np.eye(hd.m ** j))
    w = np.sqrt(hd.weights[op_level + j])
    return (w[:, None] * a_func) / w[None, :]


def refinement_duplication_matrix(mdl, fine, coarse):
    """Path-space refinement: read the first variable of each refined group.

    Maps weighted coordinates of the coarse path space into the fine one,
    duplicating each coarse variable across its group.
    """
    groups = grouping(fine, coarse)
    m = mdl.states
    nf = len(fine)
    positions = []
    pos = 0
    for g in groups:
        positions.append(pos)
        pos += len(g)
    positions.append(pos)
    fine_idx = np.arange(m ** (nf + 1))
    digits = np.zeros((nf + 1, m ** (nf + 1)), dtype=int)
    rem = fine_idx.copy()
    for axis in range(nf, -1, -1):
        digits[axis] = rem % m
        rem //= m
    coarse_of_fine = np.zeros(m ** (nf + 1), dtype=int)
    for pos in positions:
        coarse_of_fine = coarse_of_fine * m + digits[pos]
    cols = np.zeros((m ** (nf + 1), m ** (len(coarse) + 1)))
    cols[fine_idx, coarse_of_fine] = 1.0
    return path_maps(mdl, fine)[0] @ cols @ path_maps(mdl, coarse)[1]


@pytest.fixture
def two_state():
    return graph_model("path", 2)


@pytest.fixture
def cycle5():
    return graph_model("cycle", 5)


@pytest.fixture
def cycle3():
    return graph_model("cycle", 3)


@pytest.fixture
def path3():
    return graph_model("path", 3)


@pytest.fixture
def path4():
    return graph_model("path", 4)


@pytest.fixture
def chain6():
    """Seeded reversible chain on six states with unequal weights."""
    return make_model(*reversible_chain(SEED, 6))


def heat_system(mdl):
    sf = mdl.standard_form()
    sg = semigroup_from_generator(sf.algebra, -mdl.laplacian.astype(complex))
    return CellSystem(sg, sf)


def test_two_state_kernel_closed_form(two_state):
    for t in [0.25, 1.0, 2.0]:
        p, rep = heat_kernel(two_state, t)
        e = np.exp(-2 * t)
        expected = np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.abs(p - expected).max() < 1e-12
        assert rep.symmetry_defect < 1e-12
        assert rep.mass_defect < 1e-12
        assert rep.composition_defect < 1e-12


def test_kernel_tends_to_stationarity(cycle5):
    p, _ = heat_kernel(cycle5, 50.0)
    assert np.abs(p - 1.0).max() < 1e-10


def test_kernel_properties_on_cycle(cycle5):
    for t in [0.3, 0.7, 1.0]:
        _, rep = heat_kernel(cycle5, t)
        assert rep.symmetry_defect < 1e-12
        assert rep.mass_defect < 1e-12
        assert rep.composition_defect < 1e-12
    # two-sided composition at (0.3, 0.7)
    p3, _ = heat_kernel(cycle5, 0.3)
    p7, _ = heat_kernel(cycle5, 0.7)
    p10, _ = heat_kernel(cycle5, 1.0)
    composed = (p3 * cycle5.mu[None, :]) @ p7
    assert np.abs(composed - p10).max() < 1e-12


def test_transition_is_computed_once_per_time(chain6, monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(prodsys.cpdyn, "expm", counting_expm)
    first = chain6.transition(Fraction(1, 4))
    assert len(calls) == 1
    assert chain6.transition(0.25) is first
    assert len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0
    assert np.array_equal(first, expm(-0.25 * chain6.laplacian))
    assert chain6.transition(0.5) is not first
    assert len(calls) == 2
    assert "_cache" not in repr(chain6)


def test_kernel_rejects_nonpositive_time(two_state):
    with pytest.raises(ValueError):
        heat_kernel(two_state, 0.0)


def test_model_validation_catches_asymmetry():
    with pytest.raises(ModelError):
        make_model([0.5, 0.5], np.array([[1.0, -1.0], [-0.5, 0.5]]))


@pytest.mark.parametrize("mu, lap", [
    ([0.5, 0.5], [[np.nan, -1.0], [-1.0, 1.0]]),
    ([0.5, 0.5], [[np.inf, -1.0], [-1.0, 1.0]]),
    ([np.nan, 0.5], [[1.0, -1.0], [-1.0, 1.0]]),
])
def test_model_validation_rejects_non_finite_data(mu, lap):
    with pytest.raises(ModelError):
        make_model(mu, np.array(lap))


def test_path_measure_single_step(two_state):
    t = 0.6
    pm = path_measure(two_state, partition([Fraction(3, 5)]))
    kernel, _ = heat_kernel(two_state, t)
    expected = kernel * np.outer(two_state.mu, two_state.mu)
    assert np.abs(pm.weights - expected).max() < 1e-12
    assert abs(pm.mass - 1.0) < 1e-12
    # off-diagonal joint weight (1 - exp(-2t)) / 4
    assert abs(pm.weights[0, 1] - (1 - np.exp(-2 * t)) / 4) < 1e-12


def test_path_measure_marginalization(cycle5):
    p2 = partition([Fraction(1, 4), Fraction(3, 4)])
    pm2 = path_measure(cycle5, p2)
    pm1 = path_measure(cycle5, partition([1]))
    assert np.abs(pm2.weights.sum(axis=1) - pm1.weights).max() < 1e-12
    assert abs(pm2.mass - 1.0) < 1e-12


def test_path_measure_interior_marginalization(cycle5):
    p3 = partition([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    pm3 = path_measure(cycle5, p3)
    merged = path_measure(cycle5, partition([Fraction(1, 2), Fraction(1, 2)]))
    assert np.abs(pm3.weights.sum(axis=1) - merged.weights).max() < 1e-12
    merged_last = path_measure(cycle5, partition([Fraction(1, 4), Fraction(3, 4)]))
    assert np.abs(pm3.weights.sum(axis=2) - merged_last.weights).max() < 1e-12


def test_box_with_constants_and_points(two_state, rng):
    f = rng.standard_normal((2, 2, 2))
    ones = np.ones(2)
    assert np.abs(box(f, ones) - f).max() == 0.0
    g = rng.standard_normal((2, 2))
    glued = box(f, g)
    assert glued.shape == (2, 2, 2, 2)
    assert abs(glued[1, 0, 1, 1] - f[1, 0, 1] * g[1, 1]) < 1e-14


def test_box_associativity(cycle5, rng):
    f = rng.standard_normal((5, 5))
    g = rng.standard_normal((5, 5, 5))
    h = rng.standard_normal((5, 5))
    lhs = box(box(f, g), h)
    rhs = box(f, box(g, h))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_l2_cell_dimension_and_actions(two_state):
    cell = l2_cell(two_state, partition([1]))
    assert cell.dim == 4
    for i in range(2):
        for j in range(2):
            assert np.linalg.norm(cell.left[i] @ cell.right[j]
                                  - cell.right[j] @ cell.left[i]) == 0.0


def diagonal_stack_oracle(mdl, p):
    """Left and right actions of the path cell as stacks of diagonal matrices.

    Path coordinates run over the paths of non-negligible weight in C order;
    the left action of state s keeps the paths starting at s, the right
    action those ending at s.
    """
    w = path_measure(mdl, p).weights
    kept = (w > GRAM_RTOL * w.max()).reshape(-1)
    ends = [np.indices(w.shape)[i].reshape(-1)[kept] for i in (0, -1)]
    return [np.stack([np.diag((e == s).astype(complex)) for s in range(mdl.states)])
            for e in ends]


@pytest.mark.parametrize("model, parts", [("two_state", 1), ("cycle3", 2), ("chain6", 2)])
def test_l2_cell_actions_are_read_only_diagonal_stacks(model, parts, request):
    mdl = request.getfixturevalue(model)
    p = uniform(1, parts)
    cell = l2_cell(mdl, p)
    for name, want in zip(("left", "right"), diagonal_stack_oracle(mdl, p)):
        got = getattr(cell, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0, 0] = 2.0
        assert np.array_equal(got, want)
    ((q, q2, z, m),) = cell.left_map.blocks  # no quotient: the one block is its stack
    assert z.base is cell.left and np.array_equal(z.transpose(1, 0, 2), cell.left)
    assert q == q2 == slice(0, cell.dim) and m == 1 and not z.flags.writeable


def test_cell_match_allocates_no_action_stacks(chain6):
    # the path cell's dense stacks were never read; with the cell warm, the
    # check allocates less than one stack pair beyond the fold it compares
    p = uniform(1, 2)
    cs = heat_system(chain6)
    dim = cs.cell(p).dim
    pair_bytes = 2 * chain6.states * dim * dim * 16
    peaks = []
    for run in (lambda: cs.family(p.parts, [np.eye(cs.sf.dim)] * 2, [cs.sf.embed_left_matrix] * 2),
                lambda: cell_match_defect(chain6, p, cs)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fold, check = peaks
    assert check - fold < pair_bytes


def test_cell_match_memory_on_cold_six_state_chain(chain6):
    # the 216-dim cell is built from its factors and the 1296-column family
    # is fused in six blocks of 216; dense quotient maps of that cell and
    # the whole family took the peak to 19.8 MiB
    cs = heat_system(chain6)
    tracemalloc.start()
    try:
        defect, dim, _ = cell_match_defect(chain6, uniform(1, 2), cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 216 and defect < 1e-10
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_cell_match_two_state(two_state):
    cs = heat_system(two_state)
    defect, dim_cell, dim_path = cell_match_defect(two_state, partition([1]), cs)
    assert dim_cell == dim_path == 4
    assert defect < 1e-10


def test_cell_match_three_state_two_parts():
    mdl = graph_model("cycle", 3)
    cs = heat_system(mdl)
    p = uniform(1, 2)
    defect, dim_cell, dim_path = cell_match_defect(mdl, p, cs)
    assert dim_cell == dim_path == 27
    assert defect < 1e-10


def test_cell_match_has_teeth(two_state):
    # comparing against the wrong semigroup must produce a visible defect
    wrong = make_model([0.5, 0.5], 3.0 * two_state.laplacian)
    cs = heat_system(wrong)
    defect, _, _ = cell_match_defect(two_state, partition([1]), cs)
    assert defect > 1e-3


@pytest.mark.parametrize("model, p, dim", [
    pytest.param("two_state", uniform(1, 1), 4, id="two_state-1-4"),
    pytest.param("cycle3", uniform(1, 2), 27, id="cycle3-2-27"),
    # the first case with two glues: g1 = f2 and g2 = f3
    pytest.param("path3", uniform(1, 3), 81, id="path3-3-81"),
    pytest.param("chain6", uniform(1, 2), 216, id="chain6-2-216"),
    # 6 of the 64 paths weigh under 1e-10 of the largest, which a cutoff on
    # the path weights once dropped (58 paths against 64 directions); every
    # step of them passes the rank rule of its coupling, so both keep 64
    pytest.param("path4", uniform(Fraction(1, 32), 2), 64, id="path4-dropped-paths"),
])
def test_cell_match_never_below_dense_oracle(model, p, dim, request):
    mdl = request.getfixturevalue(model)
    cs = heat_system(mdl)
    defect, dim_cell, dim_path = cell_match_defect(mdl, p, cs)
    oracle = dense_cell_match_oracle(mdl, p, cs)
    assert dim_cell == dim_path == dim
    assert defect >= oracle - 1e-15
    assert defect < 1e-10
    assert oracle < 1e-10


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (3, 3), (4, 2)])
def test_glued_columns_are_the_nonzero_indicator_columns(m, n):
    ind = indicator_products(m, n)
    glued = _glued_columns(m, n)
    assert np.array_equal(ind[:, glued], np.eye(m ** (n + 1)))
    rest = np.ones(ind.shape[1], dtype=bool)
    rest[glued] = False
    assert not ind[:, rest].any()


def test_cell_match_bounds_non_glued_columns(cycle3, monkeypatch):
    # a defect confined to one non-glued column, where the path side is zero;
    # the check fuses the family in column blocks of the first algebra slot,
    # so the column is found through that slot in whichever block holds it
    p = uniform(1, 2)
    cs = heat_system(cycle3)
    m = cycle3.states
    loose = np.ravel_multi_index((0, 1, 2, 0), (m,) * 4)
    assert loose not in _glued_columns(m, 2)
    family, hits = cs.family, []

    def perturbed(parts, xs, vs):
        z = family(parts, xs, vs).copy()
        width = z.shape[1] // xs[0].shape[1]  # columns per first-slot column, kron order
        for c in np.flatnonzero(xs[0][0]):  # first-slot columns holding the state f_1 = 0
            z[:, c * width + loose] += 1e-6
            hits.append(c)
        return z

    monkeypatch.setattr(cs, "family", perturbed)
    defect, _, _ = cell_match_defect(cycle3, p, cs)
    assert len(hits) == 1
    z = perturbed(p.parts, [np.eye(cs.sf.dim)] * 2, [cs.sf.embed_left_matrix] * 2)
    assert defect >= 1e-6 * np.linalg.norm(z, axis=0).max()
    assert not Check("heat", f"cell-match{p}", "path-space-cells", defect, 1e-10).passed
    assert dense_cell_match_oracle(cycle3, p, cs) > 1e-10


def test_heat_dilation_at_full_horizon(two_state, rng):
    f = rng.standard_normal(2)
    direct, formula = heat_dilation_defect(two_state, Fraction(1, 4), 3, Fraction(3, 4), f)
    assert direct < 1e-10
    assert formula < 1e-12


def test_heat_time_beyond_the_horizon_is_a_truncation_error(cycle3):
    # both towers share one grid rule: a time past the horizon is a
    # truncation error that carries the largest admissible time
    delta = Fraction(1, 4)
    hd = HeatDilation(cycle3, delta, 2)
    with pytest.raises(TruncationError) as err:
        hd.theta(np.eye(3), 0, 9 * delta, np.eye(27))
    assert err.value.max_time == 2 * delta
    with pytest.raises(TruncationError) as err:
        heat_dilation_defect(cycle3, delta, 2, 3 * delta, np.ones(3))
    assert err.value.max_time == 2 * delta
    assert grid_index(2 * delta, delta, 2) == 2
    with pytest.raises(TruncationError, match="not on the grid"):
        grid_index(delta / 2, delta, 2)


def test_single_state_chain_is_trivial():
    mdl = make_model([1.0], np.zeros((1, 1)))
    cell = l2_cell(mdl, uniform(1, 2))
    assert cell.dim == 1


def test_refinement_matches_variable_duplication(two_state):
    cs = heat_system(two_state)
    coarse = partition([1])
    fine = uniform(1, 2)
    dup = refinement_duplication_matrix(two_state, fine, coarse)
    # transported through the elementary-family isomorphisms on both levels
    sf = cs.sf
    basis = list(sf.algebra.basis())
    m = two_state.states
    eye = np.eye(m)

    def u_matrix(p):
        n = len(p)
        path_embed, _ = path_maps(two_state, p)
        zc, yc = [], []
        for combo in np.ndindex(*([m] * (2 * n))):
            fs = [combo[2 * i] for i in range(n)]
            gs = [combo[2 * i + 1] for i in range(n)]
            zc.append(cs.elementary(p, [basis[s] for s in fs],
                                    [sf.embed_left(basis[s]) for s in gs]))
            yc.append(path_embed @ slot_product([eye[s] for s in fs],
                                                [eye[s] for s in gs]).reshape(-1))
        z, y = np.column_stack(zc), np.column_stack(yc)
        u, *_ = np.linalg.lstsq(z.conj().T, y.conj().T, rcond=None)
        return u.conj().T

    u_c = u_matrix(coarse)
    u_f = u_matrix(fine)
    a = cs.refinement(fine, coarse).matrix
    assert np.linalg.norm(u_f @ a - dup @ u_c, 2) < 1e-10


def test_base_adjoint_preserves_constants(cycle5):
    p = partition([Fraction(2, 5), Fraction(3, 5)])
    f = np.ones((5, 5, 5))
    out = embed_base_adjoint(cycle5, p, f)
    assert np.abs(out - 1.0).max() < 1e-12


def test_base_adjoint_point_mass(two_state):
    t = Fraction(3, 4)
    kernel, _ = heat_kernel(two_state, t)
    a = 0
    f = np.zeros((2, 2))
    f[a, :] = 1.0
    out = embed_base_adjoint(two_state, partition([t]), f)
    expected = kernel[a, :] * two_state.mu[a]
    assert np.abs(out - expected).max() < 1e-13


def test_base_adjoint_matches_matrix_adjoint(two_state, rng):
    p = partition([Fraction(2, 5), Fraction(3, 5)])
    m = two_state.states
    cell_embed, _ = path_maps(two_state, p)
    base_embed, base_lift = path_maps(two_state, Partition(()))
    # embedding of base functions along trailing variable, weighted coordinates
    cols = []
    for y in range(m):
        ext = np.zeros((m,) * (len(p) + 1))
        ext[..., y] = 1.0
        cols.append(cell_embed @ ext.reshape(-1))
    b = np.column_stack(cols) @ base_lift
    f = rng.standard_normal((m,) * (len(p) + 1))
    formula = embed_base_adjoint(two_state, p, f)
    matrix_route = base_lift.conj().T @ (b.conj().T @ (cell_embed @ f.reshape(-1)))
    # matrix route returns weighted coordinates of the projected function
    assert np.abs(base_embed @ formula - b.conj().T @ (cell_embed @ f.reshape(-1))).max() < 1e-12
    assert np.abs(formula - matrix_route).max() < 1e-12


def test_heat_dilation_identity_function(two_state):
    direct, formula = heat_dilation_defect(two_state, Fraction(1, 4), 3,
                                           Fraction(1, 4), np.ones(2))
    assert direct < 1e-12
    assert formula < 1e-12


def test_heat_dilation_two_state_indicator():
    mdl = graph_model("path", 2)
    t = Fraction(1, 4)
    f = np.array([1.0, 0.0])
    direct, formula = heat_dilation_defect(mdl, t, 3, t, f)
    assert direct < 1e-10
    assert formula < 1e-12
    evolved = mdl.transition(float(t)) @ f
    e = np.exp(-2 * float(t))
    assert np.abs(evolved - np.array([(1 + e) / 2, (1 - e) / 2])).max() < 1e-12


def test_heat_dilation_cycle_random(rng):
    mdl = graph_model("cycle", 5)
    f = rng.standard_normal(5)
    direct, formula = heat_dilation_defect(mdl, Fraction(1, 4), 3, Fraction(1, 2), f)
    assert direct < 1e-10
    assert formula < 1e-12


@pytest.mark.parametrize("model", ["two_state", "cycle5", "chain6"])
@pytest.mark.parametrize("steps", [1, 2])
def test_theta_on_columns_matches_dense_oracle(model, steps, request, rng):
    mdl = request.getfixturevalue(model)
    delta, levels = Fraction(1, 4), 3
    t = steps * delta
    hd = HeatDilation(mdl, delta, levels)
    level = levels - steps
    f = rng.standard_normal(mdl.states)
    op = hd.represent(f, level)
    theta = dense_theta(hd, op, level, t)
    k0 = hd.embed_matrix(levels, 0)
    compressed = k0.conj().T @ hd.theta(op, level, t, k0)
    oracle = k0.conj().T @ theta @ k0
    assert np.linalg.norm(compressed - oracle, 2) < 1e-12
    cols = rng.standard_normal((theta.shape[0], 3))
    assert np.abs(hd.theta(op, level, t, cols) - theta @ cols).max() < 1e-12
    evolved = mdl.transition(float(t)) @ f
    direct, _ = heat_dilation_defect(mdl, delta, levels, t, f)
    assert abs(direct - np.linalg.norm(oracle - np.diag(evolved), 2)) < 1e-12
    assert direct < 1e-10


def test_heat_dilation_embeddings_are_isometries(two_state):
    hd = HeatDilation(two_state, Fraction(1, 4), 4)
    for k in range(5):
        for j in range(k + 1):
            b = hd.embed_matrix(k, j)
            assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]), 2) < 1e-12
    b42 = hd.embed_matrix(4, 2) @ hd.embed_matrix(2, 0)
    assert np.linalg.norm(b42 - hd.embed_matrix(4, 0), 2) < 1e-12


def test_indicator_products_match_slot_product_columns():
    m, n = 3, 2
    eye = np.eye(m)
    cols = [slot_product([eye[f] for f in combo[::2]], [eye[g] for g in combo[1::2]])
            for combo in np.ndindex(*([m] * (2 * n)))]
    cols = [c.reshape(-1) for c in cols]
    assert np.array_equal(indicator_products(m, n), np.column_stack(cols))
