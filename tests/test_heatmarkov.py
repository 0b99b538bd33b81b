from fractions import Fraction

import numpy as np
import pytest

from prodsys.cells import CellSystem
from prodsys.cpdyn import semigroup_from_generator
from prodsys.heatmarkov import (
    HeatDilation,
    ModelError,
    box,
    cell_match_defect,
    embed_base_adjoint,
    graph_model,
    heat_dilation_defect,
    heat_kernel,
    indicator_products,
    l2_cell,
    make_model,
    path_measure,
    refinement_duplication_matrix,
    slot_product,
)
from prodsys.partition import Partition, partition, uniform


@pytest.fixture
def two_state():
    return graph_model("path", 2)


@pytest.fixture
def cycle5():
    return graph_model("cycle", 5)


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


def test_kernel_rejects_nonpositive_time(two_state):
    with pytest.raises(ValueError):
        heat_kernel(two_state, 0.0)


def test_model_validation_catches_asymmetry():
    with pytest.raises(ModelError):
        make_model([0.5, 0.5], np.array([[1.0, -1.0], [-0.5, 0.5]]))


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


def test_heat_dilation_at_full_horizon(two_state, rng):
    f = rng.standard_normal(2)
    direct, formula = heat_dilation_defect(two_state, Fraction(1, 4), 3, Fraction(3, 4), f)
    assert direct < 1e-10
    assert formula < 1e-12


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
    from prodsys.heatmarkov import slot_product

    eye = np.eye(m)

    def u_matrix(p):
        n = len(p)
        path = l2_cell(two_state, p)
        zc, yc = [], []
        for combo in np.ndindex(*([m] * (2 * n))):
            fs = [combo[2 * i] for i in range(n)]
            gs = [combo[2 * i + 1] for i in range(n)]
            zc.append(cs.elementary(p, [basis[s] for s in fs],
                                    [sf.embed_left(basis[s]) for s in gs]))
            yc.append(path.embed @ slot_product(m, [eye[s] for s in fs],
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
    cell = l2_cell(two_state, p)
    base = l2_cell(two_state, Partition(()))
    # embedding of base functions along trailing variable, weighted coordinates
    cols = []
    for y in range(m):
        ext = np.zeros((m,) * (len(p) + 1))
        ext[..., y] = 1.0
        cols.append(cell.embed @ ext.reshape(-1))
    b = np.column_stack(cols) @ base.lift
    f = rng.standard_normal((m,) * (len(p) + 1))
    formula = embed_base_adjoint(two_state, p, f)
    matrix_route = base.lift.conj().T @ (b.conj().T @ (cell.embed @ f.reshape(-1)))
    # matrix route returns weighted coordinates of the projected function
    assert np.abs(base.embed @ formula - b.conj().T @ (cell.embed @ f.reshape(-1))).max() < 1e-12
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
    cols = [slot_product(m, [eye[f] for f in combo[::2]], [eye[g] for g in combo[1::2]])
            for combo in np.ndindex(*([m] * (2 * n)))]
    cols = [c.reshape(-1) for c in cols]
    assert np.array_equal(indicator_products(m, n), np.column_stack(cols))
