import numpy as np
import pytest

from prodsys.algebra import (
    ConfigurationError,
    FaithfulnessError,
    diagonal_state,
    lmult_matrix,
    make_algebra,
    make_state,
    rmult_matrix,
    standard_form,
    uniform_state,
)

from conftest import random_element, random_state


def test_make_algebra_dimensions():
    assert make_algebra([1, 1]).dim == 2
    assert make_algebra([2]).dim == 4
    assert make_algebra([2, 3]).dim == 13


@pytest.mark.parametrize("blocks", [[], [0], [2, -1]])
def test_make_algebra_rejects_bad_blocks(blocks):
    with pytest.raises(ConfigurationError):
        make_algebra(blocks)


def test_element_arithmetic_is_blockwise(rng):
    alg = make_algebra([2, 3])
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    prod = x * y
    for bx, by, bp in zip(x.mats, y.mats, prod.mats):
        assert np.allclose(bx @ by, bp)
    # adjoint is an involution and reverses products
    assert max(np.linalg.norm(a - b) for a, b in zip(x.adjoint().adjoint().mats, x.mats)) < 1e-14
    lhs = (x * y).adjoint()
    rhs = y.adjoint() * x.adjoint()
    assert max(np.linalg.norm(a - b) for a, b in zip(lhs.mats, rhs.mats)) < 1e-13


def test_vec_roundtrip(rng):
    alg = make_algebra([2, 3])
    x = random_element(alg, rng)
    back = alg.from_vec(x.vec())
    assert max(np.linalg.norm(a - b) for a, b in zip(x.mats, back.mats)) == 0.0


def test_state_rejects_singular_density():
    alg = make_algebra([1, 1])
    with pytest.raises(FaithfulnessError):
        make_state(alg, [np.array([[1.0]]), np.array([[0.0]])])


def test_state_rejects_unnormalized():
    alg = make_algebra([1, 1])
    with pytest.raises(ConfigurationError):
        make_state(alg, [np.array([[0.7]]), np.array([[0.7]])])


def test_standard_form_two_point():
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    assert sf.dim == 2
    assert np.allclose(sf.cyclic, np.sqrt([0.5, 0.5]))
    assert abs(np.linalg.norm(sf.cyclic) - 1.0) < 1e-12


def test_standard_form_tracial_m2():
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    assert sf.dim == 4
    assert np.allclose(alg.from_vec(sf.cyclic).mats[0], np.eye(2) / np.sqrt(2))
    assert abs(np.linalg.norm(sf.cyclic) - 1.0) < 1e-12


def test_weighted_norm_matches_state_evaluation():
    # |a|^2 / 3 + 2 |b|^2 / 3 for the (1/3, 2/3) weights
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [1 / 3, 2 / 3]))
    a, b = 1.3 - 0.4j, -0.2 + 2.1j
    x = alg.element([[[a]], [[b]]])
    direct = sf.state(x.adjoint() * x).real
    expected = abs(a) ** 2 / 3 + 2 * abs(b) ** 2 / 3
    assert abs(direct - expected) < 1e-12
    assert abs(np.linalg.norm(sf.embed_left(x)) ** 2 - expected) < 1e-12


def test_left_right_actions_commute_and_are_adjointable(rng):
    alg = make_algebra([2, 1])
    sf = standard_form(alg, random_state(alg, rng))
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    lx, ry = lmult_matrix(x), rmult_matrix(y)
    assert np.linalg.norm(lx @ ry - ry @ lx) < 1e-12
    # adjointability of both actions for the trace inner product
    assert np.linalg.norm(lx.conj().T - lmult_matrix(x.adjoint())) < 1e-12
    assert np.linalg.norm(ry.conj().T - rmult_matrix(y.adjoint())) < 1e-12


def test_embeddings_are_bijections(rng):
    alg = make_algebra([2, 1])
    sf = standard_form(alg, random_state(alg, rng))
    emb = np.column_stack([sf.embed_right(x) for x in alg.basis()])
    assert np.linalg.matrix_rank(emb) == alg.dim
    x = random_element(alg, rng)
    back = sf.solve_right(sf.embed_right(x))
    assert max(np.linalg.norm(a - b) for a, b in zip(x.mats, back.mats)) < 1e-10
    back = sf.solve_left(sf.embed_left(x))
    assert max(np.linalg.norm(a - b) for a, b in zip(x.mats, back.mats)) < 1e-10


def test_solve_matrices_are_the_solve_maps(rng):
    alg = make_algebra([1, 2])
    sf = standard_form(alg, random_state(alg, rng))
    eye = np.eye(sf.dim)
    for j in range(sf.dim):
        assert np.array_equal(sf.solve_left_matrix[:, j], sf.solve_left(eye[:, j]).vec())
        assert np.array_equal(sf.solve_right_matrix[:, j], sf.solve_right(eye[:, j]).vec())
    for x in [random_element(alg, rng) for _ in range(3)]:
        assert np.linalg.norm(sf.solve_left_matrix @ sf.embed_left(x) - x.vec()) < 1e-12
        assert np.linalg.norm(sf.solve_right_matrix @ sf.embed_right(x) - x.vec()) < 1e-12
