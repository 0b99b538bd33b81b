import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys.algebra import (
    ConfigurationError,
    FaithfulnessError,
    block_diag,
    diagonal_state,
    expm,
    lmult_matrix,
    make_algebra,
    make_state,
    rmult_matrix,
    standard_form,
    uniform_state,
)
from prodsys.cpdyn import lindblad_generator

from conftest import random_element, random_hermitian, random_state


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


# -- expm and block_diag against scipy, the oracle ----------------------------

def _expm_rel_defect(a):
    want = scipy.linalg.expm(a)
    return np.linalg.norm(expm(a) - want) / np.linalg.norm(want)


def _exceptional_point_generator():
    # sigma_minus jump with H = sigma_x / 8, as in the cpdyn exceptional-point test
    alg = make_algebra([2])
    v = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    h = alg.element([np.array([[0.0, 1.0], [1.0, 0.0]]) / 8])
    return lindblad_generator(alg, [v], h)


@pytest.mark.parametrize("t", [2.0 ** -20, 0.25, 1.0, 8.0, 64.0])
def test_expm_matches_scipy_at_exceptional_point(t):
    assert _expm_rel_defect(t * _exceptional_point_generator()) <= 1e-13


def test_expm_matches_scipy_on_hard_matrices(rng):
    h = random_hermitian(make_algebra([5]), rng).mats[0]
    cases = [
        np.array([[1.0, 1e3], [0.0, 1.0]]),
        10 * np.triu(rng.standard_normal((6, 6)), 1),
        np.diag([-1e3, 0.0, -5.0]),
        30j * h,
        np.zeros((3, 3)),
        np.array([[-0.7]]),
    ]
    # around the 1-norm bounds theta_m of the degrees 3, 5, 7 and 9 that the
    # degree-13 approximant replaced, and around its own theta_13
    thetas = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
              2.097847961257068e0, 5.371920351148152e0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g /= np.abs(g).sum(axis=0).max()
    cases += [c * theta * g for theta in thetas for c in (0.5, 0.99, 1.01, 2.0)]
    for a in cases:
        assert _expm_rel_defect(a) <= 1e-13, a
    u = expm(30j * h)
    assert np.linalg.norm(u @ u.conj().T - np.eye(5), 2) <= 1e-13


def test_expm_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            expm(np.array([[bad, 0.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       blocks=st.sampled_from([(2,), (1, 2)]),
       log2_t=st.floats(-20.0, 4.0))
def test_expm_matches_scipy_on_lindblad_generators(seed, blocks, log2_t):
    # Both routes square their scaled Padé value s times and the rounding
    # error of the squarings grows like 2^s: t <= 16 keeps ||tL||_1 below
    # about 500 for these generators, where the two agree to 1e-13.
    rng = np.random.default_rng(seed)
    alg = make_algebra(blocks)
    jumps = [random_element(alg, rng) for _ in range(2)]
    gen = lindblad_generator(alg, jumps, random_hermitian(alg, rng))
    assert _expm_rel_defect(2.0 ** log2_t * gen) <= 1e-13


def test_block_diag_matches_scipy(rng):
    mats = [rng.standard_normal((2, 3)),
            rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))]
    got = block_diag(*mats)
    want = scipy.linalg.block_diag(*mats)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert block_diag(np.eye(2)).dtype == np.float64
