from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from prodsys import bimodule
from prodsys.algebra import (
    diagonal_state,
    lmult_matrix,
    make_algebra,
    rmult_matrix,
    standard_form,
    uniform_state,
)
from prodsys.bimodule import (
    GRAM_RTOL,
    BimoduleMap,
    NotCompletelyPositiveError,
    gns_tensor,
    gram_quotient,
    inner,
    l2_bimodule,
    left_element_of,
    pi_phi,
    product_formula_defect,
    relative_tensor,
    tensor_vec,
    verify_map,
)
from prodsys.cells import CellSystem
from prodsys.cpdyn import (
    CpMap,
    evaluate,
    semigroup_from_generator,
    unitary_conjugation_generator,
)
from prodsys.heatmarkov import make_model
from prodsys.partition import uniform

from conftest import SEED, mixed_semigroup, random_element, random_hermitian


def test_gns_identity_map_collapses_to_standard_space(pair):
    _, sf = pair
    g = gns_tensor(CpMap(sf.algebra, np.eye(sf.dim, dtype=complex)), sf)
    assert g.dim == sf.dim
    # the collapse x (x) xi -> x xi is a bimodule unitary onto the standard space
    d = sf.dim
    w = np.zeros((d, d * d), dtype=complex)
    for mu, x in enumerate(sf.algebra.basis()):
        w[:, mu * d:(mu + 1) * d] = lmult_matrix(x)
    u = BimoduleMap(g, l2_bimodule(sf), w @ g.lift)
    rep = verify_map(u, bilinear=True, unitary=True)
    assert rep.passed, rep


def test_gns_stochastic_gram_oracle(pair):
    sg, sf = pair
    alg = sf.algebra
    t = 0.7
    tm = evaluate(sg, t)
    g = gns_tensor(tm, sf)
    assert g.dim == 3

    # brute-force Gram in the basis x in {e1, e2}, f_j = e_j phi^(1/2)
    basis = list(alg.basis())
    fvecs = [sf.embed_left(x) for x in basis]
    fam = [(x, f) for x in basis for f in fvecs]
    oracle = np.zeros((4, 4), dtype=complex)
    for i, (xi, fi) in enumerate(fam):
        for j, (xj, fj) in enumerate(fam):
            w = lmult_matrix(tm(xi.adjoint() * xj))
            oracle[i, j] = fi.conj() @ w @ fj
    norms = np.real(np.diag(oracle))
    e = np.exp(-t)
    # slots: (e1,f1), (e1,f2), (e2,f1), (e2,f2)
    assert abs(norms[0] - 0.5 * e) < 1e-12
    assert abs(norms[1] - 0.0) < 1e-14
    assert abs(norms[2] - 0.5 * (1 - e)) < 1e-12
    assert abs(norms[3] - 0.5) < 1e-12
    off = oracle - np.diag(np.diag(oracle))
    assert np.abs(off).max() < 1e-14
    assert np.linalg.matrix_rank(oracle, tol=1e-12) == 3

    # implementation reproduces the oracle through its quotient coordinates
    vecs = [tensor_vec(g, x, f) for (x, f) in fam]
    z = np.column_stack(vecs)
    assert np.abs(z.conj().T @ z - oracle).max() < 1e-12


def test_gns_unitary_conjugation_collapse(rng):
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    h = random_hermitian(alg, rng)
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    t = 0.8
    g = gns_tensor(evaluate(sg, t), sf)
    assert g.dim == sf.dim
    vt = alg.element([scipy.linalg.expm(1j * t * h.mats[0])])
    d = sf.dim
    w = np.zeros((d, d * d), dtype=complex)
    for mu, x in enumerate(alg.basis()):
        w[:, mu * d:(mu + 1) * d] = lmult_matrix(x * vt)
    u = BimoduleMap(g, l2_bimodule(sf), w @ g.lift)
    rep = verify_map(u, bilinear=True, unitary=True)
    assert rep.passed, rep


def transpose_on_last_block(blocks):
    """Action matrix of the identity map with the transpose on the last block."""
    alg = make_algebra(blocks)
    action = np.eye(alg.dim, dtype=complex)
    n = blocks[-1]
    last = np.arange(alg.dim - n * n, alg.dim)
    action[last] = action[last.reshape(n, n).T.reshape(-1)]
    return alg, action


def test_gns_rejects_non_cp_map():
    for blocks in ([2], [1, 2]):
        alg, action = transpose_on_last_block(blocks)
        sf = standard_form(alg, uniform_state(alg))
        with pytest.raises(NotCompletelyPositiveError, match="GNS coupling failed"):
            gns_tensor(CpMap(alg, action), sf)


def test_pi_phi_of_cyclic_is_identity(pair):
    _, sf = pair
    h = l2_bimodule(sf)
    p = pi_phi(h, sf.cyclic, sf)
    assert np.linalg.norm(p - np.eye(sf.dim)) < 1e-12


def test_pi_phi_composition_recovers_element(rng):
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    h = l2_bimodule(sf)
    x = random_element(alg, rng)
    p = pi_phi(h, sf.embed_left(x), sf)
    comp = p.conj().T @ p
    assert np.linalg.norm(comp - lmult_matrix(x.adjoint() * x)) < 1e-11
    # defining property on a basis: pi(xi) maps cyclic . y to xi . y
    for y in alg.basis():
        assert np.linalg.norm(p @ sf.embed_right(y) - rmult_matrix(y) @ sf.embed_left(x)) < 1e-12


def test_pi_phi_does_not_intertwine_left_multiplication(rng):
    # for a non-tracial state, pi(xi . x) differs from pi(xi) composed with
    # left multiplication; only the defining relation on cyclic vectors holds
    alg = make_algebra([2])
    sf = standard_form(alg, make_stateish())
    h = l2_bimodule(sf)
    xi = sf.embed_left(random_element(alg, rng))
    x = random_element(alg, rng)
    lhs = pi_phi(h, h.right_matrix(x) @ xi, sf)
    rhs = pi_phi(h, xi, sf) @ lmult_matrix(x)
    assert np.linalg.norm(lhs - rhs, 2) > 1e-3


def make_stateish():
    from prodsys.algebra import make_state

    return make_state(make_algebra([2]), [np.diag([0.3, 0.7])])


def test_pi_phi_zero_vector(pair):
    _, sf = pair
    h = l2_bimodule(sf)
    assert np.linalg.norm(pi_phi(h, np.zeros(sf.dim), sf)) == 0.0


def test_relative_tensor_with_standard_space_keeps_dimension(pair):
    sg, sf = pair
    g = gns_tensor(evaluate(sg, 1.0), sf)
    r = relative_tensor(g, l2_bimodule(sf), sf)
    assert r.dim == g.dim
    r2 = relative_tensor(l2_bimodule(sf), g, sf)
    assert r2.dim == g.dim


def test_relative_tensor_standard_squared_m2():
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    l2 = l2_bimodule(sf)
    r = relative_tensor(l2, l2, sf)
    assert r.dim == 4
    # oracle: Gram of all coordinate pairs via left-multiplication elements
    d = sf.dim
    ms = [sf.solve_left(np.eye(d)[:, a]) for a in range(d)]
    oracle = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for c in range(d):
            m = lmult_matrix(ms[a].adjoint() * ms[c])
            oracle[a * d:(a + 1) * d, c * d:(c + 1) * d] = m
    assert np.linalg.matrix_rank(oracle, tol=1e-10) == 4


def test_relative_tensor_of_stochastic_cells_dim(pair):
    sg, sf = pair
    g = gns_tensor(evaluate(sg, 1.0), sf)
    r = relative_tensor(g, g, sf)
    assert r.dim == 4
    # independent dense oracle over all elementary pairs
    alg = sf.algebra
    basis = list(alg.basis())
    fvecs = [sf.embed_left(x) for x in basis]
    tm = evaluate(sg, 1.0)
    fam = [(xa, ya, xc, yc) for xa in basis for ya in basis for xc in basis for yc in basis]
    gram = np.zeros((len(fam), len(fam)), dtype=complex)
    for i, (xa, ya, xc, yc) in enumerate(fam):
        for j, (xe, ye, xg, yg) in enumerate(fam):
            m = ya.adjoint() * tm(xa.adjoint() * xe) * ye
            inner = tm(xc.adjoint() * m * xg)
            gram[i, j] = sf.embed_left(yc).conj() @ lmult_matrix(inner) @ sf.embed_left(yg)
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 4
    # implementation Gram agrees entrywise on the same family
    vecs = []
    for (xa, ya, xc, yc) in fam:
        va = tensor_vec(g, xa, sf.embed_left(ya))
        vc = tensor_vec(g, xc, sf.embed_left(yc))
        vecs.append(r.embed @ np.kron(va, vc))
    z = np.column_stack(vecs)
    assert np.abs(z.conj().T @ z - gram).max() < 1e-11


def test_product_formula_unitality(pair):
    sg, sf = pair
    one = sf.algebra.identity()
    tm = evaluate(sg, 0.9)
    assert product_formula_defect(tm, one, one, one, one, sf) < 1e-12


def test_product_formula_stochastic_projection(pair):
    sg, sf = pair
    alg = sf.algebra
    e1 = alg.element([[[1.0]], [[0.0]]])
    one = alg.identity()
    tm = evaluate(sg, np.log(2.0))
    g = gns_tensor(tm, sf)
    v1 = tensor_vec(g, e1, sf.embed_left(one))
    composed = pi_phi(g, v1, sf).conj().T @ pi_phi(g, v1, sf)
    m, res = left_element_of(composed, sf)
    assert res < 1e-12
    assert abs(m.mats[0][0, 0] - 0.5) < 1e-12
    assert abs(m.mats[1][0, 0] - 0.0) < 1e-12
    assert product_formula_defect(tm, e1, one, e1, one, sf) < 1e-12


def test_product_formula_random_m2(m2_lindblad, rng):
    sg, sf = m2_lindblad
    tm = evaluate(sg, 0.6)
    g = gns_tensor(tm, sf)
    for _ in range(10):
        xs = [random_element(sf.algebra, rng) for _ in range(4)]
        assert product_formula_defect(tm, xs[0], xs[1], xs[2], xs[3], sf, g=g) < 1e-10


def test_bounded_vector_composition_lands_in_algebra(m2_lindblad, rng):
    sg, sf = m2_lindblad
    g = gns_tensor(evaluate(sg, 0.4), sf)
    for _ in range(5):
        v1 = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
        v2 = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
        comp = pi_phi(g, v1, sf).conj().T @ pi_phi(g, v2, sf)
        _, res = left_element_of(comp, sf)
        assert res < 1e-10


def test_verify_map_identity_all_flags(pair):
    _, sf = pair
    l2 = l2_bimodule(sf)
    rep = verify_map(BimoduleMap(l2, l2, np.eye(sf.dim)), bilinear=True,
                     isometric=True, unitary=True)
    assert rep.bilinear_defect == 0.0
    assert rep.isometry_defect == 0.0
    assert rep.unitary_defect == 0.0


# ---------------------------------------------------------------------------
# GNS coupling and relative tensor product against the dense Gram quotient
# ---------------------------------------------------------------------------

def dense_oracle(h, k, sf, rtol=GRAM_RTOL):
    """Assembled relative-tensor Gram, its quotient, and the composition elements.

    elements[a, b] is the algebra element of the composition of the
    bounded-vector maps of the coordinate basis vectors a and b of h.
    """
    pis = np.stack([pi_phi(h, e, sf) for e in np.eye(h.dim)])
    comp = np.einsum("axi,bxj->abij", pis.conj(), pis)
    elements = np.einsum("mi,abi->abm", sf.solve_left_matrix, comp @ sf.cyclic)
    gram = np.einsum("abm,mpq->apbq", elements, k.left).reshape(h.dim * k.dim, -1)
    return gram, gram_quotient(gram, rtol), elements


def gns_oracle(t_map, sf):
    """Assembled GNS Gram, its kept eigenvalues and the pre-quotient actions.

    The family is the elementary tensors in kron order (algebra index major).
    """
    d = sf.dim
    basis = list(sf.algebra.basis())
    gram = np.zeros((d * d, d * d), dtype=complex)
    for i, xi in enumerate(basis):
        for k, xk in enumerate(basis):
            gram[i * d:(i + 1) * d, k * d:(k + 1) * d] = lmult_matrix(t_map(xi.adjoint() * xk))
    left_pre = [np.kron(lmult_matrix(x), np.eye(d)) for x in basis]
    right_pre = [np.kron(np.eye(d), rmult_matrix(x)) for x in basis]
    return gram, gram_quotient(gram)[2], left_pre, right_pre


def relative_oracle(h, k, sf):
    """Assembled relative-tensor Gram, its kept eigenvalues and the pre-quotient actions."""
    gram, (_, _, eigs), _ = dense_oracle(h, k, sf)
    left_pre = [np.kron(x, np.eye(k.dim)) for x in h.left]
    right_pre = [np.kron(np.eye(h.dim), y) for y in k.right]
    return gram, eigs, left_pre, right_pre


def assert_matches_oracle(r, gram, eigs, left_pre, right_pre):
    top = eigs.max()
    assert r.dim == eigs.size
    assert np.abs(r.embed.conj().T @ r.embed - gram).max() <= 1e-10 * top
    assert np.abs(r.embed @ r.lift - np.eye(r.dim)).max() < 1e-10
    assert np.abs(np.sort(r.gram_eigs) - eigs).max() <= 1e-10 * top
    for act, pre in zip(r.left, left_pre, strict=True):
        assert np.abs(act - r.embed @ pre @ r.lift).max() < 1e-10
    for act, pre in zip(r.right, right_pre, strict=True):
        assert np.abs(act - r.embed @ pre @ r.lift).max() < 1e-10


@pytest.fixture
def mixed_block():
    return mixed_semigroup()


@pytest.fixture
def chain6():
    """Seeded reversible birth-death chain on six states."""
    rng = np.random.default_rng(SEED)
    mu = rng.uniform(0.5, 1.5, 6)
    mu /= mu.sum()
    c = np.diag(rng.uniform(0.5, 1.5, 5), 1)
    c += c.T
    mdl = make_model(mu, (np.diag(c.sum(axis=1)) - c) / mu[:, None])
    sf = mdl.standard_form()
    return semigroup_from_generator(sf.algebra, -mdl.laplacian.astype(complex)), sf


@pytest.mark.parametrize("system, parts", [
    ("m2_lindblad", 2),  # cell of 2 parts fused with a coupling: pre-quotient dim 1024
    ("mixed_block", 1),  # two couplings of dim 25: pre-quotient dim 625
    ("pair", 2),
    ("chain6", 1),       # two couplings of dim 36: pre-quotient dim 1296
])
def test_relative_tensor_matches_dense_oracle(system, parts, request):
    sg, sf = request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    cell = cs.cell(uniform(Fraction(parts, 4), parts))
    gns = cs.gns(Fraction(1, 4))
    assert_matches_oracle(gns, *gns_oracle(evaluate(sg, Fraction(1, 4)), sf))
    for h, k in [(cell, gns), (cs.l2, cell), (cell, cs.l2)]:
        assert_matches_oracle(relative_tensor(h, k, sf), *relative_oracle(h, k, sf))


def character_map(sf):
    """T(x) = x_0 1 on [1, 2]; the matrix block acts as zero."""
    action = np.zeros((5, 5), dtype=complex)
    action[:, 0] = sf.algebra.identity().vec()
    return CpMap(sf.algebra, action)


def character_coupling(sf):
    return gns_tensor(character_map(sf), sf)


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.01, 0.99], [0.99, 0.01]])
def test_relative_tensor_with_zero_multiplicity_block(weights):
    alg = make_algebra([1, 2])
    sf = standard_form(alg, diagonal_state(alg, weights))
    tm = character_map(sf)
    g = gns_tensor(tm, sf)
    assert_matches_oracle(g, *gns_oracle(tm, sf))
    assert [v.shape[2] for v in g.multiplicity] == [5, 0]
    for h in (l2_bimodule(sf), g):
        assert_matches_oracle(relative_tensor(h, g, sf), *relative_oracle(h, g, sf))


def test_zero_multiplicity_block_does_not_set_the_cutoff(monkeypatch):
    # the matrix block's composition entries dominate (top eigenvalue 400
    # against 1.01), but with multiplicity zero they never reach the Gram
    alg = make_algebra([1, 2])
    sf = standard_form(alg, diagonal_state(alg, [0.99, 0.01]))
    g = character_coupling(sf)
    l2 = l2_bimodule(sf)
    rtol = 0.1
    _, (_, _, eigs), elements = dense_oracle(l2, g, sf, rtol)
    silent = elements[:, :, 1:].reshape(5, 5, 2, 2).transpose(0, 2, 1, 3).reshape(10, 10)
    assert rtol * np.linalg.eigvalsh(silent).max() > eigs.max()
    monkeypatch.setattr(bimodule, "GRAM_RTOL", rtol)
    r = relative_tensor(l2, g, sf)
    assert r.dim == eigs.size == 5


def test_composition_residual_is_relative_to_the_composition_entries():
    # a block weight of 1e-9 makes the composition entries about 2e9, and
    # their rounding alone leaves an absolute residual far above 1e-8
    alg = make_algebra([1, 2])
    sf = standard_form(alg, diagonal_state(alg, [1 - 1e-9, 1e-9]))
    g = character_coupling(sf)
    r = relative_tensor(l2_bimodule(sf), g, sf)
    assert r.dim == g.dim


def test_composition_residual_rejects_a_broken_right_module(pair):
    # a right action that is not multiplicative breaks the bounded-vector
    # composition, which is then no left multiplication
    _, sf = pair
    l2 = l2_bimodule(sf)
    bent = l2.right.copy()
    bent[0] += 0.1 * np.ones((sf.dim, sf.dim))
    broken = bimodule.Bimodule(sf.algebra, l2.dim, l2.left, bent)
    with pytest.raises(NotCompletelyPositiveError, match="not a left multiplication"):
        relative_tensor(broken, l2, sf)


# ---------------------------------------------------------------------------
# Algebra-valued inner product against the per-pair composition
# ---------------------------------------------------------------------------

def inner_oracle(h, xs, ys, sf):
    """Per-pair compositions recognized one at a time by `left_element_of`."""
    elements, residual, scale = [], 0.0, 1.0
    for x in xs.T:
        row = []
        for y in ys.T:
            comp = pi_phi(h, x, sf).conj().T @ pi_phi(h, y, sf)
            a, spectral = left_element_of(comp, sf)
            frobenius = np.linalg.norm(comp - lmult_matrix(a))
            assert frobenius >= spectral - 1e-15
            row.append(a.vec())
            residual = max(residual, frobenius)
            scale = max(scale, np.abs(comp).max())
        elements.append(row)
    return np.array(elements), residual, scale


@pytest.mark.parametrize("system", ["m2_lindblad", "mixed_block", "pair"])
def test_inner_matches_pairwise_compositions(system, request, rng):
    sg, sf = request.getfixturevalue(system)
    cell = CellSystem(sg, sf).cell(uniform(Fraction(1, 2), 2))
    for na, nb in [(3, 2), (1, 5), (4, 1)]:
        xs, ys = (rng.standard_normal((cell.dim, n)) + 1j * rng.standard_normal((cell.dim, n))
                  for n in (na, nb))
        elements, residual, scale = inner(cell, xs, ys, sf)
        want, want_residual, want_scale = inner_oracle(cell, xs, ys, sf)
        assert elements.shape == (na, nb, sf.dim)
        assert np.abs(elements - want).max() <= 1e-10 * want_scale
        assert residual == pytest.approx(want_residual, abs=1e-12 * want_scale)
        assert residual < 1e-10 * scale
        assert scale == pytest.approx(want_scale)


def test_inner_residual_flags_a_broken_right_module(pair):
    _, sf = pair
    l2 = l2_bimodule(sf)
    bent = l2.right.copy()
    bent[0] += 0.1 * np.ones((sf.dim, sf.dim))
    broken = bimodule.Bimodule(sf.algebra, l2.dim, l2.left, bent)
    eye = np.eye(sf.dim)
    _, residual, scale = inner(broken, eye, eye, sf)
    _, want, _ = inner_oracle(broken, eye, eye, sf)
    assert residual == pytest.approx(want)
    assert residual > 1e-2 * scale


def test_l2_left_action_is_the_read_only_cached_stack(pair):
    # l2_bimodule shares the cached stack that inner uses for every residual,
    # so an in-place write must fail instead of changing that stack
    _, sf = pair
    l2 = l2_bimodule(sf)
    assert l2.left is sf.lmult_basis
    with pytest.raises(ValueError, match="read-only"):
        l2.left[0, 0, 0] = 1.0
    assert np.array_equal(sf.lmult_basis[0], lmult_matrix(next(iter(sf.algebra.basis()))))
