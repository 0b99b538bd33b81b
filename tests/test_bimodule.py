import ast
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import prodsys
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
    Bimodule,
    BimoduleMap,
    BlockMap,
    NotCompletelyPositiveError,
    Quotient,
    extension,
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
from prodsys.cli import load_config, main
from prodsys.cpdyn import (
    CpMap,
    evaluate,
    semigroup_from_generator,
    stochastic_pair_generator,
    unitary_conjugation_generator,
)
from prodsys.heatmarkov import make_model
from prodsys.partition import Partition, uniform

from conftest import (
    SEED, dense_bilinear_defect, dense_left, dense_maps, dense_relative_tensor, dense_right,
    formula_left_parts, load_module, loop_product_formula_defect, mixed_semigroup, random_element,
    random_hermitian, right_multiplicity,
)


def test_gns_identity_map_collapses_to_standard_space(pair):
    _, sf = pair
    g = gns_tensor(CpMap(sf.algebra, np.eye(sf.dim, dtype=complex)), sf)
    assert g.dim == sf.dim
    # the collapse x (x) xi -> x xi is a bimodule unitary onto the standard space
    d = sf.dim
    w = np.zeros((d, d * d), dtype=complex)
    for mu, x in enumerate(sf.algebra.basis()):
        w[:, mu * d:(mu + 1) * d] = lmult_matrix(x)
    u = BimoduleMap(g, l2_bimodule(sf), w @ dense_maps(g)[1])
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
    u = BimoduleMap(g, l2_bimodule(sf), w @ dense_maps(g)[1])
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
    vecs, embed = [], dense_maps(r)[0]
    for (xa, ya, xc, yc) in fam:
        va = tensor_vec(g, xa, sf.embed_left(ya))
        vc = tensor_vec(g, xc, sf.embed_left(yc))
        vecs.append(embed @ np.kron(va, vc))
    z = np.column_stack(vecs)
    assert np.abs(z.conj().T @ z - gram).max() < 1e-11


def test_product_formula_unitality(pair):
    sg, sf = pair
    one = sf.algebra.identity()
    tm = evaluate(sg, 0.9)
    assert product_formula_defect(tm, [(one, one, one, one)], sf)[0] < 1e-12


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
    assert product_formula_defect(tm, [(e1, one, e1, one)], sf)[0] < 1e-12


def test_product_formula_random_m2(m2_lindblad, rng):
    sg, sf = m2_lindblad
    tm = evaluate(sg, 0.6)
    g = gns_tensor(tm, sf)
    for _ in range(10):
        xs = [random_element(sf.algebra, rng) for _ in range(4)]
        assert product_formula_defect(tm, [xs], sf, g=g)[0] < 1e-10


@pytest.mark.parametrize("system", ["pair", "m2_lindblad", "mixed"])
def test_stacked_product_formula_matches_the_draw_loop(request, rng, system):
    sg, sf = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    tm = evaluate(sg, 0.6)
    g = gns_tensor(tm, sf)
    draws = [[random_element(sf.algebra, rng) for _ in range(4)] for _ in range(6)]
    got = product_formula_defect(tm, draws, sf, g=g)
    want = [loop_product_formula_defect(tm, *draw, sf, g) for draw in draws]
    assert got.shape == (6,) and np.abs(got - want).max() <= 1e-13
    assert got.max() < 1e-10
    # T perturbed by 1e-6 along the product x1* x2 of the second of two draws, orthogonally
    # to that of the first: the second draw alone fails, on both routes alike
    a0, a1 = ((x1.adjoint() * x2).vec() for x1, _, x2, _ in draws[:2])
    q = a1 - a0 * np.vdot(a0, a1) / np.vdot(a0, a0)
    bump = 1e-6 * np.outer(np.eye(sf.dim)[0], q.conj()) / np.vdot(q, q)
    broken = CpMap(sf.algebra, tm.action + bump)
    got = product_formula_defect(broken, draws[:2], sf, g=g)
    want = [loop_product_formula_defect(broken, *draw, sf, g) for draw in draws[:2]]
    assert np.abs(got - want).max() <= 1e-13
    assert got[0] < 1e-10 < 1e-8 < got[1]


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

def dense_oracle(h, k, sf):
    """Assembled relative-tensor Gram and its quotient.

    elements[a, b] is the algebra element of the composition of the
    bounded-vector maps of the coordinate basis vectors a and b of h.
    """
    pis = np.stack([pi_phi(h, e, sf) for e in np.eye(h.dim)])
    comp = np.einsum("axi,bxj->abij", pis.conj(), pis)
    elements = np.einsum("mi,abi->abm", sf.solve_left_matrix, comp @ sf.cyclic)
    gram = np.einsum("abm,mpq->apbq", elements, dense_left(k)).reshape(h.dim * k.dim, -1)
    return gram, gram_quotient(gram)


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
    gram, (_, _, eigs) = dense_oracle(h, k, sf)
    left_pre = [np.kron(x, np.eye(k.dim)) for x in dense_left(h)]
    right_pre = [np.kron(np.eye(h.dim), y) for y in dense_right(k)]
    return gram, eigs, left_pre, right_pre


def assert_matches_oracle(r, gram, eigs, left_pre, right_pre):
    top, (embed, lift) = eigs.max(), dense_maps(r)
    assert r.dim == eigs.size
    assert np.abs(embed.conj().T @ embed - gram).max() <= 1e-10 * top
    assert np.abs(embed @ lift - np.eye(r.dim)).max() < 1e-10
    assert np.abs(np.sort(r.gram_eigs) - eigs).max() <= 1e-10 * top
    for act, pre in zip(dense_left(r), left_pre, strict=True):
        assert np.abs(act - embed @ pre @ lift).max() < 1e-10
    for act, pre in zip(dense_right(r), right_pre, strict=True):
        assert np.abs(act - embed @ pre @ lift).max() < 1e-10


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


@pytest.mark.parametrize("system", ["pair", "mixed_block", "m2_lindblad", "chain6"])
def test_relative_tensor_is_the_dense_placement_bit_for_bit(system, request):
    # the factor W filled part by part from the parts' small factors equals
    # the one read off the dense right multiplicity X through U; every
    # relative tensor over one left factor shares it
    sg, sf = request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    k = cs.gns(Fraction(1, 4))
    for n in (1, 2, 3):
        h = cs.cell(uniform(Fraction(n, 4), n))
        got, want = relative_tensor(h, k, sf), dense_relative_tensor(h, k, sf)
        assert got.dim == want.dim and np.array_equal(got.gram_eigs, want.gram_eigs)
        assert got.k is want.k
        for a, b in zip(got.blocks, want.blocks, strict=True):
            assert a[0] == b[0] and a[1] == b[1]
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3]), n
        other = relative_tensor(h, cs.gns(Fraction(1, 3)), sf)
        assert all(a[3] is b[3] for a, b in zip(got.blocks, other.blocks))


@pytest.mark.parametrize("system", ["pair", "mixed_block", "m2_lindblad", "chain6"])
def test_each_coupling_part_is_decomposed_once(system, request, monkeypatch):
    # the cells of uniform(1/4, n), n = 1..4, and of (1/3, 1/4) read their
    # parts off the modules that make them: the couplings at 1/4 and 1/3,
    # whose parts are those of their shared right factor l2, and the
    # coupling at 1/4 as the right factor of the deeper cells
    sg, sf = request.getfixturevalue(system)
    right, real = [], bimodule._multiplicity

    def recorded(stack, alg, left):
        if not left:
            right.append(stack)
        return real(stack, alg, left)

    monkeypatch.setattr(bimodule, "_multiplicity", recorded)
    cs = CellSystem(sg, sf)
    for p in (*(uniform(Fraction(n, 4), n) for n in range(1, 5)),
              Partition((Fraction(1, 3), Fraction(1, 4)))):
        cs.cell(p)
    g = cs.gns(Fraction(1, 4))
    assert g.k is cs.gns(Fraction(1, 3)).k is cs.l2
    parts = (*cs.l2.right_on_multiplicity, *g.right_on_multiplicity)
    assert len(right) == len(parts) and all(s is r for s, r in zip(right, parts))


def assembled(cell):
    """Whether the left map of a cell has been computed."""
    return "left_map" in vars(cell)


def pre_change_quotient_maps(r):
    """embed and lift of a block quotient, assembled at once from its factors.

    This is how the quotient built them before it kept its factors; the
    reference for the factor contractions and for `dense_maps`.
    """
    hd, kd = r.h.dim, r.k.dim
    embed = np.zeros((r.dim, hd * kd), dtype=complex)
    lift = np.zeros((hd * kd, r.dim), dtype=complex)
    for rows, j, w, wmat in r.blocks:
        v = r.k.multiplicity[j]
        n, kk, m, lmat = v.shape[1], wmat.shape[0], v.shape[2], wmat.conj().T / w
        embed[rows] = np.tensordot(wmat.reshape(kk, hd, n), v.conj(), axes=([2], [1])
                                   ).transpose(0, 3, 1, 2).reshape(kk * m, -1)
        lift[:, rows] = np.tensordot(lmat.reshape(hd, n, kk), v, axes=([1], [1])
                                     ).transpose(0, 2, 1, 3).reshape(-1, kk * m)
    return embed, lift


def close(got, want, rtol=1e-13):
    return got.shape == want.shape and np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("system", ["pair", "mixed_block", "m2_lindblad", "chain6", "cutoff"])
def test_factor_contractions_match_the_dense_quotient_maps(system, request, rng, monkeypatch):
    # "cutoff" is the coupling of `test_gns_cutoff_runs_over_all_blocks_and_may_empty_one`,
    # which skips the scalar block of its right factor, and the relative
    # tensors on either side of it: the blocks a quotient keeps must find their
    # own columns of the right factor's multiplicity basis and their own weights
    if system == "cutoff":
        g, sf = cutoff_coupling(monkeypatch)
        l2 = g.k
        cells = (g, relative_tensor(g, l2, sf), relative_tensor(l2, g, sf))
        assert len(g.blocks) < len(l2.multiplicity)
    else:
        sg, sf = request.getfixturevalue(system)
        cs = CellSystem(sg, sf)
        cells = (cs.gns(Fraction(1, 4)), cs.cell(uniform(Fraction(1, 2), 2)),
                 cs.cell(uniform(Fraction(3, 4), 3)))
    for q in cells:
        embed, lift = pre_change_quotient_maps(q)
        u, w, x, y = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                      for s in ((q.h.dim, 3), (q.k.dim, 2), (q.h.dim * q.k.dim, 4), (q.dim, 5)))
        assert close(q.embed_pairs(u, w), embed @ np.kron(u, w))
        assert close(q.embed_apply(x), embed @ x)
        assert close(q.embed_apply(y, adjoint=True), embed.conj().T @ y)
        assert close(q.lift_apply(y), lift @ y)
        dense_embed, dense_lift = dense_maps(q)
        assert close(dense_embed, embed) and close(dense_lift, lift)


def test_every_block_factor_is_contracted_by_blockmap(m2_lindblad, monkeypatch, rng):
    # a quotient's embed, embed*, lift and pair embed, and a module's left
    # action, hand their data to `BlockMap`, the one class that contracts a
    # block factor: each read is one call of one of its three appliers
    calls, real = [], {name: getattr(BlockMap, name) for name in ("apply", "apply_each", "apply_pairs")}
    monkeypatch.setattr(BlockMap, "apply", lambda self, x, adjoint=False: calls.append(
        ("apply", id(self), adjoint)) or real["apply"](self, x, adjoint))
    monkeypatch.setattr(BlockMap, "apply_each", lambda self, x: calls.append(
        ("apply_each", id(self), False)) or real["apply_each"](self, x))
    monkeypatch.setattr(BlockMap, "apply_pairs", lambda self, u, y: calls.append(
        ("apply_pairs", id(self), False)) or real["apply_pairs"](self, u, y))
    cell = CellSystem(*m2_lindblad).cell(uniform(Fraction(1, 2), 2))
    hd, kd = cell.h.dim, cell.k.dim
    x, y = (rng.standard_normal((s, 3)) + 0j for s in (hd * kd, cell.dim))
    embed, left = id(cell.embed_map), id(cell.left_map)
    reads = [(lambda: cell.embed_pairs(x[:hd, :2], x[:kd, :2]), ("apply_pairs", embed, False)),
             (lambda: cell.embed_apply(x), ("apply", embed, False)),
             (lambda: cell.embed_apply(y, adjoint=True), ("apply", embed, True)),
             (lambda: cell.lift_apply(y), ("apply", embed, True)),
             (lambda: cell.left_apply(y), ("apply_each", left, False))]
    for read, want in reads:
        calls.clear()
        read()
        assert calls == [want]
    assert not hasattr(Quotient, "_from_blocks")


@pytest.mark.parametrize("system", ["pair", "mixed_block", "m2_lindblad", "chain6"])
def test_left_map_matches_the_per_block_formula(system, request):
    # a quotient's left map is the extension step of its left factor's left
    # action; the per-block formula it replaced is the oracle
    sg, sf = request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    for cell in (cs.gns(Fraction(1, 4)), cs.cell(uniform(Fraction(1, 2), 2)),
                 cs.cell(uniform(Fraction(3, 4), 3))):
        assert close(dense_left(cell), formula_left_parts(cell))


def recorded_range_widths(monkeypatch):
    """Widths of the matrices `projection_range` is called on, recorded in a list."""
    widths, real = [], bimodule.projection_range

    def recorded(m):
        widths.append(len(m))
        return real(m)

    monkeypatch.setattr(bimodule, "projection_range", recorded)
    return widths


@pytest.mark.parametrize("system, parts", [("m2_lindblad", 2), ("pair", 3), ("mixed_block", 2)])
def test_fused_cell_assembles_its_actions_only_when_read(system, parts, request, monkeypatch):
    # the last part is fused onto a built prefix: the prefix's right side is
    # read off its own right factor, so its left map is not built, no
    # quotient carries a left or right stack at all, and every range is
    # decided on a matrix no wider than the last coupling
    sg, sf = request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    p = uniform(Fraction(parts, 4), parts)
    eye, cyclic = np.eye(sf.dim), sf.cyclic[:, None]
    prefix, last = cs.cell(Partition(p.parts[:-1])), cs.gns(p.parts[-1])
    widths = recorded_range_widths(monkeypatch)
    cs.family(p.parts, [eye] * parts, [cyclic] * parts)
    monkeypatch.undo()
    cell = cs.cell(p)
    assert not assembled(cell)
    if parts > 2:  # a single-part prefix is also the right factor, read for its multiplicity
        assert not assembled(prefix)
    assert widths and max(widths) <= last.dim
    assert_matches_oracle(cell, *relative_oracle(prefix, cs.gns(p.parts[-1]), sf))
    assert assembled(cell)
    for module in (cell, prefix, last):
        assert not hasattr(module, "left") and not hasattr(module, "right")


def fused_lindblad_cell(monkeypatch, tmp_path, parts):
    """The uniform(1, parts) cell of the lindblad_m2 workload (seed 307), fused onto its built
    prefix: the prefix, the cell, the tracemalloc (kept, peak) of the fusion, and the widths
    of every range decided during it."""
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    cfg = load_config(str(path), 307, 1.0)
    cs = CellSystem(cfg.semigroup, cfg.sf)
    p = uniform(1, parts)
    prefix = cs.cell(Partition(p.parts[:-1]))
    cs.gns(p.parts[-1]).left_map  # the coupling's own left map is not the fusion's
    widths = recorded_range_widths(monkeypatch)
    tracemalloc.start()
    try:
        cell = cs.cell(p)
        memory = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return prefix, cell, memory, widths


def test_fusing_onto_the_dim256_lindblad_prefix_stays_small(monkeypatch, tmp_path):
    # measured 1.03 MiB peak and 1.00 MiB kept, the Gram factor W; the
    # prefix's parts were decomposed when the prefix was built, so no range
    # is decided.  Reading a dense right multiplicity took 4.1 and 2.0, and
    # assembling the prefix's right stack to decompose it 9.0 and 7.0
    prefix, cell, (kept, peak), widths = fused_lindblad_cell(monkeypatch, tmp_path, 4)
    assert (prefix.dim, cell.dim) == (256, 1024)
    assert not assembled(prefix)
    assert widths == []
    assert peak < 1.25 * 2**20 and kept < 1.125 * 2**20, (peak, kept)


def test_fusing_onto_the_dim1024_lindblad_prefix_keeps_one_factor(monkeypatch, tmp_path):
    # measured 16.08 MiB peak and 16.01 MiB kept: the factor W, 512 x 2048
    # complex entries filled in place.  Through a dense right multiplicity X,
    # U and W the fusion peaked at 64.1 MiB and kept 32.0
    prefix, cell, (kept, peak), widths = fused_lindblad_cell(monkeypatch, tmp_path, 5)
    assert (prefix.dim, cell.dim) == (1024, 4096)
    assert widths == []
    ((_, _, _, wm),) = cell.blocks
    assert wm.shape == (512, 2048)
    assert peak < 17 * 2**20 and kept < 16.5 * 2**20, (peak, kept)
    # embedding one pair into the cell reads W in place: measured 0.08 MiB
    # peak; copying W transposed for the contraction peaked at 16.08 MiB
    rng = np.random.default_rng(SEED)
    u, w = rng.standard_normal((cell.h.dim, 1)), rng.standard_normal((cell.k.dim, 1))
    tracemalloc.start()
    try:
        fused = cell.embed_pairs(u, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert np.allclose(fused, cell.embed_apply(np.kron(u, w))), "embed of the kron"


@pytest.mark.parametrize("system", ["m2_lindblad", "mixed_block"])
def test_relative_tensor_takes_no_inner_product_over_a_whole_basis(
        system, request, monkeypatch, tmp_path, capsys):
    # a left factor's Gram comes from its right multiplicity, so the
    # bimodule layer never asks `inner` for a column block as wide as the
    # module, neither for the cells (1/3, t) nor in `all` on a workload
    sg, sf = request.getfixturevalue(system)
    wide, real = [], bimodule.inner

    def guarded(module, xs, ys, state):
        if max(xs.shape[1], ys.shape[1]) >= module.dim:
            wide.append((module.dim, xs.shape[1], ys.shape[1]))
        return real(module, xs, ys, state)

    monkeypatch.setattr(bimodule, "inner", guarded)
    cs = CellSystem(sg, sf)
    s, ts = Fraction(1, 3), [Fraction(k, 8) for k in range(1, 9)]
    cells = [cs.cell(Partition((s, t))) for t in ts]
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["lindblad_m2"](307)))
    rc = main(["all", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "307"])
    capsys.readouterr()
    assert (rc, wide) == (0, [])
    monkeypatch.undo()
    for t, cell in zip(ts, cells):
        fresh = CellSystem(sg, sf).cell(Partition((s, t)))
        assert np.array_equal(cell.gram_eigs, fresh.gram_eigs), t
        for dense in (dense_left, dense_right):
            assert np.array_equal(dense(cell), dense(fresh)), (t, dense.__name__)
        for got, want in zip(dense_maps(cell), dense_maps(fresh), strict=True):
            assert np.array_equal(got, want), t


def right_ranges(xs):
    """X[:, c, :] X[:, c', :]* per block, indexed [c, c']: basis free in the multiplicity index."""
    return [np.einsum("acp,bdp->cdab", x, x.conj()) for x in xs]


def right_multiplicity_cases(case, request):
    """Modules whose right multiplicity is compared with the dense decomposition."""
    alg = make_algebra([1, 2])
    if case == "character":  # the coupling has multiplicity 0 on the matrix block
        sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
        g = character_coupling(sf)
        return [g, relative_tensor(l2_bimodule(sf), g, sf), relative_tensor(g, g, sf)]
    if case == "skewed":
        sf = standard_form(alg, diagonal_state(alg, SKEWED))
        cs = CellSystem(mixed_semigroup()[0], sf)
        return [relative_tensor(l2_bimodule(sf), l2_bimodule(sf), sf),
                *(cs.cell(uniform(Fraction(n, 2), n)) for n in (1, 2, 3))]
    cs = CellSystem(*request.getfixturevalue(case))
    return [cs.cell(uniform(Fraction(n, 4), n)) for n in (1, 2)]


@pytest.mark.parametrize("case", [
    "pair", "mixed_block", "m2_lindblad", "chain6", "character", "skewed"])
def test_right_multiplicity_has_the_ranges_of_the_dense_decomposition(case, request):
    # a quotient's right multiplicity is read off its parts (+) I (x) R; the
    # dense decomposition of its right stack may pick another multiplicity
    # basis, but not other ranges or partial isometries
    for module in right_multiplicity_cases(case, request):
        dense = bimodule._multiplicity(dense_right(module), module.algebra, left=False)
        got = right_multiplicity(module)
        assert [x.shape for x in got] == [x.shape for x in dense]
        for a, b in zip(right_ranges(got), right_ranges(dense), strict=True):
            assert np.abs(a - b).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("system", ["m2_lindblad", "mixed_block"])
def test_a_bent_part_of_a_quotient_raises_on_every_call(system, request):
    # a quotient's right action is (+) I_kk (x) R_i by construction, and
    # its right factor, which made the R_i, checks them; right(e_22) of the
    # last part, the last basis element, enters no decomposition
    sg, sf = request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    g = cs.gns(Fraction(1, 4))
    *rest, r = g.right_on_multiplicity
    bent = r.copy()
    bent[-1] += 0.1 * np.eye(len(bent[-1]))
    k = Quotient(g.blocks, g.h, g.k)  # the same coupling, nothing read
    vars(k)["right_on_multiplicity"] = (*rest, bent)
    cell = relative_tensor(g, k, sf)
    for _ in range(2):
        with pytest.raises(NotCompletelyPositiveError, match="not a left multiplication"):
            relative_tensor(cell, g, sf)
    assert "right_ranges" not in vars(k) and not cell._gram_factors


def test_failing_left_factor_raises_on_every_call(pair):
    _, sf = pair
    l2 = l2_bimodule(sf)
    bent = l2.right.copy()
    bent[0] += 0.1 * np.ones((sf.dim, sf.dim))
    broken = bimodule.Bimodule(sf.algebra, l2.dim, l2.left, bent)
    for _ in range(2):
        with pytest.raises(NotCompletelyPositiveError, match="not a left multiplication"):
            relative_tensor(broken, l2, sf)


def test_left_factor_fused_under_two_states_matches_fresh_quotients(pair):
    # the right multiplicity cached on h belongs to no state: the Gram of
    # each state is read off it with that state's weights.  The one-part copy
    # of h decomposes its dense right stack and may pick another multiplicity
    # basis, so the two quotients are compared through basis-free quantities
    sg, sf = pair
    other = standard_form(sf.algebra, diagonal_state(sf.algebra, [0.2, 0.8]))
    h = CellSystem(sg, sf).cell(uniform(Fraction(1, 2), 2))
    out = {}
    for state in (sf, other, sf, other):
        k = l2_bimodule(state)
        r = relative_tensor(h, k, state)
        fresh = relative_tensor(bimodule.Bimodule(h.algebra, h.dim, dense_left(h), dense_right(h)),
                                k, state)
        assert np.array_equal(r.gram_eigs, fresh.gram_eigs)
        (embed, lift), (embed0, lift0) = dense_maps(r), dense_maps(fresh)
        assert close(embed.conj().T @ embed, embed0.conj().T @ embed0, 1e-12)
        assert close(lift @ embed, lift0 @ embed0, 1e-12)
        for name, action in (("left", dense_left), ("right", dense_right)):
            got, want = (embed.conj().T @ action(r) @ embed,
                         embed0.conj().T @ action(fresh) @ embed0)
            assert close(got, want, 1e-12), name
        out[id(state)] = r.gram_eigs
    assert not np.allclose(out[id(sf)], out[id(other)])


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


def cutoff_coupling(monkeypatch):
    """The GNS coupling of the identity map on [1, 3] under a cutoff of 1/2, and its state."""
    alg = make_algebra([1, 3])
    sf = standard_form(alg, diagonal_state(alg, [0.99, 0.01]))
    monkeypatch.setattr(bimodule, "GRAM_RTOL", 0.5)
    return gns_tensor(CpMap(alg, np.eye(alg.dim, dtype=complex)), sf), sf


def test_gns_cutoff_runs_over_all_blocks_and_may_empty_one(monkeypatch):
    # the identity map on [1, 3] has Gram eigenvalue 1 on the scalar block
    # and 3 on the matrix block: under a cutoff of 1/2 of the largest over
    # all blocks, the scalar block keeps nothing and the quotient skips it
    g, sf = cutoff_coupling(monkeypatch)
    gram = gns_oracle(CpMap(sf.algebra, np.eye(sf.dim, dtype=complex)), sf)[0]
    eigs = gram_quotient(gram, 0.5)[2]
    assert np.allclose(np.linalg.eigvalsh(gram)[-10:], [1] + [3] * 9)
    assert g.dim == eigs.size == 9
    assert np.allclose(g.gram_eigs, 3.0)
    assert len(g.blocks) == 1
    # the relative tensor decides no rank: the cutoff does not reach it
    assert relative_tensor(g, l2_bimodule(sf), sf).dim == g.dim


SKEWED = [1 - 3e-10, 3e-10]  # faithful: the smallest density eigenvalue is 1.5e-10 of the largest


def test_relative_tensor_at_a_skewed_state_keeps_every_direction():
    # the Gram eigenvalues are the frame weights 1/(1 - 3e-10) and 4/3e-10,
    # which no cutoff relative to the largest may tell apart from zero
    alg = make_algebra([1, 2])
    sf = standard_form(alg, diagonal_state(alg, SKEWED))
    assert relative_tensor(l2_bimodule(sf), l2_bimodule(sf), sf).dim == 5


def test_mixed_cells_at_a_skewed_state_have_their_dimension():
    sg, _ = mixed_semigroup()
    alg = make_algebra([1, 2])
    cs = CellSystem(sg, standard_form(alg, diagonal_state(alg, SKEWED)))
    assert [cs.cell(uniform(Fraction(n, 2), n)).dim for n in (1, 2, 3)] == [25, 125, 625]


def pair_semigroup():
    alg, gen = stochastic_pair_generator()
    return semigroup_from_generator(alg, gen), alg


@pytest.mark.parametrize("system, dims", [
    (lambda: (mixed_semigroup()[0], make_algebra([1, 2])), [25, 125, 625]),
    (pair_semigroup, [3, 4, 5]),
], ids=["mixed", "pair"])
@settings(max_examples=30, deadline=None)
@given(log_w=st.floats(np.log(3e-10), np.log(0.5)), small_first=st.booleans())
def test_cell_dims_do_not_depend_on_a_faithful_diagonal_state(system, dims, log_w, small_first):
    sg, alg = system()
    w = float(np.exp(log_w))
    weights = [w, 1 - w] if small_first else [1 - w, w]
    cs = CellSystem(sg, standard_form(alg, diagonal_state(alg, weights)))
    assert [cs.cell(uniform(Fraction(n, 2), n)).dim for n in (1, 2, 3)] == dims


def test_a_bent_unit_that_the_decomposition_never_reads_still_raises(m2_lindblad):
    # right(e_22) enters no multiplicity array (those read e_11 and e_12),
    # but the bounded-vector compositions see it; the bent stack belongs to
    # a module that is no quotient, so its one part is that stack
    sg, sf = m2_lindblad
    cs = CellSystem(sg, sf)
    cell = cs.cell(uniform(Fraction(1, 2), 2))
    bent = dense_right(cell)
    bent[3] += 0.1 * np.eye(cell.dim)
    broken = bimodule.Bimodule(sf.algebra, cell.dim, dense_left(cell), bent)
    for _ in range(2):
        with pytest.raises(NotCompletelyPositiveError, match="not a left multiplication"):
            relative_tensor(broken, cs.gns(Fraction(1, 4)), sf)


def test_composition_residual_is_relative_to_the_composition_entries():
    # a block weight of 1e-9 makes the composition entries about 2e9; the
    # check on the right action does not see the state at all
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


@pytest.mark.parametrize("system", ["pair", "mixed", "m2_lindblad"])
def test_verify_map_bilinearity_matches_the_dense_route(request, system, rng, monkeypatch):
    sg, sf = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    a = cs.refinement(uniform(Fraction(1, 2), 3), uniform(Fraction(1, 2), 1))
    shape = a.matrix.shape
    bent = BimoduleMap(a.source, a.target, a.matrix + 0.1 * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    for f in (a, bent):
        want = dense_bilinear_defect(f)
        with monkeypatch.context() as m:  # the right parts are applied, never placed
            m.setattr(Bimodule, "right_matrix", lambda *args: pytest.fail("right_matrix formed"))
            got = verify_map(f, bilinear=True).bilinear_defect
        assert abs(got - want) <= 1e-13 * max(1.0, want)
    assert want > 0.01


@pytest.mark.parametrize("system", ["pair", "mixed", "m2_lindblad"])
def test_verify_map_fails_on_a_conjugated_left_part(request, system, rng):
    # the widest block Z_i of the refinement's target's left map, conjugated
    # on its kk indices by a random unitary, is still a representation, but
    # the map no longer intertwines it; the left map is read, so the cached
    # one is replaced
    sg, sf = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    a = CellSystem(sg, sf).refinement(uniform(Fraction(1, 2), 3), uniform(Fraction(1, 2), 1))
    assert verify_map(a, bilinear=True).passed
    left_map = a.target.left_map
    blocks = list(left_map.blocks)
    i = max(range(len(blocks)), key=lambda j: len(blocks[j][2]))
    q, q2, z, m = blocks[i]
    g = rng.standard_normal((2, len(z), len(z)))
    u = np.linalg.qr(g[0] + 1j * g[1])[0]
    blocks[i] = (q, q2, np.einsum("ka,abc,lc->kbl", u, z, u.conj()), m)
    t = a.target
    target = Quotient(t.blocks, t.h, t.k)
    vars(target)["left_map"] = BlockMap(left_map.rows, left_map.da, left_map.cols, tuple(blocks))
    broken = BimoduleMap(a.source, target, a.matrix)
    rep, want = verify_map(broken, bilinear=True), dense_bilinear_defect(broken)
    assert not rep.passed and rep.bilinear_defect > 0.01
    assert abs(rep.bilinear_defect - want) <= 1e-13 * max(1.0, want)


def test_frame_weights_are_kept_once_per_standard_form(monkeypatch):
    sg, sf = mixed_semigroup()
    weights = sf.frame_weights
    assert np.allclose(weights, [np.trace(np.linalg.inv(d)).real for d in sf.state.density],
                       rtol=1e-14)
    assert sf.frame_weights is weights and not weights.flags.writeable
    inverses, inv = [], np.linalg.inv

    def counting_inv(m):
        inverses.append(m)
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    cs = CellSystem(sg, sf)
    assert cs.cell(uniform(1, 3)).dim > 0  # two relative tensors, no density inverted
    assert inverses == []


def test_extension_refuses_quotients_over_another_right_factor(pair):
    # the blocks of two quotients meet through one right factor's
    # multiplicity bases: an equal copy of that factor is another factor
    sg, sf = pair
    g, copy = (CellSystem(sg, sf).gns(Fraction(1, 4)) for _ in range(2))
    e, sub = relative_tensor(g, g, sf), relative_tensor(g, copy, sf)
    assert [b[1] for b in e.blocks] == [b[1] for b in sub.blocks]
    with pytest.raises(ValueError, match="do not share their right factor"):
        extension(e, lambda y: y, sub)
    assert close(extension(e, lambda y: y, e).dense(), np.eye(e.dim))  # E L, X the identity


def test_extension_refuses_quotients_that_kept_other_blocks():
    # quotients over one right factor, built directly, that keep other
    # algebra blocks: each block of one must meet the same block of the other
    sg, sf = mixed_semigroup()
    g = CellSystem(sg, sf).gns(Fraction(1, 2))
    assert [b[1] for b in g.blocks] == [0, 1]

    def kept(j):
        (q, _, w, wm), = (b for b in g.blocks if b[1] == j)
        rows = q.stop - q.start
        return Quotient(((slice(0, rows), j, w, wm),), g.h, g.k)

    for e, sub in ((g, kept(1)), (kept(1), g), (kept(0), kept(1))):
        with pytest.raises(ValueError, match="kept blocks"):
            extension(e, lambda y: y, sub)
    one = kept(1)
    assert close(extension(one, lambda y: y, one).dense(), np.eye(one.dim))


def test_a_quotient_that_kept_no_block_has_an_empty_left_map():
    # the left map's dimension a is read off X*, so an extension needs no block
    sg, sf = mixed_semigroup()
    g = CellSystem(sg, sf).gns(Fraction(1, 2))
    empty = Quotient((), g.h, g.k)
    lm = empty.left_map
    assert (empty.algebra, empty.dim) == (g.algebra, 0)
    assert (lm.rows, lm.da, lm.cols, lm.blocks) == (0, sf.dim, 0, ())
    none = np.zeros((0, 2))
    assert lm.apply(none).shape == lm.apply(none, adjoint=True).shape == (0, 2)
    assert lm.dense().shape == (0, 0)


def test_only_bimodule_reads_the_block_format():
    """No module of the package reads an attribute `quotient`, and only bimodule.py names
    `Quotient`, so how a quotient stores its blocks is known to bimodule.py alone."""
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(prodsys.__file__).parent.glob("*.py")}
    reads = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "quotient")
    names = sorted({name for name, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "Quotient"
                    or isinstance(node, ast.alias) and node.name == "Quotient"
                    or isinstance(node, ast.Attribute) and node.attr == "Quotient"})
    assert reads == [] and names == ["bimodule.py"]
