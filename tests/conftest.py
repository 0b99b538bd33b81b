import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prodsys.algebra import (
    block_diag,
    diagonal_state,
    lmult_matrix,
    make_algebra,
    make_state,
    standard_form,
)
from prodsys.bimodule import (
    BimoduleMap,
    extend_from_family,
    extension,
    inner,
    l2_bimodule,
    pi_phi,
    tensor_vec,
)
from prodsys.cpdyn import (
    evaluate,
    lindblad_generator,
    semigroup_from_generator,
    stochastic_pair_generator,
)
from prodsys.dilation import TruncatedOperator, _amplify, _standard_zinv
from prodsys.heatmarkov import _kept_path_weights
from prodsys.partition import Partition

SEED = 20250808
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(monkeypatch, name):
    """A perfbench module loaded from its file, for the length of one test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # verdicts imports tracer by name
    spec.loader.exec_module(module)
    return module


def random_element(algebra, rng):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in algebra.blocks]
    return algebra.element(mats)


def random_hermitian(algebra, rng):
    x = random_element(algebra, rng)
    return algebra.element([(m + m.conj().T) / 2 for m in x.mats])


def random_state(algebra, rng):
    mats = []
    for n in algebra.blocks:
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(w @ w.conj().T + 0.4 * np.eye(n))
    total = sum(np.trace(m).real for m in mats)
    return make_state(algebra, [m / total for m in mats])


def mixed_semigroup():
    """Block-mixing semigroup on [1, 2] with a non-tracial state."""
    alg = make_algebra([1, 2])
    # E(a (+) B) = (tr B / 2) (+) a I, completely positive and unital
    expectation = np.zeros((5, 5), dtype=complex)
    expectation[0, 1] = expectation[0, 4] = 0.5
    expectation[1, 0] = expectation[4, 0] = 1.0
    sg = semigroup_from_generator(alg, expectation - np.eye(5))
    state = make_state(alg, [np.array([[0.4]]), np.diag([0.3, 0.3])])
    return sg, standard_form(alg, state)


def reversible_chain(seed, m):
    """Seeded reversible chain on m states: weights and a weight-symmetric Laplacian.

    Conductances c_ij = c_ji > 0 on the complete graph give L_ij = -c_ij / mu_i
    off the diagonal; the diagonal makes the rows sum to zero.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, m)
    mu /= mu.sum()
    c = np.triu(rng.uniform(0.2, 1.0, (m, m)), 1)
    lap = -(c + c.T) / mu[:, None]
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return mu, lap


def dense_right(module):
    """The right action stack, right(e_mu) for every basis element, built from `right_matrix`."""
    return np.stack([module.right_matrix(x) for x in module.algebra.basis()])


def dense_left(module):
    """The left action stack, left(e_mu) for every basis element, read off the dense
    `left_map`: its column (mu, v) is left(e_mu) v."""
    d, dim = module.algebra.dim, module.dim
    return module.left_map.dense().reshape(dim, d, dim).transpose(1, 0, 2)


def formula_left_parts(module):
    """The left action stack of a quotient from its factors, block by block: A_i(e_mu) =
    W_i (left_h(e_mu) (x) I_n)(W_i* / w_i), h the left factor, placed as (+) A_i (x) I_m.

    This is how a quotient built its left action before it was an extension
    step; the reference for `Bimodule.left_map`.
    """
    q, d = module.quotient, module.algebra.dim
    h_left, parts = dense_left(q.h), []
    for _, w, wm, v, _ in q.blocks:
        n, m = v.shape[1:]
        a = wm @ np.kron(h_left, np.eye(n)) @ (wm.conj().T / w)
        parts.append(np.kron(a, np.eye(m)))
    return block_diag(np.zeros((d, 0, 0)), *parts)


def dense_maps(cell):
    """Dense embed and lift of a block quotient: its factors contracted with identities."""
    q = cell.quotient
    return q.embed_pairs(np.eye(q.hd), np.eye(q.kd)), q.lift_apply(np.eye(q.dim))


def left_materialization(h, sf):
    """Matrix of the canonical map l2 (x) h -> h, x.cyclic (x) eta -> x eta.

    Acts on kron coordinates (standard-space index major): block j is the
    left action of the element solved from coordinate basis vector j.
    """
    m = np.tensordot(sf.solve_left_matrix.T, dense_left(h), axes=1)
    return m.transpose(1, 0, 2).reshape(h.dim, -1)


def unit_system_isomorphism(cs, p, target, target_family):
    """Isomorphism from cell(p) onto a unit-bearing target at level p.

    The map sends the elementary tensor with algebra slots xs over cyclic
    vectors, and a final right factor y, to the target's multiplied unit
    vectors with the same slots, column (xs, y) of `target_family` in kron
    order over the algebra basis.  Returns the map together with the
    extension defect on the defining family; a generating target makes the
    map unitary, a rank-deficient family shows up in the defect report.
    """
    sf = cs.sf
    vs = [sf.cyclic[:, None]] * (len(p) - 1) + [sf.embed_right_matrix]
    z = cs.family(p.parts, [np.eye(sf.dim)] * len(p), vs)
    u, defect = extend_from_family(z, target_family)
    return BimoduleMap(cs.cell(p), target, u), defect


def twisted_cp_defect(ts, t):
    """Defect of the unit of the twisted system inducing the endomorphism back."""
    cell = ts.cell(t)
    xi = ts.sf.cyclic
    elements, res, _ = inner(cell, xi[:, None], (dense_left(cell) @ xi).T, ts.sf)
    miss = elements[0] - ts.theta.map_at(t).T
    return max(res, *(ts.sf.algebra.from_vec(m).norm() for m in miss))


def path_maps(mdl, p):
    """Dense embed and lift of the path cell at p, a diagonal selection of paths.

    Path coordinates run over the kept paths of `l2_cell` in C order;
    embed scales the value on a kept path by the square root of its weight.
    """
    w = _kept_path_weights(mdl, p)
    keep = np.flatnonzero(w)
    rows = np.arange(keep.size)
    embed = np.zeros((keep.size, w.size))
    embed[rows, keep] = np.sqrt(w[keep])
    lift = np.zeros((w.size, keep.size))
    lift[keep, rows] = 1.0 / np.sqrt(w[keep])
    return embed, lift


def cell_target_elementary(cs, unit, parts):
    """Every unit tensor at `parts`, unthinned; its rank is the reference for the
    multiplicity identity of `generating_rank` and `minimality_evidence`.

    Column (x_1, ..., x_n, y), in kron order over the algebra basis, fuses
    x_i acting on the unit vector of each part, y on the last from the right.
    """
    slots = [(dense_left(cs.gns(t)) @ unit.vectors[Fraction(t)]).T for t in parts]
    last = cs.gns(parts[-1])
    slots[-1] = np.einsum("yab,bx->axy", dense_right(last), slots[-1]).reshape(last.dim, -1)
    return cs.fuse(parts, slots)


def loop_law_defect(action_at, pairs):
    """Semigroup law defect, one spectral norm per pair: the reference for `cpdyn.law_defect`."""
    return max((float(np.linalg.norm(action_at(s) @ action_at(t) - action_at(s + t), 2))
                for s, t in pairs), default=0.0)


def loop_cocycle_law_defects(theta, w, times):
    """Cocycle law per sum s + t, one algebra product per pair: the reference for
    `classify.cocycle_law_defects`."""
    out = {}
    for s in times:
        for t in times:
            if (s + t) in w:
                d = (w[s + t] - theta.apply(t, w[s]) * w[t]).norm()
                out[s + t] = max(out.get(s + t, 0.0), d)
    return out


def loop_product_formula_defect(t_map, x1, y1, x2, y2, sf, g):
    """Product formula defect of one draw, its two bounded-vector maps composed: the
    reference for `bimodule.product_formula_defect`."""
    v1 = tensor_vec(g, x1, sf.embed_left(y1))
    v2 = tensor_vec(g, x2, sf.embed_left(y2))
    composed = pi_phi(g, v1, sf).conj().T @ pi_phi(g, v2, sf)
    expected = y1.adjoint() * t_map(x1.adjoint() * x2) * y2
    return float(np.linalg.norm(composed - lmult_matrix(expected), 2))


def loop_compression_defect(tl, t, x):
    """Compression defect of one element, C* and C applied to its k0 alone and
    Y = lmult(x) R_0(z^-1) from l2's dense `right_matrix`: the reference for
    `dilation.compression_defect`."""
    target, sf = tl.grid_index(t), tl.sf
    y = lmult_matrix(x) @ l2_bimodule(sf).right_matrix(sf.algebra.diagonal(1.0 / sf.frame_weights))
    k0 = tl.embed_matrix(target, 0)
    compressed = k0.conj().T @ _amplify(tl, target, 0, lambda v: (y @ v)[None], k0)
    expected = lmult_matrix(evaluate(tl.system.semigroup, t)(x))
    return float(np.linalg.norm(compressed - expected, 2))


def loop_tower_cocycle_law_defect(w):
    """Tower cocycle law, one QR and one spectral norm per pair, theta_t(w_s) amplifying
    the thin Y = b_s (R_0(z^-1) k0_s*) of each pair: the reference for
    `dilation.Cocycle.law_defect`."""
    tl, d = w.tl, w.tl.sf.dim
    worst = 0.0
    times = sorted(t for t in w.maps if t > 0)
    levels = [tl.grid_index(t) for t in times]
    at_level = dict(zip(levels, times))
    for s, ks in zip(times, levels):
        for t, kt in zip(times, levels):
            if ks + kt > tl.levels:
                break
            if ks + kt not in at_level:
                continue
            lvl, zk0 = ks + kt, _standard_zinv(tl.sf)[:, None] * tl.corner(ks).conj().T
            e = tl.embed_apply(lvl, kt, np.hstack([w.maps[t], tl.corner(kt)]))
            u1 = _amplify(tl, lvl, ks, lambda v: (w.maps[s] @ (zk0 @ v))[None], e[:, :d])
            r = np.linalg.qr(np.hstack([e[:, d:], tl.corner(lvl)]), mode="r")
            diff = np.hstack([u1, -w.maps[at_level[lvl]]]) @ r.conj().T
            worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst


def level_recursion_embed(tl, k, j):
    """The connecting map iota_{k,j} by the level recursion E_k (iota_{k-1,j-1} (x) I_g) L_j,
    E_k the embed of level k, L_j the lift of level j and g the dimension of one part's
    GNS coupling, in the block form of `bimodule.extension`: a reference for
    `TruncatedLimit.embed_matrix` that forms no collapse of level k."""
    if j == k:
        return np.eye(tl.spaces[k].dim, dtype=complex)
    top = tl.spaces[k]
    if j == 0:
        return pi_phi(top, tl.unit_level[k], tl.sf)
    if j == 1:
        return top.quotient.embed_pairs(tl.unit_level[k - 1][:, None], np.eye(tl.spaces[1].dim))
    x = level_recursion_embed(tl, k - 1, j - 1)
    return extension(top, lambda y: x.conj().T @ y, tl.spaces[j]).dense()


def loop_choi_blocks(f):
    """Choi matrices per (input, output) block pair, one matrix unit at a time: the
    reference for `cpdyn.choi_blocks`."""
    alg, out = f.algebra, []
    for bi, ni in enumerate(alg.blocks):
        images = {}
        for r in range(ni):
            for c in range(ni):
                mats = [np.zeros((m, m), dtype=complex) for m in alg.blocks]
                mats[bi][r, c] = 1.0
                images[(r, c)] = f(alg.element(mats))
        for bo, no in enumerate(alg.blocks):
            choi = np.zeros((ni * no, ni * no), dtype=complex)
            for r in range(ni):
                for c in range(ni):
                    choi[r * no:(r + 1) * no, c * no:(c + 1) * no] = images[(r, c)].mats[bo]
            out.append(choi)
    return out


def loop_conjugation_defect(alpha, beta, wt, t):
    """Unitarity and conjugation defect of w_t, one basis element at a time."""
    worst = max(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0]), 2) for b in wt.mats)
    for x in alpha.algebra.basis():
        worst = max(worst, (beta.apply(t, x) - wt.adjoint() * alpha.apply(t, x) * wt).norm())
    return worst


def loop_factorization_defect(unit):
    """Unit factorization per grid pair through `fuse` and `refine_apply`: the reference
    for `cells.unit_report`."""
    cs, worst = unit.system, 0.0
    for s in unit.times:
        for t in unit.times:
            if (s + t) in unit.vectors:
                v = cs.fuse((s, t), [unit.vectors[s][:, None], unit.vectors[t][:, None]])
                w = cs.refine_apply(Partition((s, t)), Partition((s + t,)),
                                    unit.vectors[s + t][:, None])
                worst = max(worst, float(np.linalg.norm(v - w)))
    return worst


def dense_bilinear_defect(f):
    """Bilinearity defect of a map from dense left and right action matrices, per basis
    element: the reference for `bimodule.verify_map`."""
    m, left_s, left_t = f.matrix, dense_left(f.source), dense_left(f.target)
    return float(max(max(
        np.linalg.norm(m @ left_s[i] - left_t[i] @ m, 2),
        np.linalg.norm(m @ f.source.right_matrix(x) - f.target.right_matrix(x) @ m, 2))
        for i, x in enumerate(f.source.algebra.basis())))


def corner_projection(tl):
    """Top-level projection onto the embedded standard space."""
    k0 = tl.embed_matrix(tl.levels, 0)
    return k0 @ k0.conj().T


def compose(a, b):
    """Product of two tower operators at the higher of their support levels."""
    lvl = max(a.level, b.level)
    return TruncatedOperator(a.tl, lvl, a.at_level(lvl) @ b.at_level(lvl))


def embedding_isometry_defect(tl):
    """Largest isometry defect among the connecting maps.

    Zero for unital units; a non-unital unit makes the connecting maps
    strict contractions and the defect reports how far they are from
    preserving norms.
    """
    worst = 0.0
    for k in range(tl.levels + 1):
        for j in range(k):
            b = tl.embed_matrix(k, j)
            worst = max(worst, float(np.linalg.norm(
                b.conj().T @ b - np.eye(tl.spaces[j].dim), 2)))
    return worst


def adapted_defect(w):
    """Largest distance of a cocycle value at the top from its compression to its level."""
    worst = 0.0
    for t, op in w.values.items():
        k = w.tl.grid_index(t)
        top = op.on_top()
        kk = w.tl.embed_matrix(w.tl.levels, k)
        proj = kk @ kk.conj().T
        worst = max(worst, float(np.linalg.norm(proj @ top @ proj - top, 2)))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def pair():
    """Two-point algebra with the one-way jump semigroup and balanced state."""
    algebra, gen = stochastic_pair_generator()
    sf = standard_form(algebra, diagonal_state(algebra, [0.5, 0.5]))
    return semigroup_from_generator(algebra, gen), sf


@pytest.fixture
def m2_lindblad():
    """Seeded dissipative semigroup on one 2x2 block with a seeded state."""
    rng = np.random.default_rng(SEED)
    algebra = make_algebra([2])
    v = random_element(algebra, rng)
    h = random_hermitian(algebra, rng)
    gen = lindblad_generator(algebra, [v], h)
    sf = standard_form(algebra, random_state(algebra, rng))
    return semigroup_from_generator(algebra, gen), sf
