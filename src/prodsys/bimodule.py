"""Bimodule construction kit: Gram quotients and the two tensor products.

Every Hilbert space here is presented in orthonormal coordinates.  New
spaces are produced from a spanning family by discarding the null
directions of its Gram matrix: `embed` maps spanning-family coordinates
onto orthonormal coordinates of the quotient, `lift` is the canonical
right inverse supported on the orthogonal complement of the null space.

Two constructions are provided, and both go through one block quotient.
The relative tensor product fuses a right module with a left module over
the algebra via <xi1(.)eta1, xi2(.)eta2> = <eta1, m eta2> where m is the
algebra element implementing the bounded-vector composition of xi1, xi2.
The GNS tensor couples the algebra to its standard space through a UCP map
via <x(.)xi, y(.)eta> = <xi, T(x*y) eta>: the standard space fused with
itself through T, with m = T(x*y).  In both, the Gram matrix is the sum
over the algebra basis of <x_a, x_b>_mu L(e_mu), and it is never
assembled: the left module splits, block by block of the algebra, into a
matrix block tensored with a multiplicity space (Paschke's picture of
finite-dimensional modules), and in those coordinates the Gram matrix is
the direct sum over blocks of one small matrix of algebra-element entries
tensored with the identity on the multiplicity space.  In the GNS
tensor the small matrices hold the Choi data of T, are diagonalized, and
the rank rule decides what is kept.  In the relative tensor product they
are tau_j times a projection read off the left factor's right parts, part
by part (`relative_tensor` proves it): no eigh, no rank decided, and the
factor is built once per left factor and state.
`gram_quotient` diagonalizes an assembled Gram matrix whole; it is the
dense reference the block quotient is tested against.

A module pays only for what its readers use.  A quotient keeps one factor
per block (`Quotient`), and every reader contracts it against its own
vectors: `embed` applied to the kron pairs of two column blocks, to a
column block and its adjoint, and `lift` applied to a column block.  The
right action has one form, parts (kk, R) with right(y) = (+) I_kk (x) R(y)
(`Bimodule.right_parts`): a quotient reads its parts off its right
factor's multiplicity spaces and carries no right stack, and readers
apply the parts to their own vectors (`Bimodule.right_apply`).  The left
action is one map from C^d (x) module onto it (`Bimodule.left_map`,
applied by `Bimodule.left_apply`); a quotient's is an `extension` step,
the construction of the collapse steps, and it carries no left stack.
The left map of a quotient, the left multiplicity decomposition, and the
checked right multiplicity of each right part, kept by the module that
makes the part (`Bimodule.right_ranges`), are computed each on its first
read and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    StandardForm,
    block_diag,
    lmult_matrix,
    projection_range,
)

# Relative cutoff for discarding Gram null directions, and the relative
# negativity beyond which a Gram matrix is rejected as non positive.
GRAM_RTOL = 1e-10
GRAM_NEG_RTOL = 1e-8


class NotCompletelyPositiveError(ValueError):
    """Raised for a negative Gram eigenvalue, or a right action that is no module's."""


@dataclass(frozen=True)
class Quotient:
    """Per-block factors of the quotient of the kron pairs of h and k.

    With V_i = k.multiplicity[i] (kd x n x m_i), I (x) V splits the pair
    space h (x) k into the direct sum over blocks of (h (x) C^n) (x) C^m,
    and the quotient coordinates are the direct sum of C^kk (x) C^m, in
    rows q_i.  Block i keeps one factor W_i = sqrt(w_i) u_i* (kk x hd n)
    from the kept eigenpairs (w_i, u_i) of its Gram block: embed = (+)_i
    W_i (x) I_m and lift = (+)_i (W_i* / w_i) (x) I_m.  The right action is
    (+)_i I_kk (x) R_i, R_i = k.right_on_multiplicity[i], so the parts of a
    quotient are made by its right factor k, and so are their checked
    decompositions (`Bimodule.right_ranges`).  The left action is (+)_i
    A_i(x) (x) I_m, A_i(x) = W_i (left_h(x) (x) I_n)(W_i* / w_i), the
    factors Z_i of `Bimodule.left_map`.  `blocks` holds (q_i, w_i, W_i,
    V_i, R_i), `h` is the left factor and `k` the right one; readers apply
    the factors to column blocks, and a dense map is the contraction with an
    identity.
    """

    dim: int
    blocks: tuple
    h: Bimodule
    k: Bimodule

    @property
    def hd(self) -> int:
        return self.h.dim

    @property
    def kd(self) -> int:
        return self.k.dim

    def embed_pairs(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """embed @ kron(u, w) for column blocks u of h and w of k, in kron column order.

        Block i sends column pair (c, e) to sum_r Y[:, r, c] (x) X[r, :, e],
        with Y = W_i (u (x) I_n) and X = V_i* w; no kron product is formed.
        """
        nu, nw = u.shape[1], w.shape[1]
        out = np.empty((self.dim, nu * nw), dtype=complex)
        for q, _, wm, v, _ in self.blocks:
            kk, (_, n, m) = len(wm), v.shape
            y = wm.reshape(kk, self.hd, n).transpose(0, 2, 1).reshape(kk * n, -1) @ u
            x = (v.reshape(self.kd, n * m).conj().T @ w).reshape(n, m, nw)
            np.matmul(y.reshape(kk, n, nu).transpose(0, 2, 1)[:, None], x.transpose(1, 0, 2)[None],
                      out=out[q].reshape(kk, m, nu, nw))
        return out

    def embed_apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """embed @ x for a column block x of pair coordinates, or embed* @ x with `adjoint`."""
        if adjoint:
            return self._from_blocks(x, lift=False)
        cols, xr = x.shape[1], x.reshape(self.hd, self.kd, -1)
        out = np.empty((self.dim, cols), dtype=complex)
        for q, _, wm, v, _ in self.blocks:
            n, m = v.shape[1:]
            t = v.reshape(self.kd, n * m).conj().T @ xr  # (hd, n m, cols)
            out[q] = (wm @ t.reshape(-1, m * cols)).reshape(-1, cols)
        return out

    def lift_apply(self, x: np.ndarray) -> np.ndarray:
        """lift @ x for a column block x of quotient coordinates."""
        return self._from_blocks(x, lift=True)

    def _from_blocks(self, x: np.ndarray, lift: bool) -> np.ndarray:
        """(I (x) V)((+)_i M_i (x) I_m) x, with M_i = W_i* / w_i (lift) or W_i* (embed*)."""
        cols = x.shape[1]
        out = np.zeros((self.hd, cols, self.kd), dtype=complex)
        for q, w, wm, v, _ in self.blocks:
            n, m = v.shape[1:]
            mat = wm.conj().T / w if lift else wm.conj().T
            t = (mat @ x[q].reshape(-1, m * cols)).reshape(self.hd, n * m, cols)
            out += t.transpose(0, 2, 1) @ v.reshape(self.kd, n * m).T
        return out.transpose(0, 2, 1).reshape(-1, cols)


@dataclass(frozen=True)
class Bimodule:
    """Hilbert space with commuting left and right algebra actions.

    A module that is no quotient carries each action as a stack: `left[k]`
    is the left action matrix of the k-th coordinate basis element of the
    algebra, and `right[k]` the right one.  A quotient of kron pairs
    carries its quotient maps as per-block factors (`quotient`), and
    `left` and `right` None: its actions are read off its blocks.  Readers
    go through `left_map` and `right_parts`, and apply them to column
    blocks with `left_apply` and `right_apply`.
    """

    algebra: Algebra
    dim: int
    left: np.ndarray | None
    right: np.ndarray | None
    quotient: Quotient | None = None

    @property
    def gram_eigs(self) -> np.ndarray | None:
        """A quotient's kept Gram eigenvalue at each coordinate; None for no quotient."""
        q = self.quotient
        return None if q is None else np.concatenate(
            [np.zeros(0), *(np.repeat(w, v.shape[2]) for _, w, _, v, _ in q.blocks)])

    @cached_property
    def left_map(self) -> BlockMap:
        """The left action as one read-only map from C^d (x) module onto it, e_mu (x) v to
        left(e_mu) v: a quotient's the extension step over X(e_mu (x) v) = left_h(e_mu) v, h its
        left factor, X* applied as left_h(e_mu)* = left_h(e_mu*); else its stack, one block."""
        q = self.quotient
        if q is None:
            z, rows = self.left.transpose(1, 0, 2), slice(0, self.dim)
            z.flags.writeable = False
            return BlockMap(self.dim, self.algebra.dim, self.dim, ((rows, rows, z, 1),))
        star = self.algebra.star
        return extension(self, lambda y: q.h.left_apply(y)[star].reshape(-1, y.shape[1]), self)

    def left_apply(self, x: np.ndarray) -> np.ndarray:
        """left(e_mu) @ x for every basis element e_mu and a column block x: shape
        (d, dim, cols), each block of `left_map` applied to its own rows."""
        lm = self.left_map
        out = np.empty((lm.da, *x.shape), dtype=complex)
        for q, _, z, _ in lm.blocks:
            y = z.transpose(1, 0, 2) @ x[q].reshape(z.shape[2], -1)  # (d, kk, m cols)
            out[:, q] = y.reshape(out[:, q].shape)
        return out

    @property
    def right_parts(self) -> list[tuple[int, np.ndarray]]:
        """The right action as parts (kk, R), right(y) = (+) I_kk (x) R(y) in row order:
        a quotient's blocks' (kk_i, R_i), none if it kept no block; else the one part (1, right)."""
        q = self.quotient
        return [(len(w), r) for _, w, _, _, r in q.blocks] if q else [(1, self.right)]

    def right_matrix(self, x: AlgebraElement) -> np.ndarray:
        """The right action of x, (+) I_kk (x) R(x) over the parts."""
        return block_diag(np.zeros((0, 0)), *(a for kk, r in self.right_parts
                                              for a in [np.tensordot(x.vec(), r, axes=1)] * kk))

    def right_apply(self, x: np.ndarray) -> np.ndarray:
        """right(e_mu) @ x for every basis element e_mu and a column block x: shape
        (d, dim, cols), each part applied to its own rows."""
        out, o = np.empty((self.algebra.dim, *x.shape), dtype=complex), 0
        for kk, r in self.right_parts:
            rows = slice(o, o + kk * r.shape[1])
            y = r[:, None] @ x[rows].reshape(kk, r.shape[1], -1)  # (d, kk, m, cols)
            out[:, rows], o = y.reshape(out[:, rows].shape), rows.stop
        return out

    @cached_property
    def multiplicity(self) -> tuple[np.ndarray, ...]:
        """Multiplicity decomposition of the left action, one array per block.

        For block M_n of the algebra, B spans the range of the left action of
        the matrix unit e_11 (`projection_range`) and the array V has
        V[:, r, :] = left(e_r1) B.  Its columns are orthonormal, and the
        left action of e_rc sends V[:, c', s] to delta(c, c') V[:, r, s]: on
        the span of V the left action is x (x) I_m, with m = B.shape[1].
        It is read off the left action applied to the identity: only a right
        factor reads it, and in production those are l2 and the one-part
        couplings, of dimension at most d^2.
        """
        return _multiplicity(self.left_apply(np.eye(self.dim)), self.algebra, left=True)

    @cached_property
    def right_on_multiplicity(self) -> tuple[np.ndarray, ...]:
        """The right action on each multiplicity space: R[y] = B* right(y) B, B = V[:, 0, :].

        The right action commutes with the left, so on the span of V it is
        I_n (x) R; every quotient over this module as its right factor shares R.
        """
        out = tuple(v[:, 0].conj().T @ self.right_apply(v[:, 0]) for v in self.multiplicity)
        for r in out:
            r.flags.writeable = False
        return out

    @cached_property
    def right_ranges(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The checked right multiplicity of each R of `right_on_multiplicity` (`_right_ranges`).

        Every quotient over this module as its right factor carries these R as
        its right parts, so each is decomposed and checked once, here, and not
        per quotient; a failing R raises on every read, as nothing is cached.
        """
        return tuple(_right_ranges(r, self.algebra) for r in self.right_on_multiplicity)

    @cached_property
    def _stack_ranges(self) -> tuple[np.ndarray, ...]:
        """The checked right multiplicity of the right stack of a module that is no quotient."""
        return _right_ranges(self.right, self.algebra)

    @property
    def part_ranges(self) -> list[tuple[np.ndarray, ...]]:
        """The checked right multiplicity of each of `right_parts`, read where the part is made:
        a quotient's off its right factor (`right_ranges`), any other module's off its stack."""
        q = self.quotient
        if q is None:
            return [self._stack_ranges]
        made = dict(zip(map(id, q.k.right_on_multiplicity), q.k.right_ranges))
        return [made[id(r)] for *_, r in q.blocks]

    @cached_property
    def _gram_factors(self) -> dict:
        """The Gram factor of the relative tensors over this module, per state."""
        return {}


def _right_ranges(r: np.ndarray, alg: Algebra) -> tuple[np.ndarray, ...]:
    """Multiplicity decomposition of one right part's stack R, one array per block, checked.

    The mirror of `Bimodule.multiplicity`: X[:, c, :] = R(e_1c) B, with B the
    range of R(e_11), so X[:, c, p] is copy p of the row vector e_c^T of
    M_n.  `relative_tensor` reads its Gram off X, so X is checked: its
    columns must form a unitary, and each matrix unit y must send X[:, c, p]
    to sum_k y_ck X[:, k, p].  Past 1e-8 that raises: the bounded-vector
    compositions are no left multiplications.
    """
    dec, d = _multiplicity(r, alg, left=False), r.shape[1]
    x = np.hstack([v.reshape(d, v.shape[1] * v.shape[2]) for v in dec])
    defect = np.linalg.norm(x.conj().T @ x - np.eye(d)) if x.shape == (d, d) else np.inf
    for y, act in zip(alg.basis(), r):
        moved = np.hstack([np.einsum("ck,akp->acp", b, v).reshape(d, v.shape[1] * v.shape[2])
                           for b, v in zip(y.mats, dec)])
        defect = max(defect, np.linalg.norm(act @ x - moved, axis=0).max(initial=0.0))
    if defect > 1e-8:
        raise NotCompletelyPositiveError("bounded-vector composition is not a left "
                                         f"multiplication (right-action defect {defect:.3e})")
    return dec


def _multiplicity(stack: np.ndarray, alg: Algebra, left: bool) -> tuple[np.ndarray, ...]:
    """Per block M_n, stack[e_r1] B (left) or stack[e_1r] B (right) in slice [:, r, :], B the
    range of stack[e_11]; read-only, as every quotient over the module shares them."""
    out = []
    for o, n in zip(alg.offsets, alg.blocks):
        units = stack[o:o + n * n:n] if left else stack[o:o + n]
        out.append((units @ projection_range(units[0])).transpose(1, 0, 2))
        out[-1].flags.writeable = False
    return tuple(out)


@dataclass(frozen=True)
class BimoduleMap:
    source: Bimodule
    target: Bimodule
    matrix: np.ndarray


@dataclass(frozen=True)
class MapReport:
    bilinear_defect: float | None
    isometry_defect: float | None
    unitary_defect: float | None
    tol: float

    @property
    def passed(self) -> bool:
        defects = [
            d for d in (self.bilinear_defect, self.isometry_defect, self.unitary_defect)
            if d is not None
        ]
        return all(d <= self.tol for d in defects)


def gram_quotient(gram: np.ndarray, rtol: float = GRAM_RTOL):
    """Orthonormalize a spanning family from its Gram matrix.

    Returns (embed, lift, eigenvalues) where embed maps family coordinates
    to orthonormal coordinates of the quotient space, embed* embed
    reproduces the Gram matrix, and lift embeds the quotient back into the
    family coordinates with embed @ lift = identity.
    """
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    keep = _kept(w, rtol)
    w, v = w[keep], v[:, keep]
    return np.sqrt(w)[:, None] * v.conj().T, v / np.sqrt(w)[None, :], w


def _kept(w: np.ndarray, rtol: float) -> np.ndarray:
    """The rank rule: mask of the Gram eigenvalues that are kept.

    An eigenvalue is kept above `rtol` times the largest one; an eigenvalue
    below -GRAM_NEG_RTOL times the largest rejects the Gram matrix.
    """
    top = max(w.max(initial=0.0), 0.0)
    if top == 0.0:
        return np.zeros(w.shape, dtype=bool)
    if w.min() < -GRAM_NEG_RTOL * top:
        raise NotCompletelyPositiveError(
            f"Gram matrix has negative eigenvalue {w.min():.3e} (max {top:.3e})"
        )
    return w > rtol * top


def numerical_rank(z: np.ndarray) -> int:
    """Rank of a matrix under the rank rule, applied to its singular values."""
    return int(_kept(np.linalg.svd(z, compute_uv=False), GRAM_RTOL).sum())


def l2_bimodule(sf: StandardForm) -> Bimodule:
    """The standard space itself, acting by two-sided multiplication."""
    return Bimodule(sf.algebra, sf.dim, sf.lmult_basis, sf.rmult_basis)


def pi_phi(h: Bimodule, xi: np.ndarray, sf: StandardForm) -> np.ndarray:
    """Matrix of the bounded-vector map of xi, from the standard space to h.

    The defining property is that the cyclic vector times x goes to xi
    acted on by x from the right; in finite dimension with a faithful state
    every vector is bounded, and the matrix is the right action on xi
    composed with the solve map of the standard space.
    """
    return h.right_apply(xi[:, None])[..., 0].T @ sf.solve_right_matrix


def left_element_of(op: np.ndarray, sf: StandardForm) -> tuple[AlgebraElement, float]:
    """Recognize an operator on the standard space as a left multiplication.

    Returns the algebra element and the residual norm between the operator
    and the left multiplication it induces.
    """
    a = sf.solve_left(op @ sf.cyclic)
    residual = float(np.linalg.norm(op - lmult_matrix(a), 2))
    return a, residual


def inner(h: Bimodule, xs: np.ndarray, ys: np.ndarray,
          sf: StandardForm) -> tuple[np.ndarray, float, float]:
    """Algebra-valued inner products of the columns of xs with those of ys.

    The composition of the bounded-vector maps of xs[:, a] and ys[:, b] is
    a left multiplication on the standard space, and elements[a, b] holds
    the coordinates of its algebra element, solved from the image of the
    cyclic vector.  Returns (elements, residual, scale): the residual is
    the largest Frobenius norm, over the pairs, of the composition minus
    the left multiplication by its element, and the scale is the largest
    composition entry, at least 1.
    """
    # [:, :, a] is the transposed bounded-vector map of column a
    bx, by = (np.tensordot(sf.solve_right_matrix.T, h.right_apply(v), axes=1) for v in (xs, ys))
    comp = np.einsum("ira,jrb->abij", bx.conj(), by, optimize=True)
    elements = (comp @ sf.cyclic) @ sf.solve_left_matrix.T
    miss = comp.reshape(*comp.shape[:2], -1) - elements @ sf.lmult_basis.reshape(sf.dim, -1)
    residual = float(np.linalg.norm(miss, axis=2).max(initial=0.0))
    return elements, residual, max(1.0, float(np.abs(comp).max(initial=0.0)))


def gns_tensor(t_map, sf: StandardForm, l2: Bimodule | None = None) -> Bimodule:
    """Couple the algebra to its standard space through a UCP map.

    Spanning family: elementary tensors over the matrix-unit basis of the
    algebra and the coordinate basis of the standard space, in kron order
    (algebra index major).  This is the standard space fused with itself
    through T: the Gram matrix is the sum over the algebra basis of
    T(e_a* e_b)_mu left(e_mu) of l2, split into the blocks E[(a, r), (b, c)] of
    `_block_quotient`; row b of conj(lmult(e_a)) holds the coordinates of
    e_a* e_b, because lmult(x*) = lmult(x)*.  The E hold the Choi data of
    T, so this is the one quotient that decides a rank: the rank rule
    (`_kept`) runs once over the eigenvalues of all blocks.  A non-CP input
    shows up as a genuinely negative eigenvalue and is rejected.  `l2` is
    the standard space of sf as a module, both factors of the coupling; a
    `CellSystem` passes its own, so that every coupling it builds shares
    one right factor, whose parts are then decomposed once per state.
    """
    elements, d, blocks = sf.lmult_basis.conj() @ t_map.action.T, sf.dim, sf.algebra.blocks
    parts = np.split(elements, sf.algebra.offsets[1:], axis=2)
    es = [e.reshape(d, d, n, n).swapaxes(1, 2).reshape(d * n, -1) for e, n in zip(parts, blocks)]
    eigs = [np.linalg.eigh((e + e.conj().T) / 2) for e in es]
    try:
        keep = _kept(np.concatenate([w for w, _ in eigs]), GRAM_RTOL)
    except NotCompletelyPositiveError as exc:
        raise NotCompletelyPositiveError(f"GNS coupling failed, map is not CP: {exc}") from exc
    keeps = np.split(keep, np.cumsum([w.size for w, _ in eigs])[:-1])
    l2 = l2_bimodule(sf) if l2 is None else l2
    return _block_quotient([(w[kp], np.sqrt(w[kp])[:, None] * u[:, kp].conj().T)
                            for (w, u), kp in zip(eigs, keeps)], l2, l2, sf)


def tensor_vec(g: Bimodule, x: AlgebraElement, xi: np.ndarray) -> np.ndarray:
    """Coordinates of the elementary tensor of x and xi in a GNS coupling."""
    return g.quotient.embed_pairs(x.vec()[:, None], xi[:, None])[:, 0]


def relative_tensor(h: Bimodule, k: Bimodule, sf: StandardForm) -> Bimodule:
    """Relative tensor product over the algebra, h fused with k.

    Spanning family: pairs of coordinate basis vectors in kron order
    (h index major).  The Gram blocks E_j of `_block_quotient`, built from
    the algebra elements of L_a* L_b (L_a the bounded-vector map of
    coordinate vector a of h, `inner`), are fixed by the right module
    structure of h alone (Paschke 1973, "Inner product modules over
    B*-algebras"), which is a sum of parts (kk, R), right(y) = (+) I_kk (x)
    R(y) (`Bimodule.right_parts`).  With X the checked right multiplicity
    of a part's R on block M_n (`Bimodule.part_ranges`) and tau_j =
    Tr(rho_j^-1) (`StandardForm.frame_weights`), E_j = tau_j U_j U_j*, where
    U_j is the direct sum over the parts, each on its own rows of h and its
    own columns, of

        I_kk (x) U_R,  U_R[(a, r), p] = sum_c X[a, c, p] (rho_j^-1/2)_rc / sqrt(tau_j).

    Proof, part by part: x_cp = X[:, c, p] is copy p of the row vector
    e_c^T of M_n, and so is e_kappa (x) x_cp on the part's rows C^kk (x)
    C^m.  L_xi sends eta to xi solve_right(eta), and solve_right multiplies
    by rho^-1/2 from the left, so L_x_cp sends eta to copy p of e_c^T
    rho_j^-1/2 eta_j, and L_x_cp* L_x_c'p' is left multiplication by
    delta(p, p') rho_j^-1/2 e_cc' rho_j^-1/2; copies in another part or
    another kappa are orthogonal and compose to zero.  Each part's X is
    unitary, so coordinate vector a of h is sum_cp conj(X[a', c, p])
    (e_kappa (x) x_cp) within its own part and copy kappa, a = (kappa, a'),
    and E_j = sum u u* over the columns of U_j, u = sqrt(tau_j) U_j[:, col];
    the x_cp are orthonormal, so the u are orthogonal of squared norm
    sum_c (rho_j^-1)_cc = tau_j.  Hence E_j has the one nonzero eigenvalue
    tau_j, on the columns of U_j, and there is no rank to decide.

    The stored factor W_j = sqrt(tau_j) U_j* is filled part by part with
    I_kk (x) sqrt(tau_j) U_R*; no dense X or U_j is formed.  It depends on h
    and the state alone, so it is built once per left factor and
    StandardForm, and every relative tensor over h shares it read-only.
    """
    cache = h._gram_factors
    if id(sf) not in cache:  # the entry holds sf, so no other state can take its id
        cache[id(sf)] = sf, _gram_factor(h, sf)
    return _block_quotient(cache[id(sf)][1], h, k, sf)


def _gram_factor(h: Bimodule, sf: StandardForm) -> tuple:
    """(w_j, W_j) of `relative_tensor` per algebra block, W_j read-only."""
    parts, ranges, out = h.right_parts, h.part_ranges, []
    for j, (root_inv, tau) in enumerate(zip(sf.root_inv, sf.frame_weights)):
        kept, n = sum(kk * x[j].shape[2] for (kk, _), x in zip(parts, ranges)), len(root_inv)
        wm, rows, cols = np.zeros((kept, h.dim, n), dtype=complex), 0, 0
        for (kk, _), x in zip(parts, ranges):
            m, _, p = x[j].shape
            u = np.einsum("acp,rc->arp", x[j], root_inv) / np.sqrt(tau)
            copy = np.arange(kk)[:, None, None]  # copy kappa meets copy kappa only
            wm[rows + copy * p + np.arange(p)[:, None], cols + copy * m + np.arange(m)] = (
                np.sqrt(tau) * u.conj()).transpose(2, 0, 1)
            rows, cols = rows + kk * p, cols + kk * m
        wm = wm.reshape(kept, h.dim * n)
        wm.flags.writeable = False
        out.append((np.full(kept, tau), wm))
    return tuple(out)


def _block_quotient(blocks, h: Bimodule, k: Bimodule, sf: StandardForm) -> Bimodule:
    """Quotient of the family of pairs (coordinate of h, coordinate of k) under one Gram form.

    The Gram matrix is the sum over the algebra basis of elements[a, b, mu]
    left(e_mu) of k, in kron order (a major).  In the coordinates of
    `k.multiplicity` that sum is the direct sum over blocks M_n of E (x)
    I_m, with E[(a, r), (b, c)] the (r, c) entry of the block part of
    elements[a, b].  `blocks` gives each E by its kept eigenvalues w > 0 and
    the factor W = sqrt(w) u* of its orthonormal eigenvectors u; a block
    with none, or with m = 0, adds nothing.  The quotient coordinates are
    (block, kept direction, multiplicity index).  The quotient maps are kept
    as per-block factors (`Quotient`) and never assembled, and neither
    action is: the left action is the blocks' (+) A_i (x) I_m, an extension
    step built on first read (`Bimodule.left_map`), and the right action the
    blocks' (+) I_kk (x) R_i.
    """
    factors, o = [], 0  # (rows, w, W, V, R) per kept block
    for (w, wm), v, r in zip(blocks, k.multiplicity, k.right_on_multiplicity):
        if not (w.size and v.shape[2]):
            continue
        q = slice(o, o + w.size * v.shape[2])
        o = q.stop
        factors.append((q, w, wm, v, r))
    return Bimodule(sf.algebra, o, None, None, Quotient(o, tuple(factors), h, k))


def extension(e: Bimodule, x_adjoint, sub: Bimodule) -> "BlockMap":
    """E (X (x) I_k)(I_a (x) L) for two quotients of pairs over one right factor k.

    E is the embed of e, from pairs (h, k); L the lift of sub, from pairs
    (h', k); X maps a (x) h' into h and is given applied, x_adjoint(y) = X*
    y for a column block y.  Both quotients split k through the same V_i,
    whose columns are orthonormal, so (I (x) V_i*)(X (x) I_k)(I (x) V_j) =
    delta_ij X (x) I_(n m), and the product is (+)_i Z_i (x) I_m in the
    block coordinates of e and of a (x) sub, with Z_i = W_i (X (x) I_n)(I_a
    (x) L_i) of shape (kk_i, a, kk'_i), L_i = W'_i* / w'_i the lift factor of
    sub.  Z_i[:, a] = ((W'_i / w'_i) Y_a)* for the a-th row block Y_a of Y =
    X* (W_i (x) I_n)*, columns (n, kk_i): a is read off the rows of Y; each Z_i is read-only.
    """
    qe, qs = e.quotient, sub.quotient
    out = []
    for (q, _, wm, v, _), (q2, w2, wm2, v2, _) in zip(qe.blocks, qs.blocks):
        if v is not v2:
            raise ValueError("the quotients do not share their right factor")
        kk, n = len(wm), v.shape[1]
        y = x_adjoint(wm.conj().reshape(kk, qe.hd, n).transpose(1, 2, 0).reshape(qe.hd, -1))
        da = len(y) // qs.hd
        y = np.matmul(wm2 / w2[:, None], y.reshape(da, -1, kk))  # conj Z_i, (a, kk'_i, kk_i)
        z = np.ascontiguousarray(np.conj(y, out=y).transpose(2, 0, 1))
        z.flags.writeable = False
        out.append((q, q2, z, v.shape[2]))
    return BlockMap(e.dim, da, sub.dim, tuple(out))


@dataclass(frozen=True)
class BlockMap:
    """Map (+)_i Z_i (x) I_m from a (x) C^cols to C^rows, in block coordinates.

    Block i holds (q_i, q'_i, Z_i, m_i): row (k, s) of q_i and column
    (alpha, (k', s')) of q'_i meet in Z_i[k, alpha, k'] when s = s'.
    """

    rows: int
    da: int
    cols: int
    blocks: tuple

    def dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.da, self.cols), dtype=complex)
        for q, q2, z, m in self.blocks:
            view = out[q, :, q2].reshape(len(z), m, self.da, -1, m)
            for s in range(m):
                view[:, s, :, :, s] = z
        return out.reshape(self.rows, -1)

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The map applied to a column block x, or its adjoint with `adjoint`."""
        cols = x.shape[1]
        if adjoint:
            out = np.zeros((self.da, self.cols, cols), dtype=complex)
            for q, q2, z, m in self.blocks:
                zh = z.reshape(len(z), -1).conj().T
                out[:, q2] = (zh @ x[q].reshape(len(z), -1)).reshape(self.da, -1, cols)
            return out.reshape(-1, cols)
        x = x.reshape(self.da, self.cols, cols)
        out = np.empty((self.rows, cols), dtype=complex)
        for q, q2, z, m in self.blocks:
            out[q] = (z.reshape(len(z), -1) @ x[:, q2].reshape(-1, m * cols)).reshape(-1, cols)
        return out


def extend_from_family(z: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares linear map u with u @ z = v on a defining family.

    The columns of z span the source and the columns of v are their
    prescribed images.  Returns u and the spectral-norm residual on the
    family, which is zero exactly when the prescription extends linearly.
    """
    u, *_ = np.linalg.lstsq(z.conj().T, v.conj().T, rcond=None)
    u = u.conj().T
    return u, float(np.linalg.norm(u @ z - v, 2))


def product_formula_defect(t_map, draws: Sequence[Sequence[AlgebraElement]], sf: StandardForm,
                           g: Bimodule | None = None) -> np.ndarray:
    """Defects of the bounded-vector composition formula in a GNS coupling, one per draw.

    For a draw (x1, y1, x2, y2), composing the bounded-vector maps of the
    elementary tensors x1 (x) y1 Omega and x2 (x) y2 Omega must give left
    multiplication by y1* T(x1* x2) y2 on the standard space.  All 2n
    tensors of n draws are formed by one contraction with the dense embed
    of g (`tensor_vec`), their maps by one `right_apply` (as in `inner`),
    the n compositions by one einsum, and the defects are one batched
    spectral norm.
    """
    if g is None:
        g = gns_tensor(t_map, sf)
    coords = np.array([[e.vec() for e in draw] for draw in draws]).T  # (d, slot, draw)
    d, n = coords.shape[0], coords.shape[2]
    embed = g.quotient.embed_pairs(np.eye(d), np.eye(d)).reshape(g.dim, d, d)
    # column c < n pairs x1 with y1 Omega of draw c, column n + c x2 with y2 Omega
    vecs = np.einsum("iab,ac,bc->ic", embed, coords[:, [0, 2]].reshape(d, -1),
                     sf.embed_left_matrix @ coords[:, [1, 3]].reshape(d, -1))
    # [:, :, c] is the transposed bounded-vector map of tensor c
    b = np.tensordot(sf.solve_right_matrix.T, g.right_apply(vecs), axes=1)
    composed = np.einsum("ira,jra->aij", b[..., :n].conj(), b[..., n:])
    want = np.array([(y1.adjoint() * t_map(x1.adjoint() * x2) * y2).vec()
                     for x1, y1, x2, y2 in draws])
    return np.linalg.norm(composed - np.tensordot(want, sf.lmult_basis, axes=1), 2, axis=(1, 2))


def verify_map(
    f: BimoduleMap,
    bilinear: bool = False,
    isometric: bool = False,
    unitary: bool = False,
    tol: float = 1e-10,
) -> MapReport:
    """Defect report for the requested structural properties of a map.

    The bilinearity defect is the largest spectral norm of m L_s(e_mu) -
    L_t(e_mu) m and of m R_s(e_mu) - R_t(e_mu) m over the basis, one batched
    norm per side.  Each side's action is applied to m and m*
    (`Bimodule.left_apply`, `Bimodule.right_apply`), with m X_s(e_mu) =
    (X_s(e_mu*) m*)*, so no action matrix is formed.
    """
    m, s, t = f.matrix, f.source, f.target
    bilinear_defect = None
    if bilinear:
        bilinear_defect = float(max(np.linalg.norm(
            act_s(m.conj().T)[s.algebra.star].conj().swapaxes(1, 2) - act_t(m), 2, axis=(-2, -1)
        ).max() for act_s, act_t in ((s.left_apply, t.left_apply), (s.right_apply, t.right_apply))))
    isometry_defect = None
    if isometric:
        isometry_defect = float(
            np.linalg.norm(m.conj().T @ m - np.eye(f.source.dim), 2)
        )
    unitary_defect = None
    if unitary:
        unitary_defect = float(max(
            np.linalg.norm(m.conj().T @ m - np.eye(f.source.dim), 2),
            np.linalg.norm(m @ m.conj().T - np.eye(f.target.dim), 2),
        ))
    return MapReport(bilinear_defect, isometry_defect, unitary_defect, tol)
