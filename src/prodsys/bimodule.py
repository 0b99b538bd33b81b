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
tensored with the identity on the multiplicity space.  Only the small
matrices are diagonalized.  `gram_quotient` diagonalizes an assembled Gram
matrix whole; it is the dense reference the block quotient is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    Algebra,
    AlgebraElement,
    StandardForm,
    lmult_matrix,
    rmult_matrix,
)

# Relative cutoff for discarding Gram null directions, and the relative
# negativity beyond which a Gram matrix is rejected as non positive.
GRAM_RTOL = 1e-10
GRAM_NEG_RTOL = 1e-8


class NotCompletelyPositiveError(ValueError):
    """Raised when a Gram matrix has a genuinely negative eigenvalue."""


@dataclass(frozen=True)
class Bimodule:
    """Hilbert space with commuting left and right algebra actions.

    `left[k]` / `right[k]` are the action matrices of the k-th coordinate
    basis element of the algebra.  When the space was produced as a
    quotient of a spanning family, `embed` / `lift` translate between
    family coordinates and orthonormal coordinates.
    """

    algebra: Algebra
    dim: int
    left: np.ndarray
    right: np.ndarray
    embed: np.ndarray | None = None
    lift: np.ndarray | None = None
    gram_eigs: np.ndarray | None = None

    def left_matrix(self, x: AlgebraElement) -> np.ndarray:
        return np.tensordot(x.vec(), self.left, axes=1)

    def right_matrix(self, x: AlgebraElement) -> np.ndarray:
        return np.tensordot(x.vec(), self.right, axes=1)

    def act_left(self, x: AlgebraElement, v: np.ndarray) -> np.ndarray:
        return self.left_matrix(x) @ v

    @cached_property
    def multiplicity(self) -> tuple[np.ndarray, ...]:
        """Multiplicity decomposition of the left action, one array per block.

        For block M_n of the algebra, B is an orthonormal basis of the range
        of the left action of the matrix unit e_11 and the array V has
        V[:, r, :] = left(e_r1) B.  Its columns are orthonormal, and the
        left action of e_rc sends V[:, c', s] to delta(c, c') V[:, r, s]: on
        the span of V the left action is x (x) I_m, with m = B.shape[1].
        """
        out, off = [], 0
        for n in self.algebra.blocks:
            units = self.left[off:off + n * n:n]
            p = units[0]
            w, v = np.linalg.eigh((p + p.conj().T) / 2)
            out.append((units @ v[:, w > 0.5]).transpose(1, 0, 2))
            off += n * n
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
    return _quotient_factors(w, v, _kept(w, rtol))


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


def numerical_rank(z: np.ndarray, rtol: float = GRAM_RTOL) -> int:
    """Rank of a matrix under the rank rule, applied to its singular values."""
    return int(_kept(np.linalg.svd(z, compute_uv=False), rtol).sum())


def _quotient_factors(w: np.ndarray, v: np.ndarray, keep: np.ndarray):
    """(embed, lift, kept eigenvalues) from an eigendecomposition."""
    wk, vk = w[keep], v[:, keep]
    return np.sqrt(wk)[:, None] * vk.conj().T, vk / np.sqrt(wk)[None, :], wk


def l2_bimodule(sf: StandardForm) -> Bimodule:
    """The standard space itself, acting by two-sided multiplication."""
    right = np.stack([rmult_matrix(x) for x in sf.algebra.basis()])
    d = sf.dim
    return Bimodule(sf.algebra, d, sf.lmult_basis, right, embed=np.eye(d), lift=np.eye(d))


def pi_phi(h: Bimodule, xi: np.ndarray, sf: StandardForm) -> np.ndarray:
    """Matrix of the bounded-vector map of xi, from the standard space to h.

    The defining property is that the cyclic vector times x goes to xi
    acted on by x from the right; in finite dimension with a faithful state
    every vector is bounded, and the matrix is the right action on xi
    composed with the solve map of the standard space.
    """
    return (h.right @ xi).T @ sf.solve_right_matrix


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
    rights = np.tensordot(sf.solve_right_matrix.T, h.right, axes=1)
    # (rights @ xs)[:, :, a] is the transposed bounded-vector map of xs[:, a]
    comp = np.einsum("ira,jrb->abij", (rights @ xs).conj(), rights @ ys, optimize=True)
    elements = (comp @ sf.cyclic) @ sf.solve_left_matrix.T
    miss = comp.reshape(*comp.shape[:2], -1) - elements @ sf.lmult_basis.reshape(sf.dim, -1)
    residual = float(np.linalg.norm(miss, axis=2).max(initial=0.0))
    return elements, residual, max(1.0, float(np.abs(comp).max(initial=0.0)))


def gns_tensor(t_map, sf: StandardForm) -> Bimodule:
    """Couple the algebra to its standard space through a UCP map.

    Spanning family: elementary tensors over the matrix-unit basis of the
    algebra and the coordinate basis of the standard space, in kron order
    (algebra index major).  This is the standard space fused with itself
    through T: the Gram matrix is the sum over the algebra basis of
    T(e_a* e_b)_mu l2.left[mu], so the coupling goes through the same block
    quotient as `relative_tensor`, with the algebra acting on the left by
    multiplication.  Row b of conj(lmult(e_a)) holds the coordinates of
    e_a* e_b, because lmult(x*) = lmult(x)*.  A non-CP input shows up as a
    genuinely negative Gram eigenvalue and is rejected.
    """
    elements = sf.lmult_basis.conj() @ t_map.action.T
    try:
        return _block_quotient(elements, sf.lmult_basis, l2_bimodule(sf), sf)
    except NotCompletelyPositiveError as exc:
        raise NotCompletelyPositiveError(f"GNS coupling failed, map is not CP: {exc}") from exc


def tensor_vec(g: Bimodule, x: AlgebraElement, xi: np.ndarray) -> np.ndarray:
    """Coordinates of the elementary tensor of x and xi in a GNS coupling."""
    return g.embed @ np.kron(x.vec(), xi)


def relative_tensor(h: Bimodule, k: Bimodule, sf: StandardForm) -> Bimodule:
    """Relative tensor product over the algebra, h fused with k.

    Spanning family: pairs of coordinate basis vectors in kron order
    (h index major).  The inner product routes through the bounded-vector
    composition on h, recognized as a left multiplication and then applied
    through the left action of k; the quotient is `_block_quotient`.
    """
    hd = h.dim
    elements, residual, scale = inner(h, np.eye(hd), np.eye(hd), sf)
    # relative to the entries, which grow like the inverse of a small state weight
    if residual > 1e-8 * scale:
        raise NotCompletelyPositiveError("bounded-vector composition is not a left "
                                         f"multiplication ({residual:.3e}, scale {scale:.3e})")
    return _block_quotient(elements, h.left, k, sf)


def _block_quotient(elements: np.ndarray, left: np.ndarray, k: Bimodule,
                    sf: StandardForm) -> Bimodule:
    """Quotient of the family of pairs (a, coordinate of k) under one Gram form.

    The Gram matrix is the sum over the algebra basis of elements[a, b, mu]
    k.left[mu], in kron order (a major); `left` is the left action on the
    a-index, `k.right` the right action.  In the coordinates of
    `k.multiplicity` that sum is the direct sum over blocks M_n of E (x) I_m,
    where E[(a, r), (b, c)] is the (r, c) entry of the block part of
    elements[a, b].  Only the E are diagonalized, under one rank rule over
    all blocks with m > 0, which are the blocks the Gram matrix sees; the
    quotient coordinates are (block, kept direction, multiplicity index),
    and the actions are assembled block by block.
    """
    hd, kd = elements.shape[0], k.dim
    seen, off = [], 0  # (V, eigenvalues, eigenvectors of E) per block with m > 0
    for n, v in zip(sf.algebra.blocks, k.multiplicity):
        e = elements[:, :, off:off + n * n].reshape(hd, hd, n, n)
        off += n * n
        if v.shape[2]:
            e = e.transpose(0, 2, 1, 3).reshape(hd * n, hd * n)
            seen.append((v, *np.linalg.eigh((e + e.conj().T) / 2)))
    eig_all = np.concatenate([w for _, w, _ in seen] or [np.zeros(0)])
    keeps = np.split(_kept(eig_all, GRAM_RTOL), np.cumsum([w.size for _, w, _ in seen])[:-1])

    dim = sum(int(kp.sum()) * v.shape[2] for (v, _, _), kp in zip(seen, keeps))
    embed = np.zeros((dim, hd * kd), dtype=complex)
    lift = np.zeros((hd * kd, dim), dtype=complex)
    lefts = np.zeros((len(left), dim, dim), dtype=complex)
    rights = np.zeros((len(k.right), dim, dim), dtype=complex)
    eigs, o = [np.zeros(0)], 0
    for (v, w, u), kp in zip(seen, keeps):
        wmat, lmat, wk = _quotient_factors(w, u, kp)
        n, kk, m = v.shape[1], wk.size, v.shape[2]
        q = slice(o, o + kk * m)
        o += kk * m
        embed[q] = np.tensordot(wmat.reshape(kk, hd, n), v.conj(), axes=([2], [1])
                                ).transpose(0, 3, 1, 2).reshape(kk * m, hd * kd)
        lift[:, q] = np.tensordot(lmat.reshape(hd, n, kk), v, axes=([1], [1])
                                  ).transpose(0, 2, 1, 3).reshape(hd * kd, kk * m)
        # left(x) = W (x (x) I_n) L (x) I_m and right(y) = I (x) B* k.right(y) B
        act = wmat @ np.tensordot(left, lmat.reshape(hd, n * kk), axes=1
                                  ).reshape(-1, hd * n, kk)
        lefts[:, q, q] = np.einsum("xab,st->xasbt", act, np.eye(m)).reshape(-1, kk * m, kk * m)
        b = v[:, 0, :]
        act = b.conj().T @ k.right @ b
        rights[:, q, q] = np.einsum("ab,xst->xasbt", np.eye(kk), act).reshape(-1, kk * m, kk * m)
        eigs.append(np.repeat(wk, m))
    return Bimodule(sf.algebra, dim, lefts, rights, embed=embed, lift=lift,
                    gram_eigs=np.concatenate(eigs))


def left_materialization(h: Bimodule, sf: StandardForm) -> np.ndarray:
    """Matrix of the canonical map l2 (x) h -> h, x.cyclic (x) eta -> x eta.

    Acts on kron coordinates (standard-space index major): block j is the
    left action of the element solved from coordinate basis vector j.
    """
    m = np.tensordot(sf.solve_left_matrix.T, h.left, axes=1)
    return m.transpose(1, 0, 2).reshape(h.dim, -1)


def extend_from_family(z: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares linear map u with u @ z = v on a defining family.

    The columns of z span the source and the columns of v are their
    prescribed images.  Returns u and the spectral-norm residual on the
    family, which is zero exactly when the prescription extends linearly.
    """
    u, *_ = np.linalg.lstsq(z.conj().T, v.conj().T, rcond=None)
    u = u.conj().T
    return u, float(np.linalg.norm(u @ z - v, 2))


def product_formula_defect(
    t_map, x1: AlgebraElement, y1: AlgebraElement,
    x2: AlgebraElement, y2: AlgebraElement, sf: StandardForm,
    g: Bimodule | None = None,
) -> float:
    """Defect of the bounded-vector composition formula in a GNS coupling.

    Composing the bounded-vector maps of two elementary tensors must give
    left multiplication by y1* T(x1* x2) y2 on the standard space.
    """
    if g is None:
        g = gns_tensor(t_map, sf)
    v1 = tensor_vec(g, x1, sf.embed_left(y1))
    v2 = tensor_vec(g, x2, sf.embed_left(y2))
    composed = pi_phi(g, v1, sf).conj().T @ pi_phi(g, v2, sf)
    expected = y1.adjoint() * t_map(x1.adjoint() * x2) * y2
    return float(np.linalg.norm(composed - lmult_matrix(expected), 2))


def verify_map(
    f: BimoduleMap,
    bilinear: bool = False,
    isometric: bool = False,
    unitary: bool = False,
    tol: float = 1e-10,
) -> MapReport:
    """Defect report for the requested structural properties of a map."""
    m = f.matrix
    bilinear_defect = None
    if bilinear:
        defs = []
        for i in range(len(f.source.left)):
            defs.append(np.linalg.norm(m @ f.source.left[i] - f.target.left[i] @ m, 2))
            defs.append(np.linalg.norm(m @ f.source.right[i] - f.target.right[i] @ m, 2))
        bilinear_defect = float(max(defs))
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
