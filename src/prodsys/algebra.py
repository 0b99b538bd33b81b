"""Finite-dimensional von Neumann algebras and their standard representation.

An algebra is a finite direct sum of full complex matrix blocks; elements are
stored blockwise.  A faithful state is a blockwise positive definite density
with unit trace.  The standard representation lives on the block
Hilbert-Schmidt space: the algebra acts by left and right multiplication and
the cyclic vector is the square root of the density.  Coordinates on the
Hilbert-Schmidt space are the row-major matrix entries, so the Euclidean
inner product of coordinate vectors equals the trace inner product.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Raised for structurally invalid algebra or state data."""


class FaithfulnessError(ValueError):
    """Raised when a state density is numerically singular."""


# Relative eigenvalue floor below which a state is rejected as non-faithful.
FAITHFUL_RTOL = 1e-10


class Algebra:
    """Direct sum of full matrix blocks, identified (equal and hashed) by the block sizes;
    `dim`, the coordinate dimension, is the sum of their squares."""

    def __init__(self, blocks: tuple[int, ...]):
        if not blocks:
            raise ConfigurationError("algebra needs at least one block")
        if any(n < 1 for n in blocks):
            raise ConfigurationError(f"block sizes must be >= 1, got {blocks}")
        self.blocks, self.dim = blocks, sum(n * n for n in blocks)

    def __eq__(self, other) -> bool:
        return self.blocks == other.blocks if isinstance(other, Algebra) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Coordinate index of e_11 in each block: coordinates run block by block,
        and e_rc of block M_n sits r n + c past its block's offset."""
        return tuple(accumulate((n * n for n in self.blocks[:-1]), initial=0))

    @cached_property
    def star(self) -> np.ndarray:
        """Coordinate index of e_mu* for each matrix unit e_mu: x* is conj(x[star])."""
        out = np.array([o + c * n + r for o, n in zip(self.offsets, self.blocks)
                        for r in range(n) for c in range(n)])
        out.flags.writeable = False
        return out

    def element(self, mats: Sequence[np.ndarray]) -> "AlgebraElement":
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        if len(mats) != len(self.blocks):
            raise ConfigurationError("wrong number of blocks")
        for m, n in zip(mats, self.blocks):
            if m.shape != (n, n):
                raise ConfigurationError(f"block shape {m.shape} != ({n}, {n})")
        return AlgebraElement(self, mats)

    def identity(self) -> "AlgebraElement":
        return self.element([np.eye(n) for n in self.blocks])

    def diagonal(self, values: Sequence[complex]) -> "AlgebraElement":
        """Element with the given scalar on each block diagonal."""
        if len(values) != len(self.blocks):
            raise ConfigurationError("one scalar per block expected")
        return self.element([v * np.eye(n) for v, n in zip(values, self.blocks)])

    def basis(self) -> Iterator["AlgebraElement"]:
        """Matrix-unit basis in coordinate order."""
        for b, n in enumerate(self.blocks):
            for r in range(n):
                for c in range(n):
                    mats = [np.zeros((m, m), dtype=complex) for m in self.blocks]
                    mats[b][r, c] = 1.0
                    yield AlgebraElement(self, tuple(mats))

    def from_vec(self, v: np.ndarray) -> "AlgebraElement":
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise ConfigurationError(f"coordinate length {v.size} != {self.dim}")
        return AlgebraElement(self, tuple(v[o:o + n * n].reshape(n, n)
                                          for o, n in zip(self.offsets, self.blocks)))


class AlgebraElement:
    """Blockwise matrix element of an `Algebra`."""

    def __init__(self, algebra: Algebra, mats: tuple[np.ndarray, ...]):
        self.algebra, self.mats = algebra, mats

    def vec(self) -> np.ndarray:
        return np.concatenate([m.reshape(-1) for m in self.mats])

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(m.conj().T for m in self.mats))

    def norm(self) -> float:
        """Operator norm, the largest block spectral norm."""
        return max(np.linalg.norm(m, 2) for m in self.mats)

    def trace(self) -> complex:
        return sum(np.trace(m) for m in self.mats)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.mats, other.mats)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.mats, other.mats)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement(self.algebra, tuple(a @ b for a, b in zip(self.mats, other.mats)))
        return AlgebraElement(self.algebra, tuple(other * m for m in self.mats))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(scalar * m for m in self.mats))


class State:
    """Faithful normal state, stored as its blockwise density."""

    def __init__(self, algebra: Algebra, density: tuple[np.ndarray, ...]):
        eigs = np.concatenate([np.linalg.eigvalsh((d + d.conj().T) / 2) for d in density])
        if eigs.min() <= FAITHFUL_RTOL * eigs.max():
            raise FaithfulnessError(
                f"state is not faithful: min/max eigenvalue {eigs.min():.3e}/{eigs.max():.3e}"
            )
        total = sum(np.trace(d).real for d in density)
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"density trace {total} != 1")
        self.algebra, self.density = algebra, density

    def __call__(self, x: AlgebraElement) -> complex:
        return sum(np.trace(d @ m) for d, m in zip(self.density, x.mats))


def make_algebra(blocks: Sequence[int]) -> Algebra:
    """Build the direct sum of full matrix blocks of the given sizes."""
    return Algebra(tuple(int(n) for n in blocks))


def make_state(algebra: Algebra, density: Sequence[np.ndarray]) -> State:
    mats = tuple(np.asarray(d, dtype=complex) for d in density)
    if [d.shape for d in mats] != [(n, n) for n in algebra.blocks]:
        raise ConfigurationError(f"density shapes {[d.shape for d in mats]} do not match "
                                 f"blocks {list(algebra.blocks)}")
    herm = max(np.linalg.norm(d - d.conj().T) for d in mats)
    if herm > 1e-12:
        raise ConfigurationError(f"density not Hermitian, defect {herm:.3e}")
    return State(algebra, mats)


def uniform_state(algebra: Algebra) -> State:
    """Normalized trace as a state."""
    total = sum(algebra.blocks)
    return make_state(algebra, [np.eye(n) / total for n in algebra.blocks])


def diagonal_state(algebra: Algebra, weights: Sequence[float]) -> State:
    """State with scalar density on each block; weights are the block traces."""
    if len(weights) != len(algebra.blocks):
        raise ConfigurationError("one weight per block expected")
    return make_state(
        algebra, [w / n * np.eye(n) for w, n in zip(weights, algebra.blocks)]
    )


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of blocks, rectangular ones included, over the last two axes;
    leading axes, which every block shares, index a stack of such matrices."""
    rows, cols = (sum(m.shape[ax] for m in mats) for ax in (-2, -1))
    out = np.zeros((*mats[0].shape[:-2], rows, cols), dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        r += m.shape[-2]
        c += m.shape[-1]
    return out


# Padé coefficients b_0..b_13 of the degree-13 approximant and the 1-norm bound theta_13
# up to which its backward error is at most the unit roundoff (Higham 2005, Table 2.3).
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152e0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Padé approximant.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005), at every norm: s halvings
    bring the 1-norm of A to at most theta_13; A^2, A^4 and A^6 are formed from
    the scaled A, so none overflows, and s squarings undo the halvings.  The
    matrix is never diagonalized, so defective generators lose no accuracy.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    norm = float(np.abs(a).sum(axis=0).max())  # NaN or inf for any non-finite entry
    if not np.isfinite(norm):
        raise ValueError("matrix exponential of a non-finite matrix")
    s = int(np.ceil(np.log2(max(norm, _THETA_13) / _THETA_13)))
    b = _PADE_13
    a = a / 2.0 ** s
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def lmult_matrix(x: AlgebraElement) -> np.ndarray:
    """Coordinate matrix of left multiplication by x on the Hilbert-Schmidt space."""
    return block_diag(*[np.kron(m, np.eye(n)) for m, n in zip(x.mats, x.algebra.blocks)])


def rmult_matrix(x: AlgebraElement) -> np.ndarray:
    """Coordinate matrix of right multiplication by x."""
    return block_diag(*[np.kron(np.eye(n), m.T) for m, n in zip(x.mats, x.algebra.blocks)])


def projection_range(p: np.ndarray) -> np.ndarray:
    """Range rule: orthonormal columns spanning the range of a numerical projection,
    the eigenvectors of its Hermitian part with eigenvalue above 1/2 (margin ~1/2)."""
    w, v = np.linalg.eigh((p + p.conj().T) / 2)
    return v[:, w > 0.5]


class StandardForm:
    """The algebra represented on block Hilbert-Schmidt space.

    `cyclic` is the coordinate vector of the square root of the density,
    read-only.  Left and right multiplication both act on the same
    coordinate space (`dim`, the algebra's) and commute exactly.  For a
    faithful state both maps ``x -> x . cyclic`` and ``x -> cyclic . x``
    are linear bijections onto the whole space.
    """

    def __init__(self, algebra: Algebra, state: State, root: tuple[np.ndarray, ...],
                 root_inv: tuple[np.ndarray, ...]):
        self.algebra, self.state, self.root, self.root_inv = algebra, state, root, root_inv
        self.dim, self.cyclic = algebra.dim, np.concatenate([r.reshape(-1) for r in root])
        self.cyclic.flags.writeable = False

    @cached_property
    def embed_left_matrix(self) -> np.ndarray:
        """Coordinate matrix of `embed_left`: right multiplication by the root."""
        return rmult_matrix(self.algebra.element(self.root))

    @cached_property
    def embed_right_matrix(self) -> np.ndarray:
        """Coordinate matrix of `embed_right`: left multiplication by the root."""
        return lmult_matrix(self.algebra.element(self.root))

    def embed_left(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates of x acting on the cyclic vector from the left."""
        return self.embed_left_matrix @ x.vec()

    def embed_right(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates of the cyclic vector multiplied by x on the right."""
        return self.embed_right_matrix @ x.vec()

    @cached_property
    def lmult_basis(self) -> np.ndarray:
        """Left multiplications by the matrix-unit basis, stacked in coordinate order."""
        stack = np.stack([lmult_matrix(x) for x in self.algebra.basis()])
        stack.flags.writeable = False  # l2_bimodule shares it as its left action
        return stack

    @cached_property
    def rmult_basis(self) -> np.ndarray:
        """Right multiplications by the matrix-unit basis, stacked in coordinate order."""
        stack = np.stack([rmult_matrix(x) for x in self.algebra.basis()])
        stack.flags.writeable = False  # l2_bimodule and the twisted cells share it
        return stack

    @cached_property
    def frame_weights(self) -> np.ndarray:
        """tau_i = Tr(rho_i^-1) per block: the Gram eigenvalue of block i in `relative_tensor`,
        and the coefficient of the central element z of `dilation`, whose right action on
        every cell is sum_e L_e L_e* over an orthonormal basis (L_e: bounded-vector map)."""
        out = np.array([np.trace(np.linalg.inv(d)).real for d in self.state.density])
        out.flags.writeable = False
        return out

    @cached_property
    def solve_left_matrix(self) -> np.ndarray:
        """Coordinate matrix of `solve_left`: right multiplication by the inverse root."""
        return rmult_matrix(self.algebra.element(self.root_inv))

    @cached_property
    def solve_right_matrix(self) -> np.ndarray:
        """Coordinate matrix of `solve_right`: left multiplication by the inverse root."""
        return lmult_matrix(self.algebra.element(self.root_inv))

    def solve_right(self, eta: np.ndarray) -> AlgebraElement:
        """The unique x with embed_right(x) == eta."""
        return self.algebra.from_vec(self.solve_right_matrix @ eta)

    def solve_left(self, eta: np.ndarray) -> AlgebraElement:
        """The unique x with embed_left(x) == eta."""
        return self.algebra.from_vec(self.solve_left_matrix @ eta)


def standard_form(algebra: Algebra, state: State) -> StandardForm:
    """Standard representation of the algebra for a faithful state.

    The state constructor already rejects non-faithful densities; here the
    blockwise square root and its inverse are precomputed so that solving
    ``cyclic . x = eta`` is a single triangular-free matrix product.
    """
    root, root_inv = [], []
    for d in state.density:
        w, v = np.linalg.eigh((d + d.conj().T) / 2)
        root.append(v @ np.diag(np.sqrt(w)) @ v.conj().T)
        root_inv.append(v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T)
    return StandardForm(algebra, state, tuple(root), tuple(root_inv))
