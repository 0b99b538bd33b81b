"""Reversible Markov heat kernels and the path-space picture of the cells.

A model is a finite state space with a positive probability weight and a
weight-symmetric Laplacian Δ.  Its heat semigroup e^{-tΔ} is
`cpdyn.evaluate` of the real generator -Δ, and the heat kernel is its
density against the weight; it is symmetric, has unit mass and composes by
the weighted convolution law.  For a partition, the kernel defines a
probability weight on paths, and the square-integrable path functions form
a two-sided module over the function algebra: the left action multiplies
through the first path variable, the right action through the last.

These path spaces realize, for the commutative algebra with the weight
state, exactly the partition cells of the heat semigroup; the matching
isometries send elementary tensors to products of slot functions evaluated
along the path.  With state indicators in the slots such a product is a
path indicator when the slots are glued (each right slot equals the next
left slot) and zero otherwise, so the cross-check compares Grams on the
glued columns only and bounds every other Gram entry by column norms.  The
tower of path spaces also carries the dilation in closed form, which is
what the end-of-tower identity checks exploit; the shifted operators are
applied to the columns of the corner isometry, never formed at the top.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import Algebra, StandardForm, diagonal_state, make_algebra, standard_form
from .bimodule import GRAM_RTOL, Bimodule, _kept
from .cpdyn import CpSemigroup, evaluate, semigroup_from_generator
from .dilation import grid_index
from .partition import Partition


class ModelError(ValueError):
    """Raised for inconsistent Markov model data."""


class MarkovModel:
    """Finite reversible chain: weights mu, a mu-symmetric Laplacian Δ and the real
    `semigroup` e^{-tΔ} on functions, which the heat cells share."""

    def __init__(self, mu: np.ndarray, laplacian: np.ndarray):
        self.mu, self.laplacian = mu, laplacian

    @property
    def states(self) -> int:
        return self.mu.size

    @cached_property
    def semigroup(self) -> CpSemigroup:
        return semigroup_from_generator(self.algebra(), -self.laplacian)

    def transition(self, t: float) -> np.ndarray:
        """e^{-tΔ} on functions: `evaluate`'s real read-only action, cached per float(t)."""
        return evaluate(self.semigroup, t).action

    def algebra(self) -> Algebra:
        return make_algebra([1] * self.states)

    def standard_form(self) -> StandardForm:
        alg = self.algebra()
        return standard_form(alg, diagonal_state(alg, list(self.mu)))


def make_model(mu: Sequence[float], laplacian: np.ndarray) -> MarkovModel:
    mu = np.asarray(mu, dtype=float)
    lap = np.asarray(laplacian, dtype=float)
    if not (np.isfinite(mu).all() and np.isfinite(lap).all()):
        raise ModelError("weights and Laplacian must be finite")
    if mu.ndim != 1 or (mu <= 0).any():
        raise ModelError("weights must be positive")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise ModelError(f"weights sum to {mu.sum()}, expected 1")
    m = mu.size
    if lap.shape != (m, m):
        raise ModelError(f"Laplacian shape {lap.shape} != ({m}, {m})")
    sym = np.abs(mu[:, None] * lap - (mu[:, None] * lap).T).max()
    if sym > 1e-12:
        raise ModelError(f"Laplacian is not weight-symmetric (defect {sym:.3e})")
    off = lap - np.diag(np.diag(lap))
    if off.max() > 1e-12:
        raise ModelError("off-diagonal Laplacian entries must be non-positive")
    if np.abs(lap @ np.ones(m)).max() > 1e-12:
        raise ModelError("Laplacian must annihilate constants")
    return MarkovModel(mu, lap)


def graph_model(name: str, m: int) -> MarkovModel:
    """Named graph Laplacian with uniform weights: cycle, path or complete."""
    a = np.zeros((m, m))
    if name == "cycle":
        for i in range(m):
            a[i, (i + 1) % m] = a[(i + 1) % m, i] = 1.0
    elif name == "path":
        for i in range(m - 1):
            a[i, i + 1] = a[i + 1, i] = 1.0
    elif name == "complete":
        a = np.ones((m, m)) - np.eye(m)
    else:
        raise ModelError(f"unknown graph '{name}'")
    lap = np.diag(a.sum(axis=1)) - a
    return make_model(np.ones(m) / m, lap)


class KernelReport(NamedTuple):
    symmetry_defect: float
    mass_defect: float
    composition_defect: float


def heat_kernel(mdl: MarkovModel, t) -> tuple[np.ndarray, KernelReport]:
    """Kernel density at time t > 0 together with its property defects.

    The defining relation is that the semigroup integrates the kernel
    against the weight; composition is checked by splitting t in half.
    """
    t = float(t)
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    p = mdl.transition(t) / mdl.mu[None, :]
    sym = float(np.abs(p - p.T).max())
    mass = float(np.abs(p @ mdl.mu - 1.0).max())
    half = mdl.transition(t / 2) / mdl.mu[None, :]
    comp = float(np.abs((half * mdl.mu[None, :]) @ half - p).max())
    return p, KernelReport(sym, mass, comp)


class PathMeasure(NamedTuple):
    """Probability weights on paths of length one more than the partition."""

    partition: Partition
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


def path_measure(mdl: MarkovModel, p: Partition) -> PathMeasure:
    w = mdl.mu.copy()
    for part in p.parts:
        w = w[..., :, None] * mdl.transition(part)
    return PathMeasure(p, w)


def box(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Glued product of path functions sharing one boundary variable.

    Two path functions are glued along the last variable of the first and
    the first variable of the second.  A plain state function multiplies a
    path function through its last (first) variable when given as second
    (first) argument.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.ndim >= 2 and g.ndim >= 2:
        m = f.shape[-1]
        if g.shape[0] != m:
            raise ValueError("shared variable dimensions differ")
        a = f.reshape(-1, m)
        b = g.reshape(m, -1)
        out = np.einsum("aj,jb->ajb", a, b)
        return out.reshape(f.shape + g.shape[1:])
    if f.ndim >= 2 and g.ndim == 1:
        return f * g
    if f.ndim == 1 and g.ndim >= 2:
        return g * f.reshape((f.size,) + (1,) * (g.ndim - 1))
    raise ValueError("at least one argument must be a path function")


def _kept_path_weights(mdl: MarkovModel, p: Partition) -> np.ndarray:
    """Path weights of p in path order, set to zero on the paths that the cells drop.

    A part's coupling has one Gram eigenvalue P[b, a] per step (a, b) of its
    transition matrix P, ranked by `gns_tensor`; relative tensors keep every
    direction, so the generic cell keeps the paths whose steps all pass.
    The kept paths are the coordinates of `l2_cell`.
    """
    keep = np.ones(mdl.states, dtype=bool)
    for part in p.parts:
        keep = keep[..., :, None] & _kept(mdl.transition(part).T, GRAM_RTOL)
    return np.where(keep, path_measure(mdl, p).weights, 0.0).reshape(-1)


def l2_cell(mdl: MarkovModel, p: Partition) -> Bimodule:
    """Path functions as a two-sided module in weighted coordinates.

    Coordinates are function values scaled by the square root of the path
    weight, one per kept path (`_kept_path_weights`).  The left action
    multiplies through the first variable, the right action through the
    last; each is a read-only stack of diagonal matrices.
    """
    keep = np.flatnonzero(_kept_path_weights(mdl, p))
    m = mdl.states
    stacks = [np.stack([np.diag((e == s).astype(complex)) for s in range(m)])
              for e in (keep // m ** len(p), keep % m)]  # first and last variable
    for stack in stacks:
        stack.flags.writeable = False
    return Bimodule(mdl.algebra(), keep.size, *stacks)


def _glued_columns(m: int, n: int) -> np.ndarray:
    """Kron indices of the glued slot columns, in path order.

    Slot column (f_1, g_1, ..., f_n, g_n) is glued when g_i = f_{i+1} for
    all i < n; the glued ones are in bijection with the paths
    (f_1, ..., f_n, g_n), and entry x of the result is the column of path x.
    """
    x = np.indices((m,) * (n + 1)).reshape(n + 1, -1)
    col = x[0]
    for i in range(1, n):
        col = (col * m + x[i]) * m + x[i]
    return col * m + x[n]


def cell_match_defect(mdl: MarkovModel, p: Partition, cs) -> tuple[float, int, int]:
    """Gram agreement between the semigroup cell and the path-space cell.

    The elementary tensors z_a with state indicators in the slots,
    a = (f_1, g_1, ..., f_n, g_n) in kron order, correspond to product
    functions in the path space: the indicator of the path
    (f_1, ..., f_n, g_n) when a is glued (g_i = f_{i+1}), and zero
    otherwise.  The m^{n+1} glued columns are compared, in path order,
    through their Gram against the diagonal of the path weights, which is
    zero on the paths that the path cell drops; every Gram entry
    that involves a non-glued column a must vanish and is bounded by
    max_{a not glued} |z_a| max_b |z_b|.  The larger of the two is
    returned, which is never below the largest entry of the m^{2n}-square
    Gram difference, together with the two dimensions.  The family is
    fused in m column blocks, one per state f_1, so only the glued columns
    and one block are held at a time.
    """
    n, m = len(p), mdl.states
    w = _kept_path_weights(mdl, p)
    eye, vs = np.eye(m), [cs.sf.embed_left_matrix] * n
    glued = _glued_columns(m, n).reshape(m, -1)  # row f: the glued columns with f_1 = f
    width = m ** (2 * n - 1)
    zg, loose, top = [], 0.0, 0.0
    for f in range(m):
        z = cs.family(p.parts, [eye[:, [f]]] + [eye] * (n - 1), vs)
        inside = glued[f] - f * width
        zg.append(z[:, inside])
        norms = np.linalg.norm(z, axis=0)
        top = max(top, norms.max())
        norms[inside] = 0.0
        loose = max(loose, norms.max())
    zg = np.hstack(zg)
    gram_defect = np.abs(zg.conj().T @ zg - np.diag(w)).max()
    return float(max(gram_defect, loose * top)), cs.cell(p).dim, np.count_nonzero(w)


def embed_base_adjoint(mdl: MarkovModel, p: Partition, f: np.ndarray) -> np.ndarray:
    """Project a path function to the base by kernel-weighted marginalization.

    Integrates out all path variables except the last one, against the
    sub-path weight of the partition without its final part and one extra
    kernel factor; this is the adjoint of extending a base function along
    the leading path variables.
    """
    n = len(p)
    if n < 1:
        raise ValueError("at least one part required")
    m = mdl.states
    f = np.asarray(f, dtype=complex).reshape((m,) * (n + 1))
    kernel = (mdl.transition(p.parts[-1]) / mdl.mu[None, :]).astype(complex)
    sub = path_measure(mdl, Partition(p.parts[:-1])).weights
    f3 = f.reshape(m ** (n - 1), m, m)
    w2 = sub.reshape(m ** (n - 1), m).astype(complex)
    s = np.einsum("hny,hn->ny", f3, w2)
    return np.einsum("ny,ny->y", s, kernel)


# ---------------------------------------------------------------------------
# Path-space dilation
# ---------------------------------------------------------------------------

class HeatDilation:
    """Closed-form dilation tower on path spaces over a uniform grid."""

    def __init__(self, mdl: MarkovModel, delta, levels: int):
        self.mdl = mdl
        self.delta = Fraction(delta)
        self.levels = int(levels)
        self.m = mdl.states
        self.weights = []
        for k in range(self.levels + 1):
            p = Partition((self.delta,) * k)
            self.weights.append(path_measure(mdl, p).weights.reshape(-1))
        if any((w <= 0).any() for w in self.weights):
            raise ModelError("path weights must be strictly positive for the dilation tower")

    def embed_matrix(self, k: int, j: int) -> np.ndarray:
        """Connecting isometry from level j to level k in weighted coordinates."""
        if not 0 <= j <= k <= self.levels:
            raise ValueError(f"invalid level pair ({k}, {j})")
        m = self.m
        ext = np.kron(np.ones((m ** (k - j), 1)), np.eye(m ** (j + 1)))
        return (np.sqrt(self.weights[k])[:, None] * ext) / np.sqrt(self.weights[j])[None, :]

    def theta(self, op: np.ndarray, op_level: int, t, cols: np.ndarray) -> np.ndarray:
        """Apply a level-supported operator, shifted to a grid time, to columns.

        In function coordinates the shifted operator is A (x) I_{m^j}: it acts
        on the leading path variables and leaves the trailing ones untouched;
        the shared boundary variable is respected because level operators
        are right-linear, hence block diagonal over the last variable.  The
        columns, at level op_level + j, are reshaped so that A acts on their
        leading variables; the target-level matrix is never formed.
        """
        j = grid_index(t, self.delta, self.levels)
        target = op_level + j
        if target > self.levels:
            raise ValueError(f"horizon exceeded, max level {self.levels}")
        pre = np.sqrt(self.weights[op_level])
        a_func = (op / pre[:, None]) * pre[None, :]
        w = np.sqrt(self.weights[target])[:, None]
        x = (cols / w).reshape(pre.size, self.m ** j, -1)
        return w * np.tensordot(a_func, x, axes=1).reshape(w.size, -1)

    def represent(self, f: np.ndarray, level: int) -> np.ndarray:
        """Corner representation of a state function at a tower level."""
        b = self.embed_matrix(level, 0)
        return b @ np.diag(np.asarray(f, dtype=complex)) @ b.conj().T


def heat_dilation_defect(mdl: MarkovModel, delta, levels: int, t,
                         f: np.ndarray) -> tuple[float, float]:
    """Defects of the compression identity at the end of the tower.

    Compressing the shifted corner representation of f back to the base
    must multiply by the evolved function.  The first defect compares the
    operators directly, with the shifted operator applied to the m columns
    of the corner isometry only; the second recomputes the compression
    through the kernel-marginalization formula on the single-part path
    space.
    """
    f = np.asarray(f, dtype=complex)
    hd = HeatDilation(mdl, delta, levels)
    j = grid_index(t, hd.delta, hd.levels)
    level = hd.levels - j
    k0 = hd.embed_matrix(hd.levels, 0)
    compressed = k0.conj().T @ hd.theta(hd.represent(f, level), level, t, k0)
    evolved = mdl.transition(float(t)) @ f
    direct = float(np.linalg.norm(compressed - np.diag(evolved), 2))

    worst = 0.0
    for col in range(mdl.states):
        g = np.eye(mdl.states)[:, col].astype(complex)
        glued = np.outer(f, g)
        marg = embed_base_adjoint(mdl, Partition((Fraction(t),)), glued)
        worst = max(worst, float(np.abs(marg - evolved * g).max()))
    return direct, worst
