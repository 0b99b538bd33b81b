"""Reversible Markov heat kernels and the path-space picture of the cells.

A model is a finite state space with a positive probability weight and a
weight-symmetric Laplacian.  The heat kernel is the density of the
semigroup against the weight; it is symmetric, has unit mass and composes
by the weighted convolution law.  For a partition, the kernel defines a
probability weight on paths, and the square-integrable path functions form
a two-sided module over the function algebra: the left action multiplies
through the first path variable, the right action through the last.

These path spaces realize, for the commutative algebra with the weight
state, exactly the partition cells of the heat semigroup; the matching
isometries send elementary tensors to products of slot functions evaluated
along the path.  The tower of path spaces also carries the dilation in
closed form, which is what the end-of-tower identity checks exploit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.linalg

from .algebra import Algebra, StandardForm, diagonal_state, make_algebra, standard_form
from .bimodule import GRAM_RTOL, Bimodule, _kept
from .partition import Partition, grouping


class ModelError(ValueError):
    """Raised for inconsistent Markov model data."""


@dataclass(frozen=True)
class MarkovModel:
    """Finite reversible chain: weights mu and a mu-symmetric Laplacian."""

    mu: np.ndarray
    laplacian: np.ndarray

    @property
    def states(self) -> int:
        return self.mu.size

    def transition(self, t: float) -> np.ndarray:
        """Matrix of the semigroup on functions at time t."""
        return scipy.linalg.expm(-float(t) * self.laplacian)

    def algebra(self) -> Algebra:
        return make_algebra([1] * self.states)

    def standard_form(self) -> StandardForm:
        alg = self.algebra()
        return standard_form(alg, diagonal_state(alg, list(self.mu)))


def make_model(mu: Sequence[float], laplacian: np.ndarray) -> MarkovModel:
    mu = np.asarray(mu, dtype=float)
    lap = np.asarray(laplacian, dtype=float)
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


@dataclass(frozen=True)
class KernelReport:
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


@dataclass(frozen=True)
class PathMeasure:
    """Probability weights on paths of length one more than the partition."""

    partition: Partition
    weights: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


def path_measure(mdl: MarkovModel, p: Partition) -> PathMeasure:
    w = mdl.mu.copy()
    for part in p.parts:
        kernel, _ = heat_kernel(mdl, part)
        step = kernel * mdl.mu[None, :]
        w = w[..., :, None] * step
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


def l2_cell(mdl: MarkovModel, p: Partition) -> Bimodule:
    """Path functions as a two-sided module in weighted coordinates.

    Coordinates are function values scaled by the square root of the path
    weight; paths of negligible weight are quotiented away.  The left
    action multiplies through the first variable, the right action through
    the last.
    """
    pm = path_measure(mdl, p)
    w = pm.weights.reshape(-1)
    keep = np.flatnonzero(_kept(w, GRAM_RTOL))
    sq = np.sqrt(w[keep])
    npaths = w.size
    dim = keep.size
    embed = np.zeros((dim, npaths), dtype=complex)
    embed[np.arange(dim), keep] = sq
    lift = np.zeros((npaths, dim), dtype=complex)
    lift[keep, np.arange(dim)] = 1.0 / sq
    m = mdl.states
    n = len(p)
    first = keep // m ** n
    last = keep % m
    left = np.stack([np.diag((first == s).astype(complex)) for s in range(m)])
    right = np.stack([np.diag((last == s).astype(complex)) for s in range(m)])
    return Bimodule(mdl.algebra(), dim, left, right, embed=embed, lift=lift)


def slot_product(m: int, fs: Sequence[np.ndarray], gs: Sequence[np.ndarray]) -> np.ndarray:
    """Path function f1(x1) g1(x2) f2(x2) ... fn(xn) gn(x_{n+1})."""
    n = len(fs)
    factors = [np.asarray(fs[0], dtype=complex)]
    for i in range(1, n):
        factors.append(np.asarray(gs[i - 1], dtype=complex) * np.asarray(fs[i], dtype=complex))
    factors.append(np.asarray(gs[n - 1], dtype=complex))
    out = factors[0]
    for v in factors[1:]:
        out = out[..., None] * v
    return out


def indicator_products(m: int, n: int) -> np.ndarray:
    """`slot_product` of every choice of state indicator slots, as columns.

    Column (f_1, g_1, ..., f_n, g_n), in kron order, is the indicator of
    the path (f_1, ..., f_n, g_n) if g_i = f_{i+1} for all i < n, else zero:
    I (x) C (x) ... (x) C (x) I with C[x, (g, f)] = delta(x, g) delta(x, f).
    """
    eye = np.eye(m)
    glue = np.einsum("xg,xf->xgf", eye, eye).reshape(m, m * m)
    return functools.reduce(np.kron, [eye] + [glue] * (n - 1) + [eye])


def cell_match_defect(mdl: MarkovModel, p: Partition, cs) -> tuple[float, int, int]:
    """Gram agreement between the semigroup cell and the path-space cell.

    Elementary tensors with slot functions over the state indicator basis
    are compared against their product functions in the path space.
    Returns the largest Gram deviation and the two dimensions.
    """
    n = len(p)
    path = l2_cell(mdl, p)
    z = cs.family(p.parts, [np.eye(cs.sf.dim)] * n, [cs.sf.embed_left_matrix] * n)
    y = path.embed @ indicator_products(mdl.states, n)
    gram_defect = float(np.abs(z.conj().T @ z - y.conj().T @ y).max())
    return gram_defect, cs.cell(p).dim, path.dim


def refinement_duplication_matrix(mdl: MarkovModel, fine: Partition,
                                  coarse: Partition) -> np.ndarray:
    """Path-space refinement: read the first variable of each refined group.

    Maps weighted coordinates of the coarse path space into the fine one,
    duplicating each coarse variable across its group.
    """
    groups = grouping(fine, coarse)
    m = mdl.states
    nf = len(fine)
    coarse_cell = l2_cell(mdl, coarse)
    fine_cell = l2_cell(mdl, fine)
    positions = []
    pos = 0
    for g in groups:
        positions.append(pos)
        pos += len(g)
    positions.append(pos)
    fine_idx = np.arange(m ** (nf + 1))
    digits = np.zeros((nf + 1, m ** (nf + 1)), dtype=int)
    rem = fine_idx.copy()
    for axis in range(nf, -1, -1):
        digits[axis] = rem % m
        rem //= m
    coarse_of_fine = np.zeros(m ** (nf + 1), dtype=int)
    for pos in positions:
        coarse_of_fine = coarse_of_fine * m + digits[pos]
    cols = np.zeros((m ** (nf + 1), m ** (len(coarse) + 1)))
    cols[fine_idx, coarse_of_fine] = 1.0
    return fine_cell.embed @ cols @ coarse_cell.lift


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
    kernel, _ = heat_kernel(mdl, p.parts[-1])
    kernel = kernel.astype(complex)
    if n == 1:
        return np.einsum("ay,ay,a->y", f, kernel, mdl.mu.astype(complex))
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

    def grid_index(self, t) -> int:
        k = Fraction(t) / self.delta
        if k.denominator != 1 or k < 0:
            raise ValueError(f"time {t} not on the grid of step {self.delta}")
        return int(k)

    def embed_matrix(self, k: int, j: int) -> np.ndarray:
        """Connecting isometry from level j to level k in weighted coordinates."""
        if not 0 <= j <= k <= self.levels:
            raise ValueError(f"invalid level pair ({k}, {j})")
        m = self.m
        ext = np.kron(np.ones((m ** (k - j), 1)), np.eye(m ** (j + 1)))
        return (np.sqrt(self.weights[k])[:, None] * ext) / np.sqrt(self.weights[j])[None, :]

    def theta(self, op: np.ndarray, op_level: int, t) -> np.ndarray:
        """Shift a level-supported operator by the endomorphism at a grid time.

        In function coordinates the shifted operator acts on the leading
        path variables and leaves the trailing ones untouched; the shared
        boundary variable is respected because level operators are
        right-linear, hence block diagonal over the last variable.
        """
        j = self.grid_index(t)
        target = op_level + j
        if target > self.levels:
            raise ValueError(f"horizon exceeded, max level {self.levels}")
        m = self.m
        pre = np.sqrt(self.weights[op_level])
        a_func = (op / pre[:, None]) * pre[None, :]
        a_func = np.kron(a_func, np.eye(m ** j))
        w = np.sqrt(self.weights[target])
        return (w[:, None] * a_func) / w[None, :]

    def multiplication(self, f: np.ndarray, level: int) -> np.ndarray:
        """Multiplication by a state function through the last path variable."""
        vals = np.kron(np.ones(self.m ** level), np.asarray(f, dtype=complex))
        return np.diag(vals)

    def represent(self, f: np.ndarray, level: int) -> np.ndarray:
        """Corner representation of a state function at a tower level."""
        b = self.embed_matrix(level, 0)
        return b @ np.diag(np.asarray(f, dtype=complex)) @ b.conj().T


def heat_dilation_defect(mdl: MarkovModel, delta, levels: int, t,
                         f: np.ndarray) -> tuple[float, float]:
    """Defects of the compression identity at the end of the tower.

    Compressing the shifted corner representation of f back to the base
    must multiply by the evolved function.  The first defect compares the
    operators directly; the second recomputes the compression through the
    kernel-marginalization formula on the single-part path space.
    """
    f = np.asarray(f, dtype=complex)
    hd = HeatDilation(mdl, delta, levels)
    j = hd.grid_index(t)
    theta_op = hd.theta(hd.represent(f, hd.levels - j), hd.levels - j, t)
    k0 = hd.embed_matrix(hd.levels, 0)
    compressed = k0.conj().T @ theta_op @ k0
    evolved = mdl.transition(float(t)) @ f
    direct = float(np.linalg.norm(compressed - np.diag(evolved), 2))

    worst = 0.0
    for col in range(mdl.states):
        g = np.eye(mdl.states)[:, col].astype(complex)
        glued = np.outer(f, g)
        marg = embed_base_adjoint(mdl, Partition((Fraction(t),)), glued)
        worst = max(worst, float(np.abs(marg - evolved * g).max()))
    return direct, worst
