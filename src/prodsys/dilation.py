"""Truncated inductive limit of a unit and the induced endomorphism family.

The limit over ever finer partitions is replaced by a finite tower: level k
is the cell at the uniform partition of k delta into k parts, level 0 is
the standard space, and the connecting isometries multiply the unit vector
of the time gap into the prefix slot.  The top level stands in for the
limit space; every identity is checked where the shifted supports stay
inside the tower, so truncation only restricts domains and never perturbs
values.

Operators are carried with a support level: an operator at level k acts on
the level-k space and is extended to the top through the connecting
isometries.  The endomorphism at time j delta acts by amplification,
theta(a) = u (a (x) 1) u* on E_k (x) E_j = E_{k+j}, and is computed as

    theta(a) = C ((a R_k(z^-1)) (x) 1) C*

with C the cached collapse of the level-(k + j) cell at its k-th part,
R_k the right action on level k and z = sum_i Tr(rho_i^-1) p_i the central
element given by the state density rho and the central projections p_i.
Why: with L_e the bounded-vector map of e, Psi_k = sum_a L_{e_a} L_{e_a}*
over an orthonormal basis of E_k equals R_k(z), which is right-linear and
invertible, so the vectors Psi_k^{-1/2} e_a form a module frame and every
right-linear a is sum_a L_{a f_a} L_{f_a}*.  The amplification sends
L_v L_u* to A_v A_u* with A_v = C (v (x) 1), and summing over the frame
gives the formula.  No relative tensor product is formed;
`TruncatedLimit.split` keeps that definition as the reference.

The two checks on the whole tower work on factors of the size of the
spaces.  Minimality forms no theta: the orbit of the corner is the unit's
elementary tensors at n parts of delta, folded thin (`minimality_evidence`
proves the span identity).  A cocycle is kept as its bounded-vector maps
b_t (D_k x d), with w_t = b_t k0_t*, so the cocycle law compares two sums
of rank-d products U V* through a QR of the 2d right factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, StandardForm, lmult_matrix
from .bimodule import Bimodule, numerical_rank, pi_phi, relative_tensor
from .cells import CellSystem, Unit, _unit_fold
from .cpdyn import evaluate
from .partition import Partition, uniform


class TruncationError(RuntimeError):
    """Requested time is off the grid or beyond the truncation horizon."""

    def __init__(self, message: str, max_time: Fraction | None = None):
        super().__init__(message)
        self.max_time = max_time


class TruncatedLimit:
    """Finite tower of uniform-partition cells with connecting isometries."""

    def __init__(self, cs: CellSystem, unit: Unit, delta, levels: int):
        self.system = cs
        self.sf = cs.sf
        self.delta = Fraction(delta)
        self.levels = int(levels)
        if self.levels < 1:
            raise TruncationError("at least one level is required")
        times = [k * self.delta for k in range(self.levels + 1)]
        for t in times[1:]:
            if t not in unit.vectors:
                raise TruncationError(f"unit has no vector at grid time {t}")
        self.spaces: list[Bimodule] = [cs.cell(self.partition_at(k))
                                       for k in range(self.levels + 1)]
        vectors = unit_level_vectors(self, unit)
        self.unit_level: list[np.ndarray] = [vectors[t] for t in times]
        self._embed: dict[tuple[int, int], np.ndarray] = {}
        zinv = self.sf.algebra.diagonal([1.0 / w for w in frame_weights(self.sf)])
        # right action of z^-1 on each level, the frame normalization of `dilate`
        self.frame_inverse: list[np.ndarray] = [s.right_matrix(zinv) for s in self.spaces]

    # -- bookkeeping ----------------------------------------------------

    def grid_index(self, t) -> int:
        t = Fraction(t)
        k = t / self.delta
        if k.denominator != 1 or k < 0:
            raise TruncationError(f"time {t} is not on the grid of step {self.delta}")
        if k > self.levels:
            raise TruncationError(
                f"time {t} beyond horizon, max admissible {self.levels * self.delta}",
                max_time=self.levels * self.delta,
            )
        return int(k)

    def partition_at(self, k: int) -> Partition:
        return uniform(k * self.delta, k) if k else Partition(())

    def embed_matrix(self, k: int, j: int) -> np.ndarray:
        """Connecting isometry from level j into level k, j <= k."""
        if not 0 <= j <= k <= self.levels:
            raise TruncationError(f"invalid level pair ({k}, {j})")
        if j == k:
            return np.eye(self.spaces[k].dim, dtype=complex)
        key = (k, j)
        if key not in self._embed:
            jmat = self.system.collapse(self.partition_at(k), k - j)
            xi = self.unit_level[k - j]
            self._embed[key] = jmat @ np.kron(xi[:, None], np.eye(self.spaces[j].dim))
        return self._embed[key]

    def embedding_isometry_defect(self) -> float:
        """Largest isometry defect among the connecting maps.

        Zero for unital units; a non-unital unit makes the connecting maps
        strict contractions and the defect reports how far they are from
        preserving norms.
        """
        worst = 0.0
        for k in range(self.levels + 1):
            for j in range(k):
                b = self.embed_matrix(k, j)
                worst = max(worst, float(np.linalg.norm(
                    b.conj().T @ b - np.eye(self.spaces[j].dim), 2)))
        return worst

    def split(self, level: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Fold u r.embed and unfold r.lift u* of a level split as (level - j, j).

        r is the relative tensor of the two levels and u its collapse unitary.
        This is the definition of the dilation, fold (op (x) 1) unfold, kept
        as the reference for `dilate`, which forms no relative tensor.
        """
        r = relative_tensor(self.spaces[level - j], self.spaces[j], self.sf)
        u = self.system.collapse(self.partition_at(level), level - j) @ r.lift
        return u @ r.embed, r.lift @ u.conj().T


@dataclass(frozen=True)
class TruncatedOperator:
    """Right-linear operator on the tower, supported at a level."""

    tl: TruncatedLimit
    level: int
    matrix: np.ndarray

    def at_level(self, m: int) -> np.ndarray:
        if m < self.level:
            raise TruncationError(f"operator lives at level {self.level}, asked for {m}")
        if m == self.level:
            return self.matrix
        b = self.tl.embed_matrix(m, self.level)
        return b @ self.matrix @ b.conj().T

    def on_top(self) -> np.ndarray:
        return self.at_level(self.tl.levels)

    def compose(self, other: "TruncatedOperator") -> "TruncatedOperator":
        lvl = max(self.level, other.level)
        return TruncatedOperator(self.tl, lvl, self.at_level(lvl) @ other.at_level(lvl))


def represent(tl: TruncatedLimit, x: AlgebraElement) -> TruncatedOperator:
    """The algebra represented on the tower: compress to level 0, act, re-embed."""
    return TruncatedOperator(tl, 0, lmult_matrix(x))


def corner_projection(tl: TruncatedLimit) -> np.ndarray:
    """Top-level projection onto the embedded standard space."""
    k0 = tl.embed_matrix(tl.levels, 0)
    return k0 @ k0.conj().T


def frame_weights(sf: StandardForm) -> list[float]:
    """Coefficients Tr(rho_i^-1) of the central element z, one per block.

    On every level, the sum of L_e L_e* over an orthonormal basis, with L_e
    the bounded-vector map of e, is the right action of z.
    """
    return [float(np.trace(np.linalg.inv(d)).real) for d in sf.state.density]


def _amplification(tl: TruncatedLimit, t, op: TruncatedOperator):
    """(target level, C, Y) with theta_t(op) = C (Y (x) 1) C* at the target.

    C is the collapse of the target cell at the argument's level and
    Y = op R(z^-1); the target must stay inside the tower.
    """
    target = op.level + tl.grid_index(t)
    if target > tl.levels:
        max_t = (tl.levels - op.level) * tl.delta
        raise TruncationError(
            f"dilating a level-{op.level} operator by {t} exceeds the horizon, "
            f"max admissible {max_t}",
            max_time=max_t,
        )
    c = tl.system.collapse(tl.partition_at(target), op.level)
    return target, c, op.matrix @ tl.frame_inverse[op.level]


def _amplify(c: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """C (y (x) 1) w, with (y (x) 1) applied to kron rows (y index major) by a reshape."""
    return c @ (y @ w.reshape(len(y), -1)).reshape(w.shape)


def dilate(tl: TruncatedLimit, t, op: TruncatedOperator) -> TruncatedOperator:
    """Shift an operator by the endomorphism at a grid time.

    theta_t(op) = C ((op R_k(z^-1)) (x) 1) C*, with k the argument's support
    level, C the cached collapse of cell k + t / delta at its k-th part and
    z from `frame_weights` (see the module docstring for the frame
    argument).  The argument's support level moves up by t / delta; the
    result is only defined while that stays inside the tower.
    """
    if tl.grid_index(t) == 0:
        return op
    target, c, y = _amplification(tl, t, op)
    return TruncatedOperator(tl, target, _amplify(c, y, c.conj().T))


def compression_defect(tl: TruncatedLimit, t, x: AlgebraElement) -> float:
    """Defect of compressing the dilated representation back to the semigroup.

    k0* theta_t(x) k0 is formed as the thin product k0* C (Y (x) 1) (C* k0),
    with d columns, so the top-level matrix of theta_t(x) is never built.
    """
    target, c, y = _amplification(tl, t, represent(tl, x))
    k0 = tl.embed_matrix(target, 0)
    compressed = k0.conj().T @ _amplify(c, y, c.conj().T @ k0)
    expected = lmult_matrix(evaluate(tl.system.semigroup, t)(x))
    return float(np.linalg.norm(compressed - expected, 2))


@dataclass(frozen=True)
class MinimalityReport:
    span_rank: int
    top_dim: int

    @property
    def full(self) -> bool:
        return self.span_rank == self.top_dim


def minimality_evidence(tl: TruncatedLimit, depth: int | None = None,
                        elements=None, rtol: float = 1e-10) -> MinimalityReport:
    """Rank of the orbit of the embedded standard space under the dilation.

    Words are decreasing chains theta at times n delta, (n-1) delta, ...,
    applied to the corner vectors; with the full basis these reach every
    elementary tensor of the top cell.  Restricting `elements` produces an
    honest partial rank.

    No theta is formed.  With xi the unit, (x) the collapse and Omega b_y =
    y Omega, the word applied to k0(y Omega) = xi_{top delta} b_y is

        xi_{(top-n) delta} (x) x_n xi_delta (x) ... (x) x_1 xi_delta b_y.

    Induction: theta_{k delta}(x) is x acting on the left of level k,
    carried to the top by xi_{(top-k) delta} (x) -; splitting the leading
    unit vector as xi_{(top-k) delta} (x) xi_delta puts x_k on the first
    slot of level k.  So the words are an isometry applied to the unit's
    fold at n parts of delta, which keeps their singular values, given
    isometric connecting maps and the unit law xi_{k delta} = xi_{(k-1)
    delta} (x) xi_delta, which is checked on every level (ValueError past
    1e-8).  y -> b_y is unitary only for a tracial density: with y, not
    b_y, in the last slot the singular values were 0.58 to 1.94 times the
    words' on a non-tracial 2x2 Lindblad tower.
    """
    n = tl.levels if depth is None else tl.grid_index(depth * tl.delta)
    sf, top, xi = tl.sf, tl.spaces[tl.levels].dim, tl.unit_level[1]
    if n == 0:
        return MinimalityReport(numerical_rank(sf.embed_left_matrix, rtol), top)
    for k in range(2, tl.levels + 1):
        e = tl.spaces[k].embed
        law = np.linalg.norm((e.reshape(len(e), -1, len(xi)) @ xi) @ tl.unit_level[k - 1]
                             - tl.unit_level[k])
        if law > 1e-8:
            raise ValueError(f"unit law fails at level {k} (defect {law:.2e})")
    xs = np.column_stack([x.vec() for x in (sf.algebra.basis() if elements is None else elements)])
    z = _unit_fold(tl.system, {tl.delta: xi}, tl.partition_at(n).parts, xs,
                   sf.solve_right_matrix @ sf.embed_left_matrix)
    return MinimalityReport(numerical_rank(z, rtol), top)


def continuity_profile(tl: TruncatedLimit) -> dict[tuple[Fraction, int], float]:
    """Distance from the shifted unit-multiplied corner to the corner itself.

    Entry (t, mu) is the norm of kappa_t(x_mu xi(t)) - kappa_0(x_mu cyclic)
    at the top level, for every grid time and algebra basis element.
    """
    out = {}
    top = tl.levels
    k0 = tl.embed_matrix(top, 0)
    for k in range(1, top + 1):
        kk = tl.embed_matrix(top, k)
        for mu, x in enumerate(tl.sf.algebra.basis()):
            moved = kk @ tl.spaces[k].act_left(x, tl.unit_level[k])
            base = k0 @ tl.sf.embed_left(x)
            out[(k * tl.delta, mu)] = float(np.linalg.norm(moved - base))
    return out


# ---------------------------------------------------------------------------
# Cocycles
# ---------------------------------------------------------------------------

@dataclass
class Cocycle:
    """Adapted cocycle kept as bounded-vector maps indexed by grid times.

    maps[t] is the bounded-vector map b_t of the unit vector at level k =
    t / delta, from the standard space to that level (D_k x d); the value
    w_t = b_t k0_t*, with k0_t the corner embedding into level k, has rank
    at most d.  Every check works on these thin factors.
    """

    tl: TruncatedLimit
    maps: dict[Fraction, np.ndarray]

    def value(self, t) -> TruncatedOperator:
        """w_t as a dense operator at its support level."""
        k = self.tl.grid_index(t)
        return TruncatedOperator(self.tl, k, self.maps[t] @ self.tl.embed_matrix(k, 0).conj().T)

    @property
    def values(self) -> dict[Fraction, TruncatedOperator]:
        return {t: self.value(t) for t in self.maps}

    def law_defect(self) -> float:
        """Largest defect of w(s + t) = theta_t(w(s)) w(t) inside the horizon.

        At level k(s + t) both sides are sums of rank-d products: U1 V1* with
        U1 = theta_t(w_s) E b_t and V1 = E k0_t (E the embedding of level
        k(t)), and U2 V2* with U2 = b_(s+t) and V2 the corner embedding.
        With [V1, V2] = Q R, the spectral norm of U1 V1* - U2 V2* is that of
        [U1, -U2] R*, which has 2d columns.
        """
        tl = self.tl
        worst = 0.0
        times = sorted(t for t in self.maps if t > 0)
        for s in times:
            ws = self.value(s)
            for t in times:
                kt = tl.grid_index(t)
                if ws.level + kt > tl.levels:
                    break
                if s + t not in self.maps:
                    continue
                lvl, c, y = _amplification(tl, t, ws)
                e = tl.embed_matrix(lvl, kt)
                u1 = _amplify(c, y, c.conj().T @ (e @ self.maps[t]))
                v1 = e @ tl.embed_matrix(kt, 0)
                r = np.linalg.qr(np.hstack([v1, tl.embed_matrix(lvl, 0)]), mode="r")
                diff = np.hstack([u1, -self.maps[s + t]]) @ r.conj().T
                worst = max(worst, float(np.linalg.norm(diff, 2)))
        return worst

    def adapted_defect(self) -> float:
        worst = 0.0
        for t, op in self.values.items():
            k = self.tl.grid_index(t)
            top = op.on_top()
            kk = self.tl.embed_matrix(self.tl.levels, k)
            proj = kk @ kk.conj().T
            worst = max(worst, float(np.linalg.norm(proj @ top @ proj - top, 2)))
        return worst


def unit_level_vectors(tl: TruncatedLimit, unit: Unit) -> dict[Fraction, np.ndarray]:
    """Represent a unit on the tower levels."""
    out = {Fraction(0): tl.sf.cyclic.copy()}
    for k in range(1, tl.levels + 1):
        t = k * tl.delta
        if t not in unit.vectors:
            continue
        p = tl.partition_at(k)
        if k == 1:
            out[t] = unit.vectors[t].copy()
        else:
            out[t] = tl.system.refinement(p, Partition((t,))).matrix @ unit.vectors[t]
    return out


def cocycle_from_unit(tl: TruncatedLimit, lam: Unit, tol: float = 1e-10) -> Cocycle:
    """The adapted cocycle of a contractive unit.

    At level k the operator is the bounded-vector map of the unit vector
    composed with the adjoint of the corner embedding; it moves the
    embedded standard space onto the unit's line and kills the complement.
    """
    return cocycle_from_levels(tl, unit_level_vectors(tl, lam), tol=tol)


def cocycle_from_levels(tl: TruncatedLimit, vectors: dict[Fraction, np.ndarray],
                        tol: float = 1e-10) -> Cocycle:
    """Cocycle built from unit vectors already represented on the levels."""
    maps: dict[Fraction, np.ndarray] = {}
    for t, v in vectors.items():
        k = tl.grid_index(t)
        if k == 0:
            maps[t] = np.eye(tl.sf.dim, dtype=complex)
            continue
        b = pi_phi(tl.spaces[k], v, tl.sf)
        # <v, v> is the element whose left multiplication is b* b; b maps cyclic to v
        m = tl.sf.algebra.from_vec(tl.sf.solve_left_matrix @ (b.conj().T @ v))
        if m.norm() > 1.0 + tol:
            raise ValueError(f"unit is not contractive at {t} (norm {m.norm():.6f})")
        maps[t] = b
    return Cocycle(tl, maps)


def unit_from_cocycle(tl: TruncatedLimit, w: Cocycle) -> dict[Fraction, np.ndarray]:
    """Level-represented unit vectors extracted from an adapted cocycle."""
    out: dict[Fraction, np.ndarray] = {}
    for t, b in w.maps.items():
        k0 = tl.embed_matrix(tl.grid_index(t), 0)
        out[t] = b @ (k0.conj().T @ (k0 @ tl.sf.cyclic))
    return out


def corner_isometry_defect(tl: TruncatedLimit, w: Cocycle) -> float:
    """How far the cocycle is from preserving inner products on the corner.

    w_t k0 at the top is the top x d product (E b_t)((E k0_t)* k0), with E
    the embedding of the support level into the top.
    """
    worst = 0.0
    k0 = tl.embed_matrix(tl.levels, 0)
    for t, b in w.maps.items():
        if t == 0:
            continue
        k = tl.grid_index(t)
        e = tl.embed_matrix(tl.levels, k)
        wk = (e @ b) @ ((e @ tl.embed_matrix(k, 0)).conj().T @ k0)
        worst = max(worst, float(np.linalg.norm(
            wk.conj().T @ wk - np.eye(tl.sf.dim), 2)))
    return worst
