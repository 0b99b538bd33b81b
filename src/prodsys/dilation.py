"""Truncated inductive limit of a unit and the induced endomorphism family.

The limit over ever finer partitions is replaced by a finite tower: level k
is the cell at the uniform partition of k delta into k parts, level 0 is
the standard space, and the connecting isometries multiply the unit vector
of the time gap into the prefix slot, v -> xi_{(k-j) delta} (x) v.  The top
level stands in for the limit space; every identity is checked where the
shifted supports stay inside the tower, so truncation only restricts
domains and never perturbs values.

The connecting maps and the endomorphisms only ever act on vectors, so
neither is formed through a collapse of a whole level.  A connecting map
is the product system's own multiplication: iota_{k,j} applied to v is the
collapse of level k at its (k - j)-th part applied to xi_{(k-j) delta} (x)
v (Bhat and Skeide, "Tensor product systems of Hilbert modules and
dilations of completely positive semigroups", 2000), taken through the
cached steps of `CellSystem.apply_collapse` that the endomorphisms use too
(`TruncatedLimit.embed_apply`).

Operators are carried with a support level: an operator at level k acts on
the level-k space and is extended to the top through the connecting
isometries.  The endomorphism at time j delta acts by amplification,
theta(a) = u (a (x) 1) u* on E_k (x) E_j = E_{k+j}, and is computed as

    theta(a) = C ((a R_k(z^-1)) (x) 1) C*

with C the collapse of the level-(k + j) cell at its k-th part, R_k the
right action on level k and z = sum_i Tr(rho_i^-1) p_i the central element
given by the state density rho and the central projections p_i.  C is
applied, not formed: `CellSystem.apply_collapse` takes C* and C on a column
block in one extension step each, and (Y (x) 1) is a reshape between them.
Why: with L_e the bounded-vector map of e, Psi_k = sum_a L_{e_a} L_{e_a}*
over an orthonormal basis of E_k equals R_k(z), which is right-linear and
invertible, so the vectors Psi_k^{-1/2} e_a form a module frame and every
right-linear a is sum_a L_{a f_a} L_{f_a}*.  The amplification sends
L_v L_u* to A_v A_u* with A_v = C (v (x) 1), and summing over the frame
gives the formula.  No relative tensor product is formed;
`TruncatedLimit.split` keeps that definition as the reference.

The checks need R(z^-1) on the standard space only, 1 / tau_i on the
coordinates of block i (`_standard_zinv`): the corner k0 is right-linear,
R_k(y) k0 = k0 R_0(y), so for every argument they dilate, lmult(x) or a
cocycle value b k0*, (b k0*) R_k(z^-1) = b R_0(z^-1) k0*.  Only `dilate`,
the public dense form, places R_k(z^-1).

The two checks on the whole tower work on factors of the size of the
spaces.  Minimality forms no theta: the orbit of the corner spans a tensor
power of span(M xi_delta M), whose dimension is a product of multiplicity
matrices (`minimality_evidence`).  A cocycle is kept as its bounded-vector
maps b_t (D_k x d), with w_t = b_t k0_t*, so the cocycle law compares two
sums of rank-d products U V* through a QR of the 2d right factors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, lmult_matrix
from .bimodule import Bimodule, inner, pi_phi, relative_tensor
from .cells import Unit, span_multiplicity
from .cpdyn import evaluate
from .partition import Partition, uniform


class UnitLawError(ValueError):
    """The unit law xi_{k delta} = xi_{(k-1) delta} (x) xi_delta fails on a tower level."""

    def __init__(self, level: int, defect: float):
        super().__init__(f"unit law fails at level {level} (defect {defect:.2e})")
        self.level, self.defect = level, defect


class TruncationError(RuntimeError):
    """Requested time is off the grid or beyond the truncation horizon."""

    def __init__(self, message: str, max_time: Fraction | None = None):
        super().__init__(message)
        self.max_time = max_time


def grid_index(t, delta: Fraction, levels: int) -> int:
    """The level k = t / delta of a grid time on a tower of step delta, the rule of both towers."""
    k = Fraction(t) / delta
    if k.denominator != 1 or k < 0:
        raise TruncationError(f"time {t} is not on the grid of step {delta}")
    if k > levels:
        raise TruncationError(f"time {t} beyond horizon, max admissible {levels * delta}",
                              max_time=levels * delta)
    return int(k)


class TruncatedLimit:
    """Finite tower of uniform-partition cells with connecting isometries, on the cells of
    its unit's `CellSystem`; level 0, the standard space, holds Omega."""

    def __init__(self, unit: Unit, delta, levels: int):
        self.system = cs = unit.system
        self.sf = cs.sf
        self.delta = Fraction(delta)
        self.levels = int(levels)
        if self.levels < 1:
            raise TruncationError("at least one level is required")
        times = [k * self.delta for k in range(1, self.levels + 1)]
        for t in times:
            if t not in unit.vectors:
                raise TruncationError(f"unit has no vector at grid time {t}")
        self._partitions = [Partition(())] + [uniform(t, k) for k, t in enumerate(times, 1)]
        self.spaces: list[Bimodule] = [cs.cell(p) for p in self._partitions]
        vectors = unit_level_vectors(self, unit)
        self.unit_level: list[np.ndarray] = [self.sf.cyclic.copy()] + [vectors[t] for t in times]

    # -- bookkeeping ----------------------------------------------------

    def grid_index(self, t) -> int:
        return grid_index(t, self.delta, self.levels)

    def partition_at(self, k: int) -> Partition:
        return self._partitions[k]

    def corner(self, k: int) -> np.ndarray:
        """The corner embedding k0 = iota_{k,0} of the standard space into level k (D_k x d)."""
        return self.embed_apply(k, 0, np.eye(self.sf.dim, dtype=complex))

    def embed_apply(self, k: int, j: int, x: np.ndarray) -> np.ndarray:
        """Connecting isometry iota_{k,j}: v -> xi_{(k-j) delta} (x) v, level j into level k,
        applied to a column block x of level j.

        For 0 < j < k this is the collapse of level k at its (k - j)-th part
        applied to xi_{(k-j) delta} (x) x through `CellSystem.apply_collapse`,
        so no collapse of level k is formed; for j = 0 it is the bounded-vector
        map of xi_{k delta}.  It is exact and needs no unit law.
        """
        if not 0 <= j <= k <= self.levels:
            raise TruncationError(f"invalid level pair ({k}, {j})")
        if j == k:
            return x
        if j == 0:
            return pi_phi(self.spaces[k], self.unit_level[k], self.sf) @ x
        xi = self.unit_level[k - j]
        return self.system.apply_collapse(self.partition_at(k), k - j,
                                          (xi[:, None, None] * x).reshape(-1, x.shape[1]))

    def embed_matrix(self, k: int, j: int) -> np.ndarray:
        """Dense connecting isometry iota_{k,j}: `embed_apply` of the identity of level j."""
        if not 0 <= j <= k <= self.levels:
            raise TruncationError(f"invalid level pair ({k}, {j})")
        return self.embed_apply(k, j, np.eye(self.spaces[j].dim, dtype=complex))

    def split(self, level: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Fold u E and unfold L u* of a level split as (level - j, j).

        r is the relative tensor of the two levels, E and L its embed and
        lift, and u = C L its collapse unitary, C the collapse of the level
        at the cut.  This is the definition of the dilation, fold (op (x) 1)
        unfold, kept as the reference for `dilate`, which forms no relative
        tensor; E, L and C are applied, not formed, C by `apply_collapse`.
        """
        q = relative_tensor(self.spaces[level - j], self.spaces[j], self.sf)
        u = self.system.apply_collapse(self.partition_at(level), level - j,
                                       q.lift_apply(np.eye(q.dim)))
        return q.embed_apply(u.conj().T, adjoint=True).conj().T, q.lift_apply(u.conj().T)


class TruncatedOperator(NamedTuple):
    """Right-linear operator on the tower, supported at a level."""

    tl: TruncatedLimit
    level: int
    matrix: np.ndarray

    def at_level(self, m: int) -> np.ndarray:
        if m < self.level:
            raise TruncationError(f"operator lives at level {self.level}, asked for {m}")
        half = self.tl.embed_apply(m, self.level, self.matrix)  # iota M
        return self.tl.embed_apply(m, self.level, half.conj().T).conj().T

    def on_top(self) -> np.ndarray:
        return self.at_level(self.tl.levels)


def represent(tl: TruncatedLimit, x: AlgebraElement) -> TruncatedOperator:
    """The algebra represented on the tower: compress to level 0, act, re-embed."""
    return TruncatedOperator(tl, 0, lmult_matrix(x))


def _standard_zinv(sf) -> np.ndarray:
    """R_0(z^-1) as the d numbers it scales the standard space by: 1 / tau_i on block i."""
    return np.repeat(1.0 / sf.frame_weights, [n * n for n in sf.algebra.blocks])


def _amplify(tl: TruncatedLimit, target: int, cut: int, apply_y, w: np.ndarray) -> np.ndarray:
    """C (Y (x) 1) C* w for the collapse C of the target cell at the cut, for a stack of Y.

    apply_y sends a column block of the cut level to the stack (n, rows, cols)
    of its images under the n maps Y.  C* and C go through one extension step
    each (`CellSystem.apply_collapse`), (Y (x) 1) acts on the kron rows by a
    reshape, and the n images sit side by side, Y index major.
    """
    cs, p = tl.system, tl.partition_at(target)
    v = cs.apply_collapse(p, cut, w, adjoint=True)
    ys = apply_y(v.reshape(tl.spaces[cut].dim, -1))
    v = ys.reshape(len(ys), *v.shape).swapaxes(0, 1)
    return cs.apply_collapse(p, cut, v.reshape(len(v), -1))


def dilate(tl: TruncatedLimit, t, op: TruncatedOperator) -> TruncatedOperator:
    """Shift an operator by the endomorphism at a grid time: the public dense form.

    theta_t(op) = C ((op R_k(z^-1)) (x) 1) C* (module docstring), k the
    argument's support level, which moves up by t / delta and must stay
    inside the tower.  R_k(z^-1) is placed by `Bimodule.right_matrix`, and
    the result is `_amplify` of the identity; no check calls it.
    """
    k = tl.grid_index(t)
    if k == 0:
        return op
    target = op.level + k
    if target > tl.levels:
        max_t = (tl.levels - op.level) * tl.delta
        raise TruncationError(f"dilating a level-{op.level} operator by {k * tl.delta} exceeds "
                              f"the horizon, max admissible {max_t}", max_time=max_t)
    y = op.matrix @ tl.spaces[op.level].right_matrix(tl.sf.algebra.diagonal(1.0 / tl.sf.frame_weights))
    eye = np.eye(tl.spaces[target].dim, dtype=complex)
    return TruncatedOperator(tl, target, _amplify(tl, target, op.level, lambda v: (y @ v)[None], eye))


def compression_defect(tl: TruncatedLimit, t, xs: Sequence[AlgebraElement]) -> np.ndarray:
    """Defects of compressing the dilated representation back to the semigroup, one per element.

    k0* theta_t(x) k0 is the thin product k0* C (Y_x (x) 1) C* k0, Y_x =
    lmult(x) R_0(z^-1) (d x d, `_standard_zinv`), compared with lmult(T_t(x))
    in spectral norm.  C* goes to the d columns of k0 once, C once to the
    stacked images of all elements (`_amplify`), and one batched norm takes
    the defects, so neither the top-level matrix of theta_t(x) nor C is built.
    """
    target, sf = tl.grid_index(t), tl.sf
    coords = np.array([x.vec() for x in xs])
    ys = np.tensordot(coords, sf.lmult_basis, axes=1) * _standard_zinv(sf)
    k0 = tl.corner(target)
    images = k0.conj().T @ _amplify(tl, target, 0, lambda v: ys @ v, k0)  # (d, element, d)
    compressed = images.reshape(sf.dim, len(xs), -1).swapaxes(0, 1)
    action = evaluate(tl.system.semigroup, t).action
    expected = np.tensordot(coords @ action.T, sf.lmult_basis, axes=1)
    return np.linalg.norm(compressed - expected, 2, axis=(1, 2))


class MinimalityReport(NamedTuple):
    span_rank: int
    top_dim: int

    @property
    def full(self) -> bool:
        return self.span_rank == self.top_dim


def minimality_evidence(tl: TruncatedLimit) -> MinimalityReport:
    """Rank of the orbit of the embedded standard space under the dilation.

    The words theta_{n delta}(x_n) ... theta_delta(x_1), n = levels, applied
    to the corner vector k0(y Omega) = xi_{n delta} b_y, Omega b_y = y Omega,
    are x_n xi_delta (x) ... (x) x_1 xi_delta b_y: theta_{k delta}(x) is x on
    the left of level k, carried to the top by xi_{(n-k) delta} (x) -, and
    splitting xi_{(n-k) delta} (x) xi_delta puts x_k on the first slot of
    level k.  As y runs over the algebra so does b_y, so, with no theta formed,
    the rank is n^T m^n n by the identity of `cells.generating_rank`, m the
    multiplicity matrix of span(M xi_delta M) (`span_multiplicity`).

    Each check catches its own defect.  The unit law xi_{k delta} = xi_{(k-1)
    delta} (x) xi_delta, on which the words' form rests, fails for a unit
    whose levels do not factor, say after a sign flip at 2 delta that leaves
    every level isometric (`UnitLawError` past 1e-8).  The rank falls short
    of the top dimension for a xi_delta that generates a proper sub-bimodule
    of its cell, say one cut down to a block, and misses it for a top cell
    whose relative tensors lost or gained a direction.
    """
    xi = tl.unit_level[1]
    for k in range(2, tl.levels + 1):
        fused = tl.spaces[k].embed_pairs(tl.unit_level[k - 1][:, None], xi[:, None])[:, 0]
        law = np.linalg.norm(fused - tl.unit_level[k])
        if law > 1e-8:
            raise UnitLawError(k, float(law))
    n, m = np.array(tl.sf.algebra.blocks), span_multiplicity(tl.spaces[1], xi)
    return MinimalityReport(int(n @ np.linalg.matrix_power(m, tl.levels) @ n), tl.spaces[-1].dim)


def continuity_profile(tl: TruncatedLimit) -> dict[tuple[Fraction, int], float]:
    """Distance from the shifted unit-multiplied corner to the corner itself.

    Entry (t, mu) is the norm of kappa_t(x_mu xi(t)) - kappa_0(x_mu cyclic)
    at the top level, for every grid time and algebra basis element.  The
    left parts of each level are applied to its unit vector once, and the
    connecting maps to the top to those d columns (`embed_apply`).
    """
    top, out = tl.levels, {}
    base = tl.embed_apply(top, 0, tl.sf.embed_left_matrix)
    for k in range(1, top + 1):
        moved = tl.embed_apply(top, k, tl.spaces[k].left_apply(tl.unit_level[k][:, None])[..., 0].T)
        for mu, d in enumerate(np.linalg.norm(moved - base, axis=0)):
            out[(k * tl.delta, mu)] = float(d)
    return out


# ---------------------------------------------------------------------------
# Cocycles
# ---------------------------------------------------------------------------

CONTRACTIVE_TOL = 1e-10  # slack above norm 1 of <v, v> before a unit is refused

class Cocycle:
    """Adapted cocycle kept as bounded-vector maps indexed by positive grid times.

    maps[t] is the bounded-vector map b_t of the unit vector at level k =
    t / delta, from the standard space to that level (D_k x d); the value
    w_t = b_t k0_t*, with k0_t the corner embedding into level k, has rank
    at most d.  Every check works on these thin factors; w_0 = 1 is not stored.
    """

    def __init__(self, tl: TruncatedLimit, maps: dict[Fraction, np.ndarray]):
        self.tl, self.maps = tl, maps

    def value(self, t) -> TruncatedOperator:
        """w_t as a dense operator at its support level."""
        k = self.tl.grid_index(t)
        return TruncatedOperator(self.tl, k, self.maps[t] @ self.tl.corner(k).conj().T)

    @property
    def values(self) -> dict[Fraction, TruncatedOperator]:
        return {t: self.value(t) for t in self.maps}

    def law_defect(self) -> float:
        """Largest defect of w(s + t) = theta_t(w(s)) w(t) inside the horizon.

        At level k(s + t) both sides are sums of rank-d products: U1 V1* with
        U1 = theta_t(w_s) E b_t and V1 = E k0_t (E the embedding of level
        k(t)), and U2 V2* with U2 = b_(s+t) and V2 the corner embedding.
        With [V1, V2] = Q R, the spectral norm of U1 V1* - U2 V2* is that of
        [U1, -U2] R*, which has 2d columns.  theta_t(w_s) amplifies Y =
        b_s R_0(z^-1) k0_s* (module docstring), applied as its rank-d
        factors with R_0(z^-1) k0_s* formed once per s, so no w_s is formed.
        The corners are read once per level; E is applied once per pair to
        [b_t, k0_t], and it and both collapse steps of theta_t(w_s) come from
        one cached extension (`CellSystem.apply_collapse`).  The pairs are
        grouped by level k(s + t): one stacked QR and one batched norm each.
        """
        tl = self.tl
        times = sorted(self.maps)
        levels = [tl.grid_index(t) for t in times]
        at_level, d = dict(zip(levels, times)), tl.sf.dim
        corners = {k: tl.corner(k) for k in levels}
        zinv = _standard_zinv(tl.sf)
        factors: dict[int, tuple[list, list]] = {}  # level -> ([V1, V2], [U1, -U2]) per pair
        for s, ks in zip(times, levels):
            bs, zk0 = self.maps[s], zinv[:, None] * corners[ks].conj().T
            for t, kt in zip(times, levels):
                lvl = ks + kt
                if lvl > tl.levels:
                    break
                if lvl not in at_level:
                    continue
                e = tl.embed_apply(lvl, kt, np.hstack([self.maps[t], corners[kt]]))
                vs, us = factors.setdefault(lvl, ([], []))
                vs.append(np.hstack([e[:, d:], corners[lvl]]))
                u1 = _amplify(tl, lvl, ks, lambda v: (bs @ (zk0 @ v))[None], e[:, :d])
                us.append(np.hstack([u1, -self.maps[at_level[lvl]]]))
        worst = 0.0
        for vs, us in factors.values():
            r = np.linalg.qr(np.stack(vs), mode="r")
            diff = np.stack(us) @ r.conj().swapaxes(1, 2)
            worst = max(worst, float(np.linalg.norm(diff, 2, axis=(1, 2)).max()))
        return worst


def unit_level_vectors(tl: TruncatedLimit, unit: Unit) -> dict[Fraction, np.ndarray]:
    """Represent a unit of the tower's own `CellSystem` on the levels, at its grid times."""
    if unit.system is not tl.system:
        raise ValueError("the unit belongs to another CellSystem than the tower")
    out = {}
    for k in range(1, tl.levels + 1):
        t = k * tl.delta
        if t not in unit.vectors:
            continue
        if k == 1:
            out[t] = unit.vectors[t].copy()
        else:
            out[t] = tl.system.refine_apply(tl.partition_at(k), Partition((t,)),
                                            unit.vectors[t][:, None])[:, 0]
    return out


def cocycle_from_unit(tl: TruncatedLimit, lam: Unit) -> Cocycle:
    """The adapted cocycle of a contractive unit of the tower's `CellSystem`.

    At level k the operator is the bounded-vector map of the unit vector
    composed with the adjoint of the corner embedding; it moves the
    embedded standard space onto the unit's line and kills the complement.
    """
    return cocycle_from_levels(tl, unit_level_vectors(tl, lam))


def cocycle_from_levels(tl: TruncatedLimit, vectors: dict[Fraction, np.ndarray]) -> Cocycle:
    """Cocycle built from contractive unit vectors already represented on the levels, at
    positive grid times: w_0 = 1 is fixed by the cocycle law, and a vector at 0 is refused."""
    maps: dict[Fraction, np.ndarray] = {}
    for t, v in vectors.items():
        k = tl.grid_index(t)
        if k == 0:
            raise ValueError(f"a cocycle holds positive times only, got {t}")
        m = tl.sf.algebra.from_vec(inner(tl.spaces[k], v[:, None], v[:, None], tl.sf)[0][0, 0])
        if m.norm() > 1.0 + CONTRACTIVE_TOL:
            raise ValueError(f"unit is not contractive at {t} (norm {m.norm():.6f})")
        maps[t] = pi_phi(tl.spaces[k], v, tl.sf)
    return Cocycle(tl, maps)


def unit_from_cocycle(tl: TruncatedLimit, w: Cocycle) -> dict[Fraction, np.ndarray]:
    """Level-represented unit vectors extracted from an adapted cocycle."""
    out: dict[Fraction, np.ndarray] = {}
    for t, b in w.maps.items():
        k0 = tl.corner(tl.grid_index(t))
        out[t] = b @ (k0.conj().T @ (k0 @ tl.sf.cyclic))
    return out


def corner_isometry_defect(tl: TruncatedLimit, w: Cocycle) -> float:
    """How far the cocycle is from preserving inner products on the corner.

    w_t k0 at the top is the top x d product (E b_t)((E k0_t)* k0), with E
    the embedding of the support level into the top, applied once to [b_t, k0_t].
    """
    worst, d = 0.0, tl.sf.dim
    k0 = tl.corner(tl.levels)
    for t, b in w.maps.items():
        k = tl.grid_index(t)
        e = tl.embed_apply(tl.levels, k, np.hstack([b, tl.corner(k)]))
        wk = e[:, :d] @ (e[:, d:].conj().T @ k0)
        worst = max(worst, float(np.linalg.norm(
            wk.conj().T @ wk - np.eye(tl.sf.dim), 2)))
    return worst
