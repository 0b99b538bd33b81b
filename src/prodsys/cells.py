"""Partition-indexed cells of a CP-semigroup and their product structure.

For a partition p = (t_1, ..., t_n) the cell is the iterated relative
tensor product of the GNS couplings at the part values, built left to
right.  Cells are cached per partition, so the first k intermediate spaces
of a cell coincide (as objects) with the cell of the length-k prefix.
That makes the canonical collapse of cell(prefix) (x) cell(suffix) onto
cell(p) computable by a short recursion over the stored quotient maps.

On top of the cells this module provides the coarse-to-fine refinement
isometries, the multiplication unitaries joining two cells into the cell
of the concatenated partition, canonical units, the completely positive
semigroup induced by a unit, and the isomorphism sending the cells of an
induced semigroup onto any system carrying a generating unital unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, StandardForm
from .bimodule import (
    Bimodule,
    BimoduleMap,
    extend_from_family,
    gns_tensor,
    inner,
    l2_bimodule,
    left_materialization,
    numerical_rank,
    relative_tensor,
    tensor_vec,
)
from .cpdyn import CpMap, CpSemigroup, evaluate, law_defect
from .partition import Partition, grouping, join, refines


class CellSystem:
    """Cells, collapses and refinement isometries for one semigroup."""

    def __init__(self, semigroup: CpSemigroup, sf: StandardForm):
        self.semigroup = semigroup
        self.sf = sf
        self.l2 = l2_bimodule(sf)
        self._gns: dict[Fraction, Bimodule] = {}
        self._cells: dict[tuple, Bimodule] = {}
        self._collapse: dict[tuple, np.ndarray] = {}

    # -- spaces -------------------------------------------------------

    def gns(self, t) -> Bimodule:
        t = Fraction(t)
        if t not in self._gns:
            self._gns[t] = gns_tensor(evaluate(self.semigroup, t), self.sf)
        return self._gns[t]

    def cell(self, p: Partition) -> Bimodule:
        """The cell at a partition; the empty partition gives the standard space."""
        key = p.parts
        if key in self._cells:
            return self._cells[key]
        if len(p) == 0:
            space = self.l2
        elif len(p) == 1:
            space = self.gns(p.parts[0])
        else:
            prefix = self.cell(Partition(p.parts[:-1]))
            space = relative_tensor(prefix, self.gns(p.parts[-1]), self.sf)
        self._cells[key] = space
        return space

    def elementary(self, p: Partition, xs: Sequence[AlgebraElement],
                   vs: Sequence[np.ndarray]) -> np.ndarray:
        """Image in cell(p) of the elementary tensor with the given factors.

        xs are the algebra slots, vs the standard-space slots, one pair per
        part of p: the one-column case of `family`.
        """
        if len(xs) != len(p) or len(vs) != len(p):
            raise ValueError("one algebra and one vector slot per part expected")
        return self.family(p.parts, [x.vec()[:, None] for x in xs],
                           [v[:, None] for v in vs])[:, 0]

    def family(self, parts: Sequence[Fraction], xs: Sequence[np.ndarray],
               vs: Sequence[np.ndarray]) -> np.ndarray:
        """Every elementary tensor over the slot columns, in kron column order.

        xs[i] holds algebra coordinate vectors and vs[i] standard-space
        vectors as columns; part i takes every pair, algebra index major.
        """
        return self.fuse(parts, [self.gns(t).embed @ np.kron(x, v)
                                 for t, x, v in zip(parts, xs, vs)])

    def fuse(self, parts: Sequence[Fraction], slots: Sequence[np.ndarray],
             thin: bool = False) -> np.ndarray:
        """Fuse one slot matrix per part, left to right, into cell(parts).

        The columns of slots[i] are vectors of the single-part cell at
        parts[i]; the result has a column for every choice of one column per
        slot, in np.kron order.  Each step contracts against a reshaped view
        of the cell's embed, so no pre-quotient kron product is formed.

        With `thin`, a fused family u wider than tall is replaced by R* from
        u* = Q R; later steps act column by column, so the result is the
        full fold times the co-isometry Q* (x) I, with its singular values.
        """
        u = slots[0]
        for i, w in enumerate(slots[1:], 2):
            e = self.cell(Partition(tuple(parts[:i]))).embed
            u = (u.T @ (e.reshape(len(e), len(u), len(w)) @ w)).reshape(len(e), -1)
            if thin and u.shape[1] > len(u):
                u = np.linalg.qr(u.conj().T, mode="r").conj().T
        return u

    # -- canonical collapse -------------------------------------------

    def collapse(self, p: Partition, a: int) -> np.ndarray:
        """Matrix of the canonical map cell(p[:a]) (x) cell(p[a:]) -> cell(p).

        Acts on kron coordinates (prefix index major).  For a = 0 or
        a = len(p) this is the canonical identification with the standard
        space acting through left, respectively right, materialization.
        """
        key = (p.parts, a)
        if key in self._collapse:
            return self._collapse[key]
        n = len(p)
        cellp = self.cell(p)
        if a == 0:
            m = left_materialization(cellp, self.sf)
        elif a == n:
            m = np.tensordot(self.sf.solve_right_matrix.T, cellp.right, axes=1)
            m = m.transpose(1, 2, 0).reshape(cellp.dim, -1)
        else:
            da = self.cell(Partition(p.parts[:a])).dim
            m = self.cell(Partition(p.parts[:a + 1])).embed
            for j in range(a + 2, n + 1):
                g = self.gns(p.parts[j - 1])
                sub = self.cell(Partition(p.parts[a:j]))
                ej = self.cell(Partition(p.parts[:j])).embed
                rows = ej.shape[0]
                # ej @ kron(m, I_g) @ kron(I_da, sub.lift), contracted in `fuse`'s order
                m = (m.T @ ej.reshape(rows, -1, g.dim)).reshape(rows, da, -1) @ sub.lift
                m = m.reshape(rows, -1)
        self._collapse[key] = m
        return m

    # -- product structure --------------------------------------------

    def multiply(self, q: Partition, p: Partition) -> BimoduleMap:
        """Unitary from cell(q) (x)_M cell(p) onto cell(q joined with p)."""
        r = relative_tensor(self.cell(q), self.cell(p), self.sf)
        j = self.collapse(join(q, p), len(q))
        return BimoduleMap(r, self.cell(join(q, p)), j @ r.lift)

    def refinement(self, p: Partition, q: Partition) -> BimoduleMap:
        """Isometry from the coarse cell(q) into the fine cell(p)."""
        if not refines(p, q):
            raise ValueError(f"{p} does not refine {q}")
        groups = grouping(p, q)
        if not groups:
            return BimoduleMap(self.l2, self.l2, np.eye(self.sf.dim, dtype=complex))
        factor_maps = [self._group_map(g) for g in groups]
        a = factor_maps[0]
        parts_done = len(groups[0])
        for i in range(1, len(groups)):
            jmat = self.collapse(Partition(p.parts[:parts_done + len(groups[i])]), parts_done)
            lift = self.cell(Partition(q.parts[:i + 1])).lift
            a = jmat @ np.kron(a, factor_maps[i]) @ lift
            parts_done += len(groups[i])
        return BimoduleMap(self.cell(q), self.cell(p), a)

    def _group_map(self, sub: Partition) -> np.ndarray:
        """Isometry of one GNS coupling into the cell of a sub-partition.

        An elementary tensor with slots (x, eta) goes to the elementary
        tensor of the sub-partition with x in the first algebra slot, the
        cyclic vector in every intermediate slot and eta in the last one.
        """
        g = self.gns(sub.total)
        if len(sub) == 1:
            return np.eye(g.dim, dtype=complex)
        eye, n = np.eye(self.sf.dim), len(sub)
        xs = [eye] + [self.sf.algebra.identity().vec()[:, None]] * (n - 1)
        vs = [self.sf.cyclic[:, None]] * (n - 1) + [eye]
        return self.family(sub.parts, xs, vs) @ g.lift


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """A section of single-part cells, with the cyclic vector at time zero."""

    system: CellSystem
    vectors: dict[Fraction, np.ndarray]

    @property
    def times(self) -> list[Fraction]:
        return sorted(t for t in self.vectors if t > 0)

    def scaled(self, rate: float) -> "Unit":
        """Damped unit t -> exp(-rate t) xi(t); contractive for rate >= 0."""
        out = {t: np.exp(-rate * float(t)) * v for t, v in self.vectors.items()}
        out[Fraction(0)] = self.vectors[Fraction(0)]
        return Unit(self.system, out)


def canonical_unit(cs: CellSystem, grid: Sequence) -> Unit:
    """The unit generated by the identity slot over the cyclic vector."""
    vectors: dict[Fraction, np.ndarray] = {Fraction(0): cs.sf.cyclic.copy()}
    one = cs.sf.algebra.identity()
    for t in grid:
        t = Fraction(t)
        if t == 0:
            continue
        vectors[t] = tensor_vec(cs.gns(t), one, cs.sf.cyclic)
    return Unit(cs, vectors)


@dataclass(frozen=True)
class UnitReport:
    unital_defect: float
    contraction_excess: float
    factorization_defect: float


def unit_report(unit: Unit) -> UnitReport:
    """Unitality, contractivity and multiplicativity defects of a unit."""
    cs, sf = unit.system, unit.system.sf
    one = sf.algebra.identity()
    unital, excess, fact = 0.0, 0.0, 0.0
    times = unit.times
    for t in times:
        xi = unit.vectors[t][:, None]
        elements, res, _ = inner(cs.cell(Partition((t,))), xi, xi, sf)
        m = sf.algebra.from_vec(elements[0, 0])
        unital = max(unital, (m - one).norm(), res)
        excess = max(excess, m.norm() - 1.0)
    for s in times:
        for t in times:
            if (s + t) not in unit.vectors:
                continue
            v = cs.fuse((s, t), [unit.vectors[s][:, None], unit.vectors[t][:, None]])[:, 0]
            w = cs.refinement(Partition((s, t)), Partition((s + t,))).matrix @ unit.vectors[s + t]
            fact = max(fact, float(np.linalg.norm(v - w)))
    return UnitReport(unital, excess, fact)


def cp_from_unit(unit: Unit) -> dict[Fraction, CpMap]:
    """The completely positive family induced by a unit.

    T_t(x) is the algebra-valued inner product of xi(t) with x acting on
    xi(t); column mu of the action is that of the basis element x_mu.
    """
    cs, sf = unit.system, unit.system.sf
    alg = sf.algebra
    out: dict[Fraction, CpMap] = {}
    for t in unit.vectors:
        if t == 0:
            out[t] = CpMap(alg, np.eye(alg.dim, dtype=complex))
            continue
        cell = cs.cell(Partition((t,)))
        xi = unit.vectors[t]
        elements, res, scale = inner(cell, xi[:, None], (cell.left @ xi).T, sf)
        # relative to the entries, which grow like the inverse of a small state weight
        if res > 1e-8 * scale:
            raise ValueError("induced map is not well defined "
                             f"(residual {res:.3e}, scale {scale:.3e})")
        out[t] = CpMap(alg, elements[0].T)
    return out


def semigroup_defect(maps: dict[Fraction, CpMap]) -> float:
    """Largest composition defect over grid pairs with representable sums."""
    times = [t for t in maps if t > 0]
    return law_defect(lambda t: maps[t].action,
                      [(s, t) for s in times for t in times if (s + t) in maps])


def generating_rank(unit: Unit, p: Partition, rtol: float = 1e-10) -> tuple[int, int]:
    """Rank of the unit's elementary tensors at p, and the dim of cell(p).

    Slot i holds the basis acting on the unit vector of part i, the last
    also a basis element from the right.  Refining a tensor of a coarsening
    of p gives, by unit factorization, one of p with 1 in the merged slots,
    so the family spans all the unit produces at p.
    """
    cs, eye = unit.system, np.eye(unit.system.sf.algebra.dim)
    z = _unit_fold(cs, unit.vectors, p.parts, eye, eye)
    return numerical_rank(z, rtol), cs.cell(p).dim


def unit_system_isomorphism(
    cs: CellSystem,
    p: Partition,
    target: Bimodule,
    target_family: np.ndarray,
) -> tuple[BimoduleMap, float]:
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


def _unit_fold(cs: CellSystem, vectors: dict[Fraction, np.ndarray], parts: Sequence[Fraction],
               elements: np.ndarray, right: np.ndarray) -> np.ndarray:
    """`fuse` of x_i acting on vectors[parts[i]], the last slot also times y from the right.

    x_i runs over the coordinate columns of `elements`, y over those of
    `right`.  The fold runs thin: only the family's singular values are kept.
    """
    for t in parts:
        if t not in vectors:
            raise ValueError(f"unit has no vector at time {t}")
    slots = [(cs.gns(t).left @ vectors[t]).T @ elements for t in parts]
    last = cs.gns(parts[-1])
    rights = np.tensordot(right, last.right, axes=(0, 0))
    slots[-1] = np.einsum("yab,bx->axy", rights, slots[-1]).reshape(last.dim, -1)
    return cs.fuse(parts, slots, thin=True)
