"""Partition-indexed cells of a CP-semigroup and their product structure.

For a partition p = (t_1, ..., t_n) the cell is the iterated relative
tensor product of the GNS couplings at the part values, built left to
right.  Cells are cached per partition under exact integer keys, so the
first k intermediate spaces of a cell coincide (as objects) with the cell
of the length-k prefix.  A cell's quotient maps are per-block factors
(`bimodule.Quotient`), and every reader contracts them.  The canonical
collapse of cell(prefix) (x) cell(suffix) onto cell(p) is one step from
the collapse of p without its last part, which contracts those factors
(`bimodule.extension`) and is block diagonal in the multiplicity index;
`CellSystem.apply_collapse` takes that step on a column block, so no
collapse is formed: each step is built once per partition and cut, from
the applied collapse of its prefix, and cached, and so is the isometry of
each group of a refinement: `family` of the canonical unit's slots times
the lift of the coupling it refines.

On top of the cells this module provides the coarse-to-fine refinement
isometries, the multiplication unitaries joining two cells into the cell
of the concatenated partition, canonical units, and the completely
positive semigroup induced by a unit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, StandardForm
from .bimodule import (
    Bimodule,
    BimoduleMap,
    BlockMap,
    extension,
    gns_tensor,
    inner,
    l2_bimodule,
    numerical_rank,
    relative_tensor,
    tensor_vec,
)
from .cpdyn import CpMap, CpSemigroup, evaluate, law_defect
from .partition import Partition, grouping, join, sum_pairs


class EmptyCouplingError(ValueError):
    """Raised for a GNS coupling that kept no direction.

    The coupling of a unital map holds 1 (x) Omega, of norm 1, so an empty
    one means T_t was evaluated as zero, as `cpdyn.evaluate` does far past
    the semigroup's time scale; no cell, unit or tower can be built on it.
    """


class CellSystem:
    """Cells, collapses and refinement isometries for one semigroup."""

    def __init__(self, semigroup: CpSemigroup, sf: StandardForm):
        self.semigroup = semigroup
        self.sf = sf
        self.l2 = l2_bimodule(sf)
        self._gns: dict[tuple[int, int], Bimodule] = {}
        self._cells: dict[tuple, Bimodule] = {}
        self._steps: dict[tuple, BlockMap] = {}
        self._groups: dict[tuple, np.ndarray] = {}
        # the slot columns of `_group`: every basis element, the identity, the cyclic vector
        self._unit_columns = (np.eye(sf.dim), sf.algebra.identity().vec()[:, None],
                              sf.cyclic[:, None])

    # -- spaces -------------------------------------------------------

    def gns(self, t) -> Bimodule:
        t = Fraction(t)
        key = (t.numerator, t.denominator)
        if key not in self._gns:
            g = gns_tensor(evaluate(self.semigroup, t), self.sf, self.l2)
            if g.dim == 0:
                raise EmptyCouplingError(f"the GNS coupling at t = {t} kept no direction: "
                                         "T_t evaluated to the zero map")
            self._gns[key] = g
        return self._gns[key]

    def cell(self, p: Partition) -> Bimodule:
        """The cell at a partition; the empty partition gives the standard space."""
        key = p.key
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
        return self.fuse(parts, [self.gns(t).quotient.embed_pairs(x, v)
                                 for t, x, v in zip(parts, xs, vs)])

    def fuse(self, parts: Sequence[Fraction], slots: Sequence[np.ndarray]) -> np.ndarray:
        """Fuse one slot matrix per part, left to right, into cell(parts).

        The columns of slots[i] are vectors of the single-part cell at
        parts[i]; the result has a column for every choice of one column per
        slot, in np.kron order.  Each step contracts against the factors of
        the cell's embed (`Quotient.embed_pairs`), so no pre-quotient kron
        product is formed.
        """
        u = slots[0]
        for i, w in enumerate(slots[1:], 2):
            u = self.cell(Partition(tuple(parts[:i]))).quotient.embed_pairs(u, w)
        return u

    # -- canonical collapse -------------------------------------------

    def collapse(self, p: Partition, a: int) -> np.ndarray:
        """Matrix of the canonical map cell(p[:a]) (x) cell(p[a:]) -> cell(p).

        The dense form, for tests and small towers; the library applies it
        (`apply_collapse`).  Acts on kron coordinates (prefix index major).
        An interior cut is the dense form of the cached extension step, the
        last cut a = len(p) - 1 the embed of cell(p), and an end cut a = 0
        or a = len(p) the canonical identification with the standard space,
        `apply_collapse` of the identity.  No dense collapse is cached.
        """
        n = len(p)
        if a in (0, n):
            return self.apply_collapse(p, a, np.eye(self.sf.dim * self.cell(p).dim))
        if a == n - 1:
            q = self.cell(p).quotient
            return q.embed_pairs(np.eye(q.hd), np.eye(q.kd))
        return self._step(p, a).dense()

    def apply_collapse(self, p: Partition, a: int, x: np.ndarray,
                       adjoint: bool = False) -> np.ndarray:
        """C x, or C* x with `adjoint`, for C = collapse(p, a) and a column block x.

        No collapse of p is formed.  An interior cut takes the last
        extension step of `collapse` on the columns, through the cached
        collapse of p without its last part; for a = len(p) - 1, C is the
        embed of cell(p), applied through its factors.  Cut 0 acts on rows
        (standard-space index, cell index) by the solve map of `solve_left`
        and then the cell's left map (`Bimodule.left_map`); cut len(p) on
        rows (cell index, standard-space index) by the right parts through
        the solve map of `solve_right` (`Bimodule.right_apply`).
        """
        n, cols, sf, d = len(p), x.shape[1], self.sf, self.sf.dim
        if a == 0:
            lm, solve = self.cell(p).left_map, sf.solve_left_matrix
            if adjoint:
                return (solve.conj().T @ lm.apply(x, adjoint=True).reshape(d, -1)).reshape(-1, cols)
            return lm.apply((solve @ x.reshape(d, -1)).reshape(-1, cols))
        if a == n:
            right, solve = self.cell(p).right_apply, sf.solve_right_matrix
            if adjoint:  # sum_mu conj(solve[mu, i]) right(e_mu)* x, right(e_mu)* = right(e_mu*)
                v = np.tensordot(solve.conj()[sf.algebra.star], right(x), axes=(0, 0))
                return v.transpose(1, 0, 2).reshape(-1, cols)
            # C x = sum_mu right(e_mu) y[..., mu], y[..., mu] = sum_i solve[mu, i] x[i]; one
            # mu at a time, so no d x d stack of products is held
            y = np.tensordot(x.reshape(-1, d, cols).transpose(1, 0, 2), solve, axes=(0, 1))
            return sum(right(y[..., mu])[mu] for mu in range(d))
        if a == n - 1:
            return self.cell(p).quotient.embed_apply(x, adjoint)
        return self._step(p, a).apply(x, adjoint)

    def _step(self, p: Partition, a: int) -> BlockMap:
        """C = E (C' (x) I_g)(I (x) L) in block form, C the cut-a collapse of p, cached.

        E is the embed of cell(p), g the dimension of the GNS coupling of its
        last part, L the lift of cell(p[a:]) and C' the cut-a collapse of p
        without its last part, applied, never formed: the prefix's own cached
        step, or its embed.  Both cells end in that coupling (`bimodule.extension`).
        """
        key = (p.key, a)
        if key not in self._steps:
            prefix = Partition(p.parts[:-1])
            self._steps[key] = extension(self.cell(p), lambda y: self.apply_collapse(
                prefix, a, y, adjoint=True), self.cell(Partition(p.parts[a:])))
        return self._steps[key]

    # -- product structure --------------------------------------------

    def multiply(self, q: Partition, p: Partition) -> BimoduleMap:
        """Unitary from cell(q) (x)_M cell(p) onto cell(q joined with p)."""
        r = relative_tensor(self.cell(q), self.cell(p), self.sf)
        j = self.apply_collapse(join(q, p), len(q), r.quotient.lift_apply(np.eye(r.dim)))
        return BimoduleMap(r, self.cell(join(q, p)), j)

    def refinement(self, p: Partition, q: Partition) -> BimoduleMap:
        """Isometry from the coarse cell(q) into the fine cell(p)."""
        a = self.refine_apply(p, q, np.eye(self.cell(q).dim, dtype=complex))
        return BimoduleMap(self.cell(q), self.cell(p), a)

    def refine_apply(self, p: Partition, q: Partition, x: np.ndarray) -> np.ndarray:
        """The refinement isometry of cell(q) into cell(p), applied to a column block x.

        With the parts of p grouped into those of q, the isometry of the
        first i groups is A_i = J (A_(i-1) (x) F) L: L the lift of
        cell(q[:i]), F the isometry of the GNS coupling at q's part i into
        the cell of its group (`_group`) and J the collapse of p at the
        start of that group (`apply_collapse`).  Each A_i is applied to the
        identity, the last one to x, so no collapse of p is formed.
        """
        groups = grouping(p, q)
        if not groups:
            return x
        last, done = len(groups) - 1, len(groups[0])
        a = self._group(groups[0], q.parts[0])
        for i, sub in enumerate(groups[1:], 1):
            cell = self.cell(Partition(q.parts[:i + 1]))
            cols = x if i == last else np.eye(cell.dim)
            g, c = self.gns(q.parts[i]).dim, cols.shape[1]
            y = (a @ cell.quotient.lift_apply(cols).reshape(a.shape[1], -1)).reshape(-1, g, c)
            y = self._group(sub, q.parts[i]) @ y  # F on the coupling axis: (head, D_sub, c)
            a = self.apply_collapse(Partition(p.parts[:done + len(sub)]), done, y.reshape(-1, c))
            done += len(sub)
        return a if last else a @ x

    def _group(self, sub: Partition, t: Fraction) -> np.ndarray:
        """Isometry F of the GNS coupling at t into cell(sub), sub a partition of t, cached.

        The elementary tensor (y, eta) goes to the elementary tensor of sub
        with y in the first algebra slot, eta in the last standard-space slot
        and the unit's (1, Omega) in every other slot (Bhat and Skeide 2000):
        F is `family` of those slots on the d^2 pairs (y, eta) times the
        coupling's lift, a read-only dim cell(sub) x dim gns(t) matrix.
        """
        if sub.key not in self._groups:
            (eye, one, omega), n, q = self._unit_columns, len(sub), self.gns(t).quotient
            f = self.family(sub.parts, [eye] + [one] * (n - 1), [omega] * (n - 1) + [eye])
            f = f @ q.lift_apply(np.eye(q.dim))
            f.flags.writeable = False
            self._groups[sub.key] = f
        return self._groups[sub.key]


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

class Unit:
    """A section of single-part cells, with the cyclic vector at time zero."""

    def __init__(self, system: CellSystem, vectors: dict[Fraction, np.ndarray]):
        self.system, self.vectors = system, vectors

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


class UnitReport(NamedTuple):
    unital_defect: float
    contraction_excess: float
    factorization_defect: float


def unit_report(unit: Unit) -> UnitReport:
    """Unitality, contractivity and multiplicativity defects of a unit.

    Factorization compares xi_s (x) xi_t with F xi_(s+t) at every grid
    pair, F the isometry of the coupling at s + t into cell((s, t)), one
    group of `refine_apply`, without forming F (`_group`).  F is `family`
    of the slots (y, Omega), (1, eta) times the coupling's lift L, so with
    C = L xi_(s+t) as a d x d matrix over (y, eta), A_s = embed_s(y (x)
    Omega) and B_t = embed_t(1 (x) eta) as columns over y and eta,
    xi_s (x) xi_t - F xi_(s+t) is the embed of cell((s, t)) applied to
    xi_s xi_t^T - A_s C B_t^T.  A and B are built once per time, C once
    per sum.
    """
    cs, sf = unit.system, unit.system.sf
    one = sf.algebra.identity()
    unital, excess, fact = 0.0, 0.0, 0.0
    times, keys = unit.times, list(unit.vectors)
    for t in times:
        xi = unit.vectors[t][:, None]
        elements, res, _ = inner(cs.cell(Partition((t,))), xi, xi, sf)
        m = sf.algebra.from_vec(elements[0, 0])
        unital = max(unital, (m - one).norm(), res)
        excess = max(excess, m.norm() - 1.0)
    (eye, identity, omega), d = cs._unit_columns, sf.dim
    xis = [unit.vectors[t] for t in times]
    a = [cs.gns(t).quotient.embed_pairs(eye, omega) for t in times]
    b = [cs.gns(t).quotient.embed_pairs(identity, eye) for t in times]
    pairs = sum_pairs(times, keys)
    c = {k: cs.gns(keys[k]).quotient.lift_apply(unit.vectors[keys[k]][:, None]).reshape(d, d)
         for k in {k for _, _, k in pairs}}
    for i, j, k in pairs:
        miss = np.outer(xis[i], xis[j]) - a[i] @ c[k] @ b[j].T
        v = cs.cell(Partition((times[i], times[j]))).quotient.embed_apply(miss.reshape(-1, 1))
        fact = max(fact, float(np.linalg.norm(v)))
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
        elements, res, scale = inner(cell, xi[:, None], cell.left_apply(xi[:, None])[..., 0].T, sf)
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
                      [(times[i], times[j]) for i, j, _ in sum_pairs(times, list(maps))])


def span_multiplicity(g: Bimodule, xi: np.ndarray) -> np.ndarray:
    """Multiplicity matrix m of F = span(M xi M), the sub-bimodule of g that xi generates.

    F is the sum over block pairs (i, j) of C^n_i (x) C^m[i, j] (x) C^n_j, so
    dim F = n^T m n, and m[i, j] is the dimension of the corner e^i_11 F e^j_11:
    the rank of the n_i n_j vectors e^i_1a xi e^j_b1, which span it.
    """
    alg, right = g.algebra, g.right_apply(xi[:, None])[..., 0]
    units = list(zip(alg.offsets, alg.blocks))
    # block j: e_mu xi e^j_b1 for every mu and b, of which e^i_1a are rows o_i:o_i + n_i
    moved = [g.left_apply(right[o:o + n * n:n].T) for o, n in units]
    return np.array([[numerical_rank(v[o:o + n].transpose(1, 0, 2).reshape(g.dim, -1))
                      for v in moved] for o, n in units])


def generating_rank(unit: Unit, p: Partition) -> tuple[int, int]:
    """Rank of the unit's elementary tensors at p, and the dim of cell(p).

    Slot i holds the algebra acting on the unit vector xi_i of part i, the
    last also the algebra from the right; by unit factorization the refined
    tensors of every coarsening of p are among them.  Their rank is n^T m_1
    ... m_n n, with n the block sizes and m_i the multiplicity matrix of F_i =
    span(M xi_i M) (`span_multiplicity`), so no family of cell(p) is ranked.
    Proof: the tail of x_1 xi_1 (x) ... (x) x_n xi_n y is a left module and
    xi a (x) eta = xi (x) a eta, so the span is F_1 (x)_M ... (x)_M F_n.  Each
    F_i is a bimodule summand of its cell, so this sits isometrically in
    cell(p).  Over a middle block j the corners multiply as C^m[i, j] (x)
    C^m'[j, k], so multiplicity matrices multiply (Bratteli, "Inductive
    limits of finite dimensional C*-algebras", 1972).
    """
    cs, n = unit.system, np.array(unit.system.sf.algebra.blocks)
    m = np.eye(len(n), dtype=int)
    for t in p.parts:
        if t not in unit.vectors:
            raise ValueError(f"unit has no vector at time {t}")
        m = m @ span_multiplicity(cs.gns(t), unit.vectors[t])
    return int(n @ m @ n), cs.cell(p).dim
