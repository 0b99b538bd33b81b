"""Endomorphism semigroups, twisted cells and cocycle classification.

An endomorphism semigroup acting on the standard space by a twisted left
action gives, for each time, a copy of the standard space whose left action
is routed through the endomorphism.  These twisted cells multiply by
materializing the first factor and pushing it through the endomorphism,
which makes the cyclic vectors a generating unital unit.  Two semigroups
are cocycle equivalent exactly when their twisted systems are isomorphic.
On a grid the solver decides it by the integer multiplicity matrices of
the two endomorphisms at the grid step; a positive answer carries the
matrix-unit intertwiner there, extended by the cocycle law and certified
by the conjugation identity at every grid time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    Algebra, AlgebraElement, StandardForm, block_diag, expm, lmult_matrix, projection_range,
    rmult_matrix,
)
from .bimodule import Bimodule, BimoduleMap, extend_from_family
from .cells import CellSystem
from .partition import Partition


@dataclass
class E0Semigroup:
    """Family of unital endomorphisms given by a coordinate-action callable."""

    algebra: Algebra
    action_at: Callable[[Fraction], np.ndarray]
    label: str = "custom"

    def map_at(self, t) -> np.ndarray:
        return self.action_at(Fraction(t))

    def apply(self, t, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vec(self.map_at(t) @ x.vec())


def inner_semigroup(algebra: Algebra, h: AlgebraElement) -> E0Semigroup:
    """Conjugation by the unitary group of a Hermitian element."""
    herm = max(np.linalg.norm(m - m.conj().T) for m in h.mats)
    if herm > 1e-12:
        raise ValueError("inner semigroup needs a Hermitian element")

    @functools.cache
    def action(t: Fraction) -> np.ndarray:
        blocks = []
        for hb, n in zip(h.mats, algebra.blocks):
            u = expm(1j * float(t) * hb)
            blocks.append(np.kron(u.conj().T, u.T))
        out = block_diag(*blocks)
        out.flags.writeable = False  # cached, shared by every map_at at t
        return out

    return E0Semigroup(algebra, action, label="inner")


def identity_semigroup(algebra: Algebra) -> E0Semigroup:
    eye = np.eye(algebra.dim, dtype=complex)
    return E0Semigroup(algebra, lambda t: eye, label="identity")


def block_permutation_semigroup(algebra: Algebra, perm: Sequence[int], delta) -> E0Semigroup:
    """Grid semigroup cycling the blocks by powers of a permutation.

    Only defined at multiples of the grid step.  The permuted blocks must
    have equal sizes so that the coordinate shuffle is a *-endomorphism.
    """
    perm = tuple(perm)
    sizes = algebra.blocks
    if sorted(perm) != list(range(len(sizes))):
        raise ValueError(f"not a permutation of blocks: {perm}")
    if any(sizes[i] != sizes[perm[i]] for i in range(len(sizes))):
        raise ValueError("permuted blocks must have equal sizes")
    delta = Fraction(delta)
    base, offs = np.zeros((algebra.dim, algebra.dim), dtype=complex), algebra.offsets
    for i, n in enumerate(sizes):  # output block i carries input block perm[i]
        base[offs[i]:offs[i] + n * n, offs[perm[i]]:offs[perm[i]] + n * n] = np.eye(n * n)

    def action(t: Fraction) -> np.ndarray:
        k = t / delta
        if k.denominator != 1 or k < 0:
            raise ValueError(f"time {t} is not a multiple of the grid step {delta}")
        return np.linalg.matrix_power(base, int(k))

    return E0Semigroup(algebra, action, label="block_permutation")


@dataclass(frozen=True)
class EndomorphismReport:
    multiplicative_defect: float
    adjoint_defect: float
    unital_defect: float

    @property
    def worst(self) -> float:
        return max(self.multiplicative_defect, self.adjoint_defect, self.unital_defect)

    def passed(self, tol: float) -> bool:
        return self.worst <= tol


def endomorphism_report(theta: E0Semigroup, t) -> EndomorphismReport:
    """Defects of theta_t as a unital *-map and as a product map on basis pairs.

    The images of the matrix units are the columns of one action matrix.
    A product of two matrix units is a matrix unit or zero and the adjoint
    of one is another, so every defect is a batch of differences of those
    images, measured in the largest block spectral norm.
    """
    alg = theta.algebra
    d = alg.dim
    action = theta.map_at(t)
    units = [(b, r, c) for b, n in enumerate(alg.blocks) for r in range(n) for c in range(n)]
    where = {u: i for i, u in enumerate(units)}
    # prod[mu, nu]: index of the product of units mu and nu, d when it is zero
    prod = np.array([[where[(b, r, c2)] if (b, c) == (b2, r2) else d
                      for b2, r2, c2 in units] for b, r, c in units])
    adj = np.array([where[(b, c, r)] for b, r, c in units])
    images = np.hstack([action, np.zeros((d, 1))])
    mult = adjoint = 0.0
    for off, m in zip(alg.offsets, alg.blocks):
        tb = images[off:off + m * m].T.reshape(d + 1, m, m)
        mult = max(mult, np.linalg.norm(tb[prod] - tb[:d, None] @ tb[None, :d],
                                        2, axis=(-2, -1)).max())
        adjoint = max(adjoint, np.linalg.norm(tb[adj] - tb[:d].conj().swapaxes(1, 2),
                                              2, axis=(-2, -1)).max())
    one = alg.identity()
    unital = (alg.from_vec(action @ one.vec()) - one).norm()
    return EndomorphismReport(float(mult), float(adjoint), float(unital))


# ---------------------------------------------------------------------------
# Twisted cells
# ---------------------------------------------------------------------------

def twisted_cell(theta: E0Semigroup, t, sf: StandardForm) -> Bimodule:
    """Standard space with left action routed through the endomorphism."""
    left = np.stack([lmult_matrix(theta.apply(t, x)) for x in sf.algebra.basis()])
    return Bimodule(sf.algebra, sf.dim, left, sf.rmult_basis)


class TwistedSystem:
    """The product system of twisted cells with its explicit multiplication."""

    def __init__(self, theta: E0Semigroup, sf: StandardForm):
        self.theta = theta
        self.sf = sf
        self._cells: dict[Fraction, Bimodule] = {}

    def cell(self, t) -> Bimodule:
        t = Fraction(t)
        if t not in self._cells:
            self._cells[t] = twisted_cell(self.theta, t, self.sf)
        return self._cells[t]

    def fold(self, parts: Sequence[Fraction]) -> np.ndarray:
        """Multiplied elementary vectors with nested endomorphism images.

        Column (x_1, y_1, ..., x_n, y_n), in kron order over the algebra
        basis, is theta(... theta(x_1) y_1 ... x_n) y_n against the cyclic
        vector, each theta at the time of its part.
        """
        alg, rights = self.sf.algebra, self.sf.rmult_basis
        acc = alg.identity().vec()[:, None]
        for t in parts:
            # theta_t(a x) y = rmult(y) theta_t rmult(x) a, indexed [x, y]
            step = rights[None] @ (self.theta.map_at(t) @ rights)[:, None]
            acc = np.einsum("xyab,bj->ajxy", step, acc).reshape(alg.dim, -1)
        return self.sf.embed_left_matrix @ acc


def canonical_iso(theta: E0Semigroup, cs: CellSystem, p: Partition,
                  ts: TwistedSystem | None = None) -> tuple[BimoduleMap, float]:
    """Collapse of the semigroup cell at p onto the twisted cell of its total.

    Elementary tensors go to the nested endomorphism images of their slots;
    the defect reported is the extension residual on the defining family.
    """
    sf = cs.sf
    if ts is None:
        ts = TwistedSystem(theta, sf)
    z = cs.family(p.parts, [np.eye(sf.dim)] * len(p), [sf.embed_left_matrix] * len(p))
    u, defect = extend_from_family(z, ts.fold(p.parts))
    return BimoduleMap(cs.cell(p), ts.cell(p.total), u), defect


# ---------------------------------------------------------------------------
# Cocycle equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    cocycle: dict[Fraction, AlgebraElement] | None
    conjugation_defect: float
    cocycle_law_defect: float
    failures: tuple = ()

    @property
    def first_failing_time(self) -> Fraction | None:
        return self.failures[0][0] if self.failures else None


def multiplicity_matrix(action: np.ndarray, algebra: Algebra) -> np.ndarray:
    """Multiplicity matrix of the unital *-homomorphism with this coordinate action.

    m[i, j] is the rank of the block-i part of theta(e^j_11) under the range
    rule (`projection_range`): the copies of block j that theta puts in
    block i.  Unital *-homomorphisms are unitarily equivalent exactly when
    their matrices agree (Bratteli, "Inductive limits of finite dimensional
    C*-algebras", 1972).
    """
    return np.array([[projection_range(b).shape[1] for b in algebra.from_vec(action[:, o]).mats]
                     for o in algebra.offsets], dtype=int).T


def _matrix_unit_intertwiner(alpha_t: np.ndarray, beta_t: np.ndarray,
                             algebra: Algebra) -> AlgebraElement:
    """Unitary u with u beta(x) = alpha(x) u, for equal multiplicity matrices.

    u = sum_j sum_r alpha(e^j_r1) V_j beta(e^j_1r), where V_j is A_i B_i* on
    block i and A_i, B_i are orthonormal range bases of the block-i parts of
    alpha(e^j_11) and beta(e^j_11), of equal width as the matrices agree.
    So V_j* V_j = beta(e^j_11) and V_j V_j* = alpha(e^j_11), and the
    matrix-unit relations give u beta(e_rc) = alpha(e_r1) V_j beta(e_1c) =
    alpha(e_rc) u and u* u = sum beta(e_r1) V_j* V_j beta(e_1r) = sum
    beta(e_rr) = 1, the cross terms vanishing.
    """
    u = 0 * algebra.identity()
    for o, n in zip(algebra.offsets, algebra.blocks):
        ea, eb = ([algebra.from_vec(c) for c in m[:, o:o + n * n].T] for m in (alpha_t, beta_t))
        v = algebra.element([projection_range(a) @ projection_range(b).conj().T
                             for a, b in zip(ea[0].mats, eb[0].mats)])
        for r in range(n):  # e_rc is unit r n + c of the block
            u = u + ea[r * n] * v * eb[r]
    return u


def cocycle_equivalence(alpha: E0Semigroup, beta: E0Semigroup,
                        delta, levels: int, tol: float = 1e-9,
                        cocycle: dict | None = None) -> EquivalenceReport:
    """Decide cocycle equivalence on a grid and certify the witness.

    The cocycle law fixes a grid cocycle by w_delta, so alpha and beta are
    equivalent exactly when alpha_delta and beta_delta are unitarily
    equivalent: when their multiplicity matrices agree.  Forward mode
    checks alpha_delta as an endomorphism (then each alpha_delta(e_11) is a
    projection to 1e-9, well inside the margin of the range rule), answers
    *not equivalent* naming both matrices when they differ, and otherwise
    extends the matrix-unit intertwiner w_delta along the grid by the
    cocycle law.  Backward mode verifies a declared cocycle instead.  Either
    way *equivalent* needs the conjugation identity at every grid time and
    the cocycle law; failures carry the first grid time that broke down.
    """
    algebra = alpha.algebra
    delta = Fraction(delta)
    times = [delta * k for k in range(1, levels + 1)]

    def refused(t, reason, defect=np.inf, conj=np.inf, law=np.inf):
        return EquivalenceReport(False, None, conj, law, ((t, reason, defect),))

    for t in times:
        rep = endomorphism_report(beta, t)
        if not rep.passed(1e-9):
            return refused(t, "beta is not an endomorphism", rep.worst)

    if cocycle is None:
        rep = endomorphism_report(alpha, delta)
        if not rep.passed(1e-9):
            return refused(delta, "alpha is not an endomorphism", rep.worst)
        alpha_d, beta_d = alpha.map_at(delta), beta.map_at(delta)
        ma, mb = multiplicity_matrix(alpha_d, algebra), multiplicity_matrix(beta_d, algebra)
        if not np.array_equal(ma, mb):
            return refused(delta, f"not equivalent: multiplicity matrices {ma.tolist()} "
                           f"(alpha) and {mb.tolist()} (beta) differ at the grid step")
        w_delta = _matrix_unit_intertwiner(alpha_d, beta_d, algebra)
        w = {times[0]: w_delta}
        for k in range(2, levels + 1):
            w[delta * k] = alpha.apply(delta, w[delta * (k - 1)]) * w_delta
    else:
        w = {Fraction(t): v for t, v in cocycle.items()}

    conj_defect = 0.0
    for t in times:
        if t not in w:
            return refused(t, "cocycle has no value at grid time")
        wt = w[t]
        worst = max(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0]), 2) for b in wt.mats)
        ws = wt.adjoint()
        for x in algebra.basis():
            worst = max(worst, (beta.apply(t, x) - ws * alpha.apply(t, x) * wt).norm())
        conj_defect = max(conj_defect, worst)
        if worst > tol:
            return refused(t, "conjugation identity fails", worst, conj=conj_defect)

    defects = cocycle_law_defects(alpha, w, times)
    law = max(defects.values(), default=0.0)
    if law > tol:
        first = min(st for st, d in defects.items() if d > tol)
        return refused(first, "cocycle law fails", law, conj=conj_defect, law=law)

    return EquivalenceReport(True, w, conj_defect, law)


def cocycle_law_defects(theta: E0Semigroup, w: dict, times) -> dict[Fraction, float]:
    """Worst defect of w(s + t) = theta_t(w(s)) w(t) per sum s + t at which w is given."""
    out: dict[Fraction, float] = {}
    for s in times:
        for t in times:
            if (s + t) in w:
                d = (w[s + t] - theta.apply(t, w[s]) * w[t]).norm()
                out[s + t] = max(out.get(s + t, 0.0), d)
    return out


def unit_to_cocycle(theta: E0Semigroup, xi: dict,
                    sf: StandardForm) -> tuple[dict[Fraction, AlgebraElement], float]:
    """Materialize a unit of the twisted system into a cocycle in the algebra.

    Each unit vector is the image of a unique algebra element against the
    cyclic vector; the family then satisfies the cocycle law for theta.
    """
    a = {Fraction(t): sf.solve_left(np.asarray(v, dtype=complex)) for t, v in xi.items()}
    defects = cocycle_law_defects(theta, a, sorted(t for t in a if t > 0))
    return a, max(defects.values(), default=0.0)


def unit_operator(theta: E0Semigroup, a: dict, sf: StandardForm) -> dict[Fraction, np.ndarray]:
    """Intertwining semigroup on the standard space built from a cocycle.

    Requires the tracial state: the operator sends x against the cyclic
    vector to the endomorphism image of x times the cocycle value.  The
    returned family intertwines left multiplications through theta.
    """
    total = sum(sf.algebra.blocks)
    for dmat, n in zip(sf.state.density, sf.algebra.blocks):
        if np.linalg.norm(dmat - np.eye(n) / total) > 1e-12:
            raise ValueError("unit operators are only provided for the tracial state")
    root = sf.algebra.element(sf.root)
    return {Fraction(t): rmult_matrix(at * root) @ theta.map_at(t) @ sf.solve_left_matrix
            for t, at in a.items()}
