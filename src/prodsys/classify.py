"""Endomorphism semigroups, twisted cells and cocycle classification.

An inner semigroup is `cpdyn.evaluate` of a conjugation generator, so its
actions share the semigroup cache.  An endomorphism semigroup acting on the
standard space by a twisted left action gives, for each time, a copy of the
standard space whose left action is routed through the endomorphism.  These
twisted cells multiply by materializing the first factor and pushing it
through the endomorphism, which makes the cyclic vectors a generating
unital unit.  Two semigroups are cocycle equivalent exactly when their
twisted systems are isomorphic.  On a grid the solver decides it by the
integer multiplicity matrices of the two endomorphisms at the grid step; a
positive answer carries the matrix-unit intertwiner there, extended by the
cocycle law and certified by the conjugation identity at every grid
time.  The grid checks are stacked: the action matrices and cocycle values
of the grid times are stacked once per call, the grid pairs of the law are
rows of one product, and every defect is one batched operator norm per
block size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import (
    Algebra, AlgebraElement, StandardForm, lmult_matrix, projection_range, rmult_matrix,
)
from .bimodule import Bimodule, BimoduleMap, extend_from_family
from .cells import CellSystem
from .cpdyn import evaluate, semigroup_from_generator, unitary_conjugation_generator
from .partition import Partition, sum_pairs


class E0Semigroup:
    """Family of unital endomorphisms given by a coordinate-action callable."""

    def __init__(self, algebra: Algebra, action_at: Callable[[Fraction], np.ndarray]):
        self.algebra, self.action_at = algebra, action_at

    def map_at(self, t) -> np.ndarray:
        return self.action_at(Fraction(t))

    def apply(self, t, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vec(self.map_at(t) @ x.vec())


def inner_semigroup(algebra: Algebra, h: AlgebraElement) -> E0Semigroup:
    """Conjugation by the unitary group of a Hermitian element: `evaluate` of its generator."""
    sg = semigroup_from_generator(algebra, unitary_conjugation_generator(algebra, h))
    return E0Semigroup(algebra, lambda t: evaluate(sg, t).action)


def identity_semigroup(algebra: Algebra) -> E0Semigroup:
    eye = np.eye(algebra.dim, dtype=complex)
    return E0Semigroup(algebra, lambda t: eye)


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

    return E0Semigroup(algebra, action)


class EndomorphismReport(NamedTuple):
    multiplicative_defect: float
    adjoint_defect: float
    unital_defect: float

    @property
    def worst(self) -> float:
        return max(self.multiplicative_defect, self.adjoint_defect, self.unital_defect)

    def passed(self, tol: float) -> bool:
        return self.worst <= tol


def endomorphism_report(theta: E0Semigroup, t) -> EndomorphismReport:
    """Defects of theta_t as a unital *-map and as a product map on basis pairs."""
    mult, adjoint, unital = _endomorphism_defects(theta.algebra, theta.map_at(t)[None])
    return EndomorphismReport(float(mult[0]), float(adjoint[0]), float(unital[0]))


def _endomorphism_defects(alg: Algebra, actions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Multiplicative, adjoint and unital defects of each action matrix in a stack (L, d, d).

    Column mu of an action matrix is the image of e_mu, so every defect is
    a stack of coordinate differences, all measured in one `_norms`.
    """
    d, count, eye = alg.dim, len(actions), np.eye(alg.dim)
    units = actions.transpose(0, 2, 1)  # [l, mu]: theta_l(e_mu)
    mult = (_mul(alg, eye[:, None], eye[None]) @ units[:, None]  # theta(e_mu e_nu)
            - _mul(alg, units[:, :, None], units[:, None]))
    adjoint = units[:, alg.star] - units.conj()[..., alg.star]
    one = alg.identity().vec()
    norms = _norms(alg, np.concatenate([mult.reshape(count, d * d, d), adjoint,
                                        (actions @ one - one)[:, None]], axis=1))
    return norms[:, :d * d].max(axis=1), norms[:, d * d:-1].max(axis=1), norms[:, -1]


def _mul(alg: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of two broadcastable stacks of algebra coordinates (..., d), block by block."""
    shape = np.broadcast_shapes(x.shape, y.shape)
    out = np.empty(shape, dtype=complex)
    for o, n in zip(alg.offsets, alg.blocks):
        b = slice(o, o + n * n)
        prod = x[..., b].reshape(*x.shape[:-1], n, n) @ y[..., b].reshape(*y.shape[:-1], n, n)
        out[..., b] = prod.reshape(*shape[:-1], n * n)
    return out


def _norms(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """`AlgebraElement.norm` of each element of a stack of algebra coordinates (..., d),
    with one batched SVD per block size."""
    out = np.zeros(x.shape[:-1])
    for n in dict.fromkeys(alg.blocks):
        offs = [o for o, m in zip(alg.offsets, alg.blocks) if m == n]
        b = np.stack([x[..., o:o + n * n] for o in offs], axis=-2)
        b = b.reshape(*out.shape, len(offs), n, n)
        out = np.maximum(out, np.linalg.norm(b, 2, axis=(-2, -1)).max(axis=-1))
    return out


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

class EquivalenceReport(NamedTuple):
    equivalent: bool
    cocycle: dict[Fraction, AlgebraElement] | None
    conjugation_defect: float
    cocycle_law_defect: float
    failures: tuple
    # for an equivalent pair, per grid time: the conjugation and unitarity defect of w_t
    conjugation_defects: dict[Fraction, float]

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
        return EquivalenceReport(False, None, conj, law, ((t, reason, defect),), {})

    # reshaped, not stacked, here and below: an empty grid gives an empty stack
    beta_maps = np.reshape([beta.map_at(t) for t in times], (-1, algebra.dim, algebra.dim))
    worst = np.max(_endomorphism_defects(algebra, beta_maps), axis=0)
    if bad := np.flatnonzero(~(worst <= 1e-9)).tolist():
        return refused(times[bad[0]], "beta is not an endomorphism", float(worst[bad[0]]))

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

    given = list(takewhile(w.__contains__, times))  # up to the first time without a value
    conj = _conjugation_defects(alpha, beta, w, given)
    running = np.maximum.accumulate(conj)  # the worst defect up to each time
    if bad := np.flatnonzero(conj > tol).tolist():
        return refused(given[bad[0]], "conjugation identity fails", float(conj[bad[0]]),
                       conj=float(running[bad[0]]))
    if len(given) < len(times):
        return refused(times[len(given)], "cocycle has no value at grid time")
    conj_defect = float(running.max(initial=0.0))

    defects = cocycle_law_defects(alpha, w, times)
    law = max(defects.values(), default=0.0)
    if law > tol:
        first = min(st for st, d in defects.items() if d > tol)
        return refused(first, "cocycle law fails", law, conj=conj_defect, law=law)

    return EquivalenceReport(True, w, conj_defect, law, (), dict(zip(times, conj.tolist())))


def _conjugation_defects(alpha: E0Semigroup, beta: E0Semigroup, w: dict,
                         times: Sequence[Fraction]) -> np.ndarray:
    """Per time t, the largest of ||w_t* w_t - 1|| and ||beta_t(e_mu) - w_t* alpha_t(e_mu) w_t||
    over the basis, in one stack; column mu of an action matrix is the image of e_mu."""
    alg, d = alpha.algebra, alpha.algebra.dim
    a, b = (np.reshape([theta.map_at(t) for t in times], (-1, d, d)).transpose(0, 2, 1)
            for theta in (alpha, beta))
    wt = np.reshape([w[t].vec() for t in times], (-1, d))
    ws = wt.conj()[:, alg.star]
    unitary = _mul(alg, ws, wt) - alg.identity().vec()
    moved = _mul(alg, _mul(alg, ws[:, None], a), wt[:, None])
    return _norms(alg, np.concatenate([unitary[:, None], b - moved], axis=1)).max(axis=1)


def cocycle_law_defects(theta: E0Semigroup, w: dict, times) -> dict[Fraction, float]:
    """Worst defect of w(s + t) = theta_t(w(s)) w(t) per sum s + t at which w is given,
    over every grid pair (`partition.sum_pairs`) at once; sums in pair order."""
    alg, keys = theta.algebra, list(w)
    pairs = sum_pairs(times, keys)
    if not pairs:
        return {}
    i, j, k = np.array(pairs).T
    vecs = np.stack([w[t].vec() for t in times])
    maps = np.stack([theta.map_at(t) for t in times])
    moved = _mul(alg, (maps[j] @ vecs[i][..., None])[..., 0], vecs[j])
    total = np.stack([w[t].vec() for t in keys])[k]
    worst = np.zeros(len(keys))
    np.maximum.at(worst, k, _norms(alg, total - moved))
    return {keys[m]: float(worst[m]) for m in dict.fromkeys(k.tolist())}


def unit_to_cocycle(theta: E0Semigroup, xi: dict,
                    sf: StandardForm) -> tuple[dict[Fraction, AlgebraElement], float]:
    """Materialize a unit of the twisted system into a cocycle in the algebra.

    Each unit vector is the image of a unique algebra element against the
    cyclic vector; the family then satisfies the cocycle law for theta.
    """
    a = {Fraction(t): sf.solve_left(np.asarray(v, dtype=complex)) for t, v in xi.items()}
    defects = cocycle_law_defects(theta, a, sorted(a))
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
