"""Unital completely positive maps and one-parameter semigroups of them.

Maps act on algebra coordinates as dense complex matrices, real for a real
generator.  Semigroups are of exponential type: a generator L with L(1) = 0,
whose e^{tL} `evaluate` computes once per time and caches read-only.
Complete positivity is verified a posteriori through the Choi matrix,
assembled per block pair of the algebra after extending the map by the
block-diagonal conditional expectation.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .algebra import Algebra, AlgebraElement, ConfigurationError, expm, lmult_matrix, rmult_matrix


class NonFiniteActionError(ValueError):
    """Raised for an e^{tL} with NaN or infinite entries, naming t."""


class CpMap(NamedTuple):
    """A linear map on algebra coordinates, expected to be unital CP."""

    algebra: Algebra
    action: np.ndarray

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vec(self.action @ x.vec())

    def compose(self, other: "CpMap") -> "CpMap":
        return CpMap(self.algebra, self.action @ other.action)


class UcpReport(NamedTuple):
    unital_defect: float
    choi_min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.unital_defect <= self.tol and self.choi_min_eigenvalue >= -self.tol


def choi_blocks(f: CpMap) -> list[np.ndarray]:
    """Choi matrices of the map, one per ordered pair of algebra blocks.

    The map is first extended from the block-diagonal algebra to the full
    matrix algebra of the containing Hilbert space by the conditional
    expectation that truncates to the diagonal blocks; that extension is CP
    exactly when the original map is.  Off-diagonal matrix units are killed
    by the expectation, so the Choi matrix decomposes over pairs
    (input block, output block).  Entry ((r, r'), (c, c')) of a pair's
    Choi matrix is entry (r', c') of the image of e_rc, so each is one slice
    of the action, rows (r', c') and columns (r, c), transposed.
    """
    alg, out = f.algebra, []
    for oi, ni in zip(alg.offsets, alg.blocks):
        for oo, no in zip(alg.offsets, alg.blocks):
            images = f.action[oo:oo + no * no, oi:oi + ni * ni].reshape(no, no, ni, ni)
            out.append(images.transpose(2, 0, 3, 1).reshape(ni * no, -1).astype(complex))
    return out


def verify_ucp(f: CpMap, tol: float = 1e-10) -> UcpReport:
    """Check unitality and complete positivity of a map."""
    one = f.algebra.identity()
    unital_defect = (f(one) - one).norm()
    min_eig = min(
        np.linalg.eigvalsh((c + c.conj().T) / 2).min() for c in choi_blocks(f)
    )
    return UcpReport(unital_defect, float(min_eig), tol)


class CpSemigroup:
    """Exponential semigroup of maps on algebra coordinates."""

    def __init__(self, algebra: Algebra, generator: np.ndarray):
        self.algebra, self.generator = algebra, generator
        self._cache, self._lock = {}, threading.Lock()

    def __call__(self, t) -> CpMap:
        return evaluate(self, t)


def semigroup_from_generator(algebra: Algebra, generator: np.ndarray) -> CpSemigroup:
    """Wrap a coordinate generator as a semigroup; requires L(1) = 0.  A real one stays real."""
    gen = np.asarray(generator)
    gen = gen.astype(np.result_type(gen.dtype, float), copy=False)
    d = algebra.dim
    if gen.shape != (d, d):
        raise ConfigurationError(f"generator shape {gen.shape} != ({d}, {d})")
    if not np.isfinite(gen).all():
        raise ConfigurationError("generator has non-finite entries")
    one = algebra.identity().vec()
    defect = np.linalg.norm(gen @ one)
    if defect > 1e-10:
        raise ConfigurationError(f"generator does not annihilate the identity ({defect:.3e})")
    return CpSemigroup(algebra, gen)


def evaluate(sg: CpSemigroup, t) -> CpMap:
    """The semigroup element e^{tL} at time t >= 0 in the generator's dtype, computed
    once per float(t): every caller at t shares its cached read-only action.  An action
    with NaN or infinite entries, or none to compute because t or tL overflows a float,
    raises `NonFiniteActionError`, and nothing is cached."""
    try:
        tf = float(t)
    except OverflowError:
        raise NonFiniteActionError(f"e^(tL) at t = {t} has no float time to evaluate") from None
    if tf < 0:
        raise ValueError(f"negative time {t}")
    key = tf
    with sg._lock:
        hit = sg._cache.get(key)
    if hit is not None:
        return hit
    if tf == 0.0:
        action = np.eye(sg.algebra.dim, dtype=sg.generator.dtype)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            tl = tf * sg.generator  # expm refuses a tL whose 1-norm overflows
            action = expm(tl) if np.isfinite(np.abs(tl).sum(axis=0)).all() else None
        if action is None or not np.isfinite(action).all():
            raise NonFiniteActionError(f"e^(tL) at t = {t} has NaN or infinite entries")
    action.flags.writeable = False
    result = CpMap(sg.algebra, action)
    with sg._lock:
        sg._cache[key] = result
    return result


def law_defect(action_at: Callable[[Any], np.ndarray], pairs: Iterable[tuple]) -> float:
    """Largest defect of action(s) action(t) = action(s + t) over the time pairs.

    Defects are spectral norms of coordinate matrices, one batched norm over
    the stacked pairs; no pairs give zero.
    """
    pairs = list(pairs)
    if not pairs:
        return 0.0
    first, second, total = (np.stack([action_at(x) for x in times])
                            for times in zip(*[(s, t, s + t) for s, t in pairs]))
    return float(np.linalg.norm(first @ second - total, 2, axis=(-2, -1)).max())


# ---------------------------------------------------------------------------
# Builtin generators
# ---------------------------------------------------------------------------

def identity_generator(algebra: Algebra) -> np.ndarray:
    return np.zeros((algebra.dim, algebra.dim), dtype=complex)


def stochastic_pair_generator() -> tuple[Algebra, np.ndarray]:
    """Two-point commutative algebra with the one-way jump generator.

    On coordinates (a, b) the generator sends (a, b) to (b - a, 0), so the
    semigroup acts as the stochastic matrices
    [[exp(-t), 1 - exp(-t)], [0, 1]].
    """
    algebra = Algebra((1, 1))
    gen = np.array([[-1.0, 1.0], [0.0, 0.0]], dtype=complex)
    return algebra, gen


def unitary_conjugation_generator(algebra: Algebra, h: AlgebraElement) -> np.ndarray:
    """Generator of t -> (x -> exp(-itH) x exp(itH)) for Hermitian H."""
    herm = max(np.linalg.norm(m - m.conj().T) for m in h.mats)
    if herm > 1e-12:
        raise ConfigurationError("conjugation generator needs a Hermitian element")
    return 1j * (rmult_matrix(h) - lmult_matrix(h))


def lindblad_generator(
    algebra: Algebra,
    jumps: list[AlgebraElement],
    hamiltonian: AlgebraElement | None = None,
) -> np.ndarray:
    """Heisenberg-picture generator of a quantum Markov semigroup.

    L(x) = i[H, x] + sum_k V_k* x V_k - (V_k* V_k x + x V_k* V_k) / 2.
    """
    d = algebra.dim
    gen = np.zeros((d, d), dtype=complex)
    if hamiltonian is not None:
        gen += 1j * (lmult_matrix(hamiltonian) - rmult_matrix(hamiltonian))
    for v in jumps:
        vs = v.adjoint()
        vsv = vs * v
        gen += lmult_matrix(vs) @ rmult_matrix(v)
        gen -= 0.5 * (lmult_matrix(vsv) + rmult_matrix(vsv))
    return gen
