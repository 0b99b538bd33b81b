from fractions import Fraction

import numpy as np
import pytest

from prodsys.algebra import diagonal_state, make_algebra, make_state, standard_form
from prodsys.cpdyn import (
    lindblad_generator,
    semigroup_from_generator,
    stochastic_pair_generator,
)

SEED = 20250808


def random_element(algebra, rng):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in algebra.blocks]
    return algebra.element(mats)


def random_hermitian(algebra, rng):
    x = random_element(algebra, rng)
    return algebra.element([(m + m.conj().T) / 2 for m in x.mats])


def random_state(algebra, rng):
    mats = []
    for n in algebra.blocks:
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(w @ w.conj().T + 0.4 * np.eye(n))
    total = sum(np.trace(m).real for m in mats)
    return make_state(algebra, [m / total for m in mats])


def mixed_semigroup():
    """Block-mixing semigroup on [1, 2] with a non-tracial state."""
    alg = make_algebra([1, 2])
    # E(a (+) B) = (tr B / 2) (+) a I, completely positive and unital
    expectation = np.zeros((5, 5), dtype=complex)
    expectation[0, 1] = expectation[0, 4] = 0.5
    expectation[1, 0] = expectation[4, 0] = 1.0
    sg = semigroup_from_generator(alg, expectation - np.eye(5))
    state = make_state(alg, [np.array([[0.4]]), np.diag([0.3, 0.3])])
    return sg, standard_form(alg, state)


def reversible_chain(seed, m):
    """Seeded reversible chain on m states: weights and a weight-symmetric Laplacian.

    Conductances c_ij = c_ji > 0 on the complete graph give L_ij = -c_ij / mu_i
    off the diagonal; the diagonal makes the rows sum to zero.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, m)
    mu /= mu.sum()
    c = np.triu(rng.uniform(0.2, 1.0, (m, m)), 1)
    lap = -(c + c.T) / mu[:, None]
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return mu, lap


def cell_target_elementary(cs, unit, parts):
    """Every unit tensor at `parts`, unthinned; the reference for the thin unit fold.

    Column (x_1, ..., x_n, y), in kron order over the algebra basis, fuses
    x_i acting on the unit vector of each part, y on the last from the right.
    """
    slots = [(cs.gns(t).left @ unit.vectors[Fraction(t)]).T for t in parts]
    last = cs.gns(parts[-1])
    slots[-1] = np.einsum("yab,bx->axy", last.right, slots[-1]).reshape(last.dim, -1)
    return cs.fuse(parts, slots)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def pair():
    """Two-point algebra with the one-way jump semigroup and balanced state."""
    algebra, gen = stochastic_pair_generator()
    sf = standard_form(algebra, diagonal_state(algebra, [0.5, 0.5]))
    return semigroup_from_generator(algebra, gen), sf


@pytest.fixture
def m2_lindblad():
    """Seeded dissipative semigroup on one 2x2 block with a seeded state."""
    rng = np.random.default_rng(SEED)
    algebra = make_algebra([2])
    v = random_element(algebra, rng)
    h = random_hermitian(algebra, rng)
    gen = lindblad_generator(algebra, [v], h)
    sf = standard_form(algebra, random_state(algebra, rng))
    return semigroup_from_generator(algebra, gen), sf
