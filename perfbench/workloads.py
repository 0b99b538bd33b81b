"""Seeded workload configurations for the prodsys benchmark.

Each workload turns the benchmark seed into one `prodsys` configuration
JSON; the program under test receives only that file and the seed as its
`--seed` argument.  `check_shape` asserts, before anything is timed, that
the generated instance has the shape the workload was chosen for.
"""

from __future__ import annotations

import numpy as np

# The unit interval in one, two and three equal parts.  A generic jump has
# full Choi rank 4 on M_2, so the cells have dimension 4 * 4^parts.
LINDBLAD_PARTITIONS = ["1", "1/2,1/2", "1/3,1/3,1/3"]
LINDBLAD_CELL_DIMS = [16, 64, 256]
MARKOV_STATES = 6


def _pairs(m: np.ndarray) -> list:
    """Complex matrix as row-major nested [re, im] pairs, the CLI layout."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def lindblad_m2(seed: int) -> dict:
    """One jump V and a Hamiltonian H on M_2, with a seeded faithful state."""
    rng = np.random.default_rng(seed)
    v = _gaussian(rng, 2)
    h = _gaussian(rng, 2)
    h = (h + h.conj().T) / 2
    w = _gaussian(rng, 2)
    density = w @ w.conj().T + 0.4 * np.eye(2)
    density /= np.trace(density).real
    density = (density + density.conj().T) / 2
    return {
        "algebra": [2],
        "state": {"density": [_pairs(density)]},
        "semigroup": {"builtin": "lindblad", "jumps": [_pairs(v)], "hamiltonian": _pairs(h)},
        "partitions": LINDBLAD_PARTITIONS,
        "grid": {"delta": "1/4", "levels": 4},
        "markov": {"graph": "cycle", "states": 3},
    }


def pair_tower(seed: int) -> dict:
    """The default stochastic pair on a 16-level tower; the seed is unused."""
    del seed
    return {
        "algebra": [1, 1],
        "semigroup": {"builtin": "stochastic_pair"},
        "state": {"weights": [0.5, 0.5]},
        "partitions": ["1", "1/2,1/2", "1/4,1/4,1/4,1/4", ",".join(["1/8"] * 8)],
        "grid": {"delta": "1/16", "levels": 16},
        "markov": {"graph": "cycle", "states": 3},
    }


def markov_heat(seed: int) -> dict:
    """A random reversible chain on six states, given by weights and Laplacian.

    Conductances c_ij = c_ji > 0 on the complete graph give L_ij = -c_ij / mu_i
    off the diagonal; the diagonal is minus the off-diagonal row sum, so
    constants are annihilated up to rounding.
    """
    rng = np.random.default_rng(seed)
    m = MARKOV_STATES
    mu = rng.uniform(0.5, 1.5, m)
    mu /= mu.sum()
    c = rng.uniform(0.2, 1.0, (m, m))
    c = np.triu(c, 1)
    c = c + c.T
    lap = -c / mu[:, None]
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return {
        "markov": {"mu": [float(x) for x in mu], "laplacian": lap.tolist()},
    }


WORKLOADS = {
    "lindblad_m2": lindblad_m2,
    "pair_tower": pair_tower,
    "markov_heat": markov_heat,
}


def _choi_rank(t_map) -> int:
    from prodsys.cpdyn import choi_blocks

    return sum(int(np.linalg.matrix_rank(c, tol=1e-10 * max(1.0, np.abs(c).max())))
               for c in choi_blocks(t_map))


def check_shape(name: str, config: dict) -> None:
    """Raise ValueError unless the generated instance has its intended shape.

    For `lindblad_m2` the cell dimensions are predicted from the Choi ranks
    (dim cell = n^2 times the product of the part ranks on one M_n block),
    which costs microseconds and does not build the cells themselves; the
    built dimensions are compared later through the check ids of the verdict
    reference.  For `markov_heat` the model must pass `make_model`'s checks.
    """
    from fractions import Fraction

    from prodsys.cli import complex_matrix
    from prodsys.cpdyn import evaluate, lindblad_generator, semigroup_from_generator
    from prodsys.algebra import make_algebra
    from prodsys.heatmarkov import make_model
    from prodsys.partition import parse_partition

    if name == "lindblad_m2":
        alg = make_algebra(config["algebra"])
        sg_cfg = config["semigroup"]
        jumps = [alg.element([complex_matrix(j)]) for j in sg_cfg["jumps"]]
        ham = alg.element([complex_matrix(sg_cfg["hamiltonian"])])
        sg = semigroup_from_generator(alg, lindblad_generator(alg, jumps, ham))
        n2 = alg.blocks[0] ** 2
        dims = []
        for text in config["partitions"]:
            dim = n2
            for part in parse_partition(text):
                dim *= _choi_rank(evaluate(sg, Fraction(part)))
            dims.append(dim)
        if dims != LINDBLAD_CELL_DIMS:
            raise ValueError(f"lindblad_m2 predicted cell dims {dims} != {LINDBLAD_CELL_DIMS}")
    elif name == "markov_heat":
        markov = config["markov"]
        mdl = make_model(markov["mu"], np.array(markov["laplacian"], dtype=float))
        if mdl.states != MARKOV_STATES:
            raise ValueError(f"markov_heat has {mdl.states} states, expected {MARKOV_STATES}")
    elif name == "pair_tower":
        if config["grid"] != {"delta": "1/16", "levels": 16}:
            raise ValueError("pair_tower must use the 16-level tower at step 1/16")
    else:
        raise ValueError(f"unknown workload {name!r}")
