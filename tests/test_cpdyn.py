import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import prodsys
from prodsys.algebra import ConfigurationError, make_algebra
from prodsys.cpdyn import (
    CpMap,
    NonFiniteActionError,
    choi_blocks,
    evaluate,
    identity_generator,
    law_defect,
    lindblad_generator,
    semigroup_from_generator,
    stochastic_pair_generator,
    unitary_conjugation_generator,
    verify_ucp,
)

from conftest import (
    loop_choi_blocks,
    loop_law_defect,
    mixed_semigroup,
    random_element,
    random_hermitian,
    reversible_chain,
)


def test_a_non_finite_action_raises_naming_the_time():
    # a conjugation semigroup's e^{tL} overflows in the squarings at t = 1e30:
    # `evaluate` raises, with no RuntimeWarning, caches nothing and raises
    # again; the pair's e^{tL} at that time is the finite zero map, returned
    alg = make_algebra([2])
    h = alg.element([np.array([[1, 0.5], [0.5, -1]], dtype=complex)])
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    for _ in range(2):
        with pytest.raises(NonFiniteActionError, match=r"at t = 1e\+30 has NaN"):
            evaluate(sg, 1e30)
    assert sg._cache == {}
    pair = semigroup_from_generator(*stochastic_pair_generator())
    assert np.array_equal(evaluate(pair, 1e30).action, np.zeros((2, 2)))


def test_stochastic_pair_closed_form():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    for t in [0.0, 0.3, 1.0, 2.5]:
        tm = evaluate(sg, t)
        a, b = 1.7 - 0.2j, -0.8 + 0.1j
        out = tm(algebra.element([[[a]], [[b]]]))
        expected_a = np.exp(-t) * a + (1 - np.exp(-t)) * b
        assert abs(out.mats[0][0, 0] - expected_a) < 1e-12
        assert abs(out.mats[1][0, 0] - b) < 1e-12


def test_zero_generator_gives_identity(rng):
    alg = make_algebra([2, 1])
    sg = semigroup_from_generator(alg, identity_generator(alg))
    x = random_element(alg, rng)
    out = evaluate(sg, 1.7)(x)
    assert max(np.linalg.norm(a - b) for a, b in zip(out.mats, x.mats)) < 1e-12


def test_choi_blocks_are_slices_of_the_action(rng):
    # a seeded Lindblad map on three blocks: all nine block pairs, bit for bit
    alg = make_algebra([1, 2, 3])
    jumps = [random_element(alg, rng) for _ in range(2)]
    f = evaluate(semigroup_from_generator(
        alg, lindblad_generator(alg, jumps, random_hermitian(alg, rng))), 0.3)
    got, want = choi_blocks(f), loop_choi_blocks(f)
    assert len(got) == len(want) == 9
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_time_zero_is_exact_identity():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    assert np.array_equal(evaluate(sg, 0).action, np.eye(2))


def test_negative_time_rejected():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    with pytest.raises(ValueError):
        evaluate(sg, -0.1)


def test_non_unital_generator_rejected():
    alg = make_algebra([1, 1])
    with pytest.raises(ConfigurationError):
        semigroup_from_generator(alg, np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_rejected(bad):
    # a NaN entry makes the unit defect NaN, which no `>` comparison catches
    alg = make_algebra([1, 1])
    with pytest.raises(ConfigurationError):
        semigroup_from_generator(alg, np.array([[bad, 0.0], [0.0, 0.0]]))


def test_evaluate_at_log2():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    tm = evaluate(sg, np.log(2.0))
    out = tm(algebra.element([[[1.0]], [[0.0]]]))
    assert abs(out.mats[0][0, 0] - 0.5) < 1e-12
    assert abs(out.mats[1][0, 0] - 0.0) < 1e-12


def test_unitary_conjugation_matches_direct(rng):
    alg = make_algebra([2])
    h = random_hermitian(alg, rng)
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    t = 0.3
    u = scipy.linalg.expm(1j * t * h.mats[0])
    x = random_element(alg, rng)
    out = evaluate(sg, t)(x)
    assert np.linalg.norm(out.mats[0] - u.conj().T @ x.mats[0] @ u) < 1e-11


def test_lindblad_elementary_jump_is_ucp():
    alg = make_algebra([2])
    v = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    sg = semigroup_from_generator(alg, lindblad_generator(alg, [v]))
    for t in [0.1, 0.5, 1.0]:
        rep = verify_ucp(evaluate(sg, t), 1e-10)
        assert rep.passed, rep


def test_exceptional_point_semigroup_passes_at_tolerance():
    # sigma_minus jump with H = sigma_x / 8: the generator sits at its
    # exceptional point, where its eigenvector matrix is nearly singular
    alg = make_algebra([2])
    v = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    h = alg.element([np.array([[0.0, 1.0], [1.0, 0.0]]) / 8])
    sg = semigroup_from_generator(alg, lindblad_generator(alg, [v], h))
    grid = [Fraction(k, 4) for k in range(5)]
    for t in grid:
        rep = verify_ucp(evaluate(sg, t), 1e-10)
        assert rep.passed, (t, rep)
    pairs = [(s, t) for s in grid[1:] for t in grid[1:] if s + t <= 1]
    assert law_defect(lambda t: evaluate(sg, t).action, pairs) <= 1e-10


def test_verify_ucp_identity():
    alg = make_algebra([2])
    rep = verify_ucp(CpMap(alg, np.eye(4, dtype=complex)), 1e-10)
    assert rep.unital_defect == 0.0
    assert rep.choi_min_eigenvalue > -1e-12
    assert rep.passed


def test_verify_ucp_stochastic_pass():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    assert verify_ucp(evaluate(sg, 1.0), 1e-10).passed


def test_transpose_map_fails_choi():
    alg = make_algebra([2])
    # row-major coordinates: transpose swaps the two off-diagonal slots
    action = np.zeros((4, 4))
    action[0, 0] = action[3, 3] = 1.0
    action[1, 2] = action[2, 1] = 1.0
    rep = verify_ucp(CpMap(alg, action.astype(complex)), 1e-10)
    assert not rep.passed
    assert abs(rep.choi_min_eigenvalue + 1.0) < 1e-12


def test_semigroup_law_on_grid(m2_lindblad):
    sg, _ = m2_lindblad
    for s in [0.1, 0.4]:
        for t in [0.2, 0.7]:
            d = np.linalg.norm(
                evaluate(sg, s).action @ evaluate(sg, t).action - evaluate(sg, s + t).action, 2)
            assert d < 1e-10


def test_positivity_preserved_on_positive_elements(m2_lindblad, rng):
    sg, _ = m2_lindblad
    alg = sg.algebra
    for _ in range(5):
        w = random_element(alg, rng)
        pos = w.adjoint() * w
        for t in [0.3, 1.1]:
            out = evaluate(sg, t)(pos)
            eigs = np.linalg.eigvalsh(out.mats[0])
            assert eigs.min() > -1e-10


def test_concurrent_evaluation_is_consistent(m2_lindblad):
    from concurrent.futures import ThreadPoolExecutor

    sg, _ = m2_lindblad
    times = [0.1, 0.2, 0.3, 0.4] * 8
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: evaluate(sg, t).action, times))
    for t, action in zip(times, results):
        assert np.array_equal(action, evaluate(sg, t).action)


def test_commutative_semigroup_is_row_stochastic():
    algebra, gen = stochastic_pair_generator()
    sg = semigroup_from_generator(algebra, gen)
    for t in [0.2, 1.0, 3.0]:
        action = evaluate(sg, t).action.real
        assert np.abs(action @ np.ones(2) - np.ones(2)).max() < 1e-12
        assert action.min() > -1e-12


def test_real_generator_gives_read_only_real_actions():
    _, lap = reversible_chain(5, 6)
    algebra = make_algebra([1] * 6)
    real, cplx = (semigroup_from_generator(algebra, g) for g in (-lap, -lap.astype(complex)))
    for t in [0.0, 0.3, 2.5]:
        action, reference = evaluate(real, t).action, evaluate(cplx, t).action
        assert action.dtype == np.float64
        assert evaluate(real, t).action is action
        assert np.abs(action - reference).max() <= 1e-15
        for cached in (action, reference):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 0.0


def test_only_cpdyn_names_expm():
    """`evaluate` is the one route to a matrix exponential inside the package."""
    src = Path(prodsys.__file__).parent
    names = sorted(path.name for path in src.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.alias) and node.name == "expm"
                   or isinstance(node, ast.Attribute) and node.attr == "expm")
    assert names == ["cpdyn.py"]


@pytest.mark.parametrize("system", ["pair", "mixed", "m2_lindblad"])
def test_stacked_law_defect_matches_the_pair_loop(request, system):
    sg, _ = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    grid = [Fraction(k, 8) for k in range(1, 9)]
    pairs = [(s, t) for s in grid for t in grid if s + t <= 1]

    def exact(t):
        return evaluate(sg, t).action

    def bent(t):  # no semigroup: the law fails at every pair
        return (1 + float(t) ** 2) * exact(t)

    for action_at in (exact, bent):
        want = loop_law_defect(action_at, pairs)
        assert abs(law_defect(action_at, pairs) - want) <= 1e-13 * max(1.0, want)
    assert want > 0.1
    assert law_defect(exact, []) == 0.0
