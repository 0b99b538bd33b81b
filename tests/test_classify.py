import json
from fractions import Fraction

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest
import scipy.linalg

from prodsys.algebra import (
    diagonal_state,
    lmult_matrix,
    make_algebra,
    make_state,
    rmult_matrix,
    standard_form,
    uniform_state,
)
from prodsys.bimodule import verify_map
from prodsys.cells import CellSystem
from prodsys.cli import load_config, suite_classify
from prodsys.classify import (
    E0Semigroup,
    _conjugation_defects,
    _endomorphism_defects,
    block_permutation_semigroup,
    canonical_iso,
    cocycle_equivalence,
    cocycle_law_defects,
    endomorphism_report,
    identity_semigroup,
    inner_semigroup,
    multiplicity_matrix,
    twisted_cell,
    TwistedSystem,
    unit_operator,
    unit_to_cocycle,
)
from prodsys.cpdyn import evaluate, law_defect, semigroup_from_generator, unitary_conjugation_generator
from prodsys.partition import Partition, join, partition

from conftest import (
    left_materialization,
    load_module,
    loop_cocycle_law_defects,
    loop_conjugation_defect,
    random_element,
    random_hermitian,
    random_state,
    twisted_cp_defect,
)


@pytest.fixture
def m2_inner(rng):
    alg = make_algebra([2])
    h = random_hermitian(alg, rng)
    sf = standard_form(alg, uniform_state(alg))
    return alg, h, inner_semigroup(alg, h), sf


def test_inner_semigroup_is_endomorphism_family(m2_inner):
    _, _, theta, _ = m2_inner
    for t in [Fraction(1, 2), Fraction(3, 4)]:
        rep = endomorphism_report(theta, t)
        assert rep.passed(1e-10), rep
    ts = [Fraction(1, 2), Fraction(1, 4)]
    assert law_defect(theta.map_at, [(s, t) for s in ts for t in ts]) < 1e-10


def test_inner_semigroup_refuses_a_non_hermitian_element():
    alg = make_algebra([2])
    with pytest.raises(ValueError, match="Hermitian"):
        inner_semigroup(alg, alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])]))


def loop_endomorphism_defects(theta, t):
    """Basis-pair loop over Python-level products, the reference."""
    alg = theta.algebra
    basis = list(alg.basis())
    mult = adj = 0.0
    for x in basis:
        tx = theta.apply(t, x)
        adj = max(adj, (theta.apply(t, x.adjoint()) - tx.adjoint()).norm())
        for y in basis:
            mult = max(mult, (theta.apply(t, x * y) - tx * theta.apply(t, y)).norm())
    one = alg.identity()
    return mult, adj, (theta.apply(t, one) - one).norm()


@pytest.mark.parametrize("blocks", [[2, 4], [1, 2], [1, 1, 1]])
def test_endomorphism_report_matches_basis_loop(blocks, rng):
    alg = make_algebra(blocks)
    generic = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    for theta in (inner_semigroup(alg, random_hermitian(alg, rng)),
                  E0Semigroup(alg, lambda t: generic)):
        rep = endomorphism_report(theta, Fraction(1, 3))
        got = (rep.multiplicative_defect, rep.adjoint_defect, rep.unital_defect)
        want = loop_endomorphism_defects(theta, Fraction(1, 3))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14), (got, want)
    assert min(want) > 0.1  # the generic map fails every law


def test_inner_matches_conjugation_generator(m2_inner, rng):
    alg, h, theta, sf = m2_inner
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    for t in [Fraction(1, 4), Fraction(1, 2), Fraction(1)]:
        assert np.linalg.norm(theta.map_at(t) - evaluate(sg, t).action, 2) < 1e-11


def test_twisted_cell_actions_commute(m2_inner, rng):
    _, _, theta, sf = m2_inner
    cell = twisted_cell(theta, Fraction(1, 2), sf)
    for i in range(len(cell.left)):
        for j in range(len(cell.right)):
            assert np.linalg.norm(cell.left[i] @ cell.right[j]
                                  - cell.right[j] @ cell.left[i], 2) < 1e-12


def test_twisted_unit_induces_the_endomorphism(m2_inner):
    _, _, theta, sf = m2_inner
    ts = TwistedSystem(theta, sf)
    assert twisted_cp_defect(ts, Fraction(1, 2)) < 1e-10


def test_twisted_unit_induces_non_inner_grid_endomorphism():
    # block swap at grid times: the twisted unit still reproduces it exactly
    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    delta = Fraction(1, 2)
    swap = block_permutation_semigroup(alg, (1, 0), delta)
    ts = TwistedSystem(swap, sf)
    for k in [1, 2, 3]:
        assert twisted_cp_defect(ts, k * delta) < 1e-12


def test_identity_twisted_system_is_trivial(pair):
    _, sf = pair
    theta = identity_semigroup(sf.algebra)
    ts = TwistedSystem(theta, sf)
    cell = ts.cell(Fraction(1))
    l2 = np.stack([np.eye(sf.dim)] * 1)
    # untwisted left action is plain multiplication
    from prodsys.algebra import lmult_matrix

    for mu, x in enumerate(sf.algebra.basis()):
        assert np.linalg.norm(cell.left[mu] - lmult_matrix(x), 2) == 0.0
    assert twisted_cp_defect(ts, Fraction(1)) < 1e-12


def test_canonical_iso_single_part(m2_inner):
    alg, h, theta, sf = m2_inner
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    cs = CellSystem(sg, sf)
    t = Fraction(1, 2)
    u, defect = canonical_iso(theta, cs, Partition((t,)))
    assert defect < 1e-10
    rep = verify_map(u, bilinear=True, unitary=True)
    assert rep.passed, rep
    # elementary slots map to the twisted image: x (x) y cyclic -> theta(x) y cyclic
    from prodsys.bimodule import tensor_vec

    for x in alg.basis():
        for y in alg.basis():
            src = tensor_vec(cs.gns(t), x, sf.embed_left(y))
            expected = sf.embed_left(theta.apply(t, x) * y)
            assert np.linalg.norm(u.matrix @ src - expected) < 1e-10
    # the canonical unit goes to the cyclic vector
    one = alg.identity()
    src = tensor_vec(cs.gns(t), one, sf.cyclic)
    assert np.linalg.norm(u.matrix @ src - sf.cyclic) < 1e-12


def test_canonical_iso_multi_part_and_compatibility(m2_inner):
    alg, h, theta, sf = m2_inner
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    cs = CellSystem(sg, sf)
    ts = TwistedSystem(theta, sf)
    s, t = Fraction(1, 2), Fraction(1, 4)
    ps, pt = Partition((s,)), Partition((t,))
    u_s, d_s = canonical_iso(theta, cs, ps, ts)
    u_t, d_t = canonical_iso(theta, cs, pt, ts)
    u_st, d_st = canonical_iso(theta, cs, join(ps, pt), ts)
    assert max(d_s, d_t, d_st) < 1e-10
    rep = verify_map(u_st, bilinear=True, unitary=True)
    assert rep.passed, rep
    # every twisted cell is the standard space with its left action routed
    # through theta, so the product of cell(s) and cell(t) materializes the
    # first factor into cell(t) alone, whatever s is
    lhs = left_materialization(ts.cell(t), sf) @ np.kron(u_s.matrix, u_t.matrix)
    rhs = u_st.matrix @ cs.collapse(join(ps, pt), 1)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_identity_canonical_iso_is_plain_collapse(pair):
    sg, sf = pair
    from prodsys.cpdyn import identity_generator

    idsg = semigroup_from_generator(sf.algebra, identity_generator(sf.algebra))
    cs = CellSystem(idsg, sf)
    theta = identity_semigroup(sf.algebra)
    u, defect = canonical_iso(theta, cs, Partition((Fraction(1),)))
    assert defect < 1e-12
    rep = verify_map(u, bilinear=True, unitary=True)
    assert rep.passed, rep


def test_equivalence_reflexive(m2_inner):
    _, _, theta, _ = m2_inner
    rep = cocycle_equivalence(theta, theta, Fraction(1, 4), 4)
    assert rep.equivalent
    assert rep.conjugation_defect < 1e-9
    assert rep.cocycle_law_defect < 1e-9


def test_equivalence_of_cocycle_perturbation(rng):
    alg = make_algebra([2])
    h = random_hermitian(alg, rng)
    g = random_hermitian(alg, rng)
    alpha = inner_semigroup(alg, h)
    # w_t = u_t^* c_t is a unitary cocycle for alpha; the perturbed family
    # is conjugation by c alone
    beta = inner_semigroup(alg, g)
    rep = cocycle_equivalence(alpha, beta, Fraction(1, 4), 4)
    assert rep.equivalent
    assert rep.conjugation_defect < 1e-9
    # both directions succeed
    rep2 = cocycle_equivalence(beta, alpha, Fraction(1, 4), 4)
    assert rep2.equivalent


def test_equivalence_backward_mode_with_declared_cocycle(rng):
    alg = make_algebra([2])
    h = random_hermitian(alg, rng)
    g = random_hermitian(alg, rng)
    alpha = inner_semigroup(alg, h)
    beta = inner_semigroup(alg, g)
    delta, levels = Fraction(1, 4), 4
    w = {}
    for k in range(1, levels + 1):
        t = float(k * delta)
        u = scipy.linalg.expm(1j * t * h.mats[0])
        c = scipy.linalg.expm(1j * t * g.mats[0])
        w[k * delta] = alg.element([u.conj().T @ c])
    rep = cocycle_equivalence(alpha, beta, delta, levels, cocycle=w)
    assert rep.equivalent
    assert rep.conjugation_defect < 1e-9
    assert rep.cocycle_law_defect < 1e-9


def test_declared_cocycle_breaking_the_law_is_not_equivalent(rng):
    # w(2 delta) = diag(1, -1) conjugates like 1, but alpha_delta(w(delta)) w(delta) = 1
    alg = make_algebra([1, 1])
    ident = identity_semigroup(alg)
    delta = Fraction(1, 4)
    w = {delta: alg.identity(), 2 * delta: alg.diagonal([1.0, -1.0])}
    rep = cocycle_equivalence(ident, ident, delta, 2, cocycle=w)
    assert not rep.equivalent
    assert rep.first_failing_time == 2 * delta
    assert rep.failures[0][1] == "cocycle law fails"
    assert rep.cocycle_law_defect == pytest.approx(2.0)
    # a certified cocycle of two inner semigroups with its value at 3 delta
    # negated: it still conjugates, and the law breaks first at the pairs
    # summing to 3 delta, as the per-pair loop finds
    alg = make_algebra([2])
    alpha, beta = (inner_semigroup(alg, random_hermitian(alg, rng)) for _ in range(2))
    good = cocycle_equivalence(alpha, beta, delta, 6)
    assert good.equivalent
    w = {**good.cocycle, 3 * delta: -1 * good.cocycle[3 * delta]}
    rep = cocycle_equivalence(alpha, beta, delta, 6, cocycle=w)
    oracle = loop_cocycle_law_defects(alpha, w, [k * delta for k in range(1, 7)])
    assert not rep.equivalent
    assert rep.failures[0][1] == "cocycle law fails"
    assert rep.first_failing_time == min(t for t, d in oracle.items() if d > 1e-9) == 3 * delta
    assert rep.cocycle_law_defect == pytest.approx(max(oracle.values()), rel=1e-13)
    assert rep.conjugation_defect == pytest.approx(good.conjugation_defect, abs=1e-13)


def grid_pair(name, delta, rng):
    """(algebra, alpha, beta) of a cocycle-equivalent pair: two inner semigroups
    on the named blocks, or the block swap with itself."""
    if name == "swap":
        alg = make_algebra([1, 1])
        swap = block_permutation_semigroup(alg, (1, 0), delta)
        return alg, swap, swap
    alg = make_algebra(name)
    return (alg, *(inner_semigroup(alg, random_hermitian(alg, rng)) for _ in range(2)))


@pytest.mark.parametrize("name", [[2], [3], [1, 2], "swap"])
def test_stacked_grid_checks_match_the_pair_loops(name, rng):
    delta, levels = Fraction(1, 4), 6
    times = [k * delta for k in range(1, levels + 1)]
    alg, alpha, beta = grid_pair(name, delta, rng)
    rep = cocycle_equivalence(alpha, beta, delta, levels)
    assert rep.equivalent
    assert list(rep.conjugation_defects) == times
    # the certified cocycle, and random values that break both identities
    noise = {t: random_element(alg, rng) for t in times}
    for w in (rep.cocycle, noise):
        got = cocycle_law_defects(alpha, w, times)
        want = loop_cocycle_law_defects(alpha, w, times)
        assert list(got) == list(want)
        for t, d in want.items():
            assert abs(got[t] - d) <= 1e-13 * max(1.0, d), t
        for t, d in zip(times, _conjugation_defects(alpha, beta, w, times)):
            ref = loop_conjugation_defect(alpha, beta, w[t], t)
            assert abs(d - ref) <= 1e-13 * max(1.0, ref), t
    for t, d in rep.conjugation_defects.items():
        assert abs(d - loop_conjugation_defect(alpha, beta, rep.cocycle[t], t)) <= 1e-13
    # the endomorphism defects of every grid time at once, and of a family
    # that is no endomorphism at any of them
    generic = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    bent = E0Semigroup(alg, lambda t: beta.map_at(t) + float(t) * generic)
    for theta in (beta, bent):
        got = np.array(_endomorphism_defects(alg, np.stack([theta.map_at(t) for t in times])))
        for t, g in zip(times, got.T):
            want = loop_endomorphism_defects(theta, t)
            assert np.allclose(g, want, rtol=1e-12, atol=1e-13), (t, g, want)
    assert min(want) > 0.1


def test_refusals_keep_grid_order_around_a_missing_time(rng):
    delta = Fraction(1, 4)
    alg, alpha, beta = grid_pair([2], delta, rng)
    w = dict(cocycle_equivalence(alpha, beta, delta, 4).cocycle)
    del w[3 * delta]
    rep = cocycle_equivalence(alpha, beta, delta, 4, cocycle=w)
    assert rep.failures[0][:2] == (3 * delta, "cocycle has no value at grid time")
    # a value that no longer conjugates, before the missing time, is refused first
    w[2 * delta] = w[2 * delta] * alg.element([np.diag([1.0, -1.0])])
    rep = cocycle_equivalence(alpha, beta, delta, 4, cocycle=w)
    assert rep.failures[0][:2] == (2 * delta, "conjugation identity fails")
    want = loop_conjugation_defect(alpha, beta, w[2 * delta], 2 * delta)
    assert rep.conjugation_defect == pytest.approx(want, rel=1e-13)
    assert want > 0.1
    # an empty grid stacks nothing and refuses nothing
    rep = cocycle_equivalence(alpha, beta, delta, 0, cocycle={})
    assert (rep.equivalent, rep.conjugation_defect, rep.cocycle_law_defect) == (True, 0.0, 0.0)


def test_classify_suite_takes_a_handful_of_svds(monkeypatch, tmp_path):
    # the grid checks of the pair_tower config (16 levels) are stacked: one
    # batched SVD per check and block size, where one per pair and basis
    # element took 668
    workloads = load_module(monkeypatch, "workloads")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workloads.WORKLOADS["pair_tower"](307)))
    cfg = load_config(str(path), 307, 1.0)
    calls, svd = [], linalg_impl.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(linalg_impl, "svd", counting_svd)  # the one np.linalg.norm calls
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rep = suite_classify(cfg)
    assert rep.passed
    assert len([c for c in rep.checks if c.check_id.startswith("conjugation[")]) == 16
    assert 0 < len(calls) <= 12


def test_cocycle_law_defect_at_a_sum_is_the_worst_pair(rng):
    # with theta = id, the pair (d, 2d) gives |BA - AB| and (2d, d) gives 0
    alg = make_algebra([2])
    a, b = random_hermitian(alg, rng), random_hermitian(alg, rng)
    d = Fraction(1, 4)
    w = {d: a, 2 * d: b, 3 * d: b * a}
    defects = cocycle_law_defects(identity_semigroup(alg), w, [d, 2 * d])
    assert set(defects) == {2 * d, 3 * d}
    assert defects[3 * d] == pytest.approx((b * a - a * b).norm())
    assert defects[3 * d] > 0.1


def test_inner_equivalent_to_identity(m2_inner):
    alg, h, theta, _ = m2_inner
    rep = cocycle_equivalence(theta, identity_semigroup(alg), Fraction(1, 4), 4)
    assert rep.equivalent


def test_permutation_not_equivalent_to_identity():
    alg = make_algebra([1, 1])
    delta = Fraction(1, 2)
    swap = block_permutation_semigroup(alg, (1, 0), delta)
    rep = cocycle_equivalence(identity_semigroup(alg), swap, delta, 3)
    assert not rep.equivalent
    assert rep.first_failing_time == delta


def _doubling_action(alg):
    """Coordinate action of theta(X, Y) = (X, X (x) I_2) on [2, 4]."""
    return np.column_stack([
        alg.element([x.mats[0], np.kron(x.mats[0], np.eye(2))]).vec() for x in alg.basis()])


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_equivalence_found_when_intertwiner_basis_is_singular():
    # theta(X, Y) = (X, X (x) I_2) is idempotent, so a grid E0 semigroup, and
    # beta = Ad(u) theta Ad(u*) is equivalent to it through w = theta(u) u*;
    # the intertwiner space holds singular elements (single basis vectors can
    # have a zero block), and the matrix-unit witness must avoid them for
    # every conjugating unitary
    alg = make_algebra([2, 4])
    base = _doubling_action(alg)
    eye = np.eye(alg.dim, dtype=complex)
    theta = E0Semigroup(alg, lambda t: base if t > 0 else eye)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = alg.element([_haar_unitary(rng, n) for n in alg.blocks])
        ad_u = lmult_matrix(u) @ rmult_matrix(u.adjoint())
        ad_us = lmult_matrix(u.adjoint()) @ rmult_matrix(u)
        beta = E0Semigroup(alg, lambda t: ad_u @ theta.map_at(t) @ ad_us)
        rep = cocycle_equivalence(theta, beta, Fraction(1, 4), 3)
        assert rep.equivalent, rep.failures
        assert rep.conjugation_defect < 1e-9
        assert rep.cocycle_law_defect < 1e-9
    assert not cocycle_equivalence(theta, identity_semigroup(alg), Fraction(1, 4), 3).equivalent


def test_inner_pairs_at_large_scale_are_all_equivalent():
    # inner semigroups are always equivalent; at scale 100 the expm rounding
    # in alpha_delta and beta_delta is far above machine epsilon, and which
    # draws come near any cutoff depends on the LAPACK build, so every seed
    # of the sweep is run
    alg = make_algebra([2])
    for seed in range(200):
        rng = np.random.default_rng(seed)
        h, g = (alg.element([100 * (x + x.conj().T) / 2]) for x in (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)))
        rep = cocycle_equivalence(inner_semigroup(alg, h), inner_semigroup(alg, g),
                                  Fraction(1, 4), 2)
        assert rep.equivalent, (seed, rep.failures)
        assert max(rep.conjugation_defect, rep.cocycle_law_defect) <= 1e-9, seed


def test_multiplicity_matrices_of_identity_and_swap_name_the_refusal():
    alg = make_algebra([1, 1])
    delta = Fraction(1, 2)
    ident, swap = identity_semigroup(alg), block_permutation_semigroup(alg, (1, 0), delta)
    assert multiplicity_matrix(ident.map_at(delta), alg).tolist() == [[1, 0], [0, 1]]
    assert multiplicity_matrix(swap.map_at(delta), alg).tolist() == [[0, 1], [1, 0]]
    (t, reason, _), = cocycle_equivalence(ident, swap, delta, 2).failures
    assert t == delta
    assert "[[1, 0], [0, 1]]" in reason and "[[0, 1], [1, 0]]" in reason


def test_multiplicity_matrix_counts_copies_of_a_block():
    # block 0 goes once into block 0 and twice into block 1; block 1 is dropped
    alg = make_algebra([2, 4])
    assert multiplicity_matrix(_doubling_action(alg), alg).tolist() == [[1, 0], [2, 0]]


def test_multiplicity_matrices_of_the_two_rotations_differ():
    alg = make_algebra([1, 1, 1])
    delta = Fraction(1, 2)
    got = {}
    for perm in [(1, 2, 0), (2, 0, 1)]:
        m = multiplicity_matrix(block_permutation_semigroup(alg, perm, delta).map_at(delta), alg)
        # output block i carries input block perm[i]
        assert m.tolist() == np.eye(3, dtype=int)[list(perm)].tolist()
        got[perm] = m.tolist()
    assert got[(1, 2, 0)] != got[(2, 0, 1)]


def test_alpha_that_is_not_an_endomorphism_is_refused():
    # x -> tr(x) / 2 on M_2 is unital and *-preserving but not multiplicative
    alg = make_algebra([2])
    one = alg.identity().vec()
    alpha = E0Semigroup(alg, lambda t: np.outer(one, one) / 2)
    rep = cocycle_equivalence(alpha, identity_semigroup(alg), Fraction(1, 4), 2)
    assert not rep.equivalent
    (t, reason, defect), = rep.failures
    assert (t, reason) == (Fraction(1, 4), "alpha is not an endomorphism")
    assert defect >= 0.25


def test_broken_semigroup_law_detected_at_first_bad_time(rng):
    alg = make_algebra([2])
    h = random_hermitian(alg, rng)
    hp = random_hermitian(alg, rng)
    alpha = inner_semigroup(alg, h)
    delta = Fraction(1, 4)

    def broken_action(t: Fraction) -> np.ndarray:
        k = int(t / delta)
        shift = 0.3 if k % 2 == 0 and k > 0 else 0.0
        u = scipy.linalg.expm(1j * (float(t) + shift) * hp.mats[0])
        return np.kron(u.conj().T, u.T)

    beta = E0Semigroup(alg, broken_action)
    rep = cocycle_equivalence(alpha, beta, delta, 4)
    assert not rep.equivalent
    assert rep.first_failing_time == 2 * delta
    assert rep.failures[0][1] == "conjugation identity fails"


def test_permutation_equivalent_to_itself_not_to_its_square():
    alg = make_algebra([1, 1, 1])
    delta = Fraction(1, 2)
    rot = block_permutation_semigroup(alg, (1, 2, 0), delta)
    rot2 = block_permutation_semigroup(alg, (2, 0, 1), delta)
    same = cocycle_equivalence(rot, rot, delta, 3)
    assert same.equivalent
    mixed = cocycle_equivalence(rot, rot2, delta, 3)
    assert not mixed.equivalent
    assert mixed.first_failing_time == delta


def test_inner_twisted_system_isomorphic_to_trivial(m2_inner):
    # conjugation semigroups have twisted cells unitarily collapsing onto the
    # plain standard space: multiply by the group unitary itself
    alg, h, theta, sf = m2_inner
    from prodsys.algebra import lmult_matrix
    from prodsys.bimodule import BimoduleMap, l2_bimodule

    t = Fraction(1, 2)
    u = alg.element([scipy.linalg.expm(1j * float(t) * h.mats[0])])
    cell = twisted_cell(theta, t, sf)
    f = BimoduleMap(cell, l2_bimodule(sf), lmult_matrix(u))
    rep = verify_map(f, bilinear=True, unitary=True)
    assert rep.passed, rep


def test_unit_to_cocycle_trivial_unit(m2_inner):
    _, _, theta, sf = m2_inner
    xi = {Fraction(k, 4): sf.cyclic.copy() for k in range(5)}
    a, defect = unit_to_cocycle(theta, xi, sf)
    assert defect < 1e-10
    one = sf.algebra.identity()
    for t, at in a.items():
        assert (at - one).norm() < 1e-10


def test_unit_to_cocycle_inner_unitaries(m2_inner):
    alg, h, theta, sf = m2_inner
    xi = {}
    for k in range(5):
        t = Fraction(k, 4)
        u = scipy.linalg.expm(1j * float(t) * h.mats[0])
        xi[t] = sf.embed_left(alg.element([u.conj().T]))
    a, defect = unit_to_cocycle(theta, xi, sf)
    assert defect < 1e-9
    for t, at in a.items():
        u = scipy.linalg.expm(1j * float(t) * h.mats[0])
        assert np.linalg.norm(at.mats[0] - u.conj().T) < 1e-10


def test_unit_to_cocycle_contractive_scalar(m2_inner):
    _, _, theta, sf = m2_inner
    xi = {Fraction(k, 4): np.exp(-float(Fraction(k, 4))) * sf.cyclic for k in range(5)}
    a, defect = unit_to_cocycle(theta, xi, sf)
    assert defect < 1e-10
    for t, at in a.items():
        expected = np.exp(-float(t))
        assert np.linalg.norm(at.mats[0] - expected * np.eye(2)) < 1e-10


def test_unit_operator_intertwines_and_is_semigroup(m2_inner):
    alg, h, theta, sf = m2_inner
    a = {}
    for k in range(5):
        t = Fraction(k, 4)
        u = scipy.linalg.expm(1j * float(t) * h.mats[0])
        a[t] = alg.element([u.conj().T])
    xs = unit_operator(theta, a, sf)
    from prodsys.algebra import lmult_matrix

    for t, xt in xs.items():
        for x in alg.basis():
            lhs = xt @ lmult_matrix(x)
            rhs = lmult_matrix(theta.apply(t, x)) @ xt
            assert np.linalg.norm(lhs - rhs, 2) < 1e-10
    for s in [Fraction(1, 4), Fraction(1, 2)]:
        for t in [Fraction(1, 4), Fraction(1, 2)]:
            assert np.linalg.norm(xs[s] @ xs[t] - xs[s + t], 2) < 1e-10
    # inner theta with the inverse unitaries acts by plain left multiplication
    for t, xt in xs.items():
        u = scipy.linalg.expm(1j * float(t) * h.mats[0])
        expected = lmult_matrix(alg.element([u.conj().T]))
        assert np.linalg.norm(xt - expected, 2) < 1e-10


def test_unit_operator_trivial_cases(m2_inner):
    alg, h, theta, sf = m2_inner
    one = alg.identity()
    xs = unit_operator(theta, {Fraction(1, 2): one}, sf)
    x = list(alg.basis())[1]
    lhs = xs[Fraction(1, 2)] @ sf.embed_left(x)
    rhs = sf.embed_left(theta.apply(Fraction(1, 2), x))
    assert np.linalg.norm(lhs - rhs) < 1e-12
    ident = identity_semigroup(alg)
    rate = {Fraction(k, 2): np.exp(-float(Fraction(k, 2))) * one for k in range(3)}
    xs2 = unit_operator(ident, rate, sf)
    for t, xt in xs2.items():
        assert np.linalg.norm(xt - np.exp(-float(t)) * np.eye(sf.dim), 2) < 1e-12


def test_unit_operator_requires_tracial_state(m2_inner, rng):
    alg, h, theta, _ = m2_inner
    skew = standard_form(alg, make_state(alg, [np.diag([0.3, 0.7])]))
    with pytest.raises(ValueError):
        unit_operator(theta, {Fraction(1, 2): alg.identity()}, skew)


def nested_fold_loop(theta, sf, parts):
    """One nested endomorphism image per choice of basis slots, the reference."""
    basis = list(sf.algebra.basis())
    cols = []
    for combo in np.ndindex(*([len(basis)] * (2 * len(parts)))):
        acc = None
        for i, t in enumerate(parts):
            x, y = basis[combo[2 * i]], basis[combo[2 * i + 1]]
            acc = theta.apply(t, x if acc is None else acc * x) * y
        cols.append(sf.embed_left(acc))
    return np.column_stack(cols)


@pytest.mark.parametrize("blocks,parts", [([2], ["1/2", "1/4", "3/4"]), ([1, 2], ["1/3", "1"])])
def test_fold_matches_nested_apply_loop(rng, blocks, parts):
    alg = make_algebra(blocks)
    sf = standard_form(alg, random_state(alg, rng))
    theta = inner_semigroup(alg, random_hermitian(alg, rng))
    parts = [Fraction(t) for t in parts]
    reference = nested_fold_loop(theta, sf, parts)
    assert np.abs(TwistedSystem(theta, sf).fold(parts) - reference).max() < 1e-12
