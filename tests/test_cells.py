import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from prodsys.algebra import lmult_matrix, make_algebra, make_state, standard_form, uniform_state
from prodsys.bimodule import left_materialization, numerical_rank, pi_phi, verify_map
from prodsys.cells import (
    CellSystem,
    Unit,
    canonical_unit,
    cp_from_unit,
    generating_rank,
    semigroup_defect,
    unit_report,
    unit_system_isomorphism,
)
from prodsys.cli import load_config, suite_roundtrip
from prodsys.cpdyn import evaluate, identity_generator, semigroup_from_generator
import prodsys.cli
from prodsys.partition import Partition, coarsenings, join, partition, uniform

from conftest import cell_target_elementary, mixed_semigroup


@pytest.fixture
def pair_system(pair):
    sg, sf = pair
    return CellSystem(sg, sf), sf


def test_single_part_cell_dimension(pair_system):
    cs, _ = pair_system
    assert cs.cell(partition([1])).dim == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uniform_cell_dimension_law(pair_system, n):
    cs, _ = pair_system
    assert cs.cell(uniform(1, n)).dim == n + 2


def test_non_uniform_cell_dimension_law(pair_system):
    cs, _ = pair_system
    assert cs.cell(partition(["1/7", "3/7", "3/7"])).dim == 5


def test_identity_semigroup_cells_collapse():
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    cs = CellSystem(semigroup_from_generator(alg, identity_generator(alg)), sf)
    for p in [partition([1]), uniform(1, 3), partition(["1/3", "2/3"])]:
        assert cs.cell(p).dim == sf.dim


def test_refinement_isometry_halving(pair_system):
    cs, _ = pair_system
    q = partition([1])
    p = uniform(1, 2)
    a = cs.refinement(p, q)
    assert a.matrix.shape == (4, 3)
    rep = verify_map(a, bilinear=True, isometric=True)
    assert rep.passed, rep
    rep_u = verify_map(a, unitary=True)
    assert not rep_u.passed  # strict embedding, dims differ


def test_refinement_identity_when_equal(pair_system):
    cs, _ = pair_system
    p = uniform(1, 2)
    a = cs.refinement(p, p)
    assert np.linalg.norm(a.matrix - np.eye(4)) < 1e-12


def test_refinement_chain_functorial(pair_system):
    cs, _ = pair_system
    chain = [uniform(1, 2 ** k) for k in range(4)]
    for i in range(len(chain) - 1):
        for j in range(i + 1, len(chain)):
            a_ji = cs.refinement(chain[j], chain[i])
            rep = verify_map(a_ji, bilinear=True, isometric=True)
            assert rep.passed, (i, j, rep)
    for k in range(len(chain) - 2):
        a10 = cs.refinement(chain[k + 1], chain[k]).matrix
        a21 = cs.refinement(chain[k + 2], chain[k + 1]).matrix
        a20 = cs.refinement(chain[k + 2], chain[k]).matrix
        assert np.linalg.norm(a21 @ a10 - a20, 2) < 1e-10


def test_refinement_isometry_on_seeded_rational_partitions(pair_system, rng):
    cs, _ = pair_system
    denominators = [3, 5, 6, 7, 12]
    for trial in range(5):
        den = denominators[trial]
        q_parts = (Fraction(1, den), Fraction(den - 1, den))
        q = Partition(q_parts)
        fine_parts = []
        for part in q_parts:
            k = int(rng.integers(1, 4))
            fine_parts.extend([part / k] * k)
        p = Partition(tuple(fine_parts))
        a = cs.refinement(p, q)
        rep = verify_map(a, bilinear=True, isometric=True)
        assert rep.passed, (q, p, rep)


def test_multiply_singletons_is_unitary(pair_system):
    cs, _ = pair_system
    q, p = partition([1]), partition(["1/2"])
    u = cs.multiply(q, p)
    assert u.source.dim == 4
    assert u.target.dim == cs.cell(join(q, p)).dim == 4
    rep = verify_map(u, bilinear=True, unitary=True)
    assert rep.passed, rep


def test_multiply_with_time_zero_is_canonical(pair_system):
    cs, _ = pair_system
    p = uniform(1, 2)
    e = Partition(())
    for u in [cs.multiply(e, p), cs.multiply(p, e)]:
        rep = verify_map(u, bilinear=True, unitary=True)
        assert rep.passed, rep


def test_multiply_associativity_on_singletons(pair_system):
    cs, _ = pair_system
    r, s, t = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    prs = Partition((r, s))
    pst = Partition((s, t))
    prst = Partition((r, s, t))
    dr = cs.cell(Partition((r,))).dim
    dt = cs.cell(Partition((t,))).dim
    lhs = cs.collapse(prst, 2) @ np.kron(cs.cell(prs).embed, np.eye(dt))
    rhs = cs.collapse(prst, 1) @ np.kron(np.eye(dr), cs.cell(pst).embed)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_two_point_cell_corner_dimensions(pair_system):
    # explicit structure of the two-point cells: corner dimensions under the
    # two block projections are (1, n, 0, 1), summing to n + 2
    cs, sf = pair_system
    alg = sf.algebra
    e1, e2 = list(alg.basis())
    for n in [1, 2, 3, 4]:
        cell = cs.cell(uniform(1, n))
        corners = {}
        for left_name, left in [("1", e1), ("2", e2)]:
            for right_name, right in [("1", e1), ("2", e2)]:
                proj = cell.left_matrix(left) @ cell.right_matrix(right)
                corners[(left_name, right_name)] = int(round(np.trace(proj).real))
        assert corners[("1", "1")] == 1, (n, corners)
        assert corners[("2", "1")] == n, (n, corners)
        assert corners[("1", "2")] == 0, (n, corners)
        assert corners[("2", "2")] == 1, (n, corners)


def test_isometry_semigroup_collapse_commutes_with_refinement(rng):
    # for conjugation by a unitary group every cell collapses onto the
    # standard space, and the collapses absorb the refinement isometries
    import scipy.linalg

    from conftest import random_hermitian
    from prodsys.algebra import make_algebra, uniform_state
    from prodsys.cpdyn import unitary_conjugation_generator

    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    h = random_hermitian(alg, rng)
    sg = semigroup_from_generator(alg, unitary_conjugation_generator(alg, h))
    cs = CellSystem(sg, sf)

    def collapse_map(p):
        # fold of the per-factor collapses x (x) y cyclic -> x v_t y cyclic
        z_cols, v_cols = [], []
        basis = list(alg.basis())
        for combo in np.ndindex(*([len(basis)] * (2 * len(p)))):
            xs = [basis[combo[2 * i]] for i in range(len(p))]
            ys = [basis[combo[2 * i + 1]] for i in range(len(p))]
            z_cols.append(cs.elementary(p, xs, [sf.embed_left(y) for y in ys]))
            acc = None
            for t, x, y in zip(p.parts, xs, ys):
                vt = alg.element([scipy.linalg.expm(1j * float(t) * h.mats[0])])
                step = (x if acc is None else acc * x) * vt * y
                acc = step
            v_cols.append(sf.embed_left(acc))
        z = np.column_stack(z_cols)
        v = np.column_stack(v_cols)
        u, *_ = np.linalg.lstsq(z.conj().T, v.conj().T, rcond=None)
        return u.conj().T

    q = partition([Fraction(1, 2)])
    p = uniform(Fraction(1, 2), 2)
    u_q = collapse_map(q)
    u_p = collapse_map(p)
    from prodsys.bimodule import BimoduleMap, verify_map as vm

    rep = vm(BimoduleMap(cs.cell(p), cs.l2, u_p), isometric=True)
    assert rep.isometry_defect < 1e-10
    a = cs.refinement(p, q).matrix
    assert np.linalg.norm(u_p @ a - u_q, 2) < 1e-10


def test_multiplication_intertwines_refinement(pair_system):
    cs, _ = pair_system
    q_coarse, q_fine = partition([Fraction(1, 2)]), uniform(Fraction(1, 2), 2)
    p_coarse, p_fine = partition([Fraction(1, 4)]), uniform(Fraction(1, 4), 2)
    a_q = cs.refinement(q_fine, q_coarse).matrix
    a_p = cs.refinement(p_fine, p_coarse).matrix
    j_coarse = cs.collapse(join(q_coarse, p_coarse), 1)
    j_fine = cs.collapse(join(q_fine, p_fine), 2)
    a_joined = cs.refinement(join(q_fine, p_fine), join(q_coarse, p_coarse)).matrix
    lhs = j_fine @ np.kron(a_q, a_p)
    rhs = a_joined @ j_coarse
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_multiply_associativity_on_compound_partitions(pair_system):
    # both ways of collapsing a three-way split of a four-part cell agree
    cs, _ = pair_system
    p = partition([Fraction(1, 4), Fraction(1, 4), Fraction(1, 3), Fraction(1, 6)])
    a1, a2 = 1, 3
    d1 = cs.cell(Partition(p.parts[:a1])).dim
    dt = cs.cell(Partition(p.parts[a2:])).dim
    lhs = cs.collapse(p, a2) @ np.kron(cs.collapse(Partition(p.parts[:a2]), a1), np.eye(dt))
    rhs = cs.collapse(p, a1) @ np.kron(np.eye(d1), cs.collapse(Partition(p.parts[a1:]), a2 - a1))
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_canonical_unit_is_unital_and_multiplicative(pair_system):
    cs, _ = pair_system
    grid = [Fraction(k, 4) for k in range(0, 9)]
    unit = canonical_unit(cs, grid)
    rep = unit_report(unit)
    assert rep.unital_defect < 1e-10
    assert rep.contraction_excess < 1e-10
    assert rep.factorization_defect < 1e-10


def test_canonical_unit_generates_full_cells(pair_system):
    cs, _ = pair_system
    # the sampled family needs unit vectors at every merged part value
    grid = sorted({Fraction(k, n) for n in range(1, 5) for k in range(0, n + 1)})
    unit = canonical_unit(cs, grid)
    for n in range(1, 5):
        rank, dim = generating_rank(unit, uniform(1, n))
        assert (rank, dim) == (n + 2, n + 2)


def test_identity_semigroup_unit_is_cyclic_vector():
    from prodsys.algebra import diagonal_state, lmult_matrix

    alg = make_algebra([1, 1])
    sf = standard_form(alg, diagonal_state(alg, [0.5, 0.5]))
    cs = CellSystem(semigroup_from_generator(alg, identity_generator(alg)), sf)
    unit = canonical_unit(cs, [Fraction(1)])
    v = unit.vectors[Fraction(1)]
    # under the collapse x (x) xi -> x xi the unit is the cyclic vector
    d = sf.dim
    g = cs.gns(Fraction(1))
    w = np.zeros((d, d * d), dtype=complex)
    for mu, x in enumerate(alg.basis()):
        w[:, mu * d:(mu + 1) * d] = lmult_matrix(x)
    collapse = w @ g.lift
    assert np.linalg.norm(collapse @ v - sf.cyclic) < 1e-12


def test_cp_from_unit_recovers_semigroup(pair_system):
    cs, _ = pair_system
    grid = [Fraction(k, 4) for k in range(0, 9)]
    unit = canonical_unit(cs, grid)
    family = cp_from_unit(unit)
    for t, tm in family.items():
        expected = evaluate(cs.semigroup, t).action
        assert np.linalg.norm(tm.action - expected, 2) < 1e-12
    assert semigroup_defect(family) < 1e-10


def test_cp_from_unit_identity_semigroup():
    alg = make_algebra([2])
    sf = standard_form(alg, uniform_state(alg))
    cs = CellSystem(semigroup_from_generator(alg, identity_generator(alg)), sf)
    unit = canonical_unit(cs, [Fraction(k, 2) for k in range(3)])
    family = cp_from_unit(unit)
    for t, tm in family.items():
        assert np.linalg.norm(tm.action - np.eye(alg.dim), 2) < 1e-12


def test_cp_from_unit_recovers_lindblad(m2_lindblad):
    sg, sf = m2_lindblad
    cs = CellSystem(sg, sf)
    grid = [Fraction(k, 4) for k in range(0, 5)]
    unit = canonical_unit(cs, grid)
    family = cp_from_unit(unit)
    for t, tm in family.items():
        expected = evaluate(sg, t).action
        assert np.linalg.norm(tm.action - expected, 2) < 1e-11


def test_cp_from_scaled_unit_scales_quadratically(pair_system):
    cs, _ = pair_system
    grid = [Fraction(k, 4) for k in range(0, 5)]
    rate = 0.37
    unit = canonical_unit(cs, grid).scaled(rate)
    family = cp_from_unit(unit)
    for t, tm in family.items():
        expected = np.exp(-2 * rate * float(t)) * evaluate(cs.semigroup, t).action
        assert np.linalg.norm(tm.action - expected, 2) < 1e-11
    assert semigroup_defect(family) < 1e-10


def test_dimension_law_stable_at_fine_grid(pair_system):
    # near-null directions at small part values must be cut consistently
    cs, _ = pair_system
    for n in [1, 2, 4]:
        p = uniform(Fraction(1, 64) * n, n)
        assert cs.cell(p).dim == n + 2


def test_skewed_state_keeps_tolerances(rng):
    from prodsys.algebra import make_algebra, make_state
    from prodsys.cells import cp_from_unit as cfu
    from prodsys.cpdyn import evaluate as ev, lindblad_generator, semigroup_from_generator

    alg = make_algebra([2])
    sf = standard_form(alg, make_state(alg, [np.diag([0.999, 0.001])]))
    v = alg.element([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
    sg = semigroup_from_generator(alg, lindblad_generator(alg, [v]))
    cs = CellSystem(sg, sf)
    grid = [Fraction(k, 4) for k in range(0, 5)]
    unit = canonical_unit(cs, grid)
    family = cfu(unit)
    worst = max(
        float(np.linalg.norm(tm.action - ev(sg, t).action, 2))
        for t, tm in family.items()
    )
    assert worst < 1e-10
    a = cs.refinement(uniform(Fraction(1, 2), 2), partition([Fraction(1, 2)]))
    rep = verify_map(a, bilinear=True, isometric=True)
    assert rep.passed, rep


def test_cp_from_unit_accepts_small_state_weights(rng):
    # block weight 1e-9 makes the composition entries about 5e8: a residual
    # of 1e-7 is round-off there, and an absolute 1e-8 cutoff rejected it
    sg, sf0 = mixed_semigroup()
    eps = 1e-9
    sf = standard_form(sf0.algebra, make_state(
        sf0.algebra, [np.array([[1 - eps]]), np.diag([eps / 2, eps / 2])]))
    cs = CellSystem(sg, sf)
    t = Fraction(1, 2)
    cell = cs.cell(Partition((t,)))
    v = rng.standard_normal(cell.dim) + 1j * rng.standard_normal(cell.dim)
    v /= np.linalg.norm(v)
    family = cp_from_unit(Unit(cs, {Fraction(0): sf.cyclic.copy(), t: v}))
    # T(1) = <v, v> is the left multiplication b* b, b the bounded-vector map of v
    b = pi_phi(cell, v, sf)
    comp = b.conj().T @ b
    got = lmult_matrix(family[t](sf.algebra.identity()))
    assert np.linalg.norm(got - comp, 2) < 1e-12 * np.linalg.norm(comp, 2)


def test_cp_from_unit_rejects_broken_right_module():
    # transposing the right action leaves no right module: the bounded-vector
    # composition is no longer a left multiplication
    sg, sf = mixed_semigroup()
    cs = CellSystem(sg, sf)
    t = Fraction(1, 2)
    unit = canonical_unit(cs, [t])
    cell = cs.cell(Partition((t,)))
    cs._cells[(t,)] = dataclasses.replace(cell, right=cell.right.transpose(0, 2, 1))
    with pytest.raises(ValueError, match="not well defined"):
        cp_from_unit(unit)


def test_unit_system_isomorphism_identity_case(pair_system):
    cs, sf = pair_system
    grid = [Fraction(k, 4) for k in range(0, 9)]
    unit = canonical_unit(cs, grid)
    for p in [partition([1]), uniform(1, 2), uniform(Fraction(3, 4), 3)]:
        target_elem = cell_target_elementary(cs, unit, list(p.parts))
        u, defect = unit_system_isomorphism(cs, p, cs.cell(p), target_elem)
        assert defect < 1e-10
        rep = verify_map(u, bilinear=True, unitary=True)
        assert rep.passed, (p, rep)
        assert np.linalg.norm(u.matrix - np.eye(cs.cell(p).dim)) < 1e-10


def test_unit_system_isomorphism_compatibility(pair_system):
    cs, sf = pair_system
    grid = [Fraction(k, 4) for k in range(0, 9)]
    unit = canonical_unit(cs, grid)
    ps = uniform(Fraction(1, 2), 1)
    pt = uniform(Fraction(1, 2), 2)
    u_s, _ = unit_system_isomorphism(cs, ps, cs.cell(ps), cell_target_elementary(cs, unit, list(ps.parts)))
    u_t, _ = unit_system_isomorphism(cs, pt, cs.cell(pt), cell_target_elementary(cs, unit, list(pt.parts)))
    joined = join(ps, pt)
    u_st, _ = unit_system_isomorphism(cs, joined, cs.cell(joined),
                                      cell_target_elementary(cs, unit, list(joined.parts)))
    j = cs.collapse(joined, len(ps))
    lhs = j @ np.kron(u_s.matrix, u_t.matrix)
    rhs = u_st.matrix @ j
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10


@pytest.mark.parametrize("system,parts", [("m2_lindblad", 2), ("mixed", 3)])
def test_family_matches_elementary_columns(request, system, parts):
    # the batched fold against one elementary tensor per choice of slot columns
    sg, sf = mixed_semigroup() if system == "mixed" else request.getfixturevalue(system)
    cs = CellSystem(sg, sf)
    p = partition([Fraction(1, 3)] + [Fraction(1, 4)] * (parts - 1))
    rng = np.random.default_rng(parts)
    d = sf.dim
    xs = [rng.standard_normal((d, i + 1)) + 1j * rng.standard_normal((d, i + 1))
          for i in range(parts)]
    vs = [rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)) for _ in range(parts)]
    cols = []
    for combo in np.ndindex(*[n for x in xs for n in (x.shape[1], 2)]):
        cols.append(cs.elementary(
            p, [sf.algebra.from_vec(x[:, combo[2 * i]]) for i, x in enumerate(xs)],
            [v[:, combo[2 * i + 1]] for i, v in enumerate(vs)]))
    reference = np.column_stack(cols)
    batched = cs.family(p.parts, xs, vs)
    assert batched.shape == reference.shape
    assert np.abs(batched - reference).max() < 1e-12 * np.abs(reference).max()


def coarsening_union_rank(unit, p, rtol=1e-10):
    """Rank of every coarsening's unit tensors refined into cell(p); the reference."""
    cs = unit.system
    cols = []
    for c in coarsenings(p):
        if any(t not in unit.vectors for t in c.parts):
            continue
        ref = cs.refinement(p, c).matrix if c != p else np.eye(cs.cell(p).dim)
        cols.append(ref @ cell_target_elementary(cs, unit, c.parts))
    return numerical_rank(np.hstack(cols), rtol)


def _system(request, name):
    if name == "mixed":
        return mixed_semigroup()
    return request.getfixturevalue(name)


@pytest.mark.parametrize("system,p", [
    ("pair", uniform(1, 1)), ("pair", uniform(1, 2)), ("pair", uniform(1, 3)),
    ("pair", uniform(1, 4)), ("m2_lindblad", uniform(Fraction(3, 4), 3)),
    ("mixed", uniform(1, 2)),
])
def test_generating_rank_matches_coarsening_union(request, system, p):
    sg, sf = _system(request, system)
    cs = CellSystem(sg, sf)
    # every sum of consecutive parts, so that no coarsening is skipped
    grid = {sum(p.parts[i:j], Fraction(0)) for i in range(len(p)) for j in range(i + 1, len(p) + 1)}
    unit = canonical_unit(cs, sorted(grid))
    rank, dim = generating_rank(unit, p)
    assert dim == cs.cell(p).dim
    assert rank == coarsening_union_rank(unit, p)


def test_generating_rank_needs_every_part():
    sg, sf = mixed_semigroup()
    cs = CellSystem(sg, sf)
    unit = canonical_unit(cs, [Fraction(1, 2)])
    with pytest.raises(ValueError, match="1/4"):
        generating_rank(unit, partition([Fraction(1, 2), Fraction(1, 4)]))


def test_generating_rank_check_fails_on_a_block_zeroed_unit(monkeypatch):
    cfg = load_config(None, None, 1.0)
    block = cfg.algebra.diagonal([0.0, 1.0])

    def zeroed(cs, grid):
        unit = canonical_unit(cs, grid)
        g = cs.gns(cfg.delta)
        unit.vectors[cfg.delta] = g.left_matrix(block) @ unit.vectors[cfg.delta]
        return unit

    (check,) = [c for c in suite_roundtrip(cfg).checks if c.check_id == "generating-rank"]
    assert check.passed
    monkeypatch.setattr(prodsys.cli, "canonical_unit", zeroed)
    (check,) = [c for c in suite_roundtrip(cfg).checks if c.check_id == "generating-rank"]
    assert not check.passed


def collapse_oracle(cs, p, a):
    """The canonical collapse by the transposed-view recursion; the reference."""
    n, cellp = len(p), cs.cell(p)
    if a == 0:
        return left_materialization(cellp, cs.sf)
    if a == n:
        m = np.tensordot(cs.sf.solve_right_matrix.T, cellp.right, axes=1)
        return m.transpose(1, 2, 0).reshape(cellp.dim, -1)
    da = cs.cell(Partition(p.parts[:a])).dim
    m = cs.cell(Partition(p.parts[:a + 1])).embed
    for j in range(a + 2, n + 1):
        g = cs.gns(p.parts[j - 1])
        sub = cs.cell(Partition(p.parts[a:j]))
        ej = cs.cell(Partition(p.parts[:j])).embed
        rows = ej.shape[0]
        # ej @ kron(m, I_g) @ kron(I_da, sub.lift), on reshaped views
        m = ej.reshape(rows, -1, g.dim).transpose(0, 2, 1) @ m
        m = (m.transpose(0, 2, 1).reshape(rows, da, -1) @ sub.lift).reshape(rows, -1)
    return m


@pytest.mark.parametrize("system,p", [
    ("pair", partition([Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
                        Fraction(1, 16), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)])),
    ("m2_lindblad", partition([Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)])),
    ("mixed", partition([Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)])),
])
def test_collapse_matches_transposed_recursion(request, system, p):
    sg, sf = _system(request, system)
    cs = CellSystem(sg, sf)
    for a in range(len(p) + 1):
        got, ref = cs.collapse(p, a), collapse_oracle(cs, p, a)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12 * max(1.0, np.abs(ref).max()), a


def test_collapse_memory_at_an_interior_cut(m2_lindblad):
    cs = CellSystem(*m2_lindblad)
    p = uniform(Fraction(3, 4), 3)
    cs.cell(p)
    tracemalloc.start()
    try:
        m = cs.collapse(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (256, 1024)
    assert peak < 6 * m.nbytes
