import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from prodsys.algebra import lmult_matrix, make_algebra, make_state, standard_form, uniform_state
from prodsys.bimodule import Bimodule, Quotient, numerical_rank, pi_phi, verify_map
from prodsys.cells import (
    CellSystem,
    Unit,
    canonical_unit,
    cp_from_unit,
    generating_rank,
    semigroup_defect,
    unit_report,
)
from prodsys.cli import load_config, suite_cells, suite_dilate, suite_roundtrip
from prodsys.cpdyn import evaluate, identity_generator, semigroup_from_generator
from prodsys.dilation import TruncatedLimit
import prodsys.bimodule
import prodsys.cells
import prodsys.cli
import prodsys.dilation
from prodsys.partition import Partition, coarsenings, join, partition, uniform

from conftest import (
    cell_target_elementary,
    dense_left,
    dense_maps,
    dense_right,
    left_materialization,
    loop_factorization_defect,
    mixed_semigroup,
    unit_system_isomorphism,
)


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
    lhs = cs.collapse(prst, 2) @ np.kron(dense_maps(cs.cell(prs))[0], np.eye(dt))
    rhs = cs.collapse(prst, 1) @ np.kron(np.eye(dr), dense_maps(cs.cell(pst))[0])
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
                proj = np.tensordot(left.vec(), dense_left(cell), axes=1) @ cell.right_matrix(right)
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
    collapse = w @ dense_maps(g)[1]
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
    assert unit.times == list(family) == grid[1:]  # the grid's 0 holds no vector and no map
    for t, tm in family.items():
        expected = evaluate(sg, t).action
        assert np.linalg.norm(tm.action - expected, 2) < 1e-11


@pytest.mark.parametrize("t", [Fraction(0), Fraction(-1, 2)])
def test_a_unit_refuses_a_time_that_is_not_positive(pair_system, t):
    cs, _ = pair_system
    v = canonical_unit(cs, [Fraction(1, 4)]).vectors[Fraction(1, 4)]
    with pytest.raises(ValueError, match=f"positive times only, got {t}"):
        Unit(cs, {Fraction(1, 4): v, t: v})


def test_cp_from_scaled_unit_scales_quadratically(pair_system):
    cs, _ = pair_system
    grid = [Fraction(k, 4) for k in range(0, 5)]
    rate = 0.37
    unit = canonical_unit(cs, grid)
    # and a unit built at two times only: no xi_0 is stored, so none is restored
    for lam in (unit, Unit(cs, {t: unit.vectors[t] for t in grid[1:3]})):
        family = cp_from_unit(lam.scaled(rate))
        assert list(family) == lam.times
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
    family = cp_from_unit(Unit(cs, {t: v}))
    # T(1) = <v, v> is the left multiplication b* b, b the bounded-vector map of v
    b = pi_phi(cell, v, sf)
    comp = b.conj().T @ b
    got = lmult_matrix(family[t](sf.algebra.identity()))
    assert np.linalg.norm(got - comp, 2) < 1e-12 * np.linalg.norm(comp, 2)


def test_cp_from_unit_rejects_broken_right_module():
    # transposing the right action R_i of one block (the last, where R_i acts
    # on C^2; on the first block it is 1 x 1) leaves no right module: the
    # bounded-vector composition is no longer a left multiplication
    sg, sf = mixed_semigroup()
    cs = CellSystem(sg, sf)
    t = Fraction(1, 2)
    unit = canonical_unit(cs, [t])
    p = Partition((t,))
    cell = cs.cell(p)
    j, l2 = cell.blocks[-1][1], cell.k
    parts = list(l2.right_on_multiplicity)
    parts[j] = parts[j].transpose(0, 2, 1)
    k = Bimodule(l2.algebra, l2.dim, l2.left, l2.right)
    vars(k)["right_on_multiplicity"] = tuple(parts)
    cs._cells[p.key] = Quotient(cell.blocks, cell.h, k)
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


def coarsening_union_rank(unit, p):
    """Rank of every coarsening's unit tensors refined into cell(p); the reference."""
    cs = unit.system
    cols = []
    for c in coarsenings(p):
        if any(t not in unit.vectors for t in c.parts):
            continue
        ref = cs.refinement(p, c).matrix if c != p else np.eye(cs.cell(p).dim)
        cols.append(ref @ cell_target_elementary(cs, unit, c.parts))
    return numerical_rank(np.hstack(cols))


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


def test_generating_rank_is_full_on_a_fine_lindblad_grid(m2_lindblad):
    # one SVD over 3 parts of 1/64 lost 16 directions to the product of the
    # parts' conditions; each part's corners keep their margin
    cs = CellSystem(*m2_lindblad)
    delta = Fraction(1, 64)
    unit = canonical_unit(cs, [k * delta for k in range(4)])
    assert generating_rank(unit, uniform(3 * delta, 3)) == (256, 256)


@pytest.mark.parametrize("system", ["m2_lindblad", "mixed"])
def test_generating_rank_of_cut_units_matches_the_unthinned_family(request, system):
    # unit vectors cut by the corner projection q = e_11 of the last block,
    # from the left at 1/4 and from the right at 1/3, span proper
    # sub-bimodules whose multiplicity matrices do not commute on [1, 2]
    sg, sf = _system(request, system)
    cs = CellSystem(sg, sf)
    p = partition([Fraction(1, 4), Fraction(1, 3), Fraction(1, 5)])
    vectors = canonical_unit(cs, p.parts).vectors
    q = list(sf.algebra.basis())[sf.dim - sf.algebra.blocks[-1] ** 2]
    a, b = p.parts[:2]
    vectors[a] = np.tensordot(q.vec(), dense_left(cs.gns(a)), axes=1) @ vectors[a]
    vectors[b] = cs.gns(b).right_matrix(q) @ vectors[b]
    cut = Unit(cs, vectors)
    for n in (1, 2, 3):
        parts = p.parts[:n]
        rank, dim = generating_rank(cut, Partition(parts))
        assert rank == numerical_rank(cell_target_elementary(cs, cut, parts))
        assert rank < dim


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
        zero = np.tensordot(block.vec(), dense_left(g), axes=1)
        unit.vectors[cfg.delta] = zero @ unit.vectors[cfg.delta]
        return unit

    (check,) = [c for c in suite_roundtrip(cfg).checks if c.check_id == "generating-rank"]
    assert check.passed
    monkeypatch.setattr(prodsys.cli, "canonical_unit", zeroed)
    (check,) = [c for c in suite_roundtrip(cfg).checks if c.check_id == "generating-rank"]
    assert not check.passed


def test_cell_dimension_check_fails_on_a_lossy_relative_tensor(monkeypatch):
    # dim{p} compares the built cell with n^T (prod_t m_t) n from the parts'
    # canonical unit vectors; a relative tensor that keeps one Gram direction
    # too few builds a smaller cell and fails it
    cfg = load_config(None, None, 1.0)
    dims = [c for c in suite_cells(cfg).checks if c.check_id.startswith("dim")]
    assert [c.defect for c in dims] == [0.0] * len(cfg.partitions)
    assert all(c.passed for c in dims)
    real_quotient, real_tensor = prodsys.bimodule._block_quotient, prodsys.cells.relative_tensor

    def one_direction_short(blocks, h, k):
        j = max(i for i, (w, _) in enumerate(blocks) if w.size)
        w, wm = blocks[j]
        return real_quotient([*blocks[:j], (w[:-1], wm[:-1]), *blocks[j + 1:]], h, k)

    def lossy(h, k, sf):
        with monkeypatch.context() as m:
            m.setattr(prodsys.bimodule, "_block_quotient", one_direction_short)
            return real_tensor(h, k, sf)

    monkeypatch.setattr(prodsys.cells, "relative_tensor", lossy)
    cfg = load_config(None, None, 1.0)  # the suite builds its cells in the config's system
    dims = [c for c in suite_cells(cfg).checks if c.check_id.startswith("dim")]
    assert [c.passed for c in dims] == [len(p) == 1 for p in cfg.partitions]
    # the 4-part cell lost every block: its right action has no part, and
    # each action applies to a column block of no rows
    empty = cfg.cells.cell(cfg.partitions[-1])
    assert (empty.dim, empty.right_parts) == (0, [])
    assert empty.right_apply(np.zeros((0, 3))).shape == (cfg.algebra.dim, 0, 3)
    assert empty.left_apply(np.zeros((0, 3))).shape == (cfg.algebra.dim, 0, 3)


def test_tower_rank_checks_fail_on_a_rank_above_the_cell(monkeypatch):
    # the ranks are integer predictions, which may exceed a cell that lost
    # a direction; one multiplicity too many in every corner stands in for that
    cfg = load_config(None, None, 1.0)
    real = prodsys.cells.span_multiplicity

    def inflated(g, xi):
        return real(g, xi) + 1

    monkeypatch.setattr(prodsys.cells, "span_multiplicity", inflated)
    monkeypatch.setattr(prodsys.dilation, "span_multiplicity", inflated)
    checks = {c.check_id: c for s in (suite_roundtrip, suite_dilate) for c in s(cfg).checks}
    assert not checks["generating-rank"].passed and not checks["minimality"].passed


def collapse_oracle(cs, p, a):
    """The canonical collapse by the transposed-view recursion; the reference."""
    n, cellp = len(p), cs.cell(p)
    if a == 0:
        return left_materialization(cellp, cs.sf)
    if a == n:
        m = np.tensordot(cs.sf.solve_right_matrix.T, dense_right(cellp), axes=1)
        return m.transpose(1, 2, 0).reshape(cellp.dim, -1)
    da = cs.cell(Partition(p.parts[:a])).dim
    m = dense_maps(cs.cell(Partition(p.parts[:a + 1])))[0]
    for j in range(a + 2, n + 1):
        g = cs.gns(p.parts[j - 1])
        sub_lift = dense_maps(cs.cell(Partition(p.parts[a:j])))[1]
        ej = dense_maps(cs.cell(Partition(p.parts[:j])))[0]
        rows = ej.shape[0]
        # ej @ kron(m, I_g) @ kron(I_da, sub_lift), on reshaped views
        m = ej.reshape(rows, -1, g.dim).transpose(0, 2, 1) @ m
        m = (m.transpose(0, 2, 1).reshape(rows, da, -1) @ sub_lift).reshape(rows, -1)
    return m


COLLAPSE_CASES = [
    ("pair", partition([Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
                        Fraction(1, 16), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)])),
    ("m2_lindblad", partition([Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)])),
    ("mixed", partition([Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)])),
]


@pytest.mark.parametrize("system,p", COLLAPSE_CASES + [("pair", uniform(1, 16))])
def test_collapse_matches_transposed_recursion(request, system, p):
    sg, sf = _system(request, system)
    # cold: the top cut first, on a system holding no collapse of a prefix
    cold = CellSystem(sg, sf)
    got = {a: cold.collapse(p, a) for a in reversed(range(len(p) + 1))}
    # warm: every prefix collapsed at every cut before p itself
    warm = CellSystem(sg, sf)
    for j in range(len(p)):
        for a in range(j + 1):
            warm.collapse(Partition(p.parts[:j]), a)
    for a in range(len(p) + 1):
        ref = collapse_oracle(cold, p, a)
        assert got[a].shape == ref.shape
        assert np.abs(got[a] - ref).max() < 1e-12 * max(1.0, np.abs(ref).max()), a
        # the same contractions in the same order, whichever prefix was cached
        assert np.array_equal(warm.collapse(p, a), got[a]), a


@pytest.mark.parametrize("system,p", COLLAPSE_CASES)
def test_apply_collapse_matches_dense(request, system, p, rng):
    # C x and C* x on column blocks, at every cut, against the formed
    # collapse; at the end cuts `collapse` is `apply_collapse` of the
    # identity, so there the reference is the transposed-view oracle
    cs = CellSystem(*_system(request, system))
    for a in range(len(p) + 1):
        c = collapse_oracle(cs, p, a) if a in (0, len(p)) else cs.collapse(p, a)
        for cols in (1, 3, 7):
            for m, adjoint in ((c, False), (c.conj().T, True)):
                x = rng.standard_normal((m.shape[1], cols)) + 1j * rng.standard_normal((m.shape[1], cols))
                ref = m @ x
                got = cs.apply_collapse(p, a, x, adjoint=adjoint)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max(), (a, cols, adjoint)


def test_partition_keys_are_exact_integers():
    assert Partition((Fraction(2, 4), Fraction(3))).key == ((1, 2), (3, 1))
    assert Partition((Fraction(2, 4),)).key == Partition((Fraction(1, 2),)).key
    assert Partition((1,)).key == Partition((Fraction(1),)).key == ((1, 1),)
    assert Partition(()).key == ()


def test_warm_cell_caches_hash_no_fraction(pair_system, monkeypatch):
    cs, _ = pair_system
    p = uniform(1, 16)
    t = Fraction(1, 16)
    for a in range(len(p) + 1):
        cs.collapse(p, a)
    hashes = []

    def counting_hash(self, _hash=Fraction.__hash__):
        hashes.append(self)
        return _hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    hash(t)
    assert hashes == [t]  # the counter sees every Fraction hash
    hashes.clear()
    cs.cell(p)
    cs.gns(t)
    for a in range(len(p) + 1):
        cs.collapse(p, a)
    assert hashes == []


def test_warm_interior_collapse_builds_no_partition(pair_system, monkeypatch):
    # a cached step is looked up by its key; the partitions of its prefix
    # and suffix are built only when the step is
    cs, _ = pair_system
    p = uniform(1, 8)
    x = np.ones((cs.cell(Partition(p.parts[:3])).dim * cs.cell(Partition(p.parts[3:])).dim, 1))
    cs.apply_collapse(p, 3, x)
    built, init = [], Partition.__init__

    def counting_init(self, parts):
        built.append(self)
        init(self, parts)

    monkeypatch.setattr(Partition, "__init__", counting_init)
    Partition((1,))
    assert len(built) == 1  # the counter sees every construction
    built.clear()
    cs.apply_collapse(p, 3, x)
    cs.apply_collapse(p, 3, np.ones((cs.cell(p).dim, 1)), adjoint=True)
    assert built == []


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
    # `BlockMap.dense` writes each Z_i into the zeroed result, and the step it
    # reads is built from the prefix's embed applied to a block far smaller
    # than the result, so the peak is the result plus little
    assert peak < 2 * m.nbytes + 2**16


def test_warm_refinement_memory(m2_lindblad):
    # the cached group isometry acts on the coupling axis of the lifted block:
    # a warm 4 <- 2 refinement (a 1024 x 64 result, 1 MiB) holds that block's
    # 4 MiB image and the collapse's temporaries, little more
    cs = CellSystem(*m2_lindblad)
    p, q = uniform(1, 4), uniform(1, 2)
    cs.refinement(p, q)
    tracemalloc.start()
    try:
        a = cs.refinement(p, q).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (1024, 64)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("system", ["pair", "m2_lindblad", "mixed"])
def test_group_isometry_sends_each_pair_to_its_unit_tensor(request, system, parts):
    # y (.) eta in the coupling at t goes to the tensor of sub with y first,
    # eta last and the unit's (1, Omega) between.  The map is family times the
    # coupling's lift, so this holds only if the lift's null directions go to
    # zero in cell(sub)
    cs = CellSystem(*_system(request, system))
    sf, sub = cs.sf, partition([Fraction(1, 3)] + [Fraction(1, 4)] * (parts - 1))
    t, eye = sub.total, np.eye(sf.dim)
    one, omega = sf.algebra.identity().vec()[:, None], sf.cyclic[:, None]
    f = cs._group(sub, t)
    assert f.shape == (cs.cell(sub).dim, cs.gns(t).dim)
    mapped, tensors = [], []
    for y, eta in np.ndindex(sf.dim, sf.dim):
        mapped.append(f @ cs.gns(t).embed_pairs(eye[:, [y]], eye[:, [eta]]))
        tensors.append(cs.family(sub.parts, [eye[:, [y]]] + [one] * (parts - 1),
                                 [omega] * (parts - 1) + [eye[:, [eta]]]))
    mapped, tensors = np.hstack(mapped), np.hstack(tensors)
    assert np.abs(mapped - tensors).max() < 1e-12 * np.abs(tensors).max()
    assert np.abs(f.conj().T @ f - np.eye(f.shape[1])).max() < 1e-12


def test_no_dense_collapse_on_the_production_path(m2_lindblad, monkeypatch, rng):
    # every collapse step is built from the applied collapse of its prefix, so
    # with the dense forms forbidden each applied route runs on a fresh system
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense collapse was formed")

    monkeypatch.setattr(CellSystem, "collapse", forbidden)
    monkeypatch.setattr(prodsys.bimodule.BlockMap, "dense", forbidden)
    sg, sf = m2_lindblad
    cs, p = CellSystem(sg, sf), uniform(1, 4)
    for a in range(1, len(p)):
        rows = cs.cell(Partition(p.parts[:a])).dim * cs.cell(Partition(p.parts[a:])).dim
        x = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        y = rng.standard_normal((cs.cell(p).dim, 2)) + 1j * rng.standard_normal((cs.cell(p).dim, 2))
        cx, cy = cs.apply_collapse(p, a, x), cs.apply_collapse(p, a, y, adjoint=True)
        lhs, rhs = cx.conj().T @ y, x.conj().T @ cy  # <C x, y> = <x, C* y>
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(lhs).max(), a
    q = uniform(1, 2)
    x = rng.standard_normal((cs.cell(q).dim, 3)) + 1j * rng.standard_normal((cs.cell(q).dim, 3))
    assert np.allclose(np.linalg.norm(cs.refine_apply(p, q, x), axis=0), np.linalg.norm(x, axis=0))
    u = cs.multiply(Partition((Fraction(1, 4),)), uniform(Fraction(1, 2), 2)).matrix
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-12
    unit = canonical_unit(cs, [k * Fraction(1, 4) for k in range(4)])
    tl = TruncatedLimit(unit, Fraction(1, 4), 3)
    for j in (1, 2):
        fold, unfold = tl.split(3, j)
        assert np.abs(fold @ unfold - np.eye(len(fold))).max() < 1e-12, j


def test_refinement_rejects_partitions_that_do_not_refine(pair_system):
    cs, _ = pair_system
    with pytest.raises(ValueError, match="does not refine"):
        cs.refinement(Partition((Fraction(1, 3), Fraction(2, 3))), uniform(1, 2))
    with pytest.raises(ValueError, match="does not refine"):
        cs.refinement(uniform(1, 2), uniform(1, 4))
    with pytest.raises(ValueError, match="totals differ"):
        cs.refinement(uniform(1, 2), uniform(2, 1))


def test_cached_cell_actions_are_read_only(pair_system):
    # a quotient carries no action stack: its left map is built on first
    # read, its right parts are shared by every quotient over the same right
    # factor, and the collapse steps are cached, so an in-place write must
    # fail instead of changing them
    cs, _ = pair_system
    p = uniform(1, 3)
    steps = cs._step(p, 1).blocks
    for cell in (cs.gns(Fraction(1, 3)), cs.cell(p)):
        assert not hasattr(cell, "left") and not hasattr(cell, "right")
        assert cell.left_map is cell.left_map
        for arr in (*(z for _, _, z, _ in cell.left_map.blocks + steps),
                    *(r for _, r in cell.right_parts)):
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0
            assert np.array_equal(arr, before)
    # every relative tensor with the coupling on the left reads its Gram
    # off the right multiplicity of its parts, cached on the right factor
    # that made them, and shares one Gram factor W per block
    g = cs.gns(Fraction(1, 2))
    fused = cs.cell(Partition((Fraction(1, 2), Fraction(1, 3)))).blocks
    for x in (*(x for ranges in g.part_ranges for x in ranges),
              *(wm[None] for *_, wm in fused)):
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0, 0] = 1.0


@pytest.mark.parametrize("system,p", COLLAPSE_CASES)
def test_collapse_steps_give_the_same_bits_cold_and_cached(request, system, p, rng):
    # every extension step of p cached on one system; each query on the
    # other is the first on a fresh system, which builds what it reads
    sg, sf = _system(request, system)
    warm = CellSystem(sg, sf)
    for a in range(len(p) + 1):
        warm.collapse(p, a)
    for a in range(len(p) + 1):
        rows = [warm.cell(q).dim for q in (Partition(p.parts[:a]), Partition(p.parts[a:]))]
        for adjoint, n in ((False, rows[0] * rows[1]), (True, warm.cell(p).dim)):
            x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            cold = CellSystem(sg, sf).apply_collapse(p, a, x, adjoint=adjoint)
            assert np.array_equal(warm.apply_collapse(p, a, x, adjoint=adjoint), cold), (a, adjoint)
        assert np.array_equal(warm.collapse(p, a), CellSystem(sg, sf).collapse(p, a)), a


@pytest.mark.parametrize("system,delta,levels", [
    ("pair", Fraction(1, 8), 8), ("mixed", Fraction(1, 4), 3), ("m2_lindblad", Fraction(1, 4), 2)])
def test_unit_factorization_matches_the_pair_loop(request, system, delta, levels):
    cs = CellSystem(*_system(request, system))
    unit = canonical_unit(cs, [k * delta for k in range(levels + 1)])
    fact = unit_report(unit).factorization_defect
    assert cs._groups == {}  # the group map is applied, not formed
    assert abs(fact - loop_factorization_defect(unit)) < 1e-13
    # xi negated at 2 delta: every level stays a unit vector, and the pairs
    # whose sum or part is 2 delta break
    flipped = Unit(cs, {**unit.vectors, 2 * delta: -unit.vectors[2 * delta]})
    fact = unit_report(flipped).factorization_defect
    assert fact > 1.0
    assert abs(fact - loop_factorization_defect(flipped)) <= 1e-13 * fact
