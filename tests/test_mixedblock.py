"""Integration run on a mixed-block algebra with a block-mixing generator.

The semigroup interpolates towards the swap-style expectation sending the
scalar block to the normalized trace of the matrix block and the matrix
block to the scalar times the identity.  It mixes blocks of different
sizes, so it exercises every construction away from the single-block and
commutative corners.
"""

from fractions import Fraction

import numpy as np
import pytest

from prodsys.bimodule import verify_map
from prodsys.cells import CellSystem, canonical_unit, cp_from_unit, unit_report
from prodsys.cpdyn import evaluate, verify_ucp
from prodsys.dilation import TruncatedLimit, compression_defect, minimality_evidence
from prodsys.partition import partition, uniform

from conftest import embedding_isometry_defect, mixed_semigroup


@pytest.fixture(scope="module")
def mixed():
    sg, sf = mixed_semigroup()
    return CellSystem(sg, sf), sf


def test_mixing_semigroup_is_ucp(mixed):
    cs, _ = mixed
    for t in [0.25, 0.5, 1.0, 2.0]:
        rep = verify_ucp(evaluate(cs.semigroup, t), 1e-10)
        assert rep.passed, (t, rep)


def test_mixed_cells_and_refinement(mixed):
    cs, _ = mixed
    q = partition([Fraction(1, 2)])
    p = uniform(Fraction(1, 2), 2)
    assert cs.cell(q).dim > 0
    a = cs.refinement(p, q)
    rep = verify_map(a, bilinear=True, isometric=True)
    assert rep.passed, rep
    u = cs.multiply(q, q)
    rep2 = verify_map(u, bilinear=True, unitary=True)
    assert rep2.passed, rep2


def test_mixed_unit_roundtrip(mixed):
    cs, _ = mixed
    grid = [Fraction(k, 4) for k in range(0, 5)]
    unit = canonical_unit(cs, grid)
    rep = unit_report(unit)
    assert rep.unital_defect < 1e-10
    assert rep.factorization_defect < 1e-10
    family = cp_from_unit(unit)
    worst = max(
        float(np.linalg.norm(tm.action - evaluate(cs.semigroup, t).action, 2))
        for t, tm in family.items()
    )
    assert worst < 1e-10


def test_mixed_dilation_tower(mixed):
    # full-rank couplings: cell dimensions grow as 5^k, so stay at two levels
    cs, sf = mixed
    delta, levels = Fraction(1, 4), 2
    unit = canonical_unit(cs, [k * delta for k in range(levels + 1)])
    tl = TruncatedLimit(cs, unit, delta, levels)
    assert embedding_isometry_defect(tl) < 1e-10
    worst = max(
        compression_defect(tl, k * delta, [x])[0]
        for x in sf.algebra.basis()
        for k in range(1, levels + 1)
    )
    assert worst < 1e-9
    assert minimality_evidence(tl).full
