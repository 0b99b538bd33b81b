import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import prodsys
from prodsys.algebra import make_algebra, standard_form, uniform_state
from prodsys.bimodule import BimoduleMap, MapReport
from prodsys.cells import UnitReport
from prodsys.classify import E0Semigroup, EndomorphismReport, EquivalenceReport, cocycle_equivalence
from prodsys.cli import Check
from prodsys.cpdyn import CpMap, UcpReport
from prodsys.dilation import MinimalityReport, TruncatedOperator
from prodsys.heatmarkov import KernelReport, PathMeasure
from prodsys.partition import partition

A = np.eye(2)  # one array shared by both copies of a record: arrays compare by identity first
RECORDS = [
    (MapReport, (1e-12, None, 0.5, 1e-10)),
    (UnitReport, (0.0, 1e-16, 2e-15)),
    (UcpReport, (1e-15, -1e-17, 1e-10)),
    (EndomorphismReport, (1e-15, 0.0, 2e-16)),
    (EquivalenceReport, (True, None, 1e-15, 0.0, (), {Fraction(1, 4): 1e-15})),
    (MinimalityReport, (3, 4)),
    (KernelReport, (0.0, 1e-16, 2e-16)),
    (PathMeasure, (partition([1, 2]), A)),
    (Check, ("cells", "dim-law", "anchor", 0.0, 1e-10)),
    (BimoduleMap, ("source", "target", A)),
    (CpMap, (make_algebra([1, 1]), A)),
    (TruncatedOperator, ("tower", 2, A)),
]


def test_no_class_is_generated_at_import():
    # dataclasses compile every class's methods when the class is created, which every
    # process pays on `import prodsys.cli`; prodsys defines its classes without them
    modules = [importlib.import_module(f"prodsys.{m.name}")
               for m in pkgutil.iter_modules(prodsys.__path__) if not m.name.startswith("_")]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    assert len(classes) >= 27
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


@pytest.mark.parametrize("cls, args", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_are_immutable_values(cls, args):
    rec = cls(*args)
    assert rec == cls(*args) and rec is not cls(*args)
    assert rec != rec._replace(**{cls._fields[0]: "other"})
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(rec) == args


def test_check_passed_and_minimality_full():
    assert Check("s", "c", "a", 1e-10, 1e-10).passed
    assert not Check("s", "c", "a", 2e-10, 1e-10).passed
    assert not Check("s", "c", "a", float("nan"), 1.0).passed
    assert MinimalityReport(4, 4).full and not MinimalityReport(3, 4).full


def test_refused_equivalence_reports_share_no_defects():
    alg = make_algebra([1, 1])
    alpha = E0Semigroup(alg, lambda t: np.eye(alg.dim, dtype=complex))
    beta = E0Semigroup(alg, lambda t: 2 * np.eye(alg.dim, dtype=complex))
    first, second = (cocycle_equivalence(alpha, beta, Fraction(1, 4), 2) for _ in range(2))
    assert not first.equivalent and first.failures[0][1] == "beta is not an endomorphism"
    assert first.conjugation_defects == second.conjugation_defects == {}
    assert first.conjugation_defects is not second.conjugation_defects


def test_algebras_compare_by_blocks():
    assert make_algebra([1, 1]) == make_algebra([1, 1])
    assert make_algebra([1, 1]) != make_algebra([2])
    assert hash(make_algebra([2, 1])) == hash(make_algebra([2, 1]))
    assert len({make_algebra([1, 1]), make_algebra([1, 1]), make_algebra([1])}) == 2


def test_derived_constants_are_computed_once():
    alg = make_algebra([1, 2])
    assert vars(alg)["dim"] == 5
    sf = standard_form(alg, uniform_state(alg))
    assert vars(sf)["dim"] == 5 and sf.cyclic is sf.cyclic and not sf.cyclic.flags.writeable
    assert np.array_equal(sf.cyclic, np.concatenate([r.reshape(-1) for r in sf.root]))
