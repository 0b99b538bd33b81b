import re
from fractions import Fraction

import pytest

from prodsys.partition import (
    Partition,
    coarsenings,
    common_refinement,
    grouping,
    join,
    parse_partition,
    partition,
    refines,
    sum_pairs,
    uniform,
)


def test_join_is_concatenation():
    p = partition(["1/2", "1/2"])
    q = partition([1])
    assert join(p, q) == partition(["1/2", "1/2", "1"])
    assert join(p, q).total == Fraction(2)


def test_empty_partition_is_join_neutral():
    p = partition(["1/3", "2/3"])
    e = Partition(())
    assert join(p, e) == p
    assert join(e, p) == p


def test_refines_grouping_cases():
    assert refines(partition(["1/4", "1/4", "1/2"]), partition(["1/2", "1/2"]))
    assert not refines(partition(["1/2", "1/2"]), partition(["1/3", "2/3"]))
    assert refines(partition([1]), partition([1]))


def test_refines_requires_equal_totals():
    with pytest.raises(ValueError):
        refines(partition([1]), partition([2]))


def test_common_refinement_overlay():
    c = common_refinement(partition(["1/2", "1/2"]), partition(["1/3", "2/3"]))
    assert c == partition(["1/3", "1/6", "1/2"])
    assert refines(c, partition(["1/2", "1/2"]))
    assert refines(c, partition(["1/3", "2/3"]))


def test_grouping_splits_consistently():
    p = partition(["1/8"] * 8)
    q = partition(["1/4", "1/2", "1/4"])
    groups = grouping(p, q)
    assert [len(g) for g in groups] == [2, 4, 2]
    assert [g.total for g in groups] == list(q.parts)


def test_uniform_and_parse():
    assert uniform(1, 4) == parse_partition("1/4, 1/4, 1/4, 1/4")
    assert uniform(Fraction(1, 2), 2).parts == (Fraction(1, 4), Fraction(1, 4))


def test_positive_parts_enforced():
    with pytest.raises(ValueError):
        partition(["1/2", "0"])
    with pytest.raises(ValueError):
        Partition((Fraction(1, 2), Fraction(-1, 4)))


@pytest.mark.parametrize("part", [0.5, "1/2", complex(1, 0)])
def test_non_rational_parts_are_rejected(part):
    # a float part would compare and hash equal to its Fraction and share its cells
    with pytest.raises(TypeError, match=re.escape(repr(part))):
        Partition((Fraction(1, 4), part))


def test_converting_constructors_accept_floats_and_strings():
    assert partition([0.5, "1/4", 1]).parts == (Fraction(1, 2), Fraction(1, 4), Fraction(1))
    assert parse_partition(" 1/2 , 0.25").parts == (Fraction(1, 2), Fraction(1, 4))


def test_coarsenings_enumeration():
    p = uniform(1, 3)
    cs = coarsenings(p)
    assert len(cs) == 4
    assert p in cs
    assert partition([1]) in cs
    for c in cs:
        assert refines(p, c)


def test_exactness_of_dyadic_chain():
    chain = [uniform(1, 2 ** k) for k in range(5)]
    for fine, coarse in zip(chain[1:], chain[:-1]):
        assert refines(fine, coarse)
    assert refines(chain[-1], chain[0])


def test_grouping_decides_unlike_denominators_on_integer_keys(monkeypatch):
    p = partition(["1/3", "1/6", "1/2"])
    halves = partition(["1/2", "1/2"])
    eps = Fraction(1, 10**12)
    near = Partition((Fraction(1, 3), Fraction(1, 6) - eps, Fraction(1, 2) + eps))
    sums = []

    def counting_add(self, other, _add=Fraction.__add__):
        sums.append(self)
        return _add(self, other)

    monkeypatch.setattr(Fraction, "__add__", counting_add)
    assert grouping(p, halves) == [partition(["1/3", "1/6"]), partition(["1/2"])]
    assert refines(p, partition([1]))
    assert not refines(near, halves)  # equal totals, no cut at 1/2
    assert sums == []  # decided on the (num, den) keys, with no Fraction sum
    monkeypatch.undo()
    with pytest.raises(ValueError, match="does not refine"):
        grouping(near, halves)
    with pytest.raises(ValueError, match="totals differ"):
        grouping(p, Partition((Fraction(1, 2), Fraction(1, 2) + eps)))


def test_sum_pairs_finds_every_exact_grid_sum():
    times = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), Fraction(1, 10**9)]
    targets = [Fraction(2, 3), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(0)]
    want = [(i, j, targets.index(s + t)) for i, s in enumerate(times)
            for j, t in enumerate(times) if s + t in targets]
    assert sum_pairs(times, targets) == want
    assert (0, 1, 1) in want and (1, 0, 1) in want  # 1/3 + 1/6 = 1/2, both orders
    assert sum_pairs([], targets) == [] and sum_pairs(times, []) == []
