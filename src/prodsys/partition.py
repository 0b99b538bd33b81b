"""Partitions of a time interval with exact rational arithmetic.

A partition is an ordered tuple of positive rationals; its total is their
sum.  The join of two partitions is concatenation, which partitions the sum
of the totals.  A partition p refines q (same total) when the parts of p
group consecutively, with exact sums, into the parts of q.  Refinement is
decided exactly, which is why parts are `Fraction`s and never floats; it
and the grid pairs of a semigroup law (`sum_pairs`) are decided on integer
numerators over a common denominator, with no `Fraction` sum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Partition:
    """Positive rational parts; `key`, the exact cache key, holds them as (num, den) pairs."""
    parts: tuple[Fraction, ...]

    def __post_init__(self):
        # exact types first: the ABC check is the slow path, kept for other rationals
        if bad := [p for p in self.parts if type(p) is not Fraction and type(p) is not int
                   and not isinstance(p, numbers.Rational)]:
            raise TypeError(f"parts must be rational, got {bad[0]!r}")
        object.__setattr__(self, "key", tuple((p.numerator, p.denominator) for p in self.parts))
        if any(num <= 0 for num, _ in self.key):
            raise ValueError(f"parts must be positive, got {self.parts}")

    @property
    def total(self) -> Fraction:
        return sum(self.parts, Fraction(0))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def cuts(self) -> tuple[Fraction, ...]:
        """Interior cumulative sums, excluding the total itself."""
        out, acc = [], Fraction(0)
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return tuple(out)


def partition(parts: Iterable) -> Partition:
    return Partition(tuple(Fraction(p) for p in parts))


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of rationals such as '1/4,1/4,1/2'."""
    return partition(s.strip() for s in text.split(","))


def uniform(total, n: int) -> Partition:
    t = Fraction(total)
    return Partition((t / n,) * n)


def join(p: Partition, q: Partition) -> Partition:
    """Concatenation; partitions the sum of the two totals."""
    return Partition(p.parts + q.parts)


def _groups(p: Partition, q: Partition) -> list[Partition] | None:
    """Consecutive sub-partitions of p summing to the parts of q, or None if there are none:
    p refines q when every cumulative sum of q, over the keys' common denominator, is one of p."""
    den = math.lcm(*(d for _, d in p.key + q.key))
    cp, cq = (list(accumulate(n * (den // d) for n, d in x.key)) for x in (p, q))
    if cp[-1:] != cq[-1:]:
        raise ValueError(f"totals differ: {p.total} vs {q.total}")
    ends = {c: i + 1 for i, c in enumerate(cp)}
    if any(c not in ends for c in cq):
        return None
    cuts = [0] + [ends[c] for c in cq]
    return [Partition(p.parts[a:b]) for a, b in zip(cuts, cuts[1:])]


def refines(p: Partition, q: Partition) -> bool:
    """Whether the parts of p group consecutively into the parts of q."""
    return _groups(p, q) is not None


def grouping(p: Partition, q: Partition) -> list[Partition]:
    """Split p into consecutive sub-partitions summing to the parts of q."""
    out = _groups(p, q)
    if out is None:
        raise ValueError(f"{p} does not refine {q}")
    return out


def common_refinement(p: Partition, q: Partition) -> Partition:
    """Overlay of the cut points of two partitions of the same total."""
    if p.total != q.total:
        raise ValueError(f"totals differ: {p.total} vs {q.total}")
    points = sorted(set(p.cuts()) | set(q.cuts()) | {p.total})
    parts, prev = [], Fraction(0)
    for pt in points:
        parts.append(pt - prev)
        prev = pt
    return Partition(tuple(parts))


def coarsenings(p: Partition) -> list[Partition]:
    """All partitions obtained by merging consecutive parts of p."""
    n = len(p)
    if n == 0:
        return [p]
    out = []
    for mask in range(1 << (n - 1)):
        parts, acc = [], p.parts[0]
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                parts.append(acc)
                acc = p.parts[i]
            else:
                acc += p.parts[i]
        parts.append(acc)
        out.append(Partition(tuple(parts)))
    return out


def sum_pairs(times: Sequence, targets: Sequence) -> list[tuple[int, int, int]]:
    """Index triples (i, j, k) with times[i] + times[j] == targets[k], i major then j: the
    grid pairs of a semigroup law, summed over the common denominator of all the times."""
    keys = [[(t.numerator, t.denominator) for t in map(Fraction, ts)] for ts in (times, targets)]
    den = math.lcm(*(d for key in keys for _, d in key))
    nums, sums = ([n * (den // d) for n, d in key] for key in keys)
    at = {n: k for k, n in enumerate(sums)}
    return [(i, j, at[a + b])
            for i, a in enumerate(nums) for j, b in enumerate(nums) if a + b in at]
