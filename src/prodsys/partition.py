"""Partitions of a time interval with exact rational arithmetic.

A partition is an ordered tuple of positive rationals; its total is their
sum.  The join of two partitions is concatenation, which partitions the sum
of the totals.  A partition p refines q (same total) when the parts of p
group consecutively, with exact sums, into the parts of q.  Refinement is
decided exactly, which is why parts are `Fraction`s and never floats.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Partition:
    """Positive rational parts; `key`, the exact cache key, holds them as (num, den) pairs."""
    parts: tuple[Fraction, ...]

    def __post_init__(self):
        if bad := [p for p in self.parts if not isinstance(p, numbers.Rational)]:
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
    """Consecutive sub-partitions of p summing to the parts of q, or None if there are none."""
    if p.total != q.total:
        raise ValueError(f"totals differ: {p.total} vs {q.total}")
    out, i = [], 0
    for target in q.parts:
        acc, start = Fraction(0), i
        while acc < target:  # with equal totals of positive parts, p never runs out here
            acc += p.parts[i]
            i += 1
        if acc != target:
            return None
        out.append(Partition(p.parts[start:i]))
    return out


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
