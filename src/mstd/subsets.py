"""Subsets of a finite abelian group as bit vectors, sum/difference sets,
and the lift from group subsets to integer sets.

A subset A is a mask with bit i set iff element i is in A. Translation of a
whole mask by a group element decomposes, factor by factor, into a cyclic
rotation of equally-sized bit blocks, so

    A + A = union over a in A of (A translated by a)
    A - A = union over b in A of (A translated by -b)

cost O(|A| * rank) word operations instead of the |A|^2 double loop.

The arithmetic behind translation depends only on the group, so each group
gets one memoised translation plan (`translation_plan`): for each element e,
the (keep, up, wrap, down) rotation of each nonzero digit of e, and the
index of -e. Both are filled per element on first use, so a sparse mask on
a large group builds only the rotations its elements need. A full plan of a
group of order n holds n move tuples of at most rank entries and n negation
entries (about 230 bytes per element in CPython), plus one rotation per
(digit, shift): sum(a_i) pairs of n-bit masks. The numpy block engine
(`_kernels.Tables`) runs the same plan on uint64 arrays.

Lifting: a subset of Z/a_1 x ... x Z/a_r pulls back to the integer box
[0, k*a_1) x ... x [0, k*a_r) by congruence in each coordinate, and the box
maps injectively to the integers via base-m positional encoding once m
exceeds every coordinate sum that can arise. Subsets of a cyclic group lift
directly to residue-class representatives below k*n.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .groups import GroupSpec


@dataclass(frozen=True)
class SubsetMask:
    """An immutable subset of a group, stored as an integer bit mask."""

    group: GroupSpec
    bits: int

    def __post_init__(self) -> None:
        # a float mask such as 1.5 is refused here, not by sumset's `&` later
        object.__setattr__(self, "bits", operator.index(self.bits))
        if not 0 <= self.bits < (1 << self.group.order):
            raise ValueError(
                f"mask {self.bits:#x} out of range for group of order {self.group.order}"
            )

    @classmethod
    def empty(cls, group: GroupSpec) -> "SubsetMask":
        return cls(group, 0)

    @classmethod
    def full(cls, group: GroupSpec) -> "SubsetMask":
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def from_elements(cls, group: GroupSpec, elements: Iterable[int]) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not 0 <= e < group.order:
                raise ValueError(f"element {e} out of range for group {group}")
            bits |= 1 << e
        return cls(group, bits)

    @classmethod
    def from_string(cls, group: GroupSpec, text: str) -> "SubsetMask":
        """Parse a subset literal like "{0,2,3}" (indices; "{}" is empty)."""
        s = text.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"subset literal must be brace-delimited, got {text!r}")
        body = s[1:-1].strip()
        if not body:
            return cls.empty(group)
        return cls.from_elements(group, (int(p) for p in body.split(",")))

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.group.order and bool((self.bits >> e) & 1)

    def elements(self) -> tuple[int, ...]:
        bits = self.bits
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)


@lru_cache(maxsize=None)
def _digit_lt_mask(group: GroupSpec, i: int, c: int) -> int:
    """Mask of all indices whose i-th digit is < c (c in [0, a_i])."""
    s = group.strides[i]
    a = group.factors[i]
    block_len = s * a
    block = (1 << (c * s)) - 1
    repeat = ((1 << group.order) - 1) // ((1 << block_len) - 1)
    return block * repeat


@lru_cache(maxsize=None)
def _rotation(group: GroupSpec, i: int, v: int) -> tuple[int, int, int, int]:
    """(keep, up, wrap, down) for rotating digit i by v on a whole mask."""
    s = group.strides[i]
    a = group.factors[i]
    keep = _digit_lt_mask(group, i, a - v)
    wrap = _digit_lt_mask(group, i, a) & ~keep
    return keep, v * s, wrap, (a - v) * s


class _PerElement(dict):
    """A table over the elements of a group, each entry built on first lookup."""

    def __init__(self, build: Callable[[int], object]):
        super().__init__()
        self.build = build

    def __missing__(self, e: int):
        # a float key equal to an index would store a float entry under it
        out = self[e] = self.build(operator.index(e))
        return out


class TranslationPlan(NamedTuple):
    """Translation arithmetic of one group: `moves[e]` holds the (keep, up,
    wrap, down) rotation of each nonzero digit of e, `neg[e]` the index of -e."""

    moves: Mapping[int, tuple[tuple[int, int, int, int], ...]]
    neg: Mapping[int, int]


@lru_cache(maxsize=None)
def translation_plan(group: GroupSpec) -> TranslationPlan:
    """The group's translation plan, built once per group and filled per
    element on first use."""

    def moves(e: int) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(_rotation(group, i, v) for i, v in enumerate(group.digits(e)) if v)

    return TranslationPlan(_PerElement(moves), _PerElement(group.neg))


def _translate(bits: int, moves: tuple[tuple[int, int, int, int], ...]) -> int:
    for keep, up, wrap, down in moves:
        bits = ((bits & keep) << up) | ((bits & wrap) >> down)
    return bits


def translate_mask(group: GroupSpec, bits: int, g: int) -> int:
    """Mask of {x + g : x in the mask}; g must be an element index."""
    group._check(g)
    return _translate(bits, translation_plan(group).moves[g])


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def sumset(subset: SubsetMask) -> SubsetMask:
    """A + A = {a + b : a, b in A}."""
    g = subset.group
    bits = subset.bits
    moves = translation_plan(g).moves
    out = 0
    for a in _iter_bits(bits):
        out |= _translate(bits, moves[a])
    return SubsetMask(g, out)


def diffset(subset: SubsetMask) -> SubsetMask:
    """A - A = {a - b : a, b in A}; always closed under negation."""
    g = subset.group
    bits = subset.bits
    moves, neg = translation_plan(g)
    out = 0
    for b in _iter_bits(bits):
        out |= _translate(bits, moves[neg[b]])
    return SubsetMask(g, out)


def is_mstd(subset: SubsetMask) -> bool:
    """True iff A has more sums than differences."""
    return len(sumset(subset)) > len(diffset(subset))


def _dedup_sorted(values: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(values)))


def integer_sumset(s: Iterable[int]) -> tuple[int, ...]:
    vals = _dedup_sorted(s)
    return _dedup_sorted(a + b for a, b in itertools.combinations_with_replacement(vals, 2))


def integer_diffset(s: Iterable[int]) -> tuple[int, ...]:
    vals = _dedup_sorted(s)
    return _dedup_sorted(a - b for a in vals for b in vals)


def integer_mstd_check(s: Iterable[int]) -> tuple[bool, int, int]:
    """Exact (is_mstd, |S+S|, |S-S|) for a finite integer set."""
    vals = _dedup_sorted(s)
    n_sums = len(integer_sumset(vals))
    n_diffs = len(integer_diffset(vals))
    return n_sums > n_diffs, n_sums, n_diffs


def lift_cyclic(subset: SubsetMask, k: int) -> tuple[int, ...]:
    """All residue-class representatives of A below k*n, for cyclic groups."""
    if subset.group.rank > 1:
        raise ValueError("lift_cyclic requires a cyclic group; use lift_general")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = subset.group.order
    return tuple(sorted(a + n * j for j in range(k) for a in subset.elements()))


def default_lift_base(group: GroupSpec, k: int) -> int:
    """Base that is strictly larger than any coordinate sum on the lifted box."""
    return 2 * k * max(group.factors) + 1


def lift_general(subset: SubsetMask, k: int, m: int | None = None) -> tuple[int, ...]:
    """Lift A to the box [0, k*a_i) per coordinate, then encode in base m.

    The encoding sends (b_1, ..., b_r) to sum(b_i * m**(i-1)). It is
    injective and respects coordinatewise sums/differences on the box as
    long as m exceeds every coordinate sum, i.e. m > 2*(k*max(a_i) - 1).
    """
    g = subset.group
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.rank == 0:
        return (0,) if subset.bits else ()
    if m is None:
        m = default_lift_base(g, k)
    if m <= 2 * (k * max(g.factors) - 1):
        raise ValueError(
            f"base {m} too small to encode the lifted box faithfully; "
            f"need m > {2 * (k * max(g.factors) - 1)}"
        )
    out = []
    for e in subset.elements():
        digits = g.digits(e)
        reps = [range(d, k * a, a) for d, a in zip(digits, g.factors)]
        for combo in itertools.product(*reps):
            out.append(sum(b * m**i for i, b in enumerate(combo)))
    return tuple(sorted(out))
