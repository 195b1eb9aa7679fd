"""Finite abelian groups presented as products of cyclic factors.

A group is described by an ordered tuple of cyclic orders (a_1, ..., a_r),
each >= 2; the empty tuple is the trivial group. Elements are identified
with integers in [0, order) through the mixed-radix bijection

    index = e_1 + e_2*a_1 + e_3*a_1*a_2 + ...

with digit e_i in [0, a_i). The factor list is kept exactly as given (no
normal-form reduction), so "12,2" and "2,12" are distinct presentations of
isomorphic groups and index their elements differently.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterator

#: Largest supported group order (element-indexed tables stay desk-scale).
MAX_ORDER = 1 << 20


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z/a_1 x ... x Z/a_r with canonical indexing."""

    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # operator.index refuses 7.9 and "12" (TypeError) instead of truncating
        factors = tuple(operator.index(a) for a in self.factors)
        object.__setattr__(self, "factors", factors)
        for a in factors:
            if a < 2:
                raise ValueError(f"cyclic factor must be >= 2, got {a}")
        if prod(factors) > MAX_ORDER:
            raise ValueError(
                f"group order {prod(factors)} exceeds the supported maximum {MAX_ORDER}"
            )

    @classmethod
    def from_string(cls, text: str) -> "GroupSpec":
        """Parse a comma-separated factor list, e.g. "8" or "12,2" ("1" is trivial)."""
        s = text.strip()
        if s == "1":
            return cls(())
        try:
            factors = tuple(int(part) for part in s.split(","))
        except ValueError:
            raise ValueError(f"cannot parse group spec {text!r}") from None
        return cls(factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return ",".join(str(a) for a in self.factors)

    @cached_property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for a in self.factors:
            out.append(s)
            s *= a
        return tuple(out)

    @cached_property
    def exponent(self) -> int:
        """lcm of the factor orders; every element order divides this."""
        return lcm(*self.factors) if self.factors else 1

    def elements(self) -> range:
        return range(self.order)

    def digits(self, x: int) -> tuple[int, ...]:
        """Mixed-radix digits (e_1, ..., e_r) of an element index."""
        self._check(x)
        return tuple((x // s) % a for s, a in zip(self.strides, self.factors))

    def index(self, digits: tuple[int, ...]) -> int:
        """Element index of a digit tuple (digits reduced mod each factor)."""
        if len(digits) != self.rank:
            raise ValueError(f"expected {self.rank} digits, got {len(digits)}")
        return sum((e % a) * s for e, a, s in zip(digits, self.factors, self.strides))

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        out = 0
        for s, a in zip(self.strides, self.factors):
            out += (((x // s) + (y // s)) % a) * s
        return out

    def neg(self, x: int) -> int:
        self._check(x)
        out = 0
        for s, a in zip(self.strides, self.factors):
            out += (-(x // s) % a) * s
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def element_order(self, g: int) -> int:
        """Smallest m >= 1 with m*g = 0; divides the group exponent."""
        self._check(g)
        m = 1
        for s, a in zip(self.strides, self.factors):
            m = lcm(m, a // gcd(a, (g // s) % a))
        return m

    def _check(self, x: int) -> None:
        # operator.index refuses a float (TypeError) that would pass the range test
        if not 0 <= operator.index(x) < self.order:
            raise ValueError(f"element index {x} out of range for group {self}")


def element_order(group: GroupSpec, g: int) -> int:
    return group.element_order(g)


def order_two_count(group: GroupSpec) -> int:
    """Number of nonzero elements g with 2g = 0: one less than 2^(# even factors)."""
    even = sum(1 for a in group.factors if a % 2 == 0)
    return (1 << even) - 1


def _prime_powers(a: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing a >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= a:
        if a % p == 0:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            out.append((p, e))
        p += 1
    if a > 1:
        out.append((a, 1))
    return out


@lru_cache(maxsize=256)
def _order_counts(factors: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    counts = {1: 1}
    for a in factors:
        for p, e in _prime_powers(a):
            # Z/p^e has p^j - p^(j-1) elements of order p^j; orders in a
            # direct product combine by lcm
            piece = {1: 1, **{p**j: p**j - p ** (j - 1) for j in range(1, e + 1)}}
            out: dict[int, int] = {}
            for k, c in counts.items():
                for q, m in piece.items():
                    key = lcm(k, q)
                    out[key] = out.get(key, 0) + c * m
            counts = out
    return tuple(sorted(counts.items()))


def order_counts(group: GroupSpec) -> dict[int, int]:
    """{k: number of elements of order k}, k = 1 included, keys ascending.

    Built from the factor tuple alone (Z/a has phi(d) elements of order d
    for each d | a), so it costs a few divisor products, not a pass over
    the elements; memoised per factor tuple.
    """
    return dict(_order_counts(group.factors))


def half_set(group: GroupSpec, tie_break: str = "low") -> frozenset[int]:
    """A transversal of the {d, -d} pairs over the nonzero elements.

    The canonical rule keeps d when index(d) <= index(-d); tie_break="high"
    keeps the other representative (order-2 elements appear either way).
    Any valid choice yields the same order statistics since ord(d) = ord(-d).
    """
    if tie_break not in ("low", "high"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    picked = []
    for d in range(1, group.order):
        nd = group.neg(d)
        if tie_break == "low":
            if d <= nd:
                picked.append(d)
        else:
            if d >= nd:
                picked.append(d)
    return frozenset(picked)


def order_below_log_phi(order_value: int, n: int) -> bool:
    """Exact test for ord < log_phi(n), i.e. phi**ord < n, in integers only.

    Uses phi**m = (L_m + F_m*sqrt5)/2, so phi**m < n iff
    L_m < 2n and 5*F_m**2 < (2n - L_m)**2.
    """
    if order_value > 2 * n.bit_length():
        # m > 2b with b = bit_length(n): phi^m > (phi^2)^b > 2^b > n
        return False
    f_prev, f_cur = 0, 1  # F_0, F_1
    l_prev, l_cur = 2, 1  # L_0, L_1
    for _ in range(order_value):
        f_prev, f_cur = f_cur, f_prev + f_cur
        l_prev, l_cur = l_cur, l_prev + l_cur
    l_m, f_m = l_prev, f_prev  # after the loop these hold index order_value
    rest = 2 * n - l_m
    return rest > 0 and 5 * f_m * f_m < rest * rest


def small_order_set(group: GroupSpec, threshold: float | None = None) -> frozenset[int]:
    """Elements with order strictly below the threshold.

    With threshold=None the cutoff is log_phi(|G|), compared exactly through
    integer Fibonacci/Lucas values so no float boundary can flip membership.
    """
    if threshold is None:
        n = group.order
        return frozenset(
            g for g in group.elements()
            if order_below_log_phi(group.element_order(g), n)
        )
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return frozenset(
        g for g in group.elements() if group.element_order(g) < threshold
    )


def small_order_count(group: GroupSpec) -> int:
    """len(small_order_set(group)) from the order distribution: the number of
    elements g with phi^ord(g) < |G|."""
    n = group.order
    return sum(c for k, c in order_counts(group).items() if order_below_log_phi(k, n))


def count_order_below(group: GroupSpec, t: int) -> tuple[int, bool]:
    """Count elements of order < t, plus the guaranteed check count < t**(rank+1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    count = sum(1 for g in group.elements() if group.element_order(g) < t)
    return count, count < t ** (group.rank + 1)


def factorizations(n: int, _min_factor: int = 2) -> list[tuple[int, ...]]:
    """All multisets of integers >= 2 with product n, as non-increasing tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [()]
    out: set[tuple[int, ...]] = set()
    for f in range(_min_factor, n + 1):
        if n % f == 0:
            for rest in factorizations(n // f, f):
                out.add(tuple(sorted((f,) + rest, reverse=True)))
    return sorted(out, reverse=True)


def groups_of_order(n: int) -> list[GroupSpec]:
    """One GroupSpec per factor multiset with product n (not per isomorphism class)."""
    return [GroupSpec(f) for f in factorizations(n)]


def groups_up_to(max_order: int, min_order: int = 1) -> Iterator[GroupSpec]:
    """All factor-multiset presentations with order in [min_order, max_order]."""
    for n in range(min_order, max_order + 1):
        yield from groups_of_order(n)
