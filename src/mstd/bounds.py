"""Closed-form bounds and asymptotics for the number of MSTD subsets.

Arithmetic policy: whenever an exponent is integral the value is computed
as an exact integer or Fraction. Fractional powers of integers are replaced
by integer cross-powers (x^(a/b) <= y iff x^a <= y^b) or by exact integer
ceilings of the root, with the rounding direction always chosen so the
reported bound stays valid (terms that are subtracted round up, additive
cap terms round up). Powers of the golden ratio are evaluated in interval
arithmetic at a caller-visible precision, so a confirmed inequality is a
fact about the numbers, not about doubles.

Every sum here depends on an element only through its order, so each is
taken over the order distribution `order_counts(group)` (one term per
element order), never over the elements.

Lower bounds can come out negative for small groups; they are still valid
bounds and are reported with a flag rather than clamped.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .fib_index import lucas
from .groups import GroupSpec, order_counts, order_two_count, small_order_count


def iroot(x: int, n: int) -> tuple[int, bool]:
    """Floor integer n-th root of x >= 0, plus whether it is exact.

    mpmath's root at 64 bits beyond the root's own length lands within one
    of the floor; the integer loops then make it exact.
    """
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0 and n >= 1")
    if x == 0:
        return 0, True
    with mpmath.workprec(x.bit_length() // n + 64):
        r = int(mpmath.root(x, n))
    power = r**n
    while power > x:
        r -= 1
        power = r**n
    while (above := (r + 1) ** n) <= x:
        r, power = r + 1, above
    return r, power == x


def iroot_ceil(x: int, n: int) -> int:
    r, exact = iroot(x, n)
    return r if exact else r + 1


def upper_bound(group: GroupSpec) -> int:
    """Exact sum of L_ord(d)^(|G|/ord(d)) over a half set of the group.

    A half set holds every element of order 2 and one of each pair {d, -d}
    of higher order, so order k contributes c_2 terms for k = 2 and c_k/2
    for k >= 3, where c_k counts the elements of order k.
    """
    n = group.order
    if n < 2:
        raise ValueError("bounds need a group of order >= 2")
    total = 0
    for k, c in order_counts(group).items():
        if k > 1:
            total += (c if k == 2 else c // 2) * lucas(k) ** (n // k)
    return total


def _seven_ninths_power_up(n: int) -> Fraction:
    """(7/9)^(n/4) for even n, rounded up when the exponent is fractional."""
    if n % 4 == 0:
        return Fraction(7, 9) ** (n // 4)
    # n = 2 mod 4: the denominator 9^(n/4) = 3^(n/2) is exact
    return Fraction(iroot_ceil(7**n, 4), 3 ** (n // 2))


def lower_bound_even(group: GroupSpec) -> Fraction:
    """Valid lower bound k*3^(|G|/2)*(1 - (|G|*3^((k+1)/2) + |G|^2/k)*(7/9)^(|G|/4))."""
    n = group.order
    if n < 2 or n % 2 != 0:
        raise ValueError("the even-case lower bound needs an even group order")
    k = order_two_count(group)
    err = (n * 3 ** ((k + 1) // 2) + Fraction(n * n, k)) * _seven_ninths_power_up(n)
    return k * Fraction(3) ** (n // 2) * (1 - err)


def lower_bound_odd(group: GroupSpec) -> Fraction:
    """Valid lower bound: the half-set Lucas sum minus |G|^2*(15^(|G|/6) + 31^(|G|/8)).

    The subtracted roots are exact integer ceilings, so the result can only
    understate the true bound.
    """
    n = group.order
    if n < 2 or n % 2 == 0:
        raise ValueError("the odd-case lower bound needs an odd group order")
    term15 = iroot_ceil(15**n, 6)
    term31 = iroot_ceil(31**n, 8)
    return Fraction(upper_bound(group) - n * n * term15 - n * n * term31)


def _asymptotic_bits(n: int, precision_bits: Optional[int]) -> int:
    """Precision of the asymptotic term: max(2|G|, 64) bits unless given, never < 64."""
    if precision_bits is not None and precision_bits < 64:
        raise ValueError(f"precision_bits must be at least 64, got {precision_bits}")
    return max(2 * n, 64) if precision_bits is None else precision_bits


def asymptotic(group: GroupSpec, precision_bits: Optional[int] = None) -> mpmath.mpf:
    """Leading term: k*3^(|G|/2) for even order, |G|*phi^|G|/2 for odd."""
    n = group.order
    if n < 2:
        raise ValueError("bounds need a group of order >= 2")
    with mpmath.workprec(_asymptotic_bits(n, precision_bits)):
        if n % 2 == 0:
            k = order_two_count(group)
            return mpmath.mpf(k * 3 ** (n // 2))
        phi = (1 + mpmath.sqrt(5)) / 2
        return mpmath.mpf(n) * phi**n / 2


def even_upper_ratio(group: GroupSpec) -> Fraction:
    """Guaranteed cap on |MSTD(G)| / (k*3^(|G|/2)): 1 + (|G|/k)*(7/9)^(|G|/4).

    Rounded upward when |G|/4 is fractional, so the cap stays a cap.
    """
    n = group.order
    if n < 2 or n % 2 != 0:
        raise ValueError("the ratio cap applies to even group orders")
    k = order_two_count(group)
    return 1 + Fraction(n, k) * _seven_ninths_power_up(n)


def even_ratio_within_cap(group: GroupSpec, mstd_count: int) -> bool:
    """Exact check of mstd_count/(k*3^(|G|/2)) <= 1 + (|G|/k)*(7/9)^(|G|/4).

    Uses rational arithmetic when 4 divides |G| and an integer cross-power
    otherwise, so the verdict carries no rounding at all.
    """
    n = group.order
    if n % 2 != 0:
        raise ValueError("the ratio cap applies to even group orders")
    k = order_two_count(group)
    ratio = Fraction(mstd_count, k * 3 ** (n // 2))
    if n % 4 == 0:
        return ratio <= 1 + Fraction(n, k) * Fraction(7, 9) ** (n // 4)
    # ratio <= 1 + (n/k) t with t = (7/9)^(n/4):
    # trivially true unless ratio > 1, else compare ((ratio-1)k/n)^4 vs (7/9)^n
    if ratio <= 1:
        return True
    lhs = (ratio - 1) * Fraction(k, n)
    return lhs.numerator**4 * 9**n <= lhs.denominator**4 * 7**n


def even_density_ok(group: GroupSpec) -> bool:
    """Exact form of the even-case hypothesis k/|G| < 1 - log_3(7)/2."""
    n = group.order
    k = order_two_count(group)
    return 7**n < 9 ** (n - k)


def lucas_root_monotonic(limit: int) -> bool:
    """Check the Lucas-root ordering up to index `limit` with integer powers.

    Even-index roots L_{2i}^(1/2i) decrease, odd-index roots increase, and
    L_2^(1/2) > L_4^(1/4) >= L_m^(1/m) for every 2 < m <= limit.
    """
    if limit < 4:
        raise ValueError("limit must be >= 4")
    L = [lucas(i) for i in range(limit + 3)]
    for i in range(2, limit - 1, 2):  # L_i vs L_{i+2}, even chain decreasing
        if not L[i] ** (i + 2) > L[i + 2] ** i:
            return False
    for i in range(1, limit - 1, 2):  # odd chain increasing
        if not L[i] ** (i + 2) < L[i + 2] ** i:
            return False
    if not L[2] ** 4 > L[4] ** 2:
        return False
    for m in range(3, limit + 1):
        if not L[4] ** m >= L[m] ** 4:
            return False
    return True


@dataclass(frozen=True)
class OddSumBracket:
    """Interval evaluation of sum over d of (1 - phi^(-2 ord d))^(|G|/ord d)."""

    group: GroupSpec
    lower_ref: int  # |G| - |E(G)| - 1
    upper_ref: int  # |G|
    sum_low: mpmath.mpf
    sum_high: mpmath.mpf
    bracket_ok: bool
    bernoulli_ok: bool
    precision_bits: int


def _bracket_bits(n: int, orders) -> int:
    """Default precision of odd_sum_bracket: the shortfall check compares
    intervals about (n^2/2)*phi^(-4k) apart at the largest element order k
    with n/k > 1, so carry 4*log2(phi)*k bits plus 64 of headroom."""
    k_star = max((k for k in orders if n // k > 1), default=0)
    return max(256, math.ceil(4 * math.log2((1 + math.sqrt(5)) / 2) * k_star) + 64)


def odd_sum_bracket(
    group: GroupSpec, precision_bits: Optional[int] = None
) -> OddSumBracket:
    """Confirm |G| - |E(G)| - 1 <= sum <= |G| by interval arithmetic.

    Also verifies, per distinct element order k, the shortfall bound
    1 - (1 - phi^(-2k))^(|G|/k) <= min(1, (|G|/k)*phi^(-2k)).
    precision_bits=None derives the precision from the group (at least 256).
    """
    n = group.order
    if n % 2 == 0:
        raise ValueError("the bracket applies to odd group orders")
    counts = order_counts(group)
    if precision_bits is None:
        precision_bits = _bracket_bits(n, counts)
    iv = mpmath.iv
    saved = iv.prec
    iv.prec = precision_bits
    try:
        phi = (1 + iv.sqrt(5)) / 2
        total = iv.mpf(0)
        bernoulli_ok = True
        for k, mult in counts.items():
            decay = 1 / phi ** (2 * k)
            term = (1 - decay) ** (n // k)
            total += mult * term
            if n // k == 1:
                # exponent 1 makes the shortfall bound an identity; intervals
                # cannot confirm an equality, so accept it symbolically
                continue
            shortfall = 1 - term
            cap = decay * n / k
            if not (shortfall.b <= 1 and shortfall.b <= cap.a):
                bernoulli_ok = False
        lower_ref = n - small_order_count(group) - 1
        ok = bool(total.a >= lower_ref and total.b <= n)
        return OddSumBracket(
            group=group,
            lower_ref=lower_ref,
            upper_ref=n,
            sum_low=mpmath.mpf(total.a),
            sum_high=mpmath.mpf(total.b),
            bracket_ok=ok,
            bernoulli_ok=bernoulli_ok,
            precision_bits=precision_bits,
        )
    finally:
        iv.prec = saved


@dataclass(frozen=True)
class BoundReport:
    """One row of bound evaluations for a group."""

    group: GroupSpec
    parity: str
    k: int
    upper: int
    lower: Fraction
    lower_negative: bool
    asymptotic: mpmath.mpf  # at precision_bits, unrounded
    upper_over_asymptotic: float
    hypothesis_ok: bool
    hypothesis_detail: str
    precision_bits: int
    exact: Optional[int] = None

    def to_record(self) -> dict:
        rec = {
            "group": str(self.group),
            "order": self.group.order,
            "parity": self.parity,
            "k": self.k,
            "upper": _int_str(self.upper),
            "lower": _fraction_str(self.lower),
            "lower_negative": self.lower_negative,
            "asymptotic": _asymptotic_str(self.asymptotic, self.precision_bits),
            "upper_over_asymptotic": self.upper_over_asymptotic,
            "hypothesis_ok": self.hypothesis_ok,
            "hypothesis": self.hypothesis_detail,
            "precision_bits": self.precision_bits,
        }
        if self.exact is not None:
            rec["exact"] = _int_str(self.exact)
            rec["exact_over_asymptotic"] = self.over_asymptotic(self.exact)
        return rec

    def over_asymptotic(self, x) -> float:
        """x (an int or Fraction) divided by the unrounded asymptotic term."""
        x = Fraction(x)
        with mpmath.workprec(self.precision_bits):
            return float(mpmath.mpf(x.numerator) / x.denominator / self.asymptotic)

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


def _int_str(x: int) -> str:
    """Decimal digits of x. str() refuses integers longer than the
    interpreter's digit limit (4300 by default; Z/16384 x Z/2's upper bound
    has 7818 digits); decimal converts them exactly and has no limit."""
    return str(decimal.Decimal(x))


def _fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _asymptotic_str(asym: mpmath.mpf, bits: int) -> str:
    """The asymptotic term to 24 significant digits, or to fewer when `bits`
    carries fewer (18 at the 64-bit floor)."""
    digits = min(24, mpmath.libmp.prec_to_dps(bits))
    # round first: mpmath's nstr turns a mantissa of thousands of bits into
    # one decimal integer, which str() refuses past 4300 digits (Z/7151 at
    # its default 14302 bits)
    with mpmath.workprec(mpmath.libmp.dps_to_prec(digits) + 64):
        return mpmath.nstr(+asym, digits)


def build_report(
    group: GroupSpec,
    precision_bits: Optional[int] = None,
    exact: Optional[int] = None,
) -> BoundReport:
    """Assemble the parity-appropriate upper/lower/asymptotic report."""
    n = group.order
    if n < 2:
        raise ValueError("bounds need a group of order >= 2")
    bits = _asymptotic_bits(n, precision_bits)
    k = order_two_count(group)
    upper = upper_bound(group)
    asym = asymptotic(group, bits)
    if n % 2 == 0:
        parity = "even"
        lower = lower_bound_even(group)
        hyp_ok = even_density_ok(group)
        hyp_detail = f"two-torsion density {k}/{n}"
    else:
        parity = "odd"
        lower = lower_bound_odd(group)
        small = small_order_count(group)
        hyp_ok = True  # asymptotic hypothesis is about families; report the fraction
        hyp_detail = f"small-order fraction {small}/{n}"
    with mpmath.workprec(bits):
        ratio = float(mpmath.mpf(upper) / asym)
    return BoundReport(
        group=group,
        parity=parity,
        k=k,
        upper=upper,
        lower=lower,
        lower_negative=lower < 0,
        asymptotic=asym,
        upper_over_asymptotic=ratio,
        hypothesis_ok=hyp_ok,
        hypothesis_detail=hyp_detail,
        precision_bits=bits,
        exact=exact,
    )
