import random
from fractions import Fraction

import mpmath
import pytest

from mstd.bounds import (
    asymptotic,
    build_report,
    even_density_ok,
    even_ratio_within_cap,
    even_upper_ratio,
    iroot,
    iroot_ceil,
    lower_bound_even,
    lower_bound_odd,
    lucas_root_monotonic,
    odd_sum_bracket,
    upper_bound,
)
from mstd.enumerate_subsets import count_mstd
from mstd.fib_index import lucas
from mstd.groups import (
    GroupSpec,
    groups_up_to,
    half_set,
    order_counts,
    small_order_count,
    small_order_set,
)

from oracles import newton_iroot

Z8 = GroupSpec((8,))
Z9 = GroupSpec((9,))


def test_iroot():
    assert iroot(0, 3) == (0, True)
    assert iroot(7**12, 4) == (7**3, True)
    assert iroot(7**12 + 1, 4) == (7**3, False)
    assert iroot_ceil(7**12 + 1, 4) == 7**3 + 1
    for x in list(range(50)) + [10**30, 15**81]:
        for n in (2, 3, 6, 8):
            r, exact = iroot(x, n)
            assert r**n <= x < (r + 1) ** n
            assert exact == (r**n == x)


def test_iroot_matches_integer_newton():
    rng = random.Random(11)
    cases = [(x, n) for x in list(range(50)) + [10**30, 15**81] for n in (2, 3, 6, 8)]
    for _ in range(400):
        n, r = rng.randint(1, 40), rng.getrandbits(rng.randint(1, 150)) + 1
        # exact powers and their neighbours, where an off-by-one would show
        cases += [(r**n - 1, n), (r**n, n), (r**n + 1, n), (rng.getrandbits(3000), n)]
    cases += [(15**5003, 6), (31**5003, 8)]
    for x, n in cases:
        r = newton_iroot(x, n)
        assert iroot(x, n) == (r, r**n == x), (x, n)


@pytest.mark.parametrize("off", [-3, 3])
def test_iroot_corrects_a_wrong_start(monkeypatch, off):
    # the exact integer loops, not mpmath, decide the result
    root = mpmath.root
    monkeypatch.setattr(mpmath, "root", lambda x, n: root(x, n) + off)
    for x, n in ((7**12, 4), (7**12 - 1, 4), (15**81, 6), (10**30 + 1, 3)):
        r = newton_iroot(x, n)
        assert iroot(x, n) == (r, r**n == x), (x, n)


def test_upper_bound_examples():
    assert upper_bound(Z8) == 47 + 49 + 47 + 81 == 224
    assert upper_bound(GroupSpec((2,))) == 3
    assert upper_bound(GroupSpec((3,))) == 4
    assert upper_bound(Z9) == 3 * 76 + 64 == 292
    with pytest.raises(ValueError):
        upper_bound(GroupSpec(()))


def test_order_counts_match_per_element_oracle():
    # the per-element loops below are the oracle for the order-distribution
    # sums: element-order histogram, half-set Lucas sum under either tie
    # rule, and the small-order set
    extra = [GroupSpec((999,)), GroupSpec((15, 15, 13))]
    for g in list(groups_up_to(64, min_order=2)) + extra:
        n = g.order
        histogram: dict[int, int] = {}
        for x in g.elements():
            k = g.element_order(x)
            histogram[k] = histogram.get(k, 0) + 1
        counts = order_counts(g)
        assert counts == histogram, g
        assert sum(counts.values()) == n, g
        upper = upper_bound(g)
        for rule in ("low", "high"):
            orders = [g.element_order(d) for d in half_set(g, rule)]
            assert upper == sum(lucas(m) ** (n // m) for m in orders), (g, rule)
        assert small_order_count(g) == len(small_order_set(g)), g


def test_lower_bound_even_z8():
    # k=1: 81*(1 - (8*3 + 64)*(49/81)) evaluated exactly
    want = Fraction(81) * (1 - Fraction(8 * 3 + 64) * Fraction(49, 81))
    got = lower_bound_even(Z8)
    assert got == want == -4231
    assert got < 0  # vacuous but valid
    with pytest.raises(ValueError):
        lower_bound_even(Z9)


def test_lower_bound_even_fractional_exponent_direction():
    # |G| = 2 mod 4 rounds the subtracted factor up, never down
    g = GroupSpec((6,))
    val = lower_bound_even(g)
    n, k = 6, 1
    with mpmath.workprec(120):
        factor = mpmath.mpf(7) / 9
        true_val = k * 3 ** (n // 2) * (
            1 - (n * 3 ** ((k + 1) // 2) + n * n / k) * factor ** mpmath.mpf(n / 4)
        )
        assert mpmath.mpf(float(val)) <= true_val + mpmath.mpf(10) ** -6


def test_lower_bound_odd_negative_but_valid():
    val = lower_bound_odd(Z9)
    assert val < 0
    assert lower_bound_odd(GroupSpec((3,))) < 0
    with pytest.raises(ValueError):
        lower_bound_odd(Z8)


def test_asymptotic_values():
    assert asymptotic(Z8) == 81
    val = asymptotic(Z9)
    with mpmath.workprec(64):
        phi = (1 + mpmath.sqrt(5)) / 2
        assert abs(val - mpmath.mpf(9) / 2 * phi**9) < 1e-6
    assert float(val) == pytest.approx(342.06, abs=0.01)
    # corollary family: Z/n x Z/2 for even n gives 3^(n+1)
    assert asymptotic(GroupSpec((4, 2))) == 3**5
    assert asymptotic(GroupSpec((6, 2))) == 3**7


def test_precision_bits_below_64_refused():
    for bits in (0, 1, 63):
        with pytest.raises(ValueError, match="at least 64"):
            asymptotic(Z9, bits)
        with pytest.raises(ValueError, match="at least 64"):
            build_report(Z8, precision_bits=bits)
    assert asymptotic(Z8, 64) == 81
    assert build_report(Z9, precision_bits=64).precision_bits == 64


def test_even_upper_ratio_cap():
    cap = even_upper_ratio(Z8)
    assert cap == 1 + Fraction(8) * Fraction(49, 81) == Fraction(473, 81)
    assert Fraction(upper_bound(Z8), 81) <= cap
    # |G| -> infinity with bounded k drives the cap to 1
    assert even_upper_ratio(GroupSpec((200,))) < even_upper_ratio(GroupSpec((100,)))
    assert even_upper_ratio(GroupSpec((200,))) < Fraction(101, 100)


def test_even_ratio_within_cap_small_groups():
    for g in groups_up_to(12, min_order=2):
        if g.order % 2 == 0:
            assert even_ratio_within_cap(g, count_mstd(g).mstd_count)


def test_even_density_flag():
    assert even_density_ok(GroupSpec((16,)))  # k/|G| = 1/16 < 0.114...
    assert not even_density_ok(GroupSpec((2, 2, 2, 2)))  # k/|G| = 15/16


def test_lucas_root_monotonic():
    assert lucas_root_monotonic(200)
    # the defining comparisons at the start of each chain
    assert 3**4 > 7**2  # L_2 vs L_4
    assert 4**5 < 11**3  # L_3 vs L_5


def test_odd_sum_bracket_z3():
    res = odd_sum_bracket(GroupSpec((3,)), precision_bits=256)
    assert res.bracket_ok and res.bernoulli_ok
    assert res.lower_ref == 1 and res.upper_ref == 3
    assert 1 <= float(res.sum_low) <= float(res.sum_high) <= 3
    with pytest.raises(ValueError):
        odd_sum_bracket(Z8)


def test_odd_sum_bracket_default_precision_large_orders():
    # 256 bits cannot resolve phi^(-2k) at element order 135 (Z/405) or 135
    # with |G|/k = 3 (Z/135 x Z/3); the default derives enough from the group
    for factors in [(405,), (135, 3)]:
        res = odd_sum_bracket(GroupSpec(factors))
        assert res.bracket_ok and res.bernoulli_ok, factors
        assert res.precision_bits > 256
    assert odd_sum_bracket(GroupSpec((27,))).precision_bits == 256


def test_odd_sum_bracket_interval_is_tight():
    res = odd_sum_bracket(GroupSpec((27,)), precision_bits=256)
    assert float(res.sum_high) - float(res.sum_low) < 1e-40


def test_build_report_even():
    rep = build_report(Z8)
    rec = rep.to_record()
    assert rec["upper"] == "224"
    assert rec["parity"] == "even"
    assert rec["k"] == 1
    assert rec["lower"] == "-4231"
    assert rec["lower_negative"] is True
    assert float(rec["asymptotic"]) == 81
    assert rep.precision_bits == 64


def test_build_report_odd_with_exact():
    rep = build_report(GroupSpec((9,)), exact=0)
    rec = rep.to_record()
    assert rec["parity"] == "odd"
    assert rec["exact"] == "0"
    assert rec["exact_over_asymptotic"] == 0.0
    assert "small-order fraction" in rec["hypothesis"]


def test_sandwich_small_groups():
    for g in groups_up_to(12, min_order=2):
        count = count_mstd(g).mstd_count
        lower = lower_bound_even(g) if g.order % 2 == 0 else lower_bound_odd(g)
        assert lower <= count <= upper_bound(g)
