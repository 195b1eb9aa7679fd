"""Named verification sweeps: every structural claim the package relies on,
checked against exhaustive oracles at desk scale.

Each check runs a family sweep and reports one pass/fail line. The brute
force subset scans serve as the oracle side throughout: graph-route counts,
closed forms and bound formulas must reproduce them exactly. Sweep ceilings
default to the largest documented scale; a caller-supplied max_order only
ever lowers them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import bounds as bnd
from . import enumerate_subsets as enum
from .fib_index import (
    count_independent_sets,
    cycle_neighbors,
    fib_index_exact,
    index_cycle,
    index_ladder,
    index_path,
    index_prism,
    ladder_neighbors,
    lucas,
    path_neighbors,
    pell_power,
    prism_neighbors,
    regular_bound_check,
)
from .forbiddance import build_graph, decompose
from .groups import GroupSpec, groups_up_to, half_set, order_two_count
from .subsets import (
    SubsetMask,
    diffset,
    integer_mstd_check,
    is_mstd,
    lift_cyclic,
    lift_general,
    sumset,
)

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SweepConfig:
    max_order: Optional[int] = None
    threads: int = 1
    seed: int = DEFAULT_SEED

    def cap(self, default: int) -> int:
        if self.max_order is None:
            return default
        return min(default, self.max_order)


def _result(name: str, passed: bool, ok_detail: str, failures: list[str]) -> CheckResult:
    if passed:
        return CheckResult(name, True, ok_detail)
    shown = "; ".join(failures[:3])
    more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
    return CheckResult(name, False, shown + more)


def _nontrivial_groups(limit: int, parity: Optional[str] = None) -> list[GroupSpec]:
    out = []
    for g in groups_up_to(limit, min_order=2):
        if parity == "even" and g.order % 2 != 0:
            continue
        if parity == "odd" and g.order % 2 == 0:
            continue
        out.append(g)
    return out


# --- graph/independent-set route vs brute force ---------------------------


def check_bijection(cfg: SweepConfig) -> CheckResult:
    """Avoidance counts equal independent-set counts of the forbiddance graph
    for every group and every family with at most 2 differences and 1 sum."""
    limit = cfg.cap(14)
    failures = []
    cases = 0
    for g in groups_up_to(limit):
        n = g.order
        diff_choices = [()]
        diff_choices += [(d,) for d in range(n)]
        diff_choices += list(itertools.combinations(range(n), 2))
        sum_choices = [()] + [(s,) for s in range(n)]
        for diffs in diff_choices:
            for sums in sum_choices:
                cases += 1
                direct = enum.count_avoiding(g, diffs, sums, threads=cfg.threads)
                via_graph = fib_index_exact(build_graph(g, diffs, sums))
                if direct != via_graph:
                    failures.append(
                        f"{g} D={diffs} S={sums}: scan {direct} != graph {via_graph}"
                    )
    return _result(
        "bijection",
        not failures,
        f"{cases} forbidden families across |G| <= {limit} agree",
        failures,
    )


def check_single_difference(cfg: SweepConfig) -> CheckResult:
    """One forbidden difference of order m: count equals L_m^(|G|/m), and the
    graph decomposes into |G|/m cycles of length m (checked a bit further)."""
    count_limit = cfg.cap(16)
    shape_limit = cfg.cap(20)
    failures = []
    cases = 0
    for g in _nontrivial_groups(shape_limit):
        n = g.order
        for d in range(1, n):
            cases += 1
            m = g.element_order(d)
            if n <= count_limit:
                expected = lucas(m) ** (n // m)
                got = enum.count_avoiding(g, (d,), (), threads=cfg.threads)
                if got != expected:
                    failures.append(f"{g} d={d}: {got} != {expected}")
                    continue
            dec = decompose(build_graph(g, (d,), ()))
            if dec.count_shape("cycle", m) != n // m or len(dec.components) != n // m:
                failures.append(f"{g} d={d}: decomposition not {n // m} x C_{m}")
    return _result(
        "single-difference",
        not failures,
        f"{cases} (group, difference) pairs: Lucas counts to |G| <= {count_limit}, "
        f"cycle shapes to |G| <= {shape_limit}",
        failures,
    )


def check_two_torsion_pairs(cfg: SweepConfig) -> CheckResult:
    """Two distinct order-2 forbidden differences give exactly 7^(|G|/4)
    survivors, via 4-cycle components."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        twos = [d for d in range(1, n) if g.element_order(d) == 2]
        for d1, d2 in itertools.combinations(twos, 2):
            cases += 1
            got = enum.count_avoiding(g, (d1, d2), (), threads=cfg.threads)
            if got != 7 ** (n // 4):
                failures.append(f"{g} d1={d1} d2={d2}: {got} != 7^{n // 4}")
                continue
            dec = decompose(build_graph(g, (d1, d2), ()))
            if dec.count_shape("cycle", 4) != n // 4:
                failures.append(f"{g} d1={d1} d2={d2}: not all 4-cycles")
    return _result(
        "two-torsion-pairs",
        not failures,
        f"{cases} order-2 pairs across even |G| <= {limit} give exactly 7^(|G|/4)",
        failures,
    )


def check_prism_ladder(cfg: SweepConfig) -> CheckResult:
    """Odd groups, one difference of order m and one sum: components are
    prisms/ladders only, with 2*prisms + ladders = |G|/m."""
    limit = cfg.cap(15)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="odd"):
        n = g.order
        for d in range(1, n):
            m = g.element_order(d)
            for s in range(n):
                cases += 1
                dec = decompose(build_graph(g, (d,), (s,)))
                n_p, n_l, all_matched = dec.prism_ladder_profile(m)
                if not all_matched:
                    failures.append(f"{g} d={d} s={s}: unexpected component shapes")
                elif 2 * n_p + n_l != n // m:
                    failures.append(
                        f"{g} d={d} s={s}: 2*{n_p}+{n_l} != {n // m}"
                    )
                elif len(dec.looped) != 1:
                    # doubling is invertible in odd groups: one loop exactly
                    failures.append(f"{g} d={d} s={s}: {len(dec.looped)} loops")
    return _result(
        "prism-ladder",
        not failures,
        f"{cases} (group, d, s) cases across odd |G| <= {limit} decompose as expected",
        failures,
    )


def check_even_pair_decomposition(cfg: SweepConfig) -> CheckResult:
    """Even groups, one order-2 difference and one sum: after loop removal
    only 4-cycles and at most (k+1)/2 single edges remain."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        k = order_two_count(g)
        twos = [d for d in range(1, n) if g.element_order(d) == 2]
        for d in twos:
            for s in range(n):
                cases += 1
                dec = decompose(build_graph(g, (d,), (s,)))
                edges = dec.count_shape("path", 2)
                cycles = dec.count_shape("cycle", 4)
                if edges + cycles != len(dec.components):
                    failures.append(f"{g} d={d} s={s}: unexpected shapes")
                elif 2 * edges > k + 1:
                    failures.append(f"{g} d={d} s={s}: {edges} edges > (k+1)/2")
    return _result(
        "even-pair-decomposition",
        not failures,
        f"{cases} (group, d, s) cases across even |G| <= {limit} leave only "
        "4-cycles and few edges",
        failures,
    )


def check_closed_forms(cfg: SweepConfig) -> CheckResult:
    """Path/cycle/ladder/prism closed forms equal the generic exact counter."""
    path_limit = cfg.cap(18)
    box_limit = cfg.cap(12)
    failures = []
    for n in range(0, path_limit + 1):
        if index_path(n) != count_independent_sets(path_neighbors(n)):
            failures.append(f"path {n}")
    for n in range(3, path_limit + 1):
        if index_cycle(n) != count_independent_sets(cycle_neighbors(n)):
            failures.append(f"cycle {n}")
    for n in range(1, box_limit + 1):
        if index_ladder(n) != count_independent_sets(ladder_neighbors(n)):
            failures.append(f"ladder {n}")
    for n in range(3, box_limit + 1):
        if index_prism(n) != count_independent_sets(prism_neighbors(n)):
            failures.append(f"prism {n}")
    spots = [
        (index_path(2), 3),
        (index_cycle(4), 7),
        (index_prism(3), 13),
        (index_ladder(3), 17),
    ]
    for got, want in spots:
        if got != want:
            failures.append(f"spot value {got} != {want}")
    return _result(
        "closed-forms",
        not failures,
        f"paths/cycles to {path_limit} and ladders/prisms to {box_limit} match the counter",
        failures,
    )


def check_regular_bound(cfg: SweepConfig) -> CheckResult:
    """The regular-graph independent-set cap holds for all prisms and all
    two-difference graphs in range; pairs of independent differences of
    order > 2 must produce simple 4-regular graphs in the first place."""
    prism_limit = cfg.cap(18)
    cayley_limit = cfg.cap(20)
    failures = []
    cases = 0
    for n in range(3, prism_limit + 1):
        cases += 1
        if not regular_bound_check(prism_neighbors(n)):
            failures.append(f"prism {n}")
    for g in _nontrivial_groups(cayley_limit):
        hs = sorted(half_set(g))
        for d1, d2 in itertools.combinations(hs, 2):
            if g.element_order(d1) == 2 or g.element_order(d2) == 2:
                continue
            # half-set members are distinct and never mutual negatives
            graph = build_graph(g, (d1, d2), ())
            cases += 1
            if graph.loops or any(len(nb) != 4 for nb in graph.neighbors):
                failures.append(f"{g} D={{{d1},{d2}}}: not simple 4-regular")
            elif not regular_bound_check(graph.neighbors, graph.loops):
                failures.append(f"{g} D={{{d1},{d2}}}")
    return _result(
        "regular-bound",
        not failures,
        f"{cases} regular graphs satisfy the cross-power cap",
        failures,
    )


# --- exhaustive counts vs closed-form bounds -------------------------------


def check_sandwich(cfg: SweepConfig) -> CheckResult:
    """lower <= |MSTD(G)| <= upper for all groups in range, plus cyclic
    groups up to the extended ceiling."""
    limit = cfg.cap(16)
    cyclic_limit = cfg.cap(24)
    failures = []
    cases = 0

    def one(g: GroupSpec) -> None:
        nonlocal cases
        cases += 1
        count = enum.count_mstd(g, threads=cfg.threads).mstd_count
        lower = (
            bnd.lower_bound_even(g) if g.order % 2 == 0 else bnd.lower_bound_odd(g)
        )
        upper = bnd.upper_bound(g)
        if not lower <= count <= upper:
            failures.append(f"{g}: not {lower} <= {count} <= {upper}")

    for g in _nontrivial_groups(limit):
        one(g)
    for n in range(limit + 1, cyclic_limit + 1):
        one(GroupSpec((n,)))
    return _result(
        "sandwich",
        not failures,
        f"{cases} groups keep the exact count inside [lower, upper]",
        failures,
    )


def check_even_ratio(cfg: SweepConfig) -> CheckResult:
    """Exact-count ratio against k*3^(|G|/2) stays under the guaranteed cap."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="even"):
        cases += 1
        count = enum.count_mstd(g, threads=cfg.threads).mstd_count
        if not bnd.even_ratio_within_cap(g, count):
            failures.append(f"{g}: count {count} breaks the ratio cap")
    return _result(
        "even-ratio",
        not failures,
        f"{cases} even groups stay under the ratio cap",
        failures,
    )


def check_containment(cfg: SweepConfig) -> CheckResult:
    """Subsets with full sumset and deficient difference set are exactly the
    easy MSTD certificates; MSTD forces a deficient difference set."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit):
        cases += 1
        left, right = enum.containment_violations(g, threads=cfg.threads)
        if left or right:
            failures.append(f"{g}: violations ({left}, {right})")
    return _result(
        "containment",
        not failures,
        f"{cases} groups pass the two-sided containment scan",
        failures,
    )


def check_union_upper(cfg: SweepConfig) -> CheckResult:
    """|MSTD(G)| <= sum over the half set of single-difference avoidance counts."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit):
        cases += 1
        count = enum.count_mstd(g, threads=cfg.threads).mstd_count
        rhs = sum(
            enum.count_avoiding(g, (d,), (), threads=cfg.threads)
            for d in half_set(g)
        )
        if count > rhs:
            failures.append(f"{g}: {count} > {rhs}")
    return _result(
        "union-upper",
        not failures,
        f"{cases} groups satisfy the union upper bound",
        failures,
    )


def check_union_lower(cfg: SweepConfig) -> CheckResult:
    """The assembled inclusion-exclusion lower bound never exceeds the count."""
    limit = cfg.cap(14)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit):
        cases += 1
        n = g.order
        count = enum.count_mstd(g, threads=cfg.threads).mstd_count
        hs = sorted(half_set(g))
        total = 0
        for d in hs:
            term = enum.count_avoiding(g, (d,), (), threads=cfg.threads)
            term -= sum(
                enum.count_avoiding(g, (d,), (s,), threads=cfg.threads)
                for s in range(n)
            )
            total += term
        for d1, d2 in itertools.combinations(hs, 2):
            total -= enum.count_avoiding(g, (d1, d2), (), threads=cfg.threads)
        if total > count:
            failures.append(f"{g}: assembled bound {total} > count {count}")
    return _result(
        "union-lower",
        not failures,
        f"{cases} groups satisfy the assembled lower bound",
        failures,
    )


def check_even_caps(cfg: SweepConfig) -> CheckResult:
    """Even-case termwise caps on avoidance counts, by integer cross-powers."""
    limit = cfg.cap(16)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        k = order_two_count(g)
        for d in range(1, n):
            ord_d = g.element_order(d)
            if ord_d > 2:
                cases += 1
                c = enum.count_avoiding(g, (d,), (), threads=cfg.threads)
                if c**4 > 7**n:
                    failures.append(f"{g} d={d}: single-difference cap broken")
            else:
                for s in range(n):
                    cases += 1
                    c = enum.count_avoiding(g, (d,), (s,), threads=cfg.threads)
                    if c**4 > 3 ** (2 * (k + 1)) * 7**n:
                        failures.append(f"{g} d={d} s={s}: order-2 cap broken")
        for d1, d2 in itertools.combinations(range(1, n), 2):
            cases += 1
            c = enum.count_avoiding(g, (d1, d2), (), threads=cfg.threads)
            if c**4 > 7**n:
                failures.append(f"{g} d1={d1} d2={d2}: pair cap broken")
    return _result(
        "even-caps",
        not failures,
        f"{cases} termwise caps hold for even |G| <= {limit}",
        failures,
    )


def check_odd_caps(cfg: SweepConfig) -> CheckResult:
    """Odd-case caps: 15^(|G|/6) for one difference plus one sum, 31^(|G|/8)
    for two independent differences."""
    limit = cfg.cap(15)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="odd"):
        n = g.order
        for d in range(1, n):
            for s in range(n):
                cases += 1
                c = enum.count_avoiding(g, (d,), (s,), threads=cfg.threads)
                if c**6 >= 15**n:
                    failures.append(f"{g} d={d} s={s}: 15-cap broken")
        for d1, d2 in itertools.combinations(range(1, n), 2):
            if d1 == g.neg(d2):
                continue
            cases += 1
            c = enum.count_avoiding(g, (d1, d2), (), threads=cfg.threads)
            if c**8 > 31**n:
                failures.append(f"{g} d1={d1} d2={d2}: 31-cap broken")
    return _result(
        "odd-caps",
        not failures,
        f"{cases} termwise caps hold for odd |G| <= {limit}",
        failures,
    )


def check_ladder_cap(cfg: SweepConfig) -> CheckResult:
    """index_ladder((m-1)/2)^2 < (1+sqrt2)^m for odd m, entirely in integers."""
    limit = cfg.cap(99)
    failures = []
    cases = 0
    for m in range(3, limit + 1, 2):
        cases += 1
        a = index_ladder((m - 1) // 2)
        p, q = pell_power(m)
        # a^2 < p + q*sqrt2  <=>  a^2 - p < q*sqrt2
        gap = a * a - p
        if not (gap < 0 or gap * gap < 2 * q * q):
            failures.append(f"m={m}")
    return _result(
        "ladder-cap",
        not failures,
        f"{cases} odd lengths up to {limit} satisfy the ladder cap",
        failures,
    )


def check_lucas_roots(cfg: SweepConfig) -> CheckResult:
    limit = cfg.cap(200)
    ok = bnd.lucas_root_monotonic(limit)
    return CheckResult(
        "lucas-roots",
        ok,
        f"Lucas root ordering verified to index {limit}"
        if ok
        else "Lucas root ordering failed",
    )


def check_odd_bracket(cfg: SweepConfig) -> CheckResult:
    """Interval-verified bracket on the odd-case order sum, all odd groups."""
    limit = cfg.cap(81)
    failures = []
    cases = 0
    for g in _nontrivial_groups(limit, parity="odd"):
        cases += 1
        res = bnd.odd_sum_bracket(g, precision_bits=256)
        if not res.bracket_ok:
            failures.append(f"{g}: bracket failed")
        if not res.bernoulli_ok:
            failures.append(f"{g}: termwise shortfall bound failed")
    return _result(
        "odd-bracket",
        not failures,
        f"{cases} odd groups pass the bracket at 256 bits",
        failures,
    )


# --- group-theory plumbing -------------------------------------------------


def check_half_set(cfg: SweepConfig) -> CheckResult:
    """Half-set size formula, two-torsion count, and tie-rule independence of
    the closed-form upper bound."""
    limit = cfg.cap(64)
    failures = []
    cases = 0
    for g in groups_up_to(limit, min_order=2):
        cases += 1
        n = g.order
        k = order_two_count(g)
        hs = half_set(g)
        if len(hs) != (n - 1 + k) // 2:
            failures.append(f"{g}: half-set size {len(hs)}")
            continue
        scan_k = sum(1 for d in range(1, n) if g.element_order(d) == 2)
        if scan_k != k:
            failures.append(f"{g}: two-torsion scan {scan_k} != {k}")
            continue
        for d in range(1, n):
            if (d in hs) == (g.neg(d) in hs) and d != g.neg(d):
                failures.append(f"{g}: {d} and its negative both (or neither) picked")
                break
        if bnd.upper_bound(g, "low") != bnd.upper_bound(g, "high"):
            failures.append(f"{g}: upper bound depends on the tie rule")
    return _result(
        "half-set",
        not failures,
        f"{cases} groups up to order {limit} pass half-set checks",
        failures,
    )


def check_rank_bound(cfg: SweepConfig) -> CheckResult:
    """Order-statistics cap: #{g : ord(g) < t} < t^(rank+1), every t <= |G|."""
    limit = cfg.cap(64)
    failures = []
    cases = 0
    for g in groups_up_to(limit, min_order=1):
        orders = sorted(g.element_order(x) for x in g.elements())
        for t in range(1, g.order + 1):
            cases += 1
            count = sum(1 for o in orders if o < t)
            if count >= t ** (g.rank + 1):
                failures.append(f"{g} t={t}: {count} >= t^(r+1)")
        # Lagrange on the way through
        if any(g.order % o for o in orders):
            failures.append(f"{g}: element order not dividing |G|")
    return _result(
        "rank-bound",
        not failures,
        f"{cases} (group, t) pairs up to order {limit} satisfy the rank cap",
        failures,
    )


def check_mask_oracle(cfg: SweepConfig) -> CheckResult:
    """Bit-shift sumsets/diffsets match the naive double loop: exhaustively
    for tiny groups, on seeded random masks for larger ones. On the tiny
    groups the block engine's memoised (A+A, A-A) masks must match too."""
    import numpy as np

    failures = []
    cases = 0

    def naive_block(g: GroupSpec) -> tuple:
        """The double loop over element pairs, applied to every mask at once."""
        masks = np.arange(1 << g.order, dtype=np.uint64)
        member = [(masks >> np.uint64(e)) & np.uint64(1) for e in range(g.order)]
        s_masks = np.zeros_like(masks)
        d_masks = np.zeros_like(masks)
        for a in range(g.order):
            for b in range(g.order):
                both = member[a] & member[b]
                s_masks |= both << np.uint64(g.add(a, b))
                d_masks |= both << np.uint64(g.sub(a, b))
        return s_masks, d_masks

    def naive(g: GroupSpec, bits: int) -> tuple[int, int]:
        elems = [e for e in range(g.order) if (bits >> e) & 1]
        s_mask = 0
        d_mask = 0
        for a in elems:
            for b in elems:
                s_mask |= 1 << g.add(a, b)
                d_mask |= 1 << g.sub(a, b)
        return s_mask, d_mask

    def compare(g: GroupSpec, bits: int, s_mask: int, d_mask: int) -> None:
        nonlocal cases
        cases += 1
        a = SubsetMask(g, bits)
        if sumset(a).bits != s_mask or diffset(a).bits != d_mask:
            failures.append(f"{g} mask {bits:#x}")

    for g in groups_up_to(cfg.cap(12), min_order=1):
        s_masks, d_masks = naive_block(g)
        for bits, (s_mask, d_mask) in enumerate(zip(s_masks.tolist(), d_masks.tolist())):
            compare(g, bits, s_mask, d_mask)
        summ, diff = enum._block_sum_diff(g)
        if not (np.array_equal(summ, s_masks) and np.array_equal(diff, d_masks)):
            failures.append(f"{g}: block engine sum_diff differs from the naive double loop")
    rng = random.Random(cfg.seed)
    pool = [
        GroupSpec((24,)),
        GroupSpec((32,)),
        GroupSpec((64,)),
        GroupSpec((8, 4)),
        GroupSpec((6, 6)),
        GroupSpec((4, 4, 2)),
        GroupSpec((5, 5)),
        GroupSpec((3, 3, 3)),
    ]
    for g in pool:
        for _ in range(40):
            bits = rng.getrandbits(g.order)
            compare(g, bits, *naive(g, bits))
    return _result(
        "mask-oracle",
        not failures,
        f"{cases} masks agree with the naive double loop",
        failures,
    )


def check_histogram(cfg: SweepConfig) -> CheckResult:
    """Histogram marginals: totals 2^|G| and the MSTD corner matching the
    direct count."""
    limit = cfg.cap(10)
    failures = []
    cases = 0
    for g in groups_up_to(limit, min_order=1):
        cases += 1
        hist = enum.missing_histogram(g, threads=cfg.threads)
        if hist.total() != 1 << g.order:
            failures.append(f"{g}: histogram total wrong")
            continue
        direct = enum.count_mstd(g, threads=cfg.threads).mstd_count
        if hist.mstd_count() != direct:
            failures.append(f"{g}: histogram MSTD {hist.mstd_count()} != {direct}")
    return _result(
        "histogram",
        not failures,
        f"{cases} histograms have consistent marginals",
        failures,
    )


def check_lift(cfg: SweepConfig) -> CheckResult:
    """Group MSTD witnesses lift to integer MSTD sets for some k <= 64."""
    failures = []
    records = []
    witnesses = [
        SubsetMask.from_elements(GroupSpec((12,)), [0, 1, 3, 4, 5, 8]),
        SubsetMask.from_elements(
            GroupSpec((2, 8)),
            # (e1, e2) pairs packed as e1 + 2*e2
            [0, 4, 6, 10, 1, 3, 5],
        ),
    ]
    for w in witnesses:
        if not is_mstd(w):
            failures.append(f"witness {w} in {w.group} is not MSTD")
            continue
        found = None
        for k in range(1, 65):
            lifted = (
                lift_cyclic(w, k) if w.group.rank == 1 else lift_general(w, k)
            )
            ok, _, _ = integer_mstd_check(lifted)
            if ok:
                found = k
                break
        if found is None:
            failures.append(f"witness in {w.group} never lifted to integer MSTD")
        else:
            records.append(f"{w.group}: k0={found}")
    return _result(
        "lift",
        not failures,
        "; ".join(records),
        failures,
    )


def check_conway(cfg: SweepConfig) -> CheckResult:
    got = integer_mstd_check([0, 2, 3, 4, 7, 11, 12, 14])
    ok = got == (True, 26, 25)
    return CheckResult(
        "conway",
        ok,
        f"classic 8-element set gives {got}",
    )


def check_z8_example(cfg: SweepConfig) -> CheckResult:
    """The order-8 cyclic worked example: graph route and brute force agree at 17."""
    g = GroupSpec((8,))
    via_graph = fib_index_exact(build_graph(g, (1,), (4,)))
    via_scan = enum.count_avoiding(g, (1,), (4,), threads=cfg.threads)
    ok = via_graph == via_scan == 17
    return CheckResult(
        "z8-example",
        ok,
        f"graph {via_graph}, scan {via_scan}, expected 17",
    )


def check_determinism(cfg: SweepConfig) -> CheckResult:
    """Scans are bit-identical across thread counts on groups of 2-4 scan
    blocks: the full histogram and the single-difference avoidance counts."""
    fixed = [GroupSpec(f) for f in [(15,), (3, 5), (16,), (2, 8), (4, 4), (2, 2, 4)]]
    import os

    max_threads = max(os.cpu_count() or 1, 4)
    failures = []
    for g in fixed:
        results = {
            (
                enum.missing_histogram(g, threads=t).counts,
                tuple(enum.count_avoiding(g, (d,), (), threads=t) for d in sorted(half_set(g))),
            )
            for t in (1, 2, max_threads)
        }
        if len(results) != 1:
            failures.append(f"{g}: histogram or avoidance counts differ across threads")
    return _result(
        "determinism",
        not failures,
        f"{len(fixed)} groups identical across thread counts (1, 2, {max_threads})",
        failures,
    )


def check_multiplicativity(cfg: SweepConfig) -> CheckResult:
    """Independent-set counts multiply across disjoint unions (seeded random)."""
    rng = random.Random(cfg.seed)
    failures = []
    cases = 0
    builders = [path_neighbors, cycle_neighbors, ladder_neighbors, prism_neighbors]
    for _ in range(25):
        cases += 1
        parts = []
        expected = 1
        for _ in range(rng.randint(2, 4)):
            builder = rng.choice(builders)
            size = rng.randint(3, 7)
            nb = builder(size)
            expected *= count_independent_sets(nb)
            parts.append(nb)
        offset = 0
        union: list[frozenset[int]] = []
        for nb in parts:
            union.extend(frozenset(u + offset for u in s) for s in nb)
            offset += len(nb)
        if count_independent_sets(union) != expected:
            failures.append("disjoint union mismatch")
    return _result(
        "multiplicativity",
        not failures,
        f"{cases} random disjoint unions multiply",
        failures,
    )


CHECKS: dict[str, Callable[[SweepConfig], CheckResult]] = {
    "bijection": check_bijection,
    "single-difference": check_single_difference,
    "two-torsion-pairs": check_two_torsion_pairs,
    "prism-ladder": check_prism_ladder,
    "even-pair-decomposition": check_even_pair_decomposition,
    "closed-forms": check_closed_forms,
    "regular-bound": check_regular_bound,
    "sandwich": check_sandwich,
    "even-ratio": check_even_ratio,
    "containment": check_containment,
    "union-upper": check_union_upper,
    "union-lower": check_union_lower,
    "even-caps": check_even_caps,
    "odd-caps": check_odd_caps,
    "ladder-cap": check_ladder_cap,
    "lucas-roots": check_lucas_roots,
    "odd-bracket": check_odd_bracket,
    "half-set": check_half_set,
    "rank-bound": check_rank_bound,
    "mask-oracle": check_mask_oracle,
    "histogram": check_histogram,
    "lift": check_lift,
    "conway": check_conway,
    "z8-example": check_z8_example,
    "determinism": check_determinism,
    "multiplicativity": check_multiplicativity,
}


def run_checks(
    only: Optional[Iterable[str]] = None,
    max_order: Optional[int] = None,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run the selected checks (all by default) and return their results."""
    cfg = SweepConfig(max_order=max_order, threads=threads, seed=seed)
    names = list(CHECKS) if only is None else list(only)
    results = []
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        results.append(CHECKS[name](cfg))
    return results
