"""Named verification sweeps: every structural claim the package relies on,
checked against exhaustive oracles at desk scale.

Each check runs a family sweep and reports one pass/fail line. The brute
force subset scans serve as the oracle side throughout: graph-route counts,
closed forms and bound formulas must reproduce them exactly. Sweep ceilings
default to the largest documented scale; a caller-supplied max_order only
ever lowers them, and may not go below 4.

A check is one case loop registered with `_check`: it yields once per case,
None or that case's failure message(s), and returns its PASS detail. The
driver counts the cases and turns the failures into the FAIL detail.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Optional, Union

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

#: Lowest max_order a run accepts: `lucas-roots` needs index 4, and from 4
#: up every check sweeps at least one case, so none can pass vacuously.
MIN_MAX_ORDER = 4

#: Stands for the number of cases in a PASS detail.
CASES = "{cases}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    cases: int
    #: wall seconds of the run; not part of the result, so two runs compare equal
    elapsed_s: float = field(compare=False)


@dataclass(frozen=True)
class SweepConfig:
    max_order: Optional[int] = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.max_order is not None and self.max_order < MIN_MAX_ORDER:
            raise ValueError(f"max_order must be >= {MIN_MAX_ORDER}, got {self.max_order}")

    def cap(self, default: int) -> int:
        if self.max_order is None:
            return default
        return min(default, self.max_order)


#: One case loop: yields None or failure message(s) per case, returns the PASS detail.
CaseLoop = Generator[Union[None, str, list[str]], None, str]

#: Every check by name, in definition order. perfbench swaps wrappers into
#: this dict, so `run_checks` looks each check up when it runs it.
CHECKS: dict[str, Callable[[SweepConfig], CheckResult]] = {}


def _check(name: str) -> Callable[[Callable[[SweepConfig], CaseLoop]], Callable]:
    """Register a case loop as the check `name`. A failed check shows its
    first three failures joined by "; " and counts the rest."""

    def register(loop: Callable[[SweepConfig], CaseLoop]) -> Callable:
        @functools.wraps(loop)
        def run(cfg: SweepConfig) -> CheckResult:
            start = time.perf_counter()
            failures: list[str] = []
            cases = 0
            steps = loop(cfg)
            while True:
                try:
                    found = next(steps)
                except StopIteration as done:
                    detail = done.value
                    break
                cases += 1
                if found:
                    failures += [found] if isinstance(found, str) else found
            elapsed = time.perf_counter() - start
            if not failures:
                return CheckResult(name, True, detail.replace(CASES, str(cases)), cases, elapsed)
            more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
            return CheckResult(name, False, "; ".join(failures[:3]) + more, cases, elapsed)

        CHECKS[name] = run
        return run

    return register


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


@_check("bijection")
def check_bijection(cfg: SweepConfig) -> CaseLoop:
    """Avoidance counts equal independent-set counts of the forbiddance graph
    for every group and every family with at most 2 differences and 1 sum."""
    limit = cfg.cap(14)
    for g in groups_up_to(limit):
        n = g.order
        diff_choices = [()]
        diff_choices += [(d,) for d in range(n)]
        diff_choices += list(itertools.combinations(range(n), 2))
        sum_choices = [()] + [(s,) for s in range(n)]
        for diffs in diff_choices:
            for sums in sum_choices:
                direct = enum.count_avoiding(g, diffs, sums)
                via_graph = fib_index_exact(build_graph(g, diffs, sums))
                if direct != via_graph:
                    yield f"{g} D={diffs} S={sums}: scan {direct} != graph {via_graph}"
                else:
                    yield None
    return f"{CASES} forbidden families across |G| <= {limit} agree"


@_check("single-difference")
def check_single_difference(cfg: SweepConfig) -> CaseLoop:
    """One forbidden difference of order m: count equals L_m^(|G|/m), and the
    graph decomposes into |G|/m cycles of length m (checked a bit further)."""
    count_limit = cfg.cap(16)
    shape_limit = cfg.cap(20)
    for g in _nontrivial_groups(shape_limit):
        n = g.order
        for d in range(1, n):
            m = g.element_order(d)
            if n <= count_limit:
                expected = lucas(m) ** (n // m)
                got = enum.count_avoiding(g, (d,), ())
                if got != expected:
                    yield f"{g} d={d}: {got} != {expected}"
                    continue
            dec = decompose(build_graph(g, (d,), ()))
            if dec.count_shape("cycle", m) != n // m or len(dec.components) != n // m:
                yield f"{g} d={d}: decomposition not {n // m} x C_{m}"
            else:
                yield None
    return (
        f"{CASES} (group, difference) pairs: Lucas counts to |G| <= {count_limit}, "
        f"cycle shapes to |G| <= {shape_limit}"
    )


@_check("two-torsion-pairs")
def check_two_torsion_pairs(cfg: SweepConfig) -> CaseLoop:
    """Two distinct order-2 forbidden differences give exactly 7^(|G|/4)
    survivors, via 4-cycle components."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        twos = [d for d in range(1, n) if g.element_order(d) == 2]
        for d1, d2 in itertools.combinations(twos, 2):
            got = enum.count_avoiding(g, (d1, d2), ())
            if got != 7 ** (n // 4):
                yield f"{g} d1={d1} d2={d2}: {got} != 7^{n // 4}"
                continue
            dec = decompose(build_graph(g, (d1, d2), ()))
            if dec.count_shape("cycle", 4) != n // 4:
                yield f"{g} d1={d1} d2={d2}: not all 4-cycles"
            else:
                yield None
    return f"{CASES} order-2 pairs across even |G| <= {limit} give exactly 7^(|G|/4)"


@_check("prism-ladder")
def check_prism_ladder(cfg: SweepConfig) -> CaseLoop:
    """Odd groups, one difference of order m and one sum: components are
    prisms/ladders only, with 2*prisms + ladders = |G|/m."""
    limit = cfg.cap(15)
    for g in _nontrivial_groups(limit, parity="odd"):
        n = g.order
        for d in range(1, n):
            m = g.element_order(d)
            for s in range(n):
                dec = decompose(build_graph(g, (d,), (s,)))
                n_p, n_l, all_matched = dec.prism_ladder_profile(m)
                if not all_matched:
                    yield f"{g} d={d} s={s}: unexpected component shapes"
                elif 2 * n_p + n_l != n // m:
                    yield f"{g} d={d} s={s}: 2*{n_p}+{n_l} != {n // m}"
                elif len(dec.looped) != 1:
                    # doubling is invertible in odd groups: one loop exactly
                    yield f"{g} d={d} s={s}: {len(dec.looped)} loops"
                else:
                    yield None
    return f"{CASES} (group, d, s) cases across odd |G| <= {limit} decompose as expected"


@_check("even-pair-decomposition")
def check_even_pair_decomposition(cfg: SweepConfig) -> CaseLoop:
    """Even groups, one order-2 difference and one sum: after loop removal
    only 4-cycles and at most (k+1)/2 single edges remain."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        k = order_two_count(g)
        twos = [d for d in range(1, n) if g.element_order(d) == 2]
        for d in twos:
            for s in range(n):
                dec = decompose(build_graph(g, (d,), (s,)))
                edges = dec.count_shape("path", 2)
                cycles = dec.count_shape("cycle", 4)
                if edges + cycles != len(dec.components):
                    yield f"{g} d={d} s={s}: unexpected shapes"
                elif 2 * edges > k + 1:
                    yield f"{g} d={d} s={s}: {edges} edges > (k+1)/2"
                else:
                    yield None
    return (
        f"{CASES} (group, d, s) cases across even |G| <= {limit} leave only "
        "4-cycles and few edges"
    )


@_check("closed-forms")
def check_closed_forms(cfg: SweepConfig) -> CaseLoop:
    """Path/cycle/ladder/prism closed forms equal the generic exact counter."""
    path_limit = cfg.cap(18)
    box_limit = cfg.cap(12)
    families = [
        ("path", 0, path_limit, index_path, path_neighbors),
        ("cycle", 3, path_limit, index_cycle, cycle_neighbors),
        ("ladder", 1, box_limit, index_ladder, ladder_neighbors),
        ("prism", 3, box_limit, index_prism, prism_neighbors),
    ]
    for label, lo, hi, closed_form, neighbors in families:
        for n in range(lo, hi + 1):
            agree = closed_form(n) == count_independent_sets(neighbors(n))
            yield None if agree else f"{label} {n}"
    spots = [
        (index_path(2), 3),
        (index_cycle(4), 7),
        (index_prism(3), 13),
        (index_ladder(3), 17),
    ]
    for got, want in spots:
        yield None if got == want else f"spot value {got} != {want}"
    return f"paths/cycles to {path_limit} and ladders/prisms to {box_limit} match the counter"


@_check("regular-bound")
def check_regular_bound(cfg: SweepConfig) -> CaseLoop:
    """The regular-graph independent-set cap holds for all prisms and all
    two-difference graphs in range; pairs of independent differences of
    order > 2 must produce simple 4-regular graphs in the first place."""
    prism_limit = cfg.cap(18)
    cayley_limit = cfg.cap(20)
    for n in range(3, prism_limit + 1):
        yield None if regular_bound_check(prism_neighbors(n)) else f"prism {n}"
    for g in _nontrivial_groups(cayley_limit):
        hs = sorted(half_set(g))
        for d1, d2 in itertools.combinations(hs, 2):
            if g.element_order(d1) == 2 or g.element_order(d2) == 2:
                continue
            # half-set members are distinct and never mutual negatives
            graph = build_graph(g, (d1, d2), ())
            if graph.loops or any(len(nb) != 4 for nb in graph.neighbors):
                yield f"{g} D={{{d1},{d2}}}: not simple 4-regular"
            elif not regular_bound_check(graph.neighbors, graph.loops):
                yield f"{g} D={{{d1},{d2}}}"
            else:
                yield None
    return f"{CASES} regular graphs satisfy the cross-power cap"


# --- exhaustive counts vs closed-form bounds -------------------------------


@_check("sandwich")
def check_sandwich(cfg: SweepConfig) -> CaseLoop:
    """lower <= |MSTD(G)| <= upper for all groups in range, plus cyclic
    groups up to the extended ceiling."""
    limit = cfg.cap(16)
    cyclic_limit = cfg.cap(24)
    extra = [GroupSpec((n,)) for n in range(limit + 1, cyclic_limit + 1)]
    for g in _nontrivial_groups(limit) + extra:
        count = enum.count_mstd(g).mstd_count
        lower = (
            bnd.lower_bound_even(g) if g.order % 2 == 0 else bnd.lower_bound_odd(g)
        )
        upper = bnd.upper_bound(g)
        yield None if lower <= count <= upper else f"{g}: not {lower} <= {count} <= {upper}"
    return f"{CASES} groups keep the exact count inside [lower, upper]"


@_check("even-ratio")
def check_even_ratio(cfg: SweepConfig) -> CaseLoop:
    """Exact-count ratio against k*3^(|G|/2) stays under the guaranteed cap."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit, parity="even"):
        count = enum.count_mstd(g).mstd_count
        within = bnd.even_ratio_within_cap(g, count)
        yield None if within else f"{g}: count {count} breaks the ratio cap"
    return f"{CASES} even groups stay under the ratio cap"


@_check("containment")
def check_containment(cfg: SweepConfig) -> CaseLoop:
    """Subsets with full sumset and deficient difference set are exactly the
    easy MSTD certificates; MSTD forces a deficient difference set."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit):
        left, right = enum.containment_violations(g)
        yield f"{g}: violations ({left}, {right})" if left or right else None
    return f"{CASES} groups pass the two-sided containment scan"


@_check("union-upper")
def check_union_upper(cfg: SweepConfig) -> CaseLoop:
    """|MSTD(G)| <= sum over the half set of single-difference avoidance counts."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit):
        count = enum.count_mstd(g).mstd_count
        rhs = sum(
            enum.count_avoiding(g, (d,), ())
            for d in half_set(g)
        )
        yield f"{g}: {count} > {rhs}" if count > rhs else None
    return f"{CASES} groups satisfy the union upper bound"


@_check("union-lower")
def check_union_lower(cfg: SweepConfig) -> CaseLoop:
    """The assembled inclusion-exclusion lower bound never exceeds the count."""
    limit = cfg.cap(14)
    for g in _nontrivial_groups(limit):
        n = g.order
        count = enum.count_mstd(g).mstd_count
        hs = sorted(half_set(g))
        total = 0
        for d in hs:
            term = enum.count_avoiding(g, (d,), ())
            term -= sum(
                enum.count_avoiding(g, (d,), (s,))
                for s in range(n)
            )
            total += term
        for d1, d2 in itertools.combinations(hs, 2):
            total -= enum.count_avoiding(g, (d1, d2), ())
        yield f"{g}: assembled bound {total} > count {count}" if total > count else None
    return f"{CASES} groups satisfy the assembled lower bound"


@_check("even-caps")
def check_even_caps(cfg: SweepConfig) -> CaseLoop:
    """Even-case termwise caps on avoidance counts, by integer cross-powers."""
    limit = cfg.cap(16)
    for g in _nontrivial_groups(limit, parity="even"):
        n = g.order
        k = order_two_count(g)
        for d in range(1, n):
            if g.element_order(d) > 2:
                c = enum.count_avoiding(g, (d,), ())
                yield f"{g} d={d}: single-difference cap broken" if c**4 > 7**n else None
                continue
            for s in range(n):
                c = enum.count_avoiding(g, (d,), (s,))
                broken = c**4 > 3 ** (2 * (k + 1)) * 7**n
                yield f"{g} d={d} s={s}: order-2 cap broken" if broken else None
        for d1, d2 in itertools.combinations(range(1, n), 2):
            c = enum.count_avoiding(g, (d1, d2), ())
            yield f"{g} d1={d1} d2={d2}: pair cap broken" if c**4 > 7**n else None
    return f"{CASES} termwise caps hold for even |G| <= {limit}"


@_check("odd-caps")
def check_odd_caps(cfg: SweepConfig) -> CaseLoop:
    """Odd-case caps: 15^(|G|/6) for one difference plus one sum, 31^(|G|/8)
    for two independent differences."""
    limit = cfg.cap(15)
    for g in _nontrivial_groups(limit, parity="odd"):
        n = g.order
        for d in range(1, n):
            for s in range(n):
                c = enum.count_avoiding(g, (d,), (s,))
                yield f"{g} d={d} s={s}: 15-cap broken" if c**6 >= 15**n else None
        for d1, d2 in itertools.combinations(range(1, n), 2):
            if d1 == g.neg(d2):
                continue
            c = enum.count_avoiding(g, (d1, d2), ())
            yield f"{g} d1={d1} d2={d2}: 31-cap broken" if c**8 > 31**n else None
    return f"{CASES} termwise caps hold for odd |G| <= {limit}"


@_check("ladder-cap")
def check_ladder_cap(cfg: SweepConfig) -> CaseLoop:
    """index_ladder((m-1)/2)^2 < (1+sqrt2)^m for odd m, entirely in integers."""
    limit = cfg.cap(99)
    for m in range(3, limit + 1, 2):
        a = index_ladder((m - 1) // 2)
        p, q = pell_power(m)
        # a^2 < p + q*sqrt2  <=>  a^2 - p < q*sqrt2
        gap = a * a - p
        yield None if gap < 0 or gap * gap < 2 * q * q else f"m={m}"
    return f"{CASES} odd lengths up to {limit} satisfy the ladder cap"


@_check("lucas-roots")
def check_lucas_roots(cfg: SweepConfig) -> CaseLoop:
    limit = cfg.cap(200)
    yield None if bnd.lucas_root_monotonic(limit) else "Lucas root ordering failed"
    return f"Lucas root ordering verified to index {limit}"


@_check("odd-bracket")
def check_odd_bracket(cfg: SweepConfig) -> CaseLoop:
    """Interval-verified bracket on the odd-case order sum, all odd groups."""
    limit = cfg.cap(81)
    for g in _nontrivial_groups(limit, parity="odd"):
        res = bnd.odd_sum_bracket(g, precision_bits=256)
        failed = []
        if not res.bracket_ok:
            failed.append(f"{g}: bracket failed")
        if not res.bernoulli_ok:
            failed.append(f"{g}: termwise shortfall bound failed")
        yield failed
    return f"{CASES} odd groups pass the bracket at 256 bits"


# --- group-theory plumbing -------------------------------------------------


@_check("half-set")
def check_half_set(cfg: SweepConfig) -> CaseLoop:
    """Half-set size formula, two-torsion count, and the closed-form upper
    bound (summed per element order) against the per-element Lucas sum over
    the half set of either tie rule."""
    limit = cfg.cap(64)
    for g in groups_up_to(limit, min_order=2):
        n = g.order
        k = order_two_count(g)
        hs = half_set(g)
        if len(hs) != (n - 1 + k) // 2:
            yield f"{g}: half-set size {len(hs)}"
            continue
        scan_k = sum(1 for d in range(1, n) if g.element_order(d) == 2)
        if scan_k != k:
            yield f"{g}: two-torsion scan {scan_k} != {k}"
            continue
        failed = []
        for d in range(1, n):
            if (d in hs) == (g.neg(d) in hs) and d != g.neg(d):
                failed.append(f"{g}: {d} and its negative both (or neither) picked")
                break
        upper = bnd.upper_bound(g)
        for rule, half in (("low", hs), ("high", half_set(g, "high"))):
            orders = [g.element_order(d) for d in half]
            oracle = sum(lucas(m) ** (n // m) for m in orders)
            if upper != oracle:
                failed.append(f"{g}: upper bound {upper} != {rule} half-set sum {oracle}")
        yield failed
    return f"{CASES} groups up to order {limit} pass half-set checks"


@_check("rank-bound")
def check_rank_bound(cfg: SweepConfig) -> CaseLoop:
    """Order-statistics cap: #{g : ord(g) < t} < t^(rank+1), every t <= |G|."""
    limit = cfg.cap(64)
    for g in groups_up_to(limit, min_order=1):
        orders = sorted(g.element_order(x) for x in g.elements())
        for t in range(1, g.order + 1):
            count = sum(1 for o in orders if o < t)
            failed = [f"{g} t={t}: {count} >= t^(r+1)"] if count >= t ** (g.rank + 1) else []
            # Lagrange on the way through, reported with the last t so it adds no case
            if t == g.order and any(g.order % o for o in orders):
                failed.append(f"{g}: element order not dividing |G|")
            yield failed
    return f"{CASES} (group, t) pairs up to order {limit} satisfy the rank cap"


@_check("mask-oracle")
def check_mask_oracle(cfg: SweepConfig) -> CaseLoop:
    """Bit-shift sumsets/diffsets match the naive double loop: exhaustively
    for tiny groups, on seeded random masks for larger ones. On the tiny
    groups the block engine's memoised (A+A, A-A) masks must match too.

    The naive side reads two |G| x |G| pair tables per group, a + b and
    a - b for every ordered pair, filled by `GroupSpec.add`/`sub` once per
    pair on every run; each mask then walks its element pairs in them."""
    import numpy as np

    def pair_tables(g: GroupSpec) -> tuple[list[list[int]], list[list[int]]]:
        elems = range(g.order)
        sums = [[g.add(a, b) for b in elems] for a in elems]
        diffs = [[g.sub(a, b) for b in elems] for a in elems]
        return sums, diffs

    def naive_block(g: GroupSpec) -> tuple:
        """The double loop over element pairs, applied to every mask at once."""
        sums, diffs = pair_tables(g)
        masks = np.arange(1 << g.order, dtype=np.uint64)
        member = [(masks >> np.uint64(e)) & np.uint64(1) for e in range(g.order)]
        s_masks = np.zeros_like(masks)
        d_masks = np.zeros_like(masks)
        for a in range(g.order):
            for b in range(g.order):
                both = member[a] & member[b]
                s_masks |= both << np.uint64(sums[a][b])
                d_masks |= both << np.uint64(diffs[a][b])
        return s_masks, d_masks

    def naive(g: GroupSpec, sums: list, diffs: list, bits: int) -> tuple[int, int]:
        elems = [e for e in range(g.order) if (bits >> e) & 1]
        s_mask = 0
        d_mask = 0
        for a in elems:
            s_row, d_row = sums[a], diffs[a]
            for b in elems:
                s_mask |= 1 << s_row[b]
                d_mask |= 1 << d_row[b]
        return s_mask, d_mask

    def compare(g: GroupSpec, bits: int, s_mask: int, d_mask: int) -> list[str]:
        a = SubsetMask(g, bits)
        if sumset(a).bits != s_mask or diffset(a).bits != d_mask:
            return [f"{g} mask {bits:#x}"]
        return []

    for g in groups_up_to(cfg.cap(12), min_order=1):
        s_masks, d_masks = naive_block(g)
        for bits, (s_mask, d_mask) in enumerate(zip(s_masks.tolist(), d_masks.tolist())):
            failed = compare(g, bits, s_mask, d_mask)
            # the block engine's memo goes with the last mask, so it adds no case
            if bits == s_masks.size - 1:
                summ, diff = enum._block_sum_diff(g)
                if not (np.array_equal(summ, s_masks) and np.array_equal(diff, d_masks)):
                    failed.append(f"{g}: block engine sum_diff differs from the naive double loop")
            yield failed
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
        sums, diffs = pair_tables(g)
        for _ in range(40):
            bits = rng.getrandbits(g.order)
            yield compare(g, bits, *naive(g, sums, diffs, bits))
    return f"{CASES} masks agree with the naive double loop"


@_check("histogram")
def check_histogram(cfg: SweepConfig) -> CaseLoop:
    """Histogram marginals: totals 2^|G| and the MSTD corner matching the
    direct count."""
    limit = cfg.cap(10)
    for g in groups_up_to(limit, min_order=1):
        hist = enum.missing_histogram(g)
        if hist.total() != 1 << g.order:
            yield f"{g}: histogram total wrong"
            continue
        direct = enum.count_mstd(g).mstd_count
        if hist.mstd_count() != direct:
            yield f"{g}: histogram MSTD {hist.mstd_count()} != {direct}"
        else:
            yield None
    return f"{CASES} histograms have consistent marginals"


@_check("lift")
def check_lift(cfg: SweepConfig) -> CaseLoop:
    """Group MSTD witnesses lift to integer MSTD sets for some k <= 64."""
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
            yield f"witness {w} in {w.group} is not MSTD"
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
            yield f"witness in {w.group} never lifted to integer MSTD"
        else:
            records.append(f"{w.group}: k0={found}")
            yield None
    return "; ".join(records)


@_check("conway")
def check_conway(cfg: SweepConfig) -> CaseLoop:
    got = integer_mstd_check([0, 2, 3, 4, 7, 11, 12, 14])
    detail = f"classic 8-element set gives {got}"
    yield None if got == (True, 26, 25) else detail
    return detail


@_check("z8-example")
def check_z8_example(cfg: SweepConfig) -> CaseLoop:
    """The order-8 cyclic worked example: graph route and brute force agree at 17."""
    g = GroupSpec((8,))
    via_graph = fib_index_exact(build_graph(g, (1,), (4,)))
    via_scan = enum.count_avoiding(g, (1,), (4,))
    detail = f"graph {via_graph}, scan {via_scan}, expected 17"
    yield None if via_graph == via_scan == 17 else detail
    return detail


@_check("determinism")
def check_determinism(cfg: SweepConfig) -> CaseLoop:
    """The chunked scans match a second engine on groups of 2-4 scan blocks:
    the histogram's MSTD count matches the DFS, and each single-difference
    avoidance count matches the forbiddance graph's index."""
    fixed = [GroupSpec(f) for f in [(15,), (3, 5), (16,), (2, 8), (4, 4), (2, 2, 4)]]
    for g in fixed:
        failed = []
        scan, walk = enum.missing_histogram(g).mstd_count(), enum.count_mstd(g).mstd_count
        if scan != walk:
            failed.append(f"{g}: histogram MSTD {scan} != DFS {walk}")
        for d in sorted(half_set(g)):
            direct = enum.count_avoiding(g, (d,))
            via_graph = fib_index_exact(build_graph(g, (d,)))
            if direct != via_graph:
                failed.append(f"{g} d={d}: scan {direct} != graph {via_graph}")
        yield failed
    return f"{CASES} multi-block groups: histogram matches the DFS, avoidance counts the graphs"


@_check("multiplicativity")
def check_multiplicativity(cfg: SweepConfig) -> CaseLoop:
    """Independent-set counts multiply across disjoint unions (seeded random)."""
    rng = random.Random(cfg.seed)
    builders = [path_neighbors, cycle_neighbors, ladder_neighbors, prism_neighbors]
    for _ in range(25):
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
        yield None if count_independent_sets(union) == expected else "disjoint union mismatch"
    return f"{CASES} random disjoint unions multiply"


def run_checks(
    only: Optional[Iterable[str]] = None,
    max_order: Optional[int] = None,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run the selected checks (all by default) and return their results.
    Every name, max_order and threads are checked before any check runs;
    the checks run on one thread."""
    # perfbench/workloads.py passes threads=; it is checked and otherwise unread
    if threads < 1:
        raise ValueError("threads must be >= 1")
    names = list(CHECKS) if only is None else list(only)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    cfg = SweepConfig(max_order=max_order, seed=seed)
    return [CHECKS[name](cfg) for name in names]
