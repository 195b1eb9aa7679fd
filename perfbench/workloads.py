"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop driven by one process: it issues the next
case only when the previous one has returned, and repeats a fixed pass of
cases. `run_pass` returns one output and one wall time per case; `check`
judges the outputs of one pass (against frozen counts, closed forms
computed here, each verify check's own verdict, or the exact counter run
on the whole graph) and returns one failure message (or None) per output.

Left out on purpose:
- the `determinism` verify check asks for max(cpu_count, 4) threads, more
  than the 2 cores this benchmark is sized for, and the benchmark never
  requests more threads than nproc;
- the tier-1 test wall time changes with every change that adds tests, so
  it cannot compare two commits;
- `mstd count -g 24` takes about 40 s per run and `-g 28` about 670 s on
  a 2-core x86_64 machine without numba, beyond the run length;
  count-table covers the same engine on a band of smaller groups.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

from tracing import patch_everywhere

FROZEN_PATH = Path(__file__).resolve().parent / "frozen_counts.json"

#: count-table starts at this order and ends at the largest order whose
#: frozen cost (see count_table_groups) still fits the run length.
COUNT_TABLE_MIN_ORDER = 14
#: max_order handed to verify.run_checks in oracle-sweep.
ORACLE_MAX_ORDER = 12


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def count_table_groups(seconds: float) -> list[dict]:
    """Frozen entries of the count-table band for a run of `seconds`.

    The band's top order is a pure function of the run length: it is the
    largest order whose summed cost, as measured when the counts were frozen
    (freeze.py), fits in `seconds`, so two commits always count the same
    groups however fast they are.
    """
    entries = [e for e in load_frozen()["groups"] if e["order"] >= COUNT_TABLE_MIN_ORDER]
    orders = sorted({e["order"] for e in entries})
    band: list[dict] = []
    spent = 0.0
    for order in orders:
        layer = [e for e in entries if e["order"] == order]
        spent += sum(e["cost_s"] for e in layer)
        if band and spent > seconds:
            break
        band.extend(layer)
    return band


@contextlib.contextmanager
def _stamp_calls(fn, stamps: list[float]):
    """Record perf_counter() at each call of `fn` while the block runs."""

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)

    patched = patch_everywhere(fn, stamped)
    try:
        yield
    finally:
        for mod, attr in patched:
            setattr(mod, attr, fn)


def _split(start: float, stamps: list[float], end: float) -> list[float]:
    """Case times from case-start stamps: each case runs until the next starts."""
    bounds = [start] + stamps[1:] + [end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


# --- count-table -------------------------------------------------------------


class CountTable:
    """In-process `mstd table --family all` with exact counts over a band.

    Cases are the group rows; the seed does not change this workload.
    """

    name = "count-table"

    def __init__(self, seed: int, seconds: float, nproc: int):
        self.threads = nproc  # the CLI default; never above nproc
        self.band = count_table_groups(seconds)
        self.expected = {e["group"]: int(e["count"]) for e in self.band}
        self.size = len(self.expected)
        self.argv = [
            "table", "--family", "all",
            "--min", str(self.band[0]["order"]), "--max", str(self.band[-1]["order"]),
            "--threads", str(self.threads),
        ]

    def warm_up(self) -> None:
        self._table(["table", "--family", "all", "--min", "2", "--max", "8",
                     "--threads", str(self.threads)])

    @staticmethod
    def _table(argv: list[str]) -> tuple[int, str]:
        """cli.main in process, stdout captured; run.py has already removed
        every MSTD_* variable, which the CLI would read as flag defaults."""
        from mstd import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def run_pass(self) -> tuple[list, list[float]]:
        from mstd import enumerate_subsets

        stamps: list[float] = []
        start = time.perf_counter()
        with _stamp_calls(enumerate_subsets.count_mstd, stamps):
            rc, text = self._table(self.argv)
        end = time.perf_counter()
        rows = {}
        if rc == 0:
            for line in text.splitlines():
                rec = json.loads(line)
                rows[rec["group"]] = rec
        outputs = [rows.get(g) for g in self.expected]
        cases = _split(start, stamps, end) if len(stamps) == len(outputs) else []
        return outputs, cases

    def check(self, outputs: list) -> list:
        verdicts = []
        for group, rec in zip(self.expected, outputs):
            want = self.expected[group]
            if rec is None:
                verdicts.append(f"{group}: no row")
                continue
            got = int(rec["exact"]) if rec.get("exact") else None
            lower, upper = Fraction(rec["lower"]), int(rec["upper"])
            if got != want:
                verdicts.append(f"{group}: count {got} != frozen {want}")
            elif not lower <= got <= upper:
                verdicts.append(f"{group}: {got} outside [{lower}, {upper}]")
            else:
                verdicts.append(None)
        return verdicts


# --- oracle-sweep ------------------------------------------------------------


def oracle_checks() -> list[str]:
    """Every verify check but `determinism`, in run order."""
    from mstd import verify

    return [c for c in verify.CHECKS if c != "determinism"]


class OracleSweep:
    """verify.run_checks over oracle_checks(), one thread."""

    name = "oracle-sweep"

    def __init__(self, seed: int, seconds: float, nproc: int):
        self.threads = 1  # the CLI's verify default
        self.seed = seed
        self.names = oracle_checks()
        self.size = len(self.names)

    def warm_up(self) -> None:
        from mstd import verify

        verify.run_checks(only=self.names, max_order=4, threads=1, seed=self.seed)

    def run_pass(self) -> tuple[list, list[float]]:
        from mstd import verify

        stamps: list[float] = []
        originals = dict(verify.CHECKS)

        def stamped(fn):
            def call(cfg):
                stamps.append(time.perf_counter())
                return fn(cfg)
            return call

        verify.CHECKS.update({k: stamped(f) for k, f in originals.items()})
        start = time.perf_counter()
        try:
            results = verify.run_checks(
                only=self.names, max_order=ORACLE_MAX_ORDER, threads=self.threads, seed=self.seed
            )
        finally:
            end = time.perf_counter()
            verify.CHECKS.update(originals)
        return list(results), _split(start, stamps, end)

    def check(self, outputs: list) -> list:
        verdicts = []
        for name, res in zip(self.names, outputs):
            if res.name != name:
                verdicts.append(f"expected check {name}, got {res.name}")
            elif not res.passed:
                verdicts.append(f"{name}: {res.detail}")
            else:
                verdicts.append(None)
        verdicts += [f"{name}: no result" for name in self.names[len(outputs):]]
        return verdicts


# --- structure-large ---------------------------------------------------------

#: Odd groups of order 36-105 for one-difference-plus-one-sum cases.
ODD_GROUPS = (
    (39,), (13, 3), (45,), (15, 3), (49,), (7, 7), (55,), (63,), (21, 3),
    (75,), (15, 5), (5, 5, 3), (81,), (27, 3), (9, 9), (9, 3, 3), (91,),
    (99,), (33, 3), (105,), (35, 3),
)
#: Even groups of order 36-105 for one-difference cases only.
EVEN_GROUPS = (
    (36,), (6, 6), (18, 2), (40,), (20, 2), (10, 2, 2), (48,), (12, 4),
    (64,), (8, 8), (4, 4, 4), (72,), (6, 6, 2), (100,), (10, 10), (96,),
)
#: Two-difference cases in orders 36-40; most leave a connected 4-regular
#: component of up to 40 vertices for the generic eliminator. They are
#: fixed, not drawn: relabelling one by a unit multiplier (an automorphism)
#: changes the elimination order and its cost up to threefold.
TWO_DIFF_CASES = (
    ((36,), 1, 4), ((36,), 1, 9), ((36,), 2, 3), ((36,), 1, 6),
    ((12, 3), 1, 12), ((12, 3), 1, 13), ((6, 6), 1, 6), ((6, 6), 1, 7),
    ((18, 2), 1, 18), ((18, 2), 2, 18),
    ((37,), 1, 6), ((37,), 1, 10), ((38,), 1, 2), ((38,), 1, 8),
    ((39,), 1, 3), ((39,), 1, 5), ((13, 3), 1, 13),
    ((40,), 1, 4), ((40,), 1, 12), ((40,), 3, 10), ((20, 2), 1, 20), ((10, 2, 2), 1, 10),
)
#: Bound reports (256 bits) up to about order 3000; odd ones also run
#: odd_sum_bracket, at bracket_bits(). The seed does not change these.
BOUND_GROUPS = (
    (3003,), (2187,), (2025,), (15, 15, 13), (1155,), (1001,), (999,),
    (2048,), (1024, 2), (1500,),
)
PRECISION_BITS = 256
#: Difference-and-sum strata above this element order use one fixed case.
HEAVY_ORDER = 21
#: Seeded draws per lighter difference-and-sum stratum.
LIGHT_DRAWS = 5


def bracket_bits(order: int) -> int:
    """Precision for odd_sum_bracket on a group of this order.

    Its per-order shortfall check compares 1 - (1 - x)^N with N*x, where
    x = phi^(-2k) and N = order/k; they differ by about N^2 x^2 / 2, so the
    check cannot pass once that gap is below 2^-bits, about when
    bits > 2.78k. At the 256-bit default that happens for element orders
    k > 92 with N > 1 (Z/405 onwards), and bernoulli_ok comes back False.
    In an odd group N > 1 means N >= 3, so order + 64 bits covers every k.
    """
    return max(PRECISION_BITS, order + 64)


def _digits(factors, x):
    out = []
    for a in factors:
        out.append(x % a)
        x //= a
    return out


def _order(factors, x) -> int:
    return lcm(*(a // gcd(a, e) for a, e in zip(factors, _digits(factors, x))))


def _by_order(factors) -> dict[int, list[int]]:
    strata: dict[int, list[int]] = {}
    for x in range(1, prod(factors)):
        strata.setdefault(_order(factors, x), []).append(x)
    return strata


def _mat_pow(mat, k):
    size = len(mat)
    out = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(k):
        out = [[sum(out[i][t] * mat[t][j] for t in range(size)) for j in range(size)]
               for i in range(size)]
    return out


#: Transfer matrices of independent sets along a cycle or path: one vertex
#: per step (states: out, in) or one rung per step (none, top, bottom).
_VERTEX_STEP = [[1, 1], [1, 0]]
_RUNG_STEP = [[1, 1, 1], [1, 0, 1], [1, 1, 0]]


def _trace(mat) -> int:
    return sum(mat[i][i] for i in range(len(mat)))


def cycle_index(m: int) -> int:
    """Independent sets of C_m (a looped vertex for m = 1, an edge for m = 2)."""
    return _trace(_mat_pow(_VERTEX_STEP, m))


def prism_index(m: int) -> int:
    """Independent sets of C_m x P_2."""
    return _trace(_mat_pow(_RUNG_STEP, m))


def ladder_index(rungs: int) -> int:
    """Independent sets of P_rungs x P_2."""
    return sum(map(sum, _mat_pow(_RUNG_STEP, rungs - 1)))


def _ladder_shape(rungs: int) -> tuple[str, int]:
    # a 1-rung ladder is an edge and a 2-rung ladder a 4-cycle to the classifier
    return {1: ("edge", 2), 2: ("cycle", 4)}.get(rungs, ("ladder", rungs))


def structure_cases(seed: int) -> tuple[list[tuple], list[tuple]]:
    """Seeded forbid cases (family, factors, diffs, sums) and bound groups.

    Every seed draws from the same strata (group, family, element order), so
    the cost of a pass does not depend on the seed. Difference-and-sum cases
    whose difference has order above HEAVY_ORDER are fixed instead of drawn:
    their graphs are isomorphic for every draw, but the classifier's
    isomorphism search cost depends on the labels alone (10-30 ms at order
    35 and 15-440 ms at order 105 on a 2-core x86_64 machine), which would
    make wall_s and case_p90_ms follow the seed.
    """
    rng = random.Random(seed)
    forbid = []
    for factors in ODD_GROUPS + EVEN_GROUPS:
        strata = _by_order(factors)
        m = rng.choice(sorted(strata))
        forbid.append(("one-difference", factors, (rng.choice(strata[m]),), ()))
    for factors in ODD_GROUPS:
        for m, elements in sorted(_by_order(factors).items()):
            if m > HEAVY_ORDER:
                forbid.append(("difference-and-sum", factors, (elements[0],), (0,)))
                continue
            for _ in range(LIGHT_DRAWS):
                d, s = rng.choice(elements), rng.randrange(prod(factors))
                forbid.append(("difference-and-sum", factors, (d,), (s,)))
    for factors, d1, d2 in TWO_DIFF_CASES:
        forbid.append(("two-differences", factors, (d1, d2), ()))
    rng.shuffle(forbid)
    return forbid, list(BOUND_GROUPS)


class StructureLarge:
    """Forbiddance graphs on groups of order 36-105 and bound reports up to
    order ~3000: nothing scans 2^|G| subsets."""

    name = "structure-large"

    def __init__(self, seed: int, seconds: float, nproc: int):
        from mstd.groups import GroupSpec

        self.threads = 1
        forbid, bounds = structure_cases(seed)
        self.forbid = [(fam, GroupSpec(f), d, s) for fam, f, d, s in forbid]
        self.bounds = [GroupSpec(f) for f in bounds]
        self.size = len(self.forbid) + len(self.bounds)

    def warm_up(self) -> None:
        from mstd.bounds import build_report, odd_sum_bracket
        from mstd.fib_index import fib_index_exact
        from mstd.forbiddance import build_graph, decompose
        from mstd.groups import GroupSpec

        g = GroupSpec((15,))
        for diffs, sums in (((5,), ()), ((5,), (1,)), ((1, 3), ())):
            graph = build_graph(g, diffs, sums)
            decompose(graph)
            fib_index_exact(graph)
        build_report(g, precision_bits=PRECISION_BITS)
        odd_sum_bracket(g, precision_bits=PRECISION_BITS)

    def run_pass(self) -> tuple[list, list[float]]:
        from mstd import bounds, fib_index, forbiddance

        outputs, cases = [], []
        clock = time.perf_counter
        for _, group, diffs, sums in self.forbid:
            t0 = clock()
            try:
                graph = forbiddance.build_graph(group, diffs, sums)
                dec = forbiddance.decompose(graph)
                out = (graph, dec, fib_index.fib_index_exact(graph))
            except Exception as exc:  # a refusal fails the case
                out = exc
            cases.append(clock() - t0)
            outputs.append(out)
        for group in self.bounds:
            t0 = clock()
            try:
                out = (
                    bounds.build_report(group, precision_bits=PRECISION_BITS),
                    bounds.odd_sum_bracket(group, precision_bits=bracket_bits(group.order))
                    if group.order % 2 else None,
                )
            except Exception as exc:
                out = exc
            cases.append(clock() - t0)
            outputs.append(out)
        return outputs, cases

    @staticmethod
    def same(a, b) -> bool:
        """Outputs of two passes agree (graphs are compared by their results)."""
        if isinstance(a, Exception) or isinstance(b, Exception):
            return repr(a) == repr(b)
        if len(a) == 3:
            return a[1:] == b[1:]
        return (a[0].to_record(), a[1] and (a[1].bracket_ok, a[1].bernoulli_ok)) == (
            b[0].to_record(), b[1] and (b[1].bracket_ok, b[1].bernoulli_ok))

    def check(self, outputs: list) -> list:
        verdicts = []
        for case, out in zip(self.forbid, outputs):
            if isinstance(out, Exception):
                verdicts.append(f"{case[1]} D={case[2]} S={case[3]}: {type(out).__name__}: {out}")
            else:
                verdicts.append(self._check_forbid(*case, *out))
        for group, out in zip(self.bounds, outputs[len(self.forbid):]):
            if isinstance(out, Exception):
                verdicts.append(f"{group}: {type(out).__name__}: {out}")
                continue
            report, bracket = out
            if not report.lower <= report.upper:
                verdicts.append(f"{group}: lower {report.lower} > upper {report.upper}")
            elif bracket is not None and not (bracket.bracket_ok and bracket.bernoulli_ok):
                verdicts.append(f"{group}: odd-sum bracket failed")
            else:
                verdicts.append(None)
        return verdicts

    @staticmethod
    def _check_forbid(family, group, diffs, sums, graph, dec, index):
        from mstd.fib_index import count_independent_sets

        tag = f"{group} D={diffs} S={sums}"
        n = group.order
        if family == "one-difference":
            m = _order(group.factors, diffs[0])
            want = cycle_index(m) ** (n // m)
        elif family == "difference-and-sum":
            m = _order(group.factors, diffs[0])
            kinds = [(c.kind, c.param) for c in dec.components]
            prisms = kinds.count(("prism", m))
            ladders = kinds.count(_ladder_shape((m - 1) // 2))
            if prisms + ladders != len(kinds) or 2 * prisms + ladders != n // m:
                return f"{tag}: components {sorted(set(kinds))} are not prisms/ladders of {m}"
            if len(dec.looped) != 1:
                return f"{tag}: {len(dec.looped)} loops, expected 1"
            want = prism_index(m) ** prisms * ladder_index((m - 1) // 2) ** ladders
        else:
            alive = set(range(n)) - set(graph.loops)
            want = count_independent_sets(graph.neighbors, alive)
        if index != want:
            return f"{tag}: index {index} != {want}"
        return None


WORKLOADS = {w.name: w for w in (CountTable, OracleSweep, StructureLarge)}
