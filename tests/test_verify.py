"""The `verify` check list, its PASS details, and its failure path.

The PASS details are pinned at max_order 6 (under a second). The failure
path is exercised by injecting one off-by-one fault into an engine and
running `mstd verify --max-order 8`: the checks that compare that engine
with an oracle must fail, each with its first three failures joined by
"; " and the rest counted as "(+N more)", and the command must exit 1.
"""

import dataclasses

import pytest

from mstd import enumerate_subsets as enum
from mstd import verify
from mstd.cli import main
from mstd.groups import GroupSpec, groups_up_to
from mstd.subsets import SubsetMask

NAMES = [
    "bijection",
    "single-difference",
    "two-torsion-pairs",
    "prism-ladder",
    "even-pair-decomposition",
    "closed-forms",
    "regular-bound",
    "sandwich",
    "even-ratio",
    "containment",
    "union-upper",
    "union-lower",
    "even-caps",
    "odd-caps",
    "ladder-cap",
    "lucas-roots",
    "odd-bracket",
    "half-set",
    "rank-bound",
    "mask-oracle",
    "histogram",
    "lift",
    "conway",
    "z8-example",
    "determinism",
    "multiplicativity",
]

#: Every check's PASS detail at max_order 6; `determinism` sweeps its six
#: fixed groups of order 15-16 at every max_order.
DETAILS_AT_6 = {
    "bijection": "558 forbidden families across |G| <= 6 agree",
    "single-difference": "23 (group, difference) pairs: Lucas counts to |G| <= 6, "
    "cycle shapes to |G| <= 6",
    "two-torsion-pairs": "3 order-2 pairs across even |G| <= 6 give exactly 7^(|G|/4)",
    "prism-ladder": "26 (group, d, s) cases across odd |G| <= 6 decompose as expected",
    "even-pair-decomposition": "30 (group, d, s) cases across even |G| <= 6 leave only "
    "4-cycles and few edges",
    "closed-forms": "paths/cycles to 6 and ladders/prisms to 6 match the counter",
    "regular-bound": "7 regular graphs satisfy the cross-power cap",
    "sandwich": "7 groups keep the exact count inside [lower, upper]",
    "even-ratio": "5 even groups stay under the ratio cap",
    "containment": "7 groups pass the two-sided containment scan",
    "union-upper": "7 groups satisfy the union upper bound",
    "union-lower": "7 groups satisfy the assembled lower bound",
    "even-caps": "66 termwise caps hold for even |G| <= 6",
    "odd-caps": "30 termwise caps hold for odd |G| <= 6",
    "ladder-cap": "2 odd lengths up to 6 satisfy the ladder cap",
    "lucas-roots": "Lucas root ordering verified to index 6",
    "odd-bracket": "2 odd groups pass the bracket at 256 bits",
    "half-set": "7 groups up to order 6 pass half-set checks",
    "rank-bound": "31 (group, t) pairs up to order 6 satisfy the rank cap",
    "mask-oracle": "526 masks agree with the naive double loop",
    "histogram": "8 histograms have consistent marginals",
    "lift": "12: k0=2; 2,8: k0=4",
    "conway": "classic 8-element set gives (True, 26, 25)",
    "z8-example": "graph 17, scan 17, expected 17",
    "determinism": "6 multi-block groups: histogram matches the DFS, avoidance counts the graphs",
    "multiplicativity": "25 random disjoint unions multiply",
}


def test_check_names_in_order():
    assert list(verify.CHECKS) == NAMES


@pytest.mark.parametrize("max_order", [3, -5])
def test_sweep_config_refuses_max_order_below_4(max_order):
    # direct CHECKS[name](SweepConfig(...)) callers get the CLI's refusal too
    with pytest.raises(ValueError, match="max_order must be >= 4"):
        verify.SweepConfig(max_order=max_order)


def test_pass_details_at_max_order_6():
    results = verify.run_checks(max_order=6)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (n, True, DETAILS_AT_6[n]) for n in NAMES
    ]


def _count_avoiding_off_on_order_8(monkeypatch):
    original = enum.count_avoiding

    def off(group, *args, **kwargs):
        return original(group, *args, **kwargs) + (group.order == 8)

    monkeypatch.setattr(enum, "count_avoiding", off)


def _fib_index_exact_off(monkeypatch):
    original = verify.fib_index_exact
    monkeypatch.setattr(verify, "fib_index_exact", lambda graph: original(graph) + 1)


def _count_mstd_off(monkeypatch):
    original = enum.count_mstd

    def off(group, *args, **kwargs):
        rec = original(group, *args, **kwargs)
        return dataclasses.replace(rec, mstd_count=rec.mstd_count + 1)

    monkeypatch.setattr(enum, "count_mstd", off)


def _sumset_off_on_order_4(monkeypatch):
    original = verify.sumset

    def off(a):
        return SubsetMask(a.group, original(a).bits ^ (a.group.order == 4))

    monkeypatch.setattr(verify, "sumset", off)


def _diffset_off_on_order_64(monkeypatch):
    # only the random half of mask-oracle reaches an order-64 group
    original = verify.diffset

    def off(a):
        return SubsetMask(a.group, original(a).bits ^ ((a.group.order == 64) << 63))

    monkeypatch.setattr(verify, "diffset", off)


def _sumset_off_on_8x4(monkeypatch):
    # a two-factor group: the naive side reads a pair table over both digits
    original = verify.sumset

    def off(a):
        return SubsetMask(a.group, original(a).bits ^ ((a.group == GroupSpec((8, 4))) << 5))

    monkeypatch.setattr(verify, "sumset", off)


FAULTS = {
    "count_avoiding+1-on-order-8": (
        _count_avoiding_off_on_order_8,
        [
            "FAIL bijection: 8 D=() S=(): scan 257 != graph 256; "
            "8 D=() S=(0,): scan 28 != graph 27; 8 D=() S=(1,): scan 82 != graph 81 "
            "(+996 more)",
            "FAIL single-difference: 8 d=1: 48 != 47; 8 d=2: 50 != 49; 8 d=3: 48 != 47 "
            "(+18 more)",
            "FAIL two-torsion-pairs: 4,2 d1=2 d2=4: 50 != 7^2; 4,2 d1=2 d2=6: 50 != 7^2; "
            "4,2 d1=4 d2=6: 50 != 7^2 (+21 more)",
            "FAIL even-caps: 8 d=2: single-difference cap broken; "
            "8 d=6: single-difference cap broken; 8 d1=2 d2=6: pair cap broken (+30 more)",
            "FAIL z8-example: graph 17, scan 18, expected 17",
        ],
    ),
    "fib_index_exact+1": (
        _fib_index_exact_off,
        [
            "FAIL bijection: 1 D=() S=(): scan 2 != graph 3; "
            "1 D=() S=(0,): scan 1 != graph 2; 1 D=(0,) S=(): scan 1 != graph 2 "
            "(+1786 more)",
            "FAIL z8-example: graph 18, scan 17, expected 17",
            "FAIL determinism: 15 d=1: scan 1364 != graph 1365; "
            "15 d=2: scan 1364 != graph 1365; 15 d=3: scan 1331 != graph 1332 (+48 more)",
        ],
    ),
    "count_mstd+1": (
        _count_mstd_off,
        [
            "FAIL histogram: 1: histogram MSTD 0 != 1; 2: histogram MSTD 0 != 1; "
            "3: histogram MSTD 0 != 1 (+9 more)",
            "FAIL determinism: 15: histogram MSTD 60 != DFS 61; 3,5: histogram MSTD 60 != DFS 61; "
            "16: histogram MSTD 384 != DFS 385 (+3 more)",
        ],
    ),
    # mask-oracle reports each case's failures as a list
    "sumset-bit-0-on-order-4": (
        _sumset_off_on_order_4,
        ["FAIL mask-oracle: 4 mask 0x0; 4 mask 0x1; 4 mask 0x2 (+29 more)"],
    ),
    "diffset-bit-63-on-order-64": (
        _diffset_off_on_order_64,
        [
            "FAIL mask-oracle: 64 mask 0x86151962a13be8a7; 64 mask 0x62b543c7e247b2b8; "
            "64 mask 0xca324d366420e797 (+37 more)"
        ],
    ),
    "sumset-bit-5-on-8x4": (
        _sumset_off_on_8x4,
        [
            "FAIL mask-oracle: 8,4 mask 0xd71a4078; 8,4 mask 0xb048a7a3; "
            "8,4 mask 0x27244612 (+37 more)"
        ],
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_injected_fault_fails_its_checks(fault, monkeypatch, capsys):
    inject, expected = FAULTS[fault]
    inject(monkeypatch)
    code = main(["verify", "--max-order", "8"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0].split()[1] for line in lines] == NAMES
    assert [line for line in lines if not line.startswith("PASS ")] == expected


#: mask-oracle's random pool, whose groups it sweeps at every max_order.
MASK_ORACLE_POOL = [(24,), (32,), (64,), (8, 4), (6, 6), (4, 4, 2), (5, 5), (3, 3, 3)]


def test_mask_oracle_evaluates_each_pair_once(monkeypatch):
    # the naive side fills a sum and a difference table per group, one
    # GroupSpec.add each per ordered pair (sub goes through add), and reads
    # the tables for every mask
    calls = 0
    original = GroupSpec.add

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return original(self, x, y)

    monkeypatch.setattr(GroupSpec, "add", counted)
    (result,) = verify.run_checks(only=["mask-oracle"], max_order=4)
    assert result.passed
    orders = [g.order for g in groups_up_to(4, min_order=1)]
    orders += [GroupSpec(f).order for f in MASK_ORACLE_POOL]
    assert calls <= 2 * sum(n * n for n in orders) == 20880
