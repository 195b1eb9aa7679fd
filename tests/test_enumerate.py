import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from mstd import enumerate_subsets
from mstd.enumerate_subsets import (
    _CHUNK_BITS,
    EnumerationCapError,
    _count_mstd_dfs,
    _dfs_budget,
    _run_chunked,
    containment_violations,
    count_avoiding,
    count_full_sumset_avoiding,
    count_mstd,
    missing_histogram,
)
from mstd.fib_index import fib_index_exact
from mstd.forbiddance import build_graph
from mstd.groups import GroupSpec, groups_up_to, half_set

from oracles import (
    TupleGroup,
    naive_count_avoiding,
    naive_count_full_sumset_avoiding,
    naive_count_mstd,
    naive_missing_histogram,
)

Z8 = GroupSpec((8,))

# Exhaustive counts for |G| <= 10 are recomputed against the tuple oracle in
# test_count_matches_naive_oracle; the order 12-16 ones below were produced
# once by the same oracle and frozen. The order 17-20 ones are from
# perfbench/frozen_counts.json, where the package scan and an independent
# numpy pair recount agree; they span 8 to 64 blocks of the scan. The order
# 24 and 28 ones are where a multi-block scan (43-53 s on Z/28, one thread)
# and the DFS agree.
FROZEN_COUNTS = {
    (12,): 24,
    (14,): 28,
    (15,): 60,
    (16,): 384,
    (2, 8): 352,
    (4, 4): 384,
    (2, 2, 4): 512,
    (2, 2, 2, 2): 0,
    (17,): 272,
    (18,): 792,
    (20,): 5440,
    (10, 2): 6080,
    (5, 2, 2): 6080,
    (24,): 70632,
    (12, 2): 102432,
    (28,): 922348,
}

# Children the walk evaluates, pruned ones included: a property of the tree,
# so no batch size or pool schedule may change it.
FROZEN_DFS_NODES = {(20,): 72948, (10, 2): 102378, (28,): 6256165}


# |{A : d not in A-A, A+A = G}| for the listed d, and 0 for every other d in
# half_set(G); the package scan and a subsets.sumset/diffset pass over every
# mask agree on all of them. Orders 12 and 14 reduce the memoised block,
# Z/16 and Z/2 x Z/8 four chunks.
FROZEN_FULL_SUMSET = {
    (12,): {6: 24},
    (14,): {7: 28},
    (16,): {8: 320},
    (2, 8): {1: 64, 8: 224, 9: 64},
}


def test_count_mstd_trivial_groups():
    assert count_mstd(GroupSpec(())).mstd_count == 0
    assert count_mstd(GroupSpec((2,))).mstd_count == 0


def test_count_mstd_frozen_values():
    for factors, expected in FROZEN_COUNTS.items():
        g = GroupSpec(factors)
        count, nodes = _count_mstd_dfs(g)
        assert count == expected, factors
        assert nodes == FROZEN_DFS_NODES.get(factors, nodes), factors
        assert count_mstd(g).mstd_count == expected


def test_dfs_matches_block_scan():
    # every presentation of order 1-16, on both sides of the routing order;
    # the histogram scans every mask in blocks, multi-block from order 15
    for g in groups_up_to(16, min_order=1):
        count, nodes = _count_mstd_dfs(g)
        assert count == missing_histogram(g).mstd_count(), g
        assert nodes <= _dfs_budget(g), g


def test_dfs_batch_size_does_not_change_results(monkeypatch):
    # at the default batch every group here but Z/10 x Z/2 is walked as one
    # batch; small batches overflow into the pools at almost every step
    groups = [*groups_up_to(14, min_order=2), GroupSpec((20,)), GroupSpec((10, 2))]
    expected = {g: _count_mstd_dfs(g) for g in groups}
    for batch in (1, 3, 7, 64):
        monkeypatch.setattr(enumerate_subsets, "_DFS_BATCH", batch)
        for g in groups:
            if batch > 1 or g.order <= 12:
                assert _count_mstd_dfs(g) == expected[g], (batch, g)


def test_count_matches_naive_oracle():
    for g in groups_up_to(10, min_order=1):
        assert count_mstd(g).mstd_count == naive_count_mstd(TupleGroup(g.factors))


def test_result_record():
    res = count_mstd(Z8)
    assert res.total_subsets == 256
    assert res.thread_count == 1
    rec = json.loads(res.to_json())
    assert rec["group"] == "8"
    assert rec["mstd_count"] == "0"
    assert rec["threads"] == 1
    # one scan block up to its order, the walk above; both run on one thread
    for order, engine in ((_CHUNK_BITS, "scan-numpy"), (_CHUNK_BITS + 1, "dfs-numpy")):
        res = count_mstd(GroupSpec((order,)))
        assert (res.engine, res.thread_count) == (engine, 1)


def test_cap_refusal():
    # the count's refusal states the DFS work budget, |G| * upper_bound(G)
    with pytest.raises(EnumerationCapError, match="upper_bound"):
        count_mstd(GroupSpec((40,)))
    with pytest.raises(EnumerationCapError):
        missing_histogram(GroupSpec((26,)))
    # explicit cap override is honored
    assert count_mstd(GroupSpec((5,)), cap=5).mstd_count == 0


def test_mask_width_refusal(monkeypatch):
    # no cap lifts a scan past the uint64 mask; the block kernel must not run
    from mstd import _kernels

    def refuse(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(_kernels.Tables, "__init__", refuse)
    monkeypatch.setattr(_kernels.Tables, "translate", refuse)
    big = GroupSpec((64,))
    for scan in (count_mstd, missing_histogram, containment_violations, count_avoiding):
        with pytest.raises(EnumerationCapError, match="mask width"):
            scan(big, cap=100)
    with pytest.raises(EnumerationCapError, match="mask width"):
        count_full_sumset_avoiding(big, 1, cap=100)


def test_count_avoiding_examples():
    assert count_avoiding(Z8, (1,)) == 47
    assert count_avoiding(Z8, (4,)) == 81
    assert count_avoiding(Z8, (1,), (4,)) == 17


def test_count_avoiding_matches_naive_oracle():
    cases = [
        ((6,), (1,), ()),
        ((6,), (2,), (3,)),
        ((8,), (1, 4), ()),
        ((2, 4), (1,), (0,)),
        ((9,), (3,), (0,)),
        ((2, 2, 2), (1, 2), (7,)),
    ]
    for factors, diffs, sums in cases:
        g = GroupSpec(factors)
        t = TupleGroup(factors)
        want = naive_count_avoiding(
            t, [t.elems[d] for d in diffs], [t.elems[s] for s in sums]
        )
        assert count_avoiding(g, diffs, sums) == want


def test_count_avoiding_matches_naive_oracle_small_groups():
    # every single-difference family and every (d, s) family on each group
    # of order <= 6, where the count reduces the memoised (A+A, A-A) block
    for g in groups_up_to(6):
        t = TupleGroup(g.factors)
        for d in range(g.order):
            got = count_avoiding(g, (d,))
            assert got == naive_count_avoiding(t, [t.elems[d]], []), (g, d)
            for s in range(g.order):
                got = count_avoiding(g, (d,), (s,))
                want = naive_count_avoiding(t, [t.elems[d]], [t.elems[s]])
                assert got == want, (g, d, s)


def test_count_avoiding_rejects_out_of_range_sums():
    # a sum is an element index, as a difference is: -1 is not element 7,
    # on the memoised block (Z/8) and on the chunked path (Z/16) alike
    for g in (Z8, GroupSpec((16,))):
        for s in (-1, g.order):
            with pytest.raises(ValueError, match="out of range"):
                count_avoiding(g, (1,), (s,))
            # the negation table builds -d on first lookup, so a bad
            # difference is refused every time, not only the first
            for _ in range(2):
                with pytest.raises(ValueError, match="out of range"):
                    count_avoiding(g, (s,), (1,))


def test_count_avoiding_matches_graph_route():
    # order 14 is the last one-block order (the memoised block); orders
    # 15-18 span one to sixteen scan blocks
    cases = [
        ((14,), (3, 5), (6,)),
        ((7, 2), (2, 7), (9,)),
        ((15,), (1,), (0,)),
        ((16,), (2, 5), ()),
        ((17,), (3,), (4,)),
        ((18,), (1, 6), (9,)),
        ((2, 8), (1,), (3,)),
        ((3, 6), (2, 5), (7,)),
    ]
    for factors, diffs, sums in cases:
        g = GroupSpec(factors)
        want = fib_index_exact(build_graph(g, diffs, sums))
        assert count_avoiding(g, diffs, sums) == want, (factors, diffs, sums)


def test_count_avoiding_degenerate_zero_difference():
    # forbidding 0 as a difference leaves only the empty set
    assert count_avoiding(Z8, (0,)) == 1
    assert count_avoiding(Z8, (0, 3), (5,)) == 1


def test_count_full_sumset_avoiding():
    assert count_full_sumset_avoiding(GroupSpec((2,)), 1) == 0
    with pytest.raises(ValueError):
        count_full_sumset_avoiding(Z8, 0)
    for factors, d in [((6,), 2), ((8,), 4), ((2, 4), 1)]:
        g = GroupSpec(factors)
        t = TupleGroup(factors)
        assert count_full_sumset_avoiding(g, d) == naive_count_full_sumset_avoiding(
            t, t.elems[d]
        )


def test_count_full_sumset_avoiding_frozen_values():
    for factors, nonzero in FROZEN_FULL_SUMSET.items():
        g = GroupSpec(factors)
        got = {d: count_full_sumset_avoiding(g, d) for d in half_set(g)}
        assert got == {d: nonzero.get(d, 0) for d in half_set(g)}, factors


def test_full_sumset_count_between_union_bounds():
    # inclusion-exclusion sandwich for one difference
    d = 4
    avoid = count_avoiding(Z8, (d,))
    lower = avoid - sum(count_avoiding(Z8, (d,), (s,)) for s in Z8.elements())
    dd = count_full_sumset_avoiding(Z8, d)
    assert lower <= dd <= avoid


def test_histogram_trivial_group():
    hist = missing_histogram(GroupSpec(()))
    assert hist.counts[0][0] == 1  # {0}: nothing missing
    assert hist.counts[1][1] == 1  # empty set: everything missing
    assert hist.total() == 2
    assert hist.mstd_count() == 0


def test_histogram_marginals():
    for factors in [(6,), (8,), (2, 4), (9,)]:
        g = GroupSpec(factors)
        hist = missing_histogram(g)
        assert hist.total() == 1 << g.order
        assert hist.mstd_count() == count_mstd(g).mstd_count


def test_histogram_matches_naive_oracle():
    # every cell on every presentation of order <= 8
    for g in groups_up_to(8, min_order=1):
        want = naive_missing_histogram(TupleGroup(g.factors))
        assert [list(row) for row in missing_histogram(g).counts] == want, g


def test_containment_scan_clean():
    # Z/16 and Z/2 x Z/8 take four chunks
    for g in [*groups_up_to(12, min_order=2), GroupSpec((16,)), GroupSpec((2, 8))]:
        assert containment_violations(g) == (0, 0)


def test_union_upper_bound_small():
    for g in groups_up_to(12, min_order=2):
        total = sum(count_avoiding(g, (d,)) for d in half_set(g))
        assert count_mstd(g).mstd_count <= total


def test_run_chunked_is_lazy():
    # 2^26 chunks: building them all would not return
    chunk = 1 << _CHUNK_BITS
    start = time.perf_counter()
    results = _run_chunked(lambda lo, hi: (lo, hi), 1 << 40)
    first = list(itertools.islice(results, 8))
    results.close()
    assert time.perf_counter() - start < 5
    assert first == [(i * chunk, (i + 1) * chunk) for i in range(8)]
    # the last chunk stops at the total
    assert list(_run_chunked(lambda lo, hi: (lo, hi), chunk + 3))[-1] == (chunk, chunk + 3)


def test_scans_start_no_thread_pool():
    # multi-block scans run chunk after chunk in the calling thread, so
    # nothing imports the executor machinery
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, mstd\n"
        "from mstd.enumerate_subsets import count_avoiding, missing_histogram\n"
        "from mstd.groups import GroupSpec\n"
        "assert missing_histogram(GroupSpec((15,))).mstd_count() == 60\n"
        "assert count_avoiding(GroupSpec((16,)), (1,)) == 2207\n"
        "print('concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"
