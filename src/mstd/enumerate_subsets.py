"""Exact counts over the subsets of a group: a pruned walk for MSTD counts,
exhaustive scans for everything else.

`count_mstd` walks the subsets that contain 0 (the DFS, engine `dfs-numpy`)
on every group of order > 14. Each child A' = A u {x} updates the masks of
A, -A, A+A and A-A incrementally. A subtree is dropped once A-A = G: every
superset keeps A-A = G and |A+A| <= |G|, so none is MSTD. Translation keeps
MSTD status and a set of size k has k translates that contain 0, so the
count is the sum over k of (|G|/k) c_k, with c_k the MSTD sets of size k
that contain 0. Live nodes wait in pools by their largest element. A batch
is taken from the highest pool that fills one, else from the lowest
non-empty pool, and is swept up through x = top+1, ..., |G|-1 with one
numpy step per x. After step x the live children of x, then the nodes
waiting in pool x, join the batch while it has room; each of them has
largest element x, so every node is still expanded once by each x above its
largest element. The rest waits in pool x. A batch lives in four
preallocated uint64 buffers of _DFS_BATCH rows, so _DFS_BATCH bounds the
batch and every numpy temporary of a step. A group whose live tree fits in
one batch (every group of order 15-19, and Z/20) is walked in |G|-1 steps;
large groups start with full batches and keep the pool schedule. The walk
runs on one thread.

The histogram, containment and full-sumset scans reduce one source,
`_sum_diff_blocks`: the (A+A, A-A) masks of every subset in mask order.
Up to order 14 that is one block of 2^|G| masks, computed once per group
and kept (`_block_sum_diff`, read-only, under 1 MB over all 24
presentations); `count_mstd`'s scan branch (engine `scan-numpy`, faster
than the walk there) and `count_avoiding` read it too. Above order 14 the
source computes chunks of [0, 2^|G|) whose boundaries depend only on the
group order, while `count_avoiding` meets |D| + |S| translates per chunk,
which costs less than building both masks. Chunks run one after another
on one thread, and their integers are added exactly.
`missing_histogram(g).mstd_count()` is the oracle the DFS is tested against.

Counts refuse orders past a hard cap instead of silently running for hours;
the cap is configurable per call. Orders past the 63-bit mask width are
refused whatever the cap.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import _kernels
from .groups import GroupSpec
from .subsets import translation_plan

#: Hard ceilings on the group order. The MSTD count's DFS walks at most
#: |G| * upper_bound(G) children; COUNT_CAP also bounds the exact rows of
#: `mstd table` and the scans that share it.
COUNT_CAP = 28
HISTOGRAM_CAP = 24

#: Chunks of at most 2^14 subsets, a pure function of the group order; each
#: numpy temporary of a block is then 128 KB. Groups of order up to 14 fit in
#: one block, and count_mstd scans them instead of walking them.
_CHUNK_BITS = 14

#: One-core rate of the numpy scan, for the cap message's lower estimate:
#: missing_histogram measured 6.1e6/s on Z/24, 4.8e6/s on Z/12 x Z/2 and
#: 4.4e6/s on Z/2 x Z/2 x Z/6 (2-core x86_64, numpy 2.4).
_SUBSETS_PER_S = 6e6

#: Most nodes a DFS batch holds, whether taken from a pool or joined during
#: its sweep up through x; each of its four uint64 buffers is then 256 KB.
_DFS_BATCH = 1 << 15

#: The cap message's lower estimate of the DFS cost. Children evaluated per
#: upper_bound(G) measured 0.25 (Z/2^5), 0.31 (Z/2^3 x Z/4), 0.38
#: (Z/2 x Z/2 x Z/8) and 0.42-0.49 (Z/28-Z/34, Z/14 x Z/2); the proven
#: ceiling is |G|. The one-core rate measured 2.4e7-6.6e7 children/s on the
#: same groups (2-core x86_64, numpy 2.4).
_CHILDREN_PER_BOUND = 0.25
_CHILDREN_PER_S = 7e7


class EnumerationCapError(ValueError):
    """Raised when a count would exceed its configured order cap."""


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one exact MSTD count.

    `engine` is "dfs-numpy" or "scan-numpy"; `thread_count` is the number of
    threads that ran, 1 for both engines; `nodes` is the number of DFS
    children evaluated, None for the scan. `elapsed` excludes the numpy
    import and the table build.
    """

    group: GroupSpec
    total_subsets: int
    mstd_count: int
    elapsed: float
    thread_count: int
    engine: str
    nodes: int | None = None

    def to_record(self) -> dict:
        walked = self.nodes is not None
        return {
            "group": str(self.group),
            "order": self.group.order,
            "total_subsets": str(self.total_subsets),
            "mstd_count": str(self.mstd_count),
            "elapsed_s": round(self.elapsed, 3),
            "threads": self.thread_count,
            "engine": self.engine,
            "nodes": str(self.nodes) if walked else None,
            "nodes_per_s": round(self.nodes / self.elapsed, 1)
            if walked and self.elapsed > 0
            else None,
            # the walk's ceiling on `nodes`, the same one the cap refusal states
            "budget": str(_dfs_budget(self.group)) if walked else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


@dataclass(frozen=True)
class MissingHistogram:
    """counts[s][d] = number of subsets with |A+A| = |G|-s and |A-A| = |G|-d."""

    group: GroupSpec
    counts: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def mstd_count(self) -> int:
        # more sums than differences <=> fewer missing sums than differences
        return sum(
            self.counts[s][d]
            for s in range(len(self.counts))
            for d in range(s + 1, len(self.counts))
        )

    def to_record(self) -> dict:
        return {
            "group": str(self.group),
            "order": self.group.order,
            "counts": [[str(c) for c in row] for row in self.counts],
        }


@lru_cache(maxsize=None)
def _tables(group: GroupSpec) -> _kernels.Tables:
    """Rotation tables of the group as uint64 arrays, built once per group."""
    return _kernels.Tables(group)


@lru_cache(maxsize=None)
def _block_sum_diff(group: GroupSpec) -> tuple:
    """(A+A, A-A) masks of every subset of a one-block group (order <= 14),
    indexed by the subset mask; read-only, built once per group."""
    assert group.order <= _CHUNK_BITS, group
    t = _tables(group)
    summ, diff = t.sum_diff(t.masks(0, 1 << group.order))
    summ.flags.writeable = False
    diff.flags.writeable = False
    return summ, diff


def _run_chunked(fn: Callable, total: int) -> Iterator:
    """Apply fn(lo, hi) to every chunk of [0, total) and yield the results in
    chunk order. A chunk runs when the generator is advanced to it, so the
    cost before the first result does not grow with `total`."""
    size = 1 << _CHUNK_BITS
    for lo in range(0, total, size):
        yield fn(lo, min(lo + size, total))


def _check_width(group: GroupSpec, what: str) -> None:
    n = group.order
    if n > _kernels.MASK_BITS:
        raise EnumerationCapError(
            f"{what} over 2^{n} subsets of {group} exceeds the "
            f"{_kernels.MASK_BITS}-bit mask width of the scan; no cap lifts it"
        )


def _check_cap(group: GroupSpec, cap: int, what: str) -> None:
    _check_width(group, what)
    n = group.order
    if n > cap:
        est = 2**n / _SUBSETS_PER_S
        raise EnumerationCapError(
            f"{what} over 2^{n} subsets of {group} exceeds the cap of 2^{cap} "
            f"(estimated {est:.2g}+ core-seconds); raise cap= explicitly to force"
        )


def _dfs_budget(group: GroupSpec) -> int:
    """Ceiling on the DFS children: |G| * upper_bound(G), since each live node
    is a set with A-A != G and has fewer than |G| children."""
    from .bounds import upper_bound

    n = group.order
    return n * upper_bound(group) if n >= 2 else 0


def _check_count_cap(group: GroupSpec, cap: int) -> None:
    _check_width(group, "MSTD count")
    n = group.order
    if n > cap:
        budget = _dfs_budget(group)
        est = budget / n * _CHILDREN_PER_BOUND / _CHILDREN_PER_S
        raise EnumerationCapError(
            f"MSTD count of {group} exceeds the cap of order {cap}: "
            f"the DFS walks up to {budget:.2e} children, |G| * upper_bound(G) "
            f"(estimated {est:.2g}+ core-seconds); raise cap= explicitly to force"
        )


def _sum_diff_blocks(group: GroupSpec, cap: int, what: str) -> Iterator:
    """(A+A, A-A) uint64 blocks of every subset, in mask order: the memo up
    to order 14, chunks above. The cap check runs before this returns, so a
    refused scan builds no table. Callers only read blocks."""
    _check_cap(group, cap, what)
    if group.order <= _CHUNK_BITS:
        return iter((_block_sum_diff(group),))
    t = _tables(group)
    return _run_chunked(lambda lo, hi: t.sum_diff(t.masks(lo, hi)), 1 << group.order)


def count_mstd(
    group: GroupSpec,
    threads: int | None = 1,
    cap: int = COUNT_CAP,
    progress_interval: float | None = None,
) -> EnumerationResult:
    """Exact number of MSTD subsets of the group: one scan block up to order
    14, the DFS above it, both on one thread. `elapsed` excludes the one-off
    numpy import and the table build. `progress_interval` reports the DFS's
    progress on stderr."""
    # perfbench/freeze.py passes threads=; it is checked and otherwise unread
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    _check_count_cap(group, cap)
    n = group.order
    _tables(group)  # built before the clock starts
    start = time.perf_counter()
    if n > _CHUNK_BITS:
        count, nodes = _count_mstd_dfs(group, progress_interval)
        engine = "dfs-numpy"
    else:
        import numpy as np

        summ, diff = _block_sum_diff(group)
        count = int(np.count_nonzero(np.bitwise_count(summ) > np.bitwise_count(diff)))
        engine, nodes = "scan-numpy", None
    return EnumerationResult(
        group=group,
        total_subsets=1 << n,
        mstd_count=count,
        elapsed=time.perf_counter() - start,
        thread_count=1,
        engine=engine,
        nodes=nodes,
    )


def _fill(pool: list, bufs: tuple, m: int) -> int:
    """Move nodes from a pool of (A, -A, A+A, A-A) chunks into the batch
    buffers after their first m rows, while the batch holds fewer than
    _DFS_BATCH nodes; the rest stays in the pool. Returns the new length."""
    while pool and m < _DFS_BATCH:
        chunk = pool.pop()
        k = min(len(chunk[0]), _DFS_BATCH - m)
        for buf, col in zip(bufs, chunk):
            buf[m : m + k] = col[:k]
        if k < len(chunk[0]):
            pool.append(tuple(col[k:] for col in chunk))
        m += k
    return m


def _count_mstd_dfs(
    group: GroupSpec, progress_interval: float | None = None
) -> tuple[int, int]:
    """(MSTD count, children evaluated) by the pooled walk over the subsets
    that contain 0; see the module docstring."""
    import numpy as np

    n = group.order
    if n < 2:
        return 0, 0
    t = _tables(group)
    neg, full = t.neg, t.full
    one = np.ones(1, dtype=np.uint64)
    bits = [np.uint64(1 << e) for e in range(n)]
    # the batch's (A, -A, A+A, A-A) columns are the first m rows of these
    bufs = tuple(np.empty(_DFS_BATCH, dtype=np.uint64) for _ in range(4))
    # pools[l]: chunks of live nodes whose largest element is l; the root {0}
    pools: list[list] = [[] for _ in range(n - 1)]
    sizes = [0] * (n - 1)
    pools[0].append((one, one, one, one))
    sizes[0] = 1
    by_size = np.zeros(n + 1, dtype=np.int64)
    nodes = 0
    last_report = time.monotonic()
    budget = _dfs_budget(group) if progress_interval else 0
    while True:
        # the highest pool holding a full batch, else the lowest non-empty one
        top = next((l for l in range(n - 2, -1, -1) if sizes[l] >= _DFS_BATCH), None)
        if top is None:
            top = next((l for l in range(n - 1) if sizes[l]), None)
            if top is None:
                break
        m = _fill(pools[top], bufs, 0)
        sizes[top] -= m
        for x in range(top + 1, n):
            # every node of the batch has its largest element below x
            a, na, s, d = (buf[:m] for buf in bufs)
            nodes += m
            # A'-A' = (A-A) u (A-x) u (-A+x) u {0}, and 0 is in A-A already;
            # translate by a nonzero element returns a new array
            d2 = t.translate(a, neg[x])
            d2 |= t.translate(na, x)
            d2 |= d
            live = (d2 != full).nonzero()[0]
            if len(live):
                if len(live) < m:
                    a2, na2, s2, d2 = a[live], na[live], s[live], d2[live]
                else:
                    # views of the buffers, which later steps overwrite: the
                    # children pushed below must be new arrays, not these
                    a2, na2, s2 = a, na, s
                a2 = a2 | bits[x]
                # A'+A' = (A+A) u (A'+x)
                s2 = s2 | t.translate(a2, x)
                mstd = np.bitwise_count(s2) > np.bitwise_count(d2)
                if mstd.any():
                    by_size += np.bincount(np.bitwise_count(a2[mstd]), minlength=n + 1)
                if x < n - 1:
                    pools[x].append((a2, na2 | bits[neg[x]], s2, d2))
                    sizes[x] += len(live)
            if x < n - 1:
                # the children of x (on top of the pool), then the nodes that
                # already waited there, join the batch while it has room; all
                # have largest element x
                grown = _fill(pools[x], bufs, m)
                sizes[x] -= grown - m
                m = grown
            if progress_interval and time.monotonic() - last_report >= progress_interval:
                last_report = time.monotonic()
                print(
                    f"walked {nodes} children of at most {budget} "
                    f"({100.0 * nodes / budget:.2f}%)",
                    file=sys.stderr,
                    flush=True,
                )
    total = 0
    for k, c in enumerate(by_size.tolist()):
        # the c MSTD sets of size k that contain 0 stand for n*c/k sets
        q, r = divmod(n * c, k or 1)
        assert r == 0, f"{group}: {c} MSTD sets of size {k} containing 0"
        total += q
    return total, nodes


def count_avoiding(
    group: GroupSpec,
    diffs: Iterable[int] = (),
    sums: Iterable[int] = (),
    cap: int = COUNT_CAP,
) -> int:
    """Exact number of subsets A with (A-A) disjoint from +-diffs and
    (A+A) disjoint from sums. One-block groups reduce the memoised
    (A+A, A-A) masks; larger ones meet translates chunk by chunk."""
    import numpy as np

    _check_cap(group, cap, "avoidance count")
    # the plan's negation table checks each index on its first lookup
    neg = translation_plan(group).neg
    dred = sorted({min(d, neg[d]) for d in diffs})  # forbidding d forbids -d
    slist = sorted(set(sums))
    for s in slist:
        group._check(s)
    if group.order <= _CHUNK_BITS:
        summ, diff = _block_sum_diff(group)
        dbits = np.uint64(sum(1 << e for e in {*dred, *(neg[d] for d in dred)}))
        sbits = np.uint64(sum(1 << s for s in slist))
        return int(np.count_nonzero(((diff & dbits) | (summ & sbits)) == 0))
    t = _tables(group)

    def block(lo, hi):
        masks = t.masks(lo, hi)
        hit = np.zeros_like(masks)
        for d in dred:  # d in A-A <=> A meets A + d
            hit |= masks & t.translate(masks, d)
        if slist:  # s in A+A <=> A meets s - A
            neg = t.negate(masks)
            for s in slist:
                hit |= masks & t.translate(neg, s)
        return int(np.count_nonzero(hit == 0))

    return sum(_run_chunked(block, 1 << group.order))


def count_full_sumset_avoiding(
    group: GroupSpec,
    d: int,
    cap: int = COUNT_CAP,
) -> int:
    """Exact |{A : d not in A-A, A+A = G}| by exhaustive scan (d nonzero)."""
    import numpy as np

    if d == 0:
        raise ValueError(
            "d = 0 is degenerate: no nonempty subset omits 0 from A-A"
        )
    group._check(d)
    blocks = _sum_diff_blocks(group, cap, "full-sumset avoidance count")
    full, dbit = _tables(group).full, np.uint64(1 << d)
    return sum(
        int(np.count_nonzero(((diff & dbit) == 0) & (summ == full)))
        for summ, diff in blocks
    )


def missing_histogram(
    group: GroupSpec,
    cap: int = HISTOGRAM_CAP,
) -> MissingHistogram:
    """Joint histogram over (missing sums, missing differences)."""
    import numpy as np

    n = group.order
    acc = np.zeros((n + 1) ** 2, dtype=np.int64)
    for summ, diff in _sum_diff_blocks(group, cap, "missing-sums histogram"):
        missing_s = n - np.bitwise_count(summ).astype(np.intp)
        missing_d = n - np.bitwise_count(diff).astype(np.intp)
        acc += np.bincount(missing_s * (n + 1) + missing_d, minlength=(n + 1) ** 2)
    acc = acc.reshape(n + 1, n + 1)
    return MissingHistogram(group, tuple(tuple(int(c) for c in row) for row in acc))


def containment_violations(
    group: GroupSpec,
    cap: int = COUNT_CAP,
) -> tuple[int, int]:
    """Exhaustive check of the sandwich between {A+A=G, A-A!=G} and A-A != G.

    Returns (left violations, right violations); both are zero when every
    subset with full sumset and deficient difference set is MSTD and every
    MSTD subset has a deficient difference set.
    """
    import numpy as np

    blocks = _sum_diff_blocks(group, cap, "containment scan")
    full = _tables(group).full
    left = right = 0
    for summ, diff in blocks:
        mstd = np.bitwise_count(summ) > np.bitwise_count(diff)
        full_diff = diff == full
        left += int(np.count_nonzero((summ == full) & ~full_diff & ~mstd))
        right += int(np.count_nonzero(mstd & full_diff))
    return left, right
