"""Exhaustive, deterministic counting over all 2^|G| subsets of a group.

The subset space [0, 2^|G|) is split into contiguous chunks whose boundaries
depend only on the group order; each chunk is scanned independently as one
numpy block (numpy ufuncs release the GIL) and the per-chunk integers are
added in chunk order. Addition is exact and associative, so every thread
count produces bit-identical results.

Scans refuse orders past a hard cap instead of silently running for hours;
the cap is configurable per call. Orders past the 63-bit mask width are
refused whatever the cap.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from . import _kernels
from .groups import GroupSpec

#: Hard ceilings: 2^28 subset scans stay under an hour of desk time.
COUNT_CAP = 28
HISTOGRAM_CAP = 24

#: Chunks of at most 2^14 subsets, a pure function of the group order; each
#: numpy temporary of a block is then 128 KB.
_CHUNK_BITS = 14

#: One-core rate of the numpy scan, for the cap message's lower estimate:
#: count_mstd measured 6.0e6/s on Z/24, 4.0e6/s on Z/12 x Z/2 and 2.3e6/s on
#: Z/2 x Z/2 x Z/6 (2-core x86_64, numpy 2.4).
_SUBSETS_PER_S = 6e6


class EnumerationCapError(ValueError):
    """Raised when a scan would exceed its configured order cap."""


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one exhaustive MSTD count."""

    group: GroupSpec
    total_subsets: int
    mstd_count: int
    elapsed: float
    thread_count: int

    def to_record(self) -> dict:
        return {
            "group": str(self.group),
            "order": self.group.order,
            "total_subsets": str(self.total_subsets),
            "mstd_count": str(self.mstd_count),
            "elapsed_s": round(self.elapsed, 3),
            "threads": self.thread_count,
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


def _chunks(total: int) -> list[tuple[int, int]]:
    size = 1 << _CHUNK_BITS
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _run_chunked(
    fn: Callable,
    total: int,
    threads: int,
    progress_interval: float | None = None,
):
    """Apply fn(lo, hi) to every chunk and yield the results in chunk order."""
    ranges = _chunks(total)
    last_report = [time.monotonic()]
    if threads <= 1 or len(ranges) == 1:
        for i, (lo, hi) in enumerate(ranges):
            yield fn(lo, hi)
            _report_progress(progress_interval, last_report, i + 1, len(ranges), hi, total)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in ranges]
        for i, fut in enumerate(futures):
            yield fut.result()
            _report_progress(
                progress_interval, last_report, i + 1, len(ranges), ranges[i][1], total
            )


def _report_progress(interval, last_report, done_chunks, total_chunks, done_subsets, total):
    if not interval or done_chunks == total_chunks:
        return
    now = time.monotonic()
    if now - last_report[0] >= interval:
        last_report[0] = now
        pct = 100.0 * done_subsets / total
        print(
            f"scanned {done_subsets}/{total} subsets ({pct:.1f}%)",
            file=sys.stderr,
            flush=True,
        )


def _check_cap(group: GroupSpec, cap: int, what: str) -> None:
    n = group.order
    if n > _kernels.MASK_BITS:
        raise EnumerationCapError(
            f"{what} over 2^{n} subsets of {group} exceeds the "
            f"{_kernels.MASK_BITS}-bit mask width of the scan; no cap lifts it"
        )
    if n > cap:
        est = 2**n / _SUBSETS_PER_S
        raise EnumerationCapError(
            f"{what} over 2^{n} subsets of {group} exceeds the cap of 2^{cap} "
            f"(estimated {est:.0f}+ core-seconds); raise cap= explicitly to force"
        )


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        import os

        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return threads


def count_mstd(
    group: GroupSpec,
    threads: int | None = 1,
    cap: int = COUNT_CAP,
    progress_interval: float | None = None,
) -> EnumerationResult:
    """Exact number of MSTD subsets of the group, by full enumeration."""
    import numpy as np

    _check_cap(group, cap, "MSTD count")
    threads = _resolve_threads(threads)
    t = _tables(group)

    def block(lo, hi):
        summ, diff = t.sum_diff(t.masks(lo, hi))
        return int(np.count_nonzero(np.bitwise_count(summ) > np.bitwise_count(diff)))

    n = group.order
    start = time.perf_counter()
    total = sum(_run_chunked(block, 1 << n, threads, progress_interval))
    return EnumerationResult(
        group=group,
        total_subsets=1 << n,
        mstd_count=total,
        elapsed=time.perf_counter() - start,
        thread_count=threads,
    )


def _reduce_diffs(group: GroupSpec, diffs: Iterable[int]) -> list[int]:
    """One representative per {d, -d} pair (forbidding d also forbids -d)."""
    reduced = set()
    for d in diffs:
        reduced.add(min(d, group.neg(d)))
    return sorted(reduced)


def count_avoiding(
    group: GroupSpec,
    diffs: Iterable[int] = (),
    sums: Iterable[int] = (),
    threads: int | None = 1,
    cap: int = COUNT_CAP,
) -> int:
    """Exact number of subsets A with (A-A) disjoint from +-diffs and
    (A+A) disjoint from sums."""
    import numpy as np

    _check_cap(group, cap, "avoidance count")
    threads = _resolve_threads(threads)
    dred = _reduce_diffs(group, diffs)
    slist = sorted(set(sums))
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

    return sum(_run_chunked(block, 1 << group.order, threads))


def count_full_sumset_avoiding(
    group: GroupSpec,
    d: int,
    threads: int | None = 1,
    cap: int = COUNT_CAP,
) -> int:
    """Exact |{A : d not in A-A, A+A = G}| by exhaustive scan (d nonzero)."""
    import numpy as np

    if d == 0:
        raise ValueError(
            "d = 0 is degenerate: no nonempty subset omits 0 from A-A"
        )
    group._check(d)
    _check_cap(group, cap, "full-sumset avoidance count")
    threads = _resolve_threads(threads)
    t = _tables(group)
    d = min(d, group.neg(d))

    def block(lo, hi):
        masks = t.masks(lo, hi)
        avoid = (masks & t.translate(masks, d)) == 0
        return int(np.count_nonzero(avoid & (t.sumset(masks) == t.full)))

    return sum(_run_chunked(block, 1 << group.order, threads))


def missing_histogram(
    group: GroupSpec,
    threads: int | None = 1,
    cap: int = HISTOGRAM_CAP,
) -> MissingHistogram:
    """Joint histogram over (missing sums, missing differences)."""
    import numpy as np

    _check_cap(group, cap, "missing-sums histogram")
    threads = _resolve_threads(threads)
    n = group.order
    t = _tables(group)

    def block(lo, hi):
        summ, diff = t.sum_diff(t.masks(lo, hi))
        missing_s = n - np.bitwise_count(summ).astype(np.intp)
        missing_d = n - np.bitwise_count(diff).astype(np.intp)
        return np.bincount(missing_s * (n + 1) + missing_d, minlength=(n + 1) ** 2)

    acc = np.zeros((n + 1) ** 2, dtype=np.int64)
    for chunk in _run_chunked(block, 1 << n, threads):
        acc += chunk
    acc = acc.reshape(n + 1, n + 1)
    return MissingHistogram(group, tuple(tuple(int(c) for c in row) for row in acc))


def containment_violations(
    group: GroupSpec,
    threads: int | None = 1,
    cap: int = COUNT_CAP,
) -> tuple[int, int]:
    """Exhaustive check of the sandwich between {A+A=G, A-A!=G} and A-A != G.

    Returns (left violations, right violations); both are zero when every
    subset with full sumset and deficient difference set is MSTD and every
    MSTD subset has a deficient difference set.
    """
    import numpy as np

    _check_cap(group, cap, "containment scan")
    threads = _resolve_threads(threads)
    t = _tables(group)

    def block(lo, hi):
        summ, diff = t.sum_diff(t.masks(lo, hi))
        mstd = np.bitwise_count(summ) > np.bitwise_count(diff)
        full_diff = diff == t.full
        left = (summ == t.full) & ~full_diff & ~mstd
        return int(np.count_nonzero(left)), int(np.count_nonzero(mstd & full_diff))

    left = 0
    right = 0
    for vl, vr in _run_chunked(block, 1 << group.order, threads):
        left += vl
        right += vr
    return left, right
