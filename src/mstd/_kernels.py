"""The block primitive behind every exhaustive subset scan and the MSTD
count's DFS.

A scan hands a block of consecutive subset masks [lo, hi) to numpy as one
uint64 array and reduces it to plain integers (or a histogram), so block
results combine by addition and every parallel schedule produces identical
totals. numpy ufuncs release the GIL only while each one runs, so threads
help some scans and slow others. Measured on 2 cores (x86_64, numpy 2.4),
threads=2 against threads=1: `count_avoiding` on Z/24 with d = 1 went from
0.19 s to 0.08-0.09 s, and `missing_histogram` on Z/24 went from 2.7-3.5 s
to 2.9-3.6 s, slower in 5 of 6 interleaved pairs. No scan that `count_mstd`
runs uses threads.

Group translation comes from the group's translation plan in `subsets`
(`subsets.translation_plan`), the one the Python-int sumset and diffset
run: `Tables` converts each element's (keep, up, wrap, down) rotations to
uint64 and copies the negation table. `translate` applies one element's
rotations to a whole block (the DFS applies them to a batch of nodes, one
fixed element at a time); `sum_diff` takes the unions of the translates
A + a and A - a over a in A, one element at a time, across every mask of
the block at once.

numpy is imported inside the functions, not at module top, so importing the
package for bounds or graphs alone does not load it.
"""

from __future__ import annotations

from .groups import GroupSpec
from .subsets import translation_plan

#: There is no compiled backend; kept as a constant because
#: perfbench/run.py:facts() records it.
HAVE_NUMBA = False

#: Largest group order a scan can take: masks are uint64 and the scan
#: range 1 << n must fit in one too.
MASK_BITS = 63


class Tables:
    """Rotation tables of one group, applied to blocks of masks."""

    def __init__(self, group: GroupSpec):
        import numpy as np

        n = group.order
        self.n = n
        self.full = np.uint64((1 << n) - 1)
        moves, neg = translation_plan(group)
        self.neg = [neg[e] for e in range(n)]
        self._moves = [
            [tuple(np.uint64(x) for x in move) for move in moves[e]] for e in range(n)
        ]

    @staticmethod
    def masks(lo: int, hi: int):
        import numpy as np

        return np.arange(lo, hi, dtype=np.uint64)

    def translate(self, masks, e: int):
        """Masks of {x + e : x in A} for every mask A in the block."""
        for keep, up, wrap, down in self._moves[e]:
            high = masks & keep
            high <<= up
            low = masks & wrap
            low >>= down
            high |= low
            masks = high
        return masks

    def sum_diff(self, masks):
        """(A + A, A - A) for every mask A in the block."""
        import numpy as np

        summ = np.zeros_like(masks)
        diff = np.zeros_like(masks)
        member, moved, low = (np.empty_like(masks) for _ in range(3))
        for a in range(self.n):
            np.right_shift(masks, np.uint64(a), out=member)
            member &= np.uint64(1)
            np.negative(member, out=member)  # all ones where a is in A
            for out, e in ((summ, a), (diff, self.neg[a])):
                # translate(A or {}, e) in scratch arrays; fresh 128 KB temporaries had
                # glibc refault 80-780 pages per block, not 50 (2-core x86_64, numpy 2.4)
                np.bitwise_and(masks, member, out=moved)
                for keep, up, wrap, down in self._moves[e]:
                    np.bitwise_and(moved, wrap, out=low)
                    low >>= down
                    moved &= keep
                    moved <<= up
                    moved |= low
                out |= moved
        return summ, diff

    def negate(self, masks):
        """Masks of -A for every mask A in the block."""
        import numpy as np

        out = np.zeros_like(masks)
        for a, b in enumerate(self.neg):
            out |= ((masks >> np.uint64(a)) & np.uint64(1)) << np.uint64(b)
        return out
