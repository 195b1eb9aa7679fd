"""Independent MSTD recount used to freeze the count-table reference values.

It shares nothing with the package's scan engine: group arithmetic comes
from its own mixed-radix digit tables, and A+A and A-A are built pair by
pair (bit x and bit y both set => set bit x+y, x-y and y-x), vectorised
across a block of subset masks with numpy, instead of translating whole
masks by rotation tables. Popcounts use numpy's bitwise_count.

Run `python3 perfbench/freeze.py` to recount and freeze; nothing here is
ever timed.
"""

from __future__ import annotations

from math import prod

import numpy as np

#: Masks per vectorised block; 2^17 uint64 words are 1 MiB per array.
_BLOCK_BITS = 17


def group_tables(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Addition and subtraction tables of Z/a_1 x ... x Z/a_r.

    Element indices follow the package's documented mixed-radix convention
    (digit i has stride a_1*...*a_{i-1}), so a frozen count can be keyed by
    the same factor string.
    """
    n = prod(factors)
    strides = [prod(factors[:i]) for i in range(len(factors))]
    mod = np.asarray(factors, dtype=np.int64)
    stride = np.asarray(strides, dtype=np.int64)
    digits = (np.arange(n, dtype=np.int64)[:, None] // stride) % mod
    add = ((digits[:, None, :] + digits[None, :, :]) % mod) @ stride
    sub = ((digits[:, None, :] - digits[None, :, :]) % mod) @ stride
    return add, sub


def recount_mstd(factors: tuple[int, ...]) -> int:
    """Number of subsets A with |A+A| > |A-A|, by a vectorised pair scan."""
    n = prod(factors)
    if n > 40:
        raise ValueError(f"recount of 2^{n} subsets is out of reach")
    add, sub = group_tables(factors)
    one = np.uint64(1)
    block = min(1 << n, 1 << _BLOCK_BITS)
    total = 0
    for lo in range(0, 1 << n, block):
        masks = np.arange(lo, lo + block, dtype=np.uint64)
        bits = [(masks >> np.uint64(x)) & one for x in range(n)]
        sums = np.zeros(block, dtype=np.uint64)
        diffs = (masks != 0).astype(np.uint64)  # 0 = a - a for any a in A
        for x in range(n):
            sums |= bits[x] << np.uint64(add[x, x])
            for y in range(x + 1, n):
                both = bits[x] & bits[y]
                sums |= both << np.uint64(add[x, y])
                diffs |= (both << np.uint64(sub[x, y])) | (both << np.uint64(sub[y, x]))
        more = np.bitwise_count(sums) > np.bitwise_count(diffs)
        total += int(np.count_nonzero(more))
    return total
