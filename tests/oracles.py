"""Naive reference implementations used as oracles by the tests.

Everything here works on digit tuples with explicit modular arithmetic and
double loops, independent of the package's bit-mask machinery: subset scans
enumerate all 2^n masks, sumsets come from |A|^2 pair loops, independent
sets from testing all vertex subsets.

`reference_components` is the one exception: it checks the package's
per-graph component sharing (one BFS, one count and one rung walk per
repeated component) against the package's own per-component pieces, each
run afresh on every component.
"""

from collections import deque
from math import prod

from mstd import fib_index
from mstd.forbiddance import classify_component


class TupleGroup:
    """Direct product of cyclic groups with tuple elements."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.n = prod(self.factors) if self.factors else 1
        # same element <-> index convention as the package: first factor fastest
        self.elems = []
        for i in range(self.n):
            x = i
            digits = []
            for a in self.factors:
                x, rem = divmod(x, a)
                digits.append(rem)
            self.elems.append(tuple(digits))
        self.index = {e: i for i, e in enumerate(self.elems)}

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.factors))

    def neg(self, x):
        return tuple((-a) % m for a, m in zip(x, self.factors))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def order_of(self, x):
        zero = tuple(0 for _ in self.factors)
        k = 1
        cur = x
        while cur != zero:
            cur = self.add(cur, x)
            k += 1
        return k

    def mask_elements(self, mask):
        return [self.elems[i] for i in range(self.n) if (mask >> i) & 1]


def naive_sumset(g, elems):
    return {g.add(a, b) for a in elems for b in elems}


def naive_diffset(g, elems):
    return {g.sub(a, b) for a in elems for b in elems}


def naive_is_mstd(g, elems):
    return len(naive_sumset(g, elems)) > len(naive_diffset(g, elems))


def naive_count_mstd(g):
    return sum(
        1 for mask in range(1 << g.n) if naive_is_mstd(g, g.mask_elements(mask))
    )


def naive_count_avoiding(g, diffs, sums):
    banned_diffs = set(diffs) | {g.neg(d) for d in diffs}
    banned_sums = set(sums)
    count = 0
    for mask in range(1 << g.n):
        elems = g.mask_elements(mask)
        if naive_diffset(g, elems) & banned_diffs:
            continue
        if naive_sumset(g, elems) & banned_sums:
            continue
        count += 1
    return count


def naive_count_full_sumset_avoiding(g, d):
    full = set(g.elems)
    count = 0
    for mask in range(1 << g.n):
        elems = g.mask_elements(mask)
        if d in naive_diffset(g, elems):
            continue
        if naive_sumset(g, elems) == full:
            count += 1
    return count


def naive_missing_histogram(g):
    """counts[s][d]: subsets with s missing sums and d missing differences."""
    counts = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for mask in range(1 << g.n):
        elems = g.mask_elements(mask)
        s = g.n - len(naive_sumset(g, elems))
        counts[s][g.n - len(naive_diffset(g, elems))] += 1
    return counts


def naive_independent_sets(neighbors):
    """Count independent sets of a simple graph by scanning all subsets."""
    n = len(neighbors)
    adj = [0] * n
    for v in range(n):
        for u in neighbors[v]:
            adj[v] |= 1 << u
    count = 0
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            low = m & -m
            if adj[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if ok:
            count += 1
    return count


def newton_iroot(x, n):
    """Floor integer n-th root of x >= 0 by integer Newton from a power of two."""
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)
    while True:
        t = ((n - 1) * r + x // r ** (n - 1)) // n
        if t >= r:
            break
        r = t
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def reference_components(graph):
    """[(Component, count)] for each loop-free component of a forbiddance
    graph, in ascending order of its smallest vertex, with nothing shared
    between components.

    The components come from a fresh BFS (neighbours in set order, not
    sorted), each is labelled by `classify_component` without a memo, and
    counted by the eliminator up to GENERIC_COMPONENT_CAP vertices or by the
    closed form of its label above.
    """
    closed_forms = {
        "path": fib_index.index_path,
        "cycle": fib_index.index_cycle,
        "ladder": fib_index.index_ladder,
        "prism": fib_index.index_prism,
    }
    seen = set(graph.loops)
    out = []
    for start in range(graph.n):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], deque([start])
        while queue:
            for u in graph.neighbors[queue.popleft()]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        c = classify_component(comp, graph.neighbors)
        if len(comp) <= fib_index.GENERIC_COMPONENT_CAP:
            count = fib_index.count_independent_sets(graph.neighbors, set(comp))
        else:
            count = closed_forms[c.kind](c.param)
        out.append((c, count))
    return out
