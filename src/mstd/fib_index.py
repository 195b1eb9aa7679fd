"""Exact independent-set counts (the Merrifield-Simmons index).

Everything in this module is exact integer arithmetic.

The engine. `fib_index_exact` deletes looped vertices (they cannot join an
independent set), takes the remaining connected components from the graph
(`ForbiddanceGraph.component_orders`, found once per graph and shared with
`decompose`) and multiplies their counts. Each component is counted by one
frontier DP over its block sequence (`forbiddance.block_sequence`): its
vertices are placed in BFS order from the smallest label, neighbours in
ascending order, each contributing the mask of its later neighbours, and a
state is the set of unplaced vertices that already have a neighbour in the
independent set, kept in a dict from bit mask to exact count. It needs no
group arithmetic and no shape: sum edges, non-cyclic subgroups and generic
components above 40 vertices are handled alike. Its big-integer additions
make long chains cost quadratic time, though: a 2^18-cycle takes about 6 s
where `index_cycle` takes milliseconds.

The block sequence fixes a component's edges in BFS positions, so it fixes
the count. Within one call, components whose size repeats are keyed by it
and counted once per distinct sequence: the |G|/m equal m-cycles of one
difference cost one DP. Nothing is kept across calls, and a graph of one
component, or of distinct sizes, builds no key.

The budget. A component whose DP ever holds more than FRONTIER_STATE_CAP
states is refused with ComponentTooLargeError rather than attempted, unless
it has at most GENERIC_COMPONENT_CAP vertices: then the eliminator below
counts it, so nothing the eliminator can count is refused. At the cap,
2^18 states, the DP holds about 60 MB of RSS above the interpreter's, and a
refusal comes after about 1 s (2-core x86_64, Python 3.11; Z/300 and
Z/1000 with D = {1, 13}). Below the cap the time is up to the component's
size times the cap: Z/300 with D = {1, 11} takes 15 s. Over every family
of at most two forbidden values on every group of order 2-40 the peak was
1,457 states, and K_{20,20} (Z/40, all odd differences) needs 3.

The oracles. The structured families have two-term linear recurrences:

    paths    i(P_n) = F_{n+2}            (Fibonacci)
    cycles   i(C_n) = L_n                (Lucas; C_1 is a looped vertex, i = 1)
    ladders  i(P_n x P_2) = a_n,  a_1 = 3, a_2 = 7,  a_n = 2a_{n-1} + a_{n-2}
    prisms   i(C_n x P_2) = q_n + (-1)^n, q_1 = 2, q_2 = 6, q_n = 2q_{n-1} + q_{n-2}

(a_n and q_n are the Pell-type sequences behind (1 +- sqrt2)^n; the radical
closed forms are used only in consistency tests, never for values.)

`count_independent_sets` eliminates a maximum-degree vertex,

    i(G) = i(G - v) + i(G - N[v]),

memoized on the induced vertex mask, and refuses components above
GENERIC_COMPONENT_CAP vertices. It shares nothing with the frontier DP and
serves as its oracle, and as its fallback on small components.

For an N-vertex d-regular simple graph the index never exceeds
(2^(d+1) - 1)^(N/(2d)), with equality for disjoint unions of K_{d,d}; the
check below compares i(G)^(2d) against (2^(d+1) - 1)^N so no fractional
exponent is ever evaluated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Sequence

from .forbiddance import ForbiddanceGraph, bfs_positions, block_sequence, repeated_sizes

#: Elimination on components beyond this size is refused, not attempted.
GENERIC_COMPONENT_CAP = 40
#: fib_index_exact refuses a component once its frontier DP holds more
#: states than this (see the module docstring for what that costs).
FRONTIER_STATE_CAP = 1 << 18

Adjacency = Sequence[AbstractSet[int]]


class ComponentTooLargeError(ValueError):
    """Raised when a component exceeds an exact counter's cap."""


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = F_2 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=1024)
def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1, L_2 = 3.

    Fast doubling over the bits of n, from L_(2m) = L_m^2 - 2(-1)^m and
    L_(2m+1) = L_m L_(m+1) - (-1)^m, so L_(2^20) costs about 20 big
    squarings instead of 2^20 additions; memoised, since a bound sums one
    power of L_k per element order k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, sign = 2, 1, 1  # L_m, L_m+1, (-1)^m for m = 0
    for bit in bin(n)[2:]:
        if bit == "0":  # m -> 2m
            a, b = a * a - 2 * sign, a * b - sign
        else:  # m -> 2m + 1
            a, b = a * b - sign, b * b + 2 * sign
        sign = 1 if bit == "0" else -1
    return a


def index_path(n: int) -> int:
    """Independent sets of the n-vertex path (1 for the empty path)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return fibonacci(n + 2)


def index_cycle(n: int) -> int:
    """Independent sets of the n-cycle; the 1-cycle is a looped vertex."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    return lucas(n)


def _pell_pair(n: int) -> tuple[int, int]:
    """q_n = 2q_{n-1} + q_{n-2} from (q_1, q_2) = (2, 6); returns (q_n, q_{n+1})."""
    a, b = 2, 2  # q_0 = 2, q_1 = 2
    for _ in range(n):
        a, b = b, 2 * b + a
    return a, b


def index_ladder(n: int) -> int:
    """Independent sets of the n-rung ladder P_n x P_2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = 3, 7
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, 2 * b + a
    return b


def index_prism(n: int) -> int:
    """Independent sets of the n-gonal prism C_n x P_2 (n >= 3)."""
    if n < 3:
        raise ValueError("prisms need n >= 3")
    q, _ = _pell_pair(n)
    return q + (1 if n % 2 == 0 else -1)


def pell_power(n: int) -> tuple[int, int]:
    """(p, q) with (1 + sqrt2)^n = p + q*sqrt2, for exact comparisons."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = 1, 0
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


def count_independent_sets(
    neighbors: Adjacency, vertices: AbstractSet[int] | None = None
) -> int:
    """Exact independent-set count of a simple graph by vertex elimination.

    neighbors[v] lists the neighbors of v; vertices restricts to an induced
    subgraph. Connected components beyond GENERIC_COMPONENT_CAP vertices are
    refused.
    """
    if vertices is None:
        vertices = range(len(neighbors))
    verts = sorted(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    closed = [0] * len(verts)
    adj = [0] * len(verts)
    for v in verts:
        m = 0
        for u in neighbors[v]:
            if u in pos:
                m |= 1 << pos[u]
        adj[pos[v]] = m
        closed[pos[v]] = m | (1 << pos[v])

    # split into components first so the cap applies per component
    remaining = (1 << len(verts)) - 1
    total = 1
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grown = comp
            m = frontier
            while m:
                low = m & -m
                grown |= adj[low.bit_length() - 1]
                m ^= low
            frontier = grown & ~comp & remaining
            comp = grown & remaining
        if comp.bit_count() > GENERIC_COMPONENT_CAP:
            raise ComponentTooLargeError(
                f"component with {comp.bit_count()} vertices exceeds the "
                f"exact-counting cap of {GENERIC_COMPONENT_CAP}"
            )
        total *= _count_component(comp, tuple(adj), tuple(closed))
        remaining &= ~comp
    return total


def _count_component(mask: int, adj: tuple[int, ...], closed: tuple[int, ...]) -> int:
    memo: dict[int, int] = {}

    def go(m: int) -> int:
        if m == 0:
            return 1
        cached = memo.get(m)
        if cached is not None:
            return cached
        # pick a maximum-degree vertex within the induced subgraph
        best_v = -1
        best_deg = -1
        mm = m
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            deg = (adj[v] & m).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
            mm ^= low
        if best_deg == 0:
            out = 1 << m.bit_count()
        else:
            out = go(m & ~(1 << best_v)) + go(m & ~closed[best_v])
        memo[m] = out
        return out

    return go(mask)


def fib_index_exact(graph: ForbiddanceGraph) -> int:
    """Exact independent-set count of a forbiddance graph.

    Looped vertices are deleted, each remaining component (in ascending
    order of its smallest label) is counted by the frontier DP, and the
    counts multiply across components. A component of at most
    GENERIC_COMPONENT_CAP vertices that overflows the DP's state cap is
    handed to the eliminator, so no component it can count is refused.
    Components of a repeated size share one count per block sequence.
    """
    orders = graph.component_orders
    repeated = repeated_sizes(orders)
    positions = bfs_positions(graph)
    counts: dict[tuple[int, ...], int] = {}
    total = 1
    for order in orders:
        blocks = block_sequence(order, graph.neighbors, positions)
        keyed = len(order) in repeated
        count = counts.get(blocks) if keyed else None
        if count is None:
            try:
                count = _count_frontier(blocks)
            except ComponentTooLargeError:
                if len(order) > GENERIC_COMPONENT_CAP:
                    raise
                count = count_independent_sets(graph.neighbors, set(order))
            if keyed:
                counts[blocks] = count
        total *= count
    return total


def _count_frontier(blocks: Sequence[int]) -> int:
    """Independent sets of the component with this block sequence.

    A state is the set of unplaced vertices that already have a neighbour
    in the independent set. Bits count from the vertex about to be placed:
    bit j stands for the j-th vertex after it, so each step shifts the
    state right by one, and a placed vertex that joins blocks its block.
    """
    states = {0: 1}
    for block in blocks:
        nxt: dict[int, int] = {}
        for s, c in states.items():
            k = s >> 1  # v stays out
            nxt[k] = nxt.get(k, 0) + c
            if not s & 1:  # v joins: its later neighbours are blocked
                k = (s | block) >> 1
                nxt[k] = nxt.get(k, 0) + c
        states = nxt
        if len(states) > FRONTIER_STATE_CAP:
            raise ComponentTooLargeError(
                f"component of {len(blocks)} vertices needs more than "
                f"{FRONTIER_STATE_CAP} frontier states (FRONTIER_STATE_CAP)"
            )
    return states[0]


def _shape_neighbors(edges: list[tuple[int, int]], n: int) -> tuple[frozenset[int], ...]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(a) for a in adj)


def path_neighbors(n: int) -> tuple[frozenset[int], ...]:
    return _shape_neighbors([(i, i + 1) for i in range(n - 1)], n)


def cycle_neighbors(n: int) -> tuple[frozenset[int], ...]:
    if n < 3:
        raise ValueError("cycle graphs need n >= 3")
    return _shape_neighbors([(i, (i + 1) % n) for i in range(n)], n)


def ladder_neighbors(m: int) -> tuple[frozenset[int], ...]:
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(m + i, m + i + 1) for i in range(m - 1)]
    edges += [(i, m + i) for i in range(m)]
    return _shape_neighbors(edges, 2 * m)


def prism_neighbors(length: int) -> tuple[frozenset[int], ...]:
    if length < 3:
        raise ValueError("prism graphs need length >= 3")
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(length + i, length + (i + 1) % length) for i in range(length)]
    edges += [(i, length + i) for i in range(length)]
    return _shape_neighbors(edges, 2 * length)


def regular_bound_check(
    neighbors: Adjacency, loops: AbstractSet[int] = frozenset()
) -> bool:
    """True iff i(G)^(2d) <= (2^(d+1) - 1)^N for a d-regular simple graph.

    Rejects graphs with loops or non-uniform degree; the comparison is done
    entirely with integer cross powers.
    """
    if loops:
        raise ValueError("the regular-graph bound applies to simple graphs only")
    n = len(neighbors)
    if n == 0:
        raise ValueError("empty graph")
    degrees = {len(nb) for nb in neighbors}
    if len(degrees) != 1:
        raise ValueError(f"graph is not regular (degrees {sorted(degrees)})")
    d = degrees.pop()
    if d == 0:
        raise ValueError("degree must be >= 1")
    for v, nb in enumerate(neighbors):
        if v in nb:
            raise ValueError("self-adjacency is not allowed here")
    i_g = count_independent_sets(neighbors)
    return i_g ** (2 * d) <= (2 ** (d + 1) - 1) ** n
