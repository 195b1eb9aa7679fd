"""Graphs encoding forbidden sums and differences over a group.

Given a set D of forbidden differences (closed under negation) and a set S
of forbidden sums, the graph has the group elements as vertices, an edge
{x, y} whenever x - y lands in D or x + y lands in S, and a loop at x
whenever 2x lands in S (or 0 is forbidden as a difference). Subsets of the
group avoiding all forbidden values correspond exactly to independent sets
of this graph, so exact avoidance counts reduce to independent-set counts.

Looped vertices can never join an independent set; they are deleted before
any component is classified or counted. Components are matched against the
shapes that actually occur for small forbidden families (cycles, paths,
ladders P_m x P_2, prisms C_l x P_2); anything else is labeled generic and
left to the exact counter. Cycles and paths are told by degrees alone: a
connected simple graph whose degrees are all 2 is a cycle, and one with two
vertices of degree 1 and the rest of degree 2 has n - 1 edges, so it is a
tree of maximum degree 2, a path. No degree test settles ladders and prisms,
so they alone carry an explicit isomorphism witness, found by a rung walk
whose edges must be exactly the component's.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Iterable, Optional

from .groups import GroupSpec


@dataclass(frozen=True)
class ForbiddanceSpec:
    """Forbidden differences (stored closed under negation) and sums."""

    diffs: frozenset[int]
    sums: frozenset[int]

    @classmethod
    def of(
        cls, group: GroupSpec, diffs: Iterable[int] = (), sums: Iterable[int] = ()
    ) -> "ForbiddanceSpec":
        closed = set()
        # GroupSpec.neg, not the translation plan's table that the scans
        # read: the two sides of the bijection oracle share no negation code
        for d in diffs:
            group._check(d)
            closed.add(d)
            closed.add(group.neg(d))
        sums = frozenset(sums)
        for s in sums:
            group._check(s)
        return cls(frozenset(closed), sums)


@dataclass(frozen=True)
class ForbiddanceGraph:
    """Simple graph on the group elements, plus an explicit loop set."""

    group: GroupSpec
    spec: ForbiddanceSpec
    neighbors: tuple[frozenset[int], ...]
    loops: frozenset[int]

    @property
    def n(self) -> int:
        return len(self.neighbors)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors[u] if u < v]

    def edge_list_text(self) -> str:
        """One edge per line ("u v"), loops rendered as "v v"."""
        lines = [f"{u} {v}" for u, v in self.edges()]
        lines.extend(f"{v} {v}" for v in sorted(self.loops))
        return "\n".join(lines) + ("\n" if lines else "")


#: Tables `_affine_table` keeps. A sweep over the families of one group
#: reuses its 2|G| + 1 tables, so 64 hold every group of order <= 31.
AFFINE_TABLES = 64


@lru_cache(maxsize=AFFINE_TABLES)
def _affine_table(group: GroupSpec, c: int, t: int) -> tuple[int, ...]:
    """Index of c*x + t for every element x, in index order; memoised.

    The map acts digit by digit, so the table is built one cyclic factor at
    a time, with no group arithmetic per element. A table of a group of
    order n takes 8n bytes of tuple plus up to 32 bytes per entry above 256
    (CPython shares only the small ints), so the memo holds at most
    AFFINE_TABLES * 40n bytes: 270 KB if every table is of order 105, and
    2.7 GB at the supported maximum n = 2^20 if 64 families of such a group
    are built in one process.
    """
    table = [0]
    for s, a, digit in zip(group.strides, group.factors, group.digits(t)):
        table = [((c * k + digit) % a) * s + rest for k in range(a) for rest in table]
    return tuple(table)


def build_graph(
    group: GroupSpec,
    diffs: Iterable[int] = (),
    sums: Iterable[int] = (),
) -> ForbiddanceGraph:
    """Construct the forbiddance graph of the given forbidden family."""
    spec = ForbiddanceSpec.of(group, diffs, sums)
    n = group.order
    adj: list[set[int]] = [set() for _ in range(n)]
    # x + d for each d, then s - x for each s: inserting in this order per x
    # fixes each neighbour set's iteration order, which edge_list_text prints
    tables = [_affine_table(group, 1, d) for d in spec.diffs]
    tables += [_affine_table(group, -1, s) for s in spec.sums]
    for x in range(n):
        for table in tables:
            y = table[x]
            if y != x:
                adj[x].add(y)
                adj[y].add(x)
    if 0 in spec.diffs:
        loops = set(range(n))
    else:
        doubled = _affine_table(group, 2, 0)
        loops = {x for x in range(n) if doubled[x] in spec.sums}
    return ForbiddanceGraph(
        group=group,
        spec=spec,
        neighbors=tuple(frozenset(a) for a in adj),
        loops=frozenset(loops),
    )


@dataclass(frozen=True)
class Component:
    """One loop-free connected component with its structural label.

    kind is one of "vertex", "edge", "path", "cycle", "ladder", "prism",
    "generic". param carries the natural size parameter (path vertices,
    cycle length, rungs of a ladder/prism; vertex count for generic).
    Vertices and edges are labelled by size, cycles and paths by their
    degree profile (the component being connected), so they need no witness. For ladders
    and prisms witness lists the vertices as (a_0, b_0, a_1, b_1, ...), rung
    i being {a_i, b_i}; it is None for every other kind.
    """

    kind: str
    param: int
    vertices: tuple[int, ...]
    witness: Optional[tuple[int, ...]] = field(default=None, compare=False)


def canonical_shape(kind: str, param: int) -> tuple[str, int]:
    """Resolve shape aliases to the classifier's canonical labels.

    The smallest members of the structured families coincide as simple
    graphs: a 2-cycle, a 2-vertex path and a 1-rung ladder are all a single
    edge, and a 2-rung ladder is a 4-cycle.
    """
    if kind == "path":
        if param == 1:
            return ("vertex", 1)
        if param == 2:
            return ("edge", 2)
    if kind == "cycle" and param == 2:
        return ("edge", 2)
    if kind == "ladder":
        if param == 1:
            return ("edge", 2)
        if param == 2:
            return ("cycle", 4)
    return (kind, param)


@dataclass(frozen=True)
class Decomposition:
    """Classified components of a forbiddance graph after loop removal."""

    total_vertices: int
    looped: tuple[int, ...]
    components: tuple[Component, ...]

    def multiplicities(self) -> dict[tuple[str, int], int]:
        return dict(Counter((c.kind, c.param) for c in self.components))

    def count_shape(self, kind: str, param: int) -> int:
        """Number of components matching a shape, aliases included."""
        want = canonical_shape(kind, param)
        return sum(1 for c in self.components if (c.kind, c.param) == want)

    def prism_ladder_profile(self, cycle_len: int) -> tuple[int, int, bool]:
        """(prism count, ladder count, every component matched) for one odd
        forbidden difference of the given order plus one forbidden sum."""
        n_p = self.count_shape("prism", cycle_len)
        n_l = self.count_shape("ladder", (cycle_len - 1) // 2)
        return n_p, n_l, n_p + n_l == len(self.components)

    def to_record(self) -> dict:
        groups = Counter((c.kind, c.param, len(c.vertices)) for c in self.components)
        return {
            "total_vertices": self.total_vertices,
            "looped": list(self.looped),
            "components": [
                {"kind": kind, "param": param, "size": size, "count": count}
                for (kind, param, size), count in sorted(groups.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


def _components_after_loops(graph: ForbiddanceGraph) -> list[list[int]]:
    """Components of the loop-free vertices, each in BFS order from its
    smallest label with neighbours visited in ascending order."""
    seen = set(graph.loops)
    comps = []
    for start in range(graph.n):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # BFS: the list grows while it is walked
            fresh = sorted(graph.neighbors[v] - seen)
            seen.update(fresh)
            comp.extend(fresh)
        comps.append(comp)
    return comps


def _rung_walk(
    nbrs: dict[int, AbstractSet[int]], a0: int, b0: int, a1: int, rungs: int, closed: bool
) -> Optional[tuple[int, ...]]:
    """Witness (a_0, b_0, a_1, b_1, ...) of P_rungs x P_2, or of C_rungs x P_2
    when closed, built from the rung (a0, b0) and the rail step a0 -> a1.

    b1 is the common neighbour of b0 and a1 besides a0; after that each rail
    steps to the unique neighbour outside its previous vertex and the current
    rung partner. The witness is returned only if its vertices are distinct
    and its edges are exactly the component's edges.
    """
    b1 = (nbrs[b0] & nbrs[a1]) - {a0}
    if len(b1) != 1:
        return None
    a, b = [a0, a1], [b0, *b1]
    while len(a) < rungs:
        next_a = nbrs[a[-1]] - {a[-2], b[-1]}
        next_b = nbrs[b[-1]] - {b[-2], a[-1]}
        if len(next_a) != 1 or len(next_b) != 1:
            return None
        a.extend(next_a)
        b.extend(next_b)
    order = tuple(v for rung in zip(a, b) for v in rung)
    if len(set(order)) != len(order):
        return None
    steps = rungs if closed else rungs - 1
    built = list(zip(a, b))
    built += [(r[i], r[(i + 1) % rungs]) for r in (a, b) for i in range(steps)]
    # distinct vertices make these distinct edges (closed rails need 3 rungs,
    # as prisms do), so they are the component's edges when there are as
    # many and each is one
    if (closed and rungs < 3) or 2 * len(built) != sum(len(s) for s in nbrs.values()):
        return None
    return order if all(v in nbrs[u] for u, v in built) else None


def _rung_witness(
    nbrs: dict[int, AbstractSet[int]], rungs: int, closed: bool
) -> Optional[tuple[int, ...]]:
    """Start at a0, the smallest vertex of least degree (a ladder's smallest
    corner, any vertex of a prism), and try each (rung partner, rail
    neighbour) pair among its neighbours. From a ladder's corner, the walk
    that takes the rail neighbour as partner stops at once: its second rail
    vertex is a0's true partner, a corner with no neighbour left to step to."""
    a0 = min(nbrs, key=lambda v: (len(nbrs[v]), v))
    for b0 in sorted(nbrs[a0]):
        for a1 in sorted(nbrs[a0] - {b0}):
            witness = _rung_walk(nbrs, a0, b0, a1, rungs, closed)
            if witness is not None:
                return witness
    return None


def classify_component(
    vertices: list[int], neighbors: tuple[frozenset[int], ...]
) -> Component:
    """Label one connected loop-free component: cycles and paths by their
    degrees, ladders and prisms by a rung walk with an exact edge check."""
    vset = set(vertices)
    nbrs = {v: neighbors[v] & vset for v in vertices}
    n = len(vertices)
    vs = tuple(sorted(vertices))
    degs = sorted(len(s) for s in nbrs.values())

    if n == 1:
        return Component("vertex", 1, vs)
    if n == 2:
        return Component("edge", 2, vs)
    if degs == [2] * n:
        return Component("cycle", n, vs)
    if degs == [1, 1] + [2] * (n - 2):
        return Component("path", n, vs)
    if n % 2 == 0 and n >= 6 and degs in ([2] * 4 + [3] * (n - 4), [3] * n):
        closed = degs[0] == 3
        witness = _rung_witness(nbrs, n // 2, closed)
        if witness is not None:
            return Component("prism" if closed else "ladder", n // 2, vs, witness)
    return Component("generic", n, vs)


def decompose(graph: ForbiddanceGraph) -> Decomposition:
    """Classify every connected component left after deleting looped vertices."""
    comps = [
        classify_component(comp, graph.neighbors)
        for comp in _components_after_loops(graph)
    ]
    return Decomposition(
        total_vertices=graph.n,
        looped=tuple(sorted(graph.loops)),
        components=tuple(comps),
    )
