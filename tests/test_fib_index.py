import dataclasses
import itertools
import random

import mpmath
import pytest

from mstd import fib_index
from mstd.fib_index import (
    GENERIC_COMPONENT_CAP,
    ComponentTooLargeError,
    count_independent_sets,
    cycle_neighbors,
    fib_index_exact,
    fibonacci,
    index_cycle,
    index_ladder,
    index_path,
    index_prism,
    ladder_neighbors,
    lucas,
    path_neighbors,
    pell_power,
    prism_neighbors,
    regular_bound_check,
)
from mstd.forbiddance import build_graph, decompose
from mstd.groups import GroupSpec, groups_up_to, half_set

from oracles import naive_independent_sets


def test_fibonacci_lucas_values():
    assert [fibonacci(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert [lucas(n) for n in range(9)] == [2, 1, 3, 4, 7, 11, 18, 29, 47]
    assert fibonacci(7) == 13
    assert lucas(2) == 3 and lucas(4) == 7 and lucas(3) == 4


def test_lucas_matches_recurrence():
    # fast doubling against L_(n+2) = L_(n+1) + L_n, and at large n against
    # L_n = F_(n-1) + F_(n+1) from the additive Fibonacci loop
    a, b = 2, 1
    for n in range(600):
        assert lucas(n) == a, n
        a, b = b, a + b
    for n in (4097, 5000, 65536):
        assert lucas(n) == fibonacci(n - 1) + fibonacci(n + 1), n
    with pytest.raises(ValueError):
        lucas(-1)


def test_index_path_examples():
    assert index_path(0) == 1
    assert index_path(1) == 2
    assert index_path(2) == 3
    assert index_path(5) == 13


def test_index_cycle_examples():
    assert index_cycle(1) == 1  # looped vertex: only the empty set
    assert index_cycle(2) == 3
    assert index_cycle(4) == 7
    assert index_cycle(8) == 47


def test_index_ladder_examples():
    assert index_ladder(1) == 3
    assert index_ladder(2) == 7
    assert index_ladder(3) == 17


def test_index_prism_examples():
    assert index_prism(3) == 13
    assert index_prism(4) == 35
    assert index_prism(5) == 81
    with pytest.raises(ValueError):
        index_prism(2)


def test_closed_forms_match_generic_counter():
    for n in range(0, 19):
        assert index_path(n) == count_independent_sets(path_neighbors(n))
    for n in range(3, 19):
        assert index_cycle(n) == count_independent_sets(cycle_neighbors(n))
    for n in range(1, 13):
        assert index_ladder(n) == count_independent_sets(ladder_neighbors(n))
    for n in range(3, 13):
        assert index_prism(n) == count_independent_sets(prism_neighbors(n))


def test_generic_counter_matches_subset_scan():
    for nb in [
        path_neighbors(9),
        cycle_neighbors(11),
        ladder_neighbors(5),
        prism_neighbors(6),
    ]:
        assert count_independent_sets(nb) == naive_independent_sets(nb)
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 12)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    adj[u].add(v)
                    adj[v].add(u)
        assert count_independent_sets(adj) == naive_independent_sets(adj)


def test_pell_closed_form_consistency():
    # 2*index_ladder(n) should match (1+sqrt2)^(n+1) + (1-sqrt2)^(n+1)
    with mpmath.workprec(400):
        r2 = mpmath.sqrt(2)
        for n in range(1, 51):
            want = (1 + r2) ** (n + 1) + (1 - r2) ** (n + 1)
            got = mpmath.mpf(2 * index_ladder(n))
            assert abs(got - want) / want < mpmath.mpf(10) ** -9
        for n in range(3, 51):
            want = (1 + r2) ** n + (1 - r2) ** n + (-1) ** n
            assert abs(mpmath.mpf(index_prism(n)) - want) < mpmath.mpf(10) ** -9 * want


def test_pell_power_pairs():
    with mpmath.workprec(200):
        r2 = mpmath.sqrt(2)
        for n in range(0, 30):
            p, q = pell_power(n)
            assert abs((p + q * r2) - (1 + r2) ** n) < mpmath.mpf(10) ** -30


def test_fib_index_exact_examples():
    g8 = GroupSpec((8,))
    assert fib_index_exact(build_graph(g8, (1,), (4,))) == 17
    g9 = GroupSpec((9,))
    assert fib_index_exact(build_graph(g9, (3,), (0,))) == 39
    assert fib_index_exact(build_graph(g8)) == 2**8  # edgeless
    assert fib_index_exact(build_graph(g8, (0,))) == 1  # all loops
    assert fib_index_exact(build_graph(g8, (4,))) == 81


def test_fib_index_generic_component():
    g9 = GroupSpec((9,))
    graph = build_graph(g9, (1, 2))
    assert fib_index_exact(graph) == naive_independent_sets(graph.neighbors)


def _families(g):
    """1-2 differences from the half set, each with no sum or one sum."""
    base = sorted(half_set(g))
    for diffs in [(d,) for d in base] + list(itertools.combinations(base, 2)):
        for sums in [()] + [(s,) for s in range(g.order)]:
            yield diffs, sums


def _alive(graph):
    return set(range(graph.n)) - graph.loops


def test_frontier_dp_matches_eliminator_on_generic_components():
    # each generic component alone: every other vertex is marked looped
    seen = 0
    for g in groups_up_to(12):
        for diffs, sums in _families(g):
            graph = build_graph(g, diffs, sums)
            for comp in decompose(graph).components:
                if comp.kind != "generic":
                    continue
                alone = dataclasses.replace(
                    graph, loops=frozenset(range(graph.n)) - set(comp.vertices)
                )
                want = count_independent_sets(graph.neighbors, set(comp.vertices))
                assert fib_index_exact(alone) == want, (g, diffs, sums, comp.vertices)
                seen += 1
    assert seen == 1532


@pytest.mark.parametrize("factors, diffs", [((38,), (1, 2)), ((13, 3), (1, 13)), ((40,), (1, 12))])
def test_frontier_dp_matches_eliminator_at_its_cap(factors, diffs):
    graph = build_graph(GroupSpec(factors), diffs)
    (comp,) = decompose(graph).components
    assert comp.kind == "generic" and 36 <= comp.param <= 40
    assert fib_index_exact(graph) == count_independent_sets(graph.neighbors, _alive(graph))


@pytest.mark.parametrize(
    "factors, diffs, sums, shape, closed_form",
    [
        ((60,), (1,), (), ("cycle", 60), index_cycle),
        ((200,), (1,), (), ("cycle", 200), index_cycle),
        ((121,), (1,), (0,), ("ladder", 60), index_ladder),
        ((201,), (1,), (0,), ("ladder", 100), index_ladder),
        ((30, 2), (1, 30), (), ("prism", 30), index_prism),
        ((60, 2), (1, 60), (), ("prism", 60), index_prism),
        ((100, 2), (1, 100), (), ("prism", 100), index_prism),
    ],
)
def test_frontier_dp_above_eliminator_cap_matches_closed_forms(
    factors, diffs, sums, shape, closed_form
):
    graph = build_graph(GroupSpec(factors), diffs, sums)
    assert decompose(graph).multiplicities() == {shape: 1}
    assert len(_alive(graph)) > GENERIC_COMPONENT_CAP
    assert fib_index_exact(graph) == closed_form(shape[1])


@pytest.mark.parametrize(
    "n, diffs, count",
    [(56, (1, 9), 8249808495), (100, (1, 7), 503517483150058972)],
)
def test_frontier_dp_invariant_under_unit_relabelling(n, diffs, count):
    # x -> 3x is an automorphism of Z/n carrying D to 3D; the BFS orders differ
    g = GroupSpec((n,))
    graph = build_graph(g, diffs)
    assert decompose(graph).multiplicities() == {("generic", n): 1}
    assert fib_index_exact(graph) == count
    assert fib_index_exact(build_graph(g, tuple(3 * d for d in diffs))) == count


@pytest.mark.parametrize("n, count", [(38, 2**19 + 2**19 - 1), (40, 2**20 + 2**20 - 1)])
def test_frontier_dp_counts_complete_bipartite(monkeypatch, n, count):
    # all odd differences give K_{n/2,n/2}; a state records which unplaced
    # vertices are blocked, so the DP needs 3 states and no eliminator
    def no_fallback(*args):
        raise AssertionError("the eliminator was called")

    monkeypatch.setattr(fib_index, "FRONTIER_STATE_CAP", 3)
    monkeypatch.setattr(fib_index, "count_independent_sets", no_fallback)
    graph = build_graph(GroupSpec((n,)), tuple(range(1, n // 2 + 1, 2)))
    assert fib_index_exact(graph) == count


def test_frontier_state_cap_falls_back_to_eliminator(monkeypatch):
    # components within the eliminator's cap are counted, never refused
    graph = build_graph(GroupSpec((9,)), (1, 2))
    want = count_independent_sets(graph.neighbors)
    monkeypatch.setattr(fib_index, "FRONTIER_STATE_CAP", 1)  # overflows at once
    assert fib_index_exact(graph) == want == naive_independent_sets(graph.neighbors)


def test_frontier_state_cap_refusal(monkeypatch):
    monkeypatch.setattr(fib_index, "FRONTIER_STATE_CAP", 8)
    graph = build_graph(GroupSpec((56,)), (1, 9))
    message = r"56 vertices needs more than 8 frontier states \(FRONTIER_STATE_CAP\)"
    with pytest.raises(ComponentTooLargeError, match=message):
        fib_index_exact(graph)


def test_component_cap_refusal():
    # a 42-cycle with one chord is not a recognized shape and exceeds the cap
    n = 42
    adj = [set(nb) for nb in cycle_neighbors(n)]
    adj[0].add(21)
    adj[21].add(0)
    with pytest.raises(ComponentTooLargeError):
        count_independent_sets(adj)


def test_regular_bound_examples():
    assert regular_bound_check(prism_neighbors(3))  # 13^6 <= 15^6
    assert regular_bound_check(cycle_neighbors(4))  # 7^4 <= 7^4, tight
    g9 = GroupSpec((9,))
    graph = build_graph(g9, (1, 2))
    assert regular_bound_check(graph.neighbors, graph.loops)


def test_regular_bound_rejections():
    with pytest.raises(ValueError):
        regular_bound_check(path_neighbors(3))  # not regular
    with pytest.raises(ValueError):
        regular_bound_check(prism_neighbors(3), loops=frozenset({0}))
    with pytest.raises(ValueError):
        regular_bound_check(path_neighbors(1))  # 0-regular
