import random

import mpmath
import pytest

from mstd.fib_index import (
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
from mstd.forbiddance import build_graph
from mstd.groups import GroupSpec

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
