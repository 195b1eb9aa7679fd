import itertools
import json
import random
from collections import Counter
from math import prod

import pytest

from mstd import forbiddance
from mstd.fib_index import (
    count_independent_sets,
    cycle_neighbors,
    fib_index_exact,
    index_cycle,
    index_ladder,
    index_path,
    index_prism,
    ladder_neighbors,
    path_neighbors,
    prism_neighbors,
)
from mstd.forbiddance import (
    ForbiddanceSpec,
    _affine_table,
    _rung_walk,
    _rung_witness,
    build_graph,
    canonical_shape,
    classify_component,
    decompose,
)
from mstd.groups import GroupSpec, groups_up_to, half_set
from oracles import TupleGroup, reference_components

Z8 = GroupSpec((8,))
Z9 = GroupSpec((9,))


def test_spec_closes_diffs_under_negation():
    spec = ForbiddanceSpec.of(Z8, (1,), (4,))
    assert spec.diffs == frozenset({1, 7})
    assert spec.sums == frozenset({4})


def test_worked_example_graph_structure():
    g = build_graph(Z8, (1,), (4,))
    cycle_edges = {(i, (i + 1) % 8) for i in range(8)}
    chords = {(0, 4), (1, 3), (5, 7)}
    want = {tuple(sorted(e)) for e in cycle_edges | chords}
    assert set(g.edges()) == want
    assert g.loops == frozenset({2, 6})


def test_single_difference_is_one_cycle():
    g = build_graph(Z8, (1,))
    assert g.loops == frozenset()
    dec = decompose(g)
    assert dec.count_shape("cycle", 8) == 1
    assert len(dec.components) == 1


def test_empty_spec_is_edgeless():
    g = build_graph(Z8)
    assert g.edges() == []
    assert g.loops == frozenset()
    dec = decompose(g)
    assert dec.count_shape("path", 1) == 8


def test_zero_difference_loops_everything():
    g = build_graph(Z8, (0,))
    assert g.loops == frozenset(range(8))
    assert decompose(g).components == ()


def test_cosets_give_three_triangles():
    dec = decompose(build_graph(Z9, (3,)))
    assert dec.count_shape("cycle", 3) == 3


def test_prism_plus_ladder_case():
    dec = decompose(build_graph(Z9, (3,), (0,)))
    assert dec.looped == (0,)
    n_p, n_l, all_matched = dec.prism_ladder_profile(3)
    assert (n_p, n_l, all_matched) == (1, 1, True)
    assert 2 * n_p + n_l == 9 // 3


def test_two_order_two_differences_make_four_cycles():
    g = GroupSpec((2, 4))
    d1 = g.index((1, 0))
    d2 = g.index((1, 2))
    assert g.element_order(d1) == 2 and g.element_order(d2) == 2
    dec = decompose(build_graph(g, (d1, d2)))
    assert dec.count_shape("cycle", 4) == g.order // 4
    assert len(dec.components) == g.order // 4


def test_two_generic_differences_are_four_regular():
    g = build_graph(Z9, (1, 2))
    assert g.loops == frozenset()
    assert all(len(nb) == 4 for nb in g.neighbors)
    dec = decompose(g)
    assert [c.kind for c in dec.components] == ["generic"]


def test_shape_aliases():
    assert canonical_shape("cycle", 2) == ("edge", 2)
    assert canonical_shape("ladder", 1) == ("edge", 2)
    assert canonical_shape("ladder", 2) == ("cycle", 4)
    assert canonical_shape("path", 2) == ("edge", 2)
    assert canonical_shape("prism", 3) == ("prism", 3)


def test_classify_standard_shapes():
    c = classify_component(list(range(5)), path_neighbors(5))
    assert (c.kind, c.param) == ("path", 5)
    c = classify_component(list(range(6)), cycle_neighbors(6))
    assert (c.kind, c.param) == ("cycle", 6)
    c = classify_component(list(range(8)), ladder_neighbors(4))
    assert (c.kind, c.param) == ("ladder", 4)
    c = classify_component(list(range(10)), prism_neighbors(5))
    assert (c.kind, c.param) == ("prism", 5)
    # 3-regular but not a prism: K_{3,3}
    k33 = tuple(
        frozenset({3, 4, 5}) if v < 3 else frozenset({0, 1, 2}) for v in range(6)
    )
    c = classify_component(list(range(6)), k33)
    assert c.kind == "generic"


def _relabel(neighbors, perm):
    """Adjacency with vertex v renamed perm[v]; unused labels get no edges."""
    out = [frozenset()] * (max(perm) + 1)
    for v, nb in enumerate(neighbors):
        out[perm[v]] = frozenset(perm[u] for u in nb)
    return tuple(out)


def test_rung_walk_witness_maps_reference_edges():
    rng = random.Random(0)
    for kind, build, rungs in [
        ("ladder", ladder_neighbors, 3),
        ("ladder", ladder_neighbors, 7),
        ("prism", prism_neighbors, 3),
        ("prism", prism_neighbors, 4),  # the cube: every neighbour can be a rung
        ("prism", prism_neighbors, 9),
    ]:
        n = 2 * rungs
        perm = list(range(10, 10 + n))
        rng.shuffle(perm)
        full = _relabel(build(rungs), perm)
        c = classify_component(perm, full)
        assert (c.kind, c.param) == (kind, rungs)
        w = c.witness
        assert sorted(w) == sorted(perm)
        # reference vertex (i, j) of P_m x P_2 or C_m x P_2 sits at w[2i + j]
        steps = rungs if kind == "prism" else rungs - 1
        ref_edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
        ref_edges += [
            (2 * i + j, 2 * ((i + 1) % rungs) + j) for i in range(steps) for j in (0, 1)
        ]
        assert all(w[y] in full[w[x]] for x, y in ref_edges)
        assert len(ref_edges) == sum(len(full[v]) for v in perm) // 2


def test_three_regular_non_prisms_are_generic():
    k33 = tuple(
        frozenset({3, 4, 5}) if v < 3 else frozenset({0, 1, 2}) for v in range(6)
    )
    # Wagner graph V8: an 8-cycle plus its four long diagonals
    wagner = tuple(
        frozenset({(v + 1) % 8, (v - 1) % 8, (v + 4) % 8}) for v in range(8)
    )
    for nbrs in (k33, wagner):
        c = classify_component(list(range(len(nbrs))), nbrs)
        assert (c.kind, c.witness) == ("generic", None)


CLOSED_FORMS = {
    "vertex": lambda n: 2,
    "edge": lambda n: 3,
    "path": index_path,
    "cycle": index_cycle,
    "ladder": index_ladder,
    "prism": index_prism,
}


def _labels(components):
    return [(c.kind, c.param, c.vertices) for c in components]


def _check_against_reference(graph):
    """decompose's labels and fib_index_exact's count equal the unshared
    per-component reference's; returns the reference."""
    ref = reference_components(graph)
    assert _labels(decompose(graph).components) == _labels(c for c, _ in ref)
    assert fib_index_exact(graph) == prod(count for _, count in ref)
    return ref


def test_labels_match_counts():
    """Every label a small family gets names the closed form that counts its
    component, by the eliminator on the component's own vertices; decompose
    and fib_index_exact agree with the reference that shares nothing."""
    seen = Counter()
    for g in groups_up_to(12, min_order=2):
        base = sorted(half_set(g))  # one difference per {d, -d} pair
        for k in range(3):
            for diffs in itertools.combinations(base, k):
                for sums in [()] + [(s,) for s in range(g.order)]:
                    graph = build_graph(g, diffs, sums)
                    for c, got in _check_against_reference(graph):
                        if c.kind == "generic":
                            continue
                        assert got == CLOSED_FORMS[c.kind](c.param), (g, diffs, sums, c)
                        seen[c.kind] += 1
    assert seen == {"vertex": 158, "edge": 1040, "cycle": 983, "ladder": 261, "prism": 523}


#: Graphs whose components repeat: (factors, diffs, sums, multiplicities).
REPEATED = [
    ((64,), (8,), (), {("cycle", 8): 8}),
    ((63,), (9,), (0,), {("prism", 7): 4, ("ladder", 3): 1}),
    ((5, 5, 3), (1,), (2,), {("prism", 5): 7, ("cycle", 4): 1}),
    ((12, 4), (3,), (1,), {("prism", 4): 5, ("cycle", 4): 2}),  # cubes
    ((105,), (15,), (0,), {("prism", 7): 7, ("ladder", 3): 1}),
]


@pytest.mark.parametrize("factors, diffs, sums, shapes", REPEATED)
def test_repeated_components_match_reference(factors, diffs, sums, shapes):
    graph = build_graph(GroupSpec(factors), diffs, sums)
    _check_against_reference(graph)
    assert decompose(graph).multiplicities() == shapes


@pytest.mark.parametrize("factors, diffs, sums, shapes", REPEATED)
def test_reused_witnesses_fit_their_own_components(monkeypatch, factors, diffs, sums, shapes):
    walks = []

    def counted(nbrs, rungs, closed):
        walks.append(rungs)
        return _rung_witness(nbrs, rungs, closed)

    monkeypatch.setattr(forbiddance, "_rung_witness", counted)
    graph = build_graph(GroupSpec(factors), diffs, sums)
    keys, found = set(), 0
    for order, c in zip(graph.component_orders, decompose(graph).components):
        if c.kind not in ("ladder", "prism"):
            assert c.witness is None
            continue
        w, m = c.witness, c.param
        assert sorted(w) == list(c.vertices)
        steps = m if c.kind == "prism" else m - 1
        edges = [(w[2 * i], w[2 * i + 1]) for i in range(m)]
        edges += [(w[2 * i + j], w[2 * ((i + 1) % m) + j]) for i in range(steps) for j in (0, 1)]
        assert all(v in graph.neighbors[u] for u, v in edges), (c, edges)
        inside = set(c.vertices)  # a ladder's rail ends also meet looped vertices
        nbrs = {v: graph.neighbors[v] & inside for v in order}
        assert 2 * len(edges) == sum(map(len, nbrs.values()))
        keys.add(forbiddance.block_sequence(order, nbrs, {v: i for i, v in enumerate(order)}))
        found += 1
    # one walk per distinct block sequence: equal components reuse its witness
    assert len(walks) == len(keys)
    assert found == 0 or len(keys) < found


def test_degree_profile_labels_relabelled_paths_and_cycles():
    rng = random.Random(1)
    for n in range(3, 13):
        for kind, build in (("path", path_neighbors), ("cycle", cycle_neighbors)):
            perm = list(range(20, 20 + n))
            rng.shuffle(perm)
            full = _relabel(build(n), perm)
            c = classify_component(perm, full)
            assert (c.kind, c.param, c.witness) == (kind, n, None)
            assert c.vertices == tuple(range(20, 20 + n))
            assert count_independent_sets(full, set(perm)) == CLOSED_FORMS[kind](n)


def test_ladder_degree_profile_with_a_triangle_is_generic():
    # a 6-cycle plus the chord {0, 2}: four vertices of degree 2 and two of
    # degree 3, as on the 3-rung ladder, but 0-1-2 is a triangle
    nbrs = list(cycle_neighbors(6))
    nbrs[0] |= {2}
    nbrs[2] |= {0}
    c = classify_component(list(range(6)), tuple(nbrs))
    assert (c.kind, c.param, c.witness) == ("generic", 6, None)


def test_witness_orders_vertices():
    dec = decompose(build_graph(Z9, (3,), (0,)))
    prism = next(c for c in dec.components if c.kind == "prism")
    assert prism.witness is not None
    assert sorted(prism.witness) == sorted(prism.vertices)


def test_edge_list_text():
    g = build_graph(Z8, (1,), (4,))
    lines = g.edge_list_text().strip().splitlines()
    assert "2 2" in lines and "6 6" in lines
    assert "0 1" in lines
    assert len(lines) == 11 + 2  # 8 cycle edges + 3 chords + 2 loops


def test_decomposition_json():
    rec = json.loads(decompose(build_graph(Z9, (3,), (0,))).to_json())
    assert rec["looped"] == [0]
    kinds = {(c["kind"], c["param"]): c["count"] for c in rec["components"]}
    assert kinds == {("edge", 2): 1, ("prism", 3): 1}


def test_components_partition_vertices():
    for diffs, sums in [((1,), (4,)), ((2,), ()), ((1, 4), (3,)), ((0,), ())]:
        dec = decompose(build_graph(Z8, diffs, sums))
        covered = sum(len(c.vertices) for c in dec.components) + len(dec.looped)
        assert covered == Z8.order


def test_graph_matches_tuple_arithmetic():
    """Edges and loops follow x - y in D, x + y in S and 2x in S, computed on
    digit tuples, across ranks 0-3 and mixed factor orders."""
    for factors in [(), (7,), (8,), (6, 2), (3, 3), (4, 2, 2), (5, 3)]:
        g = GroupSpec(factors)
        tg = TupleGroup(factors)
        n = tg.n
        families = [((), ()), ((1 % n,), ()), ((n - 1,), (n // 2,)), ((1 % n, n // 3), (0, n - 1))]
        for diffs, sums in families:
            graph = build_graph(g, diffs, sums)
            d_set = {tg.elems[d] for d in diffs} | {tg.neg(tg.elems[d]) for d in diffs}
            s_set = {tg.elems[s] for s in sums}
            for x, ex in enumerate(tg.elems):
                want = {
                    y
                    for y, ey in enumerate(tg.elems)
                    if y != x and (tg.sub(ex, ey) in d_set or tg.add(ex, ey) in s_set)
                }
                assert graph.neighbors[x] == want, (factors, diffs, sums, x)
            zero = tg.elems[0]
            loops = {x for x, ex in enumerate(tg.elems) if tg.add(ex, ex) in s_set or zero in d_set}
            assert graph.loops == loops, (factors, diffs, sums)


def test_rung_walk_refuses_an_extra_edge():
    """The walk never looks past the last rung or back at a_0, so a chord
    from a_0 to the far corner leaves every step intact: the witness must
    still fail because the component has one edge more than the ladder."""
    nbrs = {v: set(s) for v, s in enumerate(ladder_neighbors(4))}
    assert _rung_walk(nbrs, 0, 4, 1, 4, closed=False) == (0, 4, 1, 5, 2, 6, 3, 7)
    nbrs[0].add(3)
    nbrs[3].add(0)
    assert _rung_walk(nbrs, 0, 4, 1, 4, closed=False) is None


def _graph_view(graph):
    """What a memoised table could change: neighbour iteration order, loops
    and the printed edge list."""
    return [list(nb) for nb in graph.neighbors], sorted(graph.loops), graph.edge_list_text()


def test_affine_table_memo_hits_build_what_misses_built():
    families = [((1,), (4,)), ((1, 3), ()), ((2,), (0,)), ((), (5,)), ((0,), ())]
    groups = [GroupSpec((12,)), GroupSpec((6, 2)), Z9]
    _affine_table.cache_clear()
    first = {}
    for group in groups:
        for diffs, sums in families:
            first[group, diffs, sums] = _graph_view(build_graph(group, diffs, sums))
    misses = _affine_table.cache_info().misses
    # repeat every family with the other groups' calls interleaved between
    for diffs, sums in reversed(families):
        for group in groups:
            again = _graph_view(build_graph(group, diffs, sums))
            assert again == first[group, diffs, sums], (group, diffs, sums)
    info = _affine_table.cache_info()
    assert info.misses == misses and info.hits > 0
    assert _affine_table(Z9, 2, 3) == tuple((2 * x + 3) % 9 for x in range(9))
