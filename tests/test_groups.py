import pytest

from mstd.groups import (
    GroupSpec,
    count_order_below,
    element_order,
    factorizations,
    groups_up_to,
    half_set,
    order_two_count,
    small_order_set,
)

from oracles import TupleGroup


def test_parse_roundtrip():
    for text in ("8", "12,2", "2,2,2", "1"):
        assert str(GroupSpec.from_string(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        GroupSpec.from_string("abc")
    with pytest.raises(ValueError):
        GroupSpec((1, 2))
    with pytest.raises(ValueError):
        GroupSpec((0,))


def test_presentation_preserved():
    assert GroupSpec((2, 12)).factors == (2, 12)
    assert str(GroupSpec((2, 12))) == "2,12"


def test_order_rank_strides():
    g = GroupSpec((12, 2))
    assert g.order == 24
    assert g.rank == 2
    assert g.strides == (1, 12)
    assert GroupSpec(()).order == 1


def test_index_digit_bijection():
    for g in (GroupSpec((6,)), GroupSpec((2, 3, 4)), GroupSpec(())):
        seen = set()
        for x in g.elements():
            d = g.digits(x)
            assert all(0 <= e < a for e, a in zip(d, g.factors))
            assert g.index(d) == x
            seen.add(d)
        assert len(seen) == g.order


def test_arithmetic_matches_tuple_oracle():
    for factors in [(5,), (4, 3), (2, 2, 2), (6, 2)]:
        g = GroupSpec(factors)
        t = TupleGroup(factors)
        for x in g.elements():
            for y in g.elements():
                tx, ty = g.digits(x), g.digits(y)
                assert g.digits(g.add(x, y)) == t.add(tx, ty)
            assert g.digits(g.neg(x)) == t.neg(g.digits(x))


def test_element_index_must_be_an_integer():
    # a float equal to an index would pass a range test and come back as a float
    from mstd.forbiddance import build_graph

    g = GroupSpec((8,))
    for call in (
        lambda: g.add(1.5, 2),
        lambda: g.add(1, 2.0),
        lambda: g.neg(1.0),
        lambda: g.digits(3.0),
        lambda: build_graph(g, (1.0,)),
        lambda: build_graph(g, (), (2.0,)),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="out of range"):
        g.add(8, 1)
    # integer types other than int still index
    assert g.add(True, 2) == 3


def test_element_order_examples():
    assert element_order(GroupSpec((12,)), 8) == 3
    assert element_order(GroupSpec((12,)), 0) == 1
    assert element_order(GroupSpec((8,)), 1) == 8


def test_element_order_matches_iteration():
    for factors in [(9,), (2, 6), (4, 4)]:
        g = GroupSpec(factors)
        t = TupleGroup(factors)
        for x in g.elements():
            want = t.order_of(g.digits(x)) if x else 1
            assert g.element_order(x) == want
            assert g.order % g.element_order(x) == 0


def test_order_two_count_examples():
    assert order_two_count(GroupSpec((12,))) == 1
    assert order_two_count(GroupSpec((9,))) == 0
    assert order_two_count(GroupSpec((6, 2))) == 3
    assert order_two_count(GroupSpec((4, 2))) == 3


def test_half_set_examples():
    assert half_set(GroupSpec((8,))) == frozenset({1, 2, 3, 4})
    assert half_set(GroupSpec((2,))) == frozenset({1})
    assert half_set(GroupSpec((5,))) == frozenset({1, 2})


def test_half_set_size_formula():
    for g in groups_up_to(64, min_order=2):
        k = order_two_count(g)
        assert len(half_set(g)) == (g.order - 1 + k) // 2
        assert len(half_set(g, "high")) == (g.order - 1 + k) // 2


def test_half_set_is_transversal():
    g = GroupSpec((3, 4))
    hs = half_set(g)
    assert 0 not in hs
    for d in range(1, g.order):
        assert (d in hs) + (g.neg(d) in hs) == (2 if d == g.neg(d) else 1)


def test_small_order_set_examples():
    g9 = GroupSpec((9,))
    assert small_order_set(g9, 3.0) == frozenset({0})
    assert small_order_set(g9, 4.0) == frozenset({0, 3, 6})
    # default threshold log_phi(3) ~ 2.28 keeps only the identity
    assert small_order_set(GroupSpec((3,))) == frozenset({0})
    with pytest.raises(ValueError):
        small_order_set(g9, 0.0)


def test_small_order_default_matches_float_threshold():
    import math

    phi = (1 + math.sqrt(5)) / 2
    for g in groups_up_to(36, min_order=2):
        cutoff = math.log(g.order) / math.log(phi)
        assert small_order_set(g) == small_order_set(g, cutoff)


def test_count_order_below_examples():
    assert count_order_below(GroupSpec((12,)), 3) == (2, True)
    assert count_order_below(GroupSpec((2, 2)), 3) == (4, True)
    assert count_order_below(GroupSpec((8,)), 1) == (0, True)


def test_count_order_below_always_checks():
    for g in groups_up_to(32, min_order=1):
        for t in range(1, g.order + 1):
            _, ok = count_order_below(g, t)
            assert ok


def test_factorizations():
    assert factorizations(1) == [()]
    assert factorizations(12) == [(12,), (6, 2), (4, 3), (3, 2, 2)]
    assert all(len(set(groups := factorizations(n))) == len(groups) for n in range(1, 30))
