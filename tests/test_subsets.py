import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstd.groups import GroupSpec, groups_up_to
from mstd.subsets import (
    SubsetMask,
    _PerElement,
    default_lift_base,
    diffset,
    integer_diffset,
    integer_mstd_check,
    integer_sumset,
    is_mstd,
    lift_cyclic,
    lift_general,
    sumset,
    translate_mask,
)
from mstd import _kernels

from oracles import TupleGroup, naive_diffset, naive_sumset

Z5 = GroupSpec((5,))
Z8 = GroupSpec((8,))


def mask_of(group, elems):
    return SubsetMask.from_elements(group, elems)


def test_mask_basics():
    a = mask_of(Z8, [0, 2, 3])
    assert len(a) == 3
    assert 2 in a and 1 not in a
    assert a.elements() == (0, 2, 3)
    assert str(a) == "{0,2,3}"
    assert SubsetMask.from_string(Z8, "{0,2,3}") == a
    assert SubsetMask.from_string(Z8, "{}") == SubsetMask.empty(Z8)
    with pytest.raises(ValueError):
        SubsetMask.from_string(Z8, "0,2")
    with pytest.raises(ValueError):
        mask_of(Z8, [8])


def test_mask_bits_must_be_an_integer():
    # 1.5 passes the range test and used to fail only inside sumset's `&`
    for bits in (1.5, 3.0, "3"):
        with pytest.raises(TypeError):
            SubsetMask(Z8, bits)
    # integer types other than int are stored as int
    a = SubsetMask(Z8, True)
    assert type(a.bits) is int and a.elements() == (0,)


def test_sumset_examples():
    assert sumset(mask_of(Z5, [0, 1])).elements() == (0, 1, 2)
    assert sumset(SubsetMask.empty(Z5)).elements() == ()
    assert sumset(mask_of(Z8, [0, 4])).elements() == (0, 4)


def test_diffset_examples():
    assert diffset(mask_of(Z5, [0, 1])).elements() == (0, 1, 4)
    assert diffset(SubsetMask.empty(Z5)).elements() == ()
    assert diffset(mask_of(Z8, [0, 4])).elements() == (0, 4)


def test_is_mstd_examples():
    assert not is_mstd(SubsetMask.empty(Z5))
    assert not is_mstd(mask_of(Z5, [2]))
    assert not is_mstd(mask_of(Z5, [0, 1]))
    # smallest known witness in a cyclic group
    assert is_mstd(mask_of(GroupSpec((12,)), [0, 1, 3, 4, 5, 8]))


def _mask_to_elems(t, bits):
    return [t.elems[i] for i in range(t.n) if (bits >> i) & 1]


def test_masks_match_naive_oracle_exhaustive():
    for g in groups_up_to(10, min_order=1):
        t = TupleGroup(g.factors)
        for bits in range(1 << g.order):
            a = SubsetMask(g, bits)
            elems = _mask_to_elems(t, bits)
            assert {t.index[e] for e in naive_sumset(t, elems)} == set(
                sumset(a).elements()
            )
            assert {t.index[e] for e in naive_diffset(t, elems)} == set(
                diffset(a).elements()
            )


GROUP_POOL = [
    GroupSpec((13,)),
    GroupSpec((24,)),
    GroupSpec((64,)),
    GroupSpec((8, 8)),
    GroupSpec((6, 6)),
    GroupSpec((2, 2, 2, 2, 2)),
    GroupSpec((5, 5, 2)),
]


@st.composite
def group_and_mask(draw):
    group = draw(st.sampled_from(GROUP_POOL))
    bits = draw(st.integers(min_value=0, max_value=(1 << group.order) - 1))
    return group, bits


@settings(max_examples=120, deadline=None)
@given(group_and_mask())
def test_masks_match_naive_oracle_random(case):
    group, bits = case
    t = TupleGroup(group.factors)
    a = SubsetMask(group, bits)
    elems = _mask_to_elems(t, bits)
    assert {t.index[e] for e in naive_sumset(t, elems)} == set(sumset(a).elements())
    assert {t.index[e] for e in naive_diffset(t, elems)} == set(diffset(a).elements())


@settings(max_examples=120, deadline=None)
@given(group_and_mask())
def test_diffset_negation_closed_and_sizes(case):
    group, bits = case
    a = SubsetMask(group, bits)
    d = diffset(a)
    assert set(d.elements()) == {group.neg(x) for x in d.elements()}
    assert len(sumset(a)) <= min(group.order, len(a) * (len(a) + 1) // 2)
    if bits:
        assert 0 in d
        assert len(d) >= len(a)
        assert len(sumset(a)) >= len(a)
    else:
        assert len(d) == 0


@settings(max_examples=80, deadline=None)
@given(group_and_mask(), st.data())
def test_translate_composes(case, data):
    group, bits = case
    x = data.draw(st.integers(0, group.order - 1))
    y = data.draw(st.integers(0, group.order - 1))
    once = translate_mask(group, translate_mask(group, bits, x), y)
    assert once == translate_mask(group, bits, group.add(x, y))


def test_translate_refuses_elements_outside_the_group():
    z2z2 = GroupSpec((2, 2))
    for g in (4, 5, -1):
        with pytest.raises(ValueError):
            translate_mask(z2z2, 0b0001, g)
    assert translate_mask(z2z2, 0b0001, 3) == 0b1000


def test_plan_tables_refuse_a_float_index():
    # 3.0 == 3, so a float entry stored under it would be what neg[3] returns
    neg = _PerElement(GroupSpec((8,)).neg)
    with pytest.raises(TypeError):
        neg[3.0]
    assert neg[3] == 5 and type(neg[3]) is int


def test_block_and_int_executors_of_the_plan_agree():
    for group in groups_up_to(8):
        tables = _kernels.Tables(group)
        masks = tables.masks(0, 1 << group.order)
        for e in group.elements():
            block = tables.translate(masks, e).tolist()
            assert block == [translate_mask(group, bits, e) for bits in range(1 << group.order)]


def test_integer_set_ops():
    assert integer_sumset([0, 1]) == (0, 1, 2)
    assert integer_diffset([0, 1]) == (-1, 0, 1)
    assert integer_mstd_check([0]) == (False, 1, 1)
    assert integer_mstd_check([0, 1]) == (False, 3, 3)
    # duplicates are ignored
    assert integer_mstd_check([0, 1, 1]) == (False, 3, 3)


def test_conway_set():
    assert integer_mstd_check([0, 2, 3, 4, 7, 11, 12, 14]) == (True, 26, 25)


def test_lift_cyclic_examples():
    z3 = GroupSpec((3,))
    assert lift_cyclic(mask_of(z3, [1, 2]), 2) == (1, 2, 4, 5)
    assert lift_cyclic(SubsetMask.empty(z3), 7) == ()
    assert lift_cyclic(mask_of(Z8, [0]), 3) == (0, 8, 16)
    with pytest.raises(ValueError):
        lift_cyclic(mask_of(Z8, [0]), 0)
    with pytest.raises(ValueError):
        lift_cyclic(SubsetMask.empty(GroupSpec((2, 2))), 1)


def test_lift_general_examples():
    z3 = GroupSpec((3,))
    assert lift_general(mask_of(z3, [1]), 2, m=100) == (1, 4)
    v4 = GroupSpec((2, 2))
    # element (1,1) has index 3; encoded as 1 + 1*10
    assert lift_general(mask_of(v4, [3]), 1, m=10) == (11,)
    assert lift_general(mask_of(z3, [1]), 2) == lift_cyclic(mask_of(z3, [1]), 2)


def test_lift_general_rejects_small_base():
    v4 = GroupSpec((2, 2))
    a = mask_of(v4, [3])
    floor = 2 * (1 * 2 - 1)
    with pytest.raises(ValueError):
        lift_general(a, 1, m=floor)
    assert lift_general(a, 1, m=floor + 1) == (1 + (floor + 1),)
    assert default_lift_base(v4, 1) > floor


def test_lift_preserves_mstd_for_some_k():
    base = mask_of(GroupSpec((12,)), [0, 1, 3, 4, 5, 8])
    assert is_mstd(base)
    hits = [k for k in range(1, 9) if integer_mstd_check(lift_cyclic(base, k))[0]]
    assert hits and hits[0] == 2  # computed by the integer brute force above

    rank2 = mask_of(GroupSpec((2, 8)), [0, 4, 6, 10, 1, 3, 5])
    assert is_mstd(rank2)
    assert any(integer_mstd_check(lift_general(rank2, k))[0] for k in range(1, 17))
