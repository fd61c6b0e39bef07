import pytest

from hooktab.shapes import (
    check_partition,
    conjugate,
    contains,
    content,
    is_partition,
    partitions_between,
    partitions_containing,
    partitions_of,
    partitions_up_to,
    skew_cells,
    skew_shapes,
    subpartitions,
)


def test_partition_validation():
    assert is_partition((3, 2, 2, 1))
    assert is_partition(())
    assert not is_partition((2, 3))
    assert not is_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_partition_counts():
    # p(0..6) = 1, 1, 2, 3, 5, 7, 11
    assert [len(list(partitions_of(n))) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert len(partitions_up_to(4)) == 1 + 1 + 2 + 3 + 5


def test_contains_and_skew_cells():
    assert contains((3, 3, 1), (2, 1))
    assert not contains((2, 1), (3,))
    assert not contains((2,), (1, 1))
    assert sorted(skew_cells((3, 3, 1), (2, 1))) == [(1, 3), (2, 2), (2, 3), (3, 1)]
    assert list(skew_cells((2, 1), (2, 1))) == []


def test_content():
    assert content((1, 1)) == 0
    assert content((3, 1)) == -2
    assert content((1, 4)) == 3


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_subpartitions():
    subs = subpartitions((2, 1))
    assert subs == sorted({(), (1,), (1, 1), (2,), (2, 1)})
    assert subpartitions(()) == [()]
    # oracle: filter every partition of size up to |mu| by containment
    for mu in partitions_up_to(7):
        below = sorted(nu for nu in partitions_up_to(sum(mu)) if contains(mu, nu))
        assert subpartitions(mu) == below
        for inner in below:
            between = [nu for nu in below if contains(nu, inner)]
            assert partitions_between(inner, mu) == between


def test_partitions_between():
    nus = partitions_between((1,), (2, 1))
    assert set(nus) == {(1,), (2,), (1, 1), (2, 1)}


def test_partitions_containing():
    mus = partitions_containing((2, 1), 1)
    assert set(mus) == {(2, 1), (3, 1), (2, 2), (2, 1, 1)}


def test_skew_shapes_count():
    shapes = skew_shapes(2)
    # mu in {(), (1), (2), (1,1)} with all inner shapes
    assert ((), ()) in shapes
    assert ((2,), (1,)) in shapes
    assert len(shapes) == 1 + 2 + 3 + 3
