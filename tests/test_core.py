"""Core grid/box/cover/selector/tree behavior."""

import numpy as np
import pytest

from commlab import (
    Box,
    Cover,
    DomainShape,
    InvalidInputError,
    InvalidSelectorError,
    InvalidTreeError,
    Protocol,
    ProtocolTree,
    TranscriptSelector,
    TreeLeaf,
    TreeSplit,
    UncoveredCellError,
    box,
    compile_tree,
    select_transcript,
    selector_labels,
    thickness,
    validate_cover,
    windmill_cover,
)
from commlab.core import box_thickness_table, hash64, thickness_table


def full_box(shape):
    return Box(tuple((1 << s) - 1 for s in shape.sizes))


def test_shape_validation():
    with pytest.raises(InvalidInputError):
        DomainShape((4,))
    with pytest.raises(InvalidInputError):
        DomainShape((0, 2))
    with pytest.raises(InvalidInputError):
        DomainShape((1 << 13, 2))
    shape = DomainShape((3, 5))
    assert shape.num_cells == 15
    assert shape.linear_index((2, 4)) == 14
    assert shape.cell_of_linear(14) == (2, 4)


def test_box_validation():
    shape = DomainShape((2, 2))
    with pytest.raises(InvalidInputError):
        box(shape, [], [0])  # empty factor
    with pytest.raises(InvalidInputError):
        box(shape, [0, 2], [0])  # out of range
    with pytest.raises(InvalidInputError):
        Cover(shape, ())


def test_windmill_partition_by_enumeration():
    cover = windmill_cover()
    report = validate_cover(cover)
    assert report.covers_domain and report.is_partition
    # independent check: count covering boxes per cell by brute force
    for x in range(4):
        for y in range(4):
            hits = sum(1 for b in cover.boxes if b.contains((x, y)))
            assert hits == 1
    assert thickness(cover) == 1


def test_uncovered_cell_reported():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]), box(shape, [1], [0])))
    report = validate_cover(cover)
    assert not report.covers_domain
    assert report.uncovered == ((1, 1),)
    assert not report.is_partition


def test_single_full_box_is_partition():
    shape = DomainShape((2, 3))
    report = validate_cover(Cover(shape, (full_box(shape),)))
    assert report.covers_domain and report.is_partition


def test_thickness_scopes():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (full_box(shape), full_box(shape)))
    assert thickness(cover, cell=(0, 0)) == 2
    assert thickness(cover, box=0) == 2
    assert thickness(cover) == 2
    with pytest.raises(InvalidInputError):
        thickness(cover, box=5)
    with pytest.raises(InvalidInputError):
        thickness(cover, cell=(0, 0), box=0)


def test_thickness_ordering_invariants():
    rng = np.random.default_rng(5)
    from commlab import random_bounded_cover

    for seed in range(20):
        shape = DomainShape((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        cover = random_bounded_cover(shape, rho_max=3, extra=2, rng=rng)
        counts = thickness_table(cover)
        global_rho = thickness(cover)
        assert counts.min() >= 1
        assert global_rho == counts.max() <= cover.num_boxes
        per_box = box_thickness_table(cover)
        for i, b in enumerate(cover.boxes):
            cells = np.flatnonzero(b.indicator(shape))
            assert per_box[i] == max(int(counts[c]) for c in cells)
        assert global_rho == per_box.max()


def test_select_transcript_min_index_and_explicit():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (full_box(shape), full_box(shape)))
    p = Protocol(cover, TranscriptSelector.min_index())
    assert select_transcript(p, (0, 1)) == 0
    table = [1, 0, 0, 0]
    p2 = Protocol(cover, TranscriptSelector.explicit(table))
    assert select_transcript(p2, (0, 0)) == 1
    assert select_transcript(p2, (0, 1)) == 0


def test_explicit_selector_rejects_noncontaining_box():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]), box(shape, [1], [0, 1])))
    with pytest.raises(InvalidSelectorError) as err:
        Protocol(cover, TranscriptSelector.explicit([1, 0, 1, 1]))
    assert "(0, 0)" in str(err.value)


def test_explicit_selector_error_names_first_offending_cell():
    # reference: the first box, in index order, that is mapped a cell it does
    # not contain, and the first such cell in row-major order
    from commlab import random_bounded_cover

    rng = np.random.default_rng(2)
    shape = DomainShape((6, 5))
    cover = random_bounded_cover(shape, rho_max=3, extra=4, rng=rng)
    good = selector_labels(Protocol(cover, TranscriptSelector.min_index()))
    raised = after_a_contained_cell = 0
    for _ in range(20):
        table = np.array(good)
        cells = rng.choice(shape.num_cells, size=int(rng.integers(1, 4)), replace=False)
        table[cells] = rng.integers(0, cover.num_boxes, size=cells.size)
        expected = None
        for i, b in enumerate(cover.boxes):
            bad = np.flatnonzero((table == i) & ~b.indicator(shape))
            if bad.size:
                cell = shape.cell_of_linear(int(bad[0]))
                expected = f"explicit selector maps cell {cell} to box {i}, which does not contain it"
                after_a_contained_cell += int(np.flatnonzero(table == i)[0] != bad[0])
                break
        if expected is None:
            Protocol(cover, TranscriptSelector.explicit(table.tolist()))
            continue
        with pytest.raises(InvalidSelectorError) as err:
            Protocol(cover, TranscriptSelector.explicit(table.tolist()))
        assert str(err.value) == expected
        raised += 1
    assert raised >= 10 and after_a_contained_cell >= 5


def test_seeded_selector_deterministic_and_contained():
    shape = DomainShape((3, 3))
    boxes = (
        box(shape, [0, 1, 2], [0, 1, 2]),
        box(shape, [0, 1], [0, 1]),
        box(shape, [2], [0, 1, 2]),
    )
    cover = Cover(shape, boxes)
    p = Protocol(cover, TranscriptSelector.seeded(7))
    first = [select_transcript(p, c) for c in shape.cells()]
    second = [select_transcript(p, c) for c in shape.cells()]
    assert first == second
    labels = selector_labels(p)
    assert list(labels) == first
    for cell in shape.cells():
        i = select_transcript(p, cell)
        assert boxes[i].contains(cell)
    # different seed should (here) differ somewhere
    other = selector_labels(Protocol(cover, TranscriptSelector.seeded(8)))
    assert list(other) != first


def test_hash64_pinned():
    # the portable selector hash is part of the file-format contract
    assert hash64(7, 0) == hash64(7, 0)
    assert hash64(7, 0) != hash64(8, 0)
    assert hash64(7, 0) == 13309476754707697221


def test_uncovered_cell_error_on_selection():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]),))
    p = Protocol(cover, TranscriptSelector.min_index())
    with pytest.raises(UncoveredCellError):
        select_transcript(p, (1, 0))
    with pytest.raises(UncoveredCellError):
        selector_labels(p)


def test_compile_single_leaf():
    shape = DomainShape((2, 2))
    protocol = compile_tree(ProtocolTree(shape, TreeLeaf()))
    assert protocol.cover.num_boxes == 1
    assert validate_cover(protocol.cover).is_partition


def test_compile_row_split():
    shape = DomainShape((2, 2))
    tree = ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, TreeLeaf(), TreeLeaf()))
    protocol = compile_tree(tree)
    assert protocol.cover.num_boxes == 2
    assert protocol.cover.boxes[0].factors() == ((0,), (0, 1))
    assert protocol.cover.boxes[1].factors() == ((1,), (0, 1))
    assert thickness(protocol.cover) == 1


def test_compile_depth_two_gives_singletons():
    shape = DomainShape((2, 2))
    col_split = TreeSplit(1, 0b01, 0b10, TreeLeaf(), TreeLeaf())
    tree = ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, col_split, col_split))
    protocol = compile_tree(tree)
    assert protocol.cover.num_boxes == 4
    # leaf enumeration: every box is a singleton and selection is a bijection
    assert sorted(b.factors() for b in protocol.cover.boxes) == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    assert sorted(selector_labels(protocol)) == [0, 1, 2, 3]


def test_invalid_tree_splits():
    shape = DomainShape((2, 2))
    with pytest.raises(InvalidTreeError):
        compile_tree(ProtocolTree(shape, TreeSplit(0, 0b01, 0b01, TreeLeaf(), TreeLeaf())))
    with pytest.raises(InvalidTreeError):
        compile_tree(ProtocolTree(shape, TreeSplit(0, 0b11, 0, TreeLeaf(), TreeLeaf())))
    with pytest.raises(InvalidTreeError):
        compile_tree(ProtocolTree(shape, TreeSplit(3, 0b01, 0b10, TreeLeaf(), TreeLeaf())))
    # child split must partition the inherited (smaller) set
    bad_child = TreeSplit(0, 0b01, 0b10, TreeLeaf(), TreeLeaf())
    with pytest.raises(InvalidTreeError):
        compile_tree(ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, bad_child, TreeLeaf())))


def test_random_trees_compile_to_thickness_one_partitions():
    from commlab import random_tree

    for seed in range(50):
        shape = DomainShape((4, 8))
        protocol = compile_tree(random_tree(shape, seed=seed))
        report = validate_cover(protocol.cover)
        assert report.is_partition
        assert thickness(protocol.cover) == 1
        labels = selector_labels(protocol)
        for lin, cell in enumerate(shape.cells()):
            assert labels[lin] == select_transcript(protocol, cell)
            assert protocol.cover.boxes[labels[lin]].contains(cell)


def _brute_thickness(cover, cell) -> int:
    return sum(1 for b in cover.boxes if b.contains(cell))


@pytest.mark.parametrize("kind", ["min-index", "seeded", "explicit"])
def test_cached_tables_match_per_cell_reference(kind):
    from commlab import random_bounded_cover

    # 64x80 has more than 4,096 cells; its seed draws 45 boxes, few enough
    # for the per-cell reference to stay quick
    for seed, sizes in ((0, (5, 7)), (1, (8, 3)), (2, (3, 4, 2)), (6, (64, 80))):
        shape = DomainShape(sizes)
        cover = random_bounded_cover(shape, rho_max=3, extra=4, seed=seed)
        if kind == "min-index":
            selector = TranscriptSelector.min_index()
        elif kind == "seeded":
            selector = TranscriptSelector.seeded(11 + seed)
        else:
            # the largest containing box, which no cached rule picks
            selector = TranscriptSelector.explicit(
                [max(i for i, b in enumerate(cover.boxes) if b.contains(c)) for c in shape.cells()]
            )
        protocol = Protocol(cover, selector)
        labels = selector_labels(protocol)
        counts = thickness_table(cover)
        for lin, cell in enumerate(shape.cells()):
            assert labels[lin] == select_transcript(protocol, cell)
            assert counts[lin] == _brute_thickness(cover, cell)
        for i, b in enumerate(cover.boxes):
            cells = [c for c in shape.cells() if b.contains(c)]
            assert box_thickness_table(cover)[i] == max(_brute_thickness(cover, c) for c in cells)


def test_cached_tables_are_read_only_and_computed_once():
    cover = windmill_cover()
    protocol = Protocol(cover, TranscriptSelector.seeded(3))
    tables = (thickness_table(cover), box_thickness_table(cover), selector_labels(protocol))
    for arr in tables:
        with pytest.raises(ValueError):
            arr[0] = 7
    assert thickness_table(cover) is tables[0]
    assert selector_labels(protocol) is tables[2]
