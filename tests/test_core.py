"""Core grid/box/cover/selector/tree behavior."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    windmill_cover,
)
from commlab.core import (
    box_thickness_table,
    hash64,
    mask_from_indices,
    pack_rows,
    splitmix64,
    stable_argsort,
    thickness_table,
    unpack_rows,
)


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
    # the stored cell count stays out of equality, hashing and repr
    assert shape == DomainShape([3, 5]) and hash(shape) == hash(DomainShape([3, 5]))
    assert repr(shape) == "DomainShape(sizes=(3, 5))"
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
    assert (thickness_table(cover) == 1).all()
    # independent check: count covering boxes per cell by brute force
    for x in range(4):
        for y in range(4):
            hits = sum(1 for b in cover.boxes if b.contains((x, y)))
            assert hits == 1
    assert thickness_table(cover).max() == 1


def test_uncovered_cell_reported():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]), box(shape, [1], [0])))
    assert thickness_table(cover).tolist() == [1, 1, 1, 0]
    with pytest.raises(UncoveredCellError, match=re.escape("cell (1, 1) is covered by no box")):
        Protocol(cover, TranscriptSelector.min_index())


def test_single_full_box_is_partition():
    shape = DomainShape((2, 3))
    assert (thickness_table(Cover(shape, (full_box(shape),))) == 1).all()


def test_thickness_scopes():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (full_box(shape), full_box(shape)))
    assert thickness_table(cover)[shape.linear_index((0, 0))] == 2
    assert box_thickness_table(cover)[0] == 2
    assert thickness_table(cover).max() == 2


def test_thickness_ordering_invariants():
    rng = np.random.default_rng(5)
    from commlab import random_bounded_cover

    for seed in range(20):
        shape = DomainShape((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        cover = random_bounded_cover(shape, rho_max=3, extra=2, rng=rng)
        counts = thickness_table(cover)
        global_rho = counts.max()
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
    # no protocol over an uncovered cell exists to select from: every
    # selector refuses it at construction
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]),))
    for selector in (TranscriptSelector.min_index(), TranscriptSelector.seeded(5)):
        with pytest.raises(UncoveredCellError, match=re.escape("(1, 0)")):
            Protocol(cover, selector)
    with pytest.raises(InvalidSelectorError, match=re.escape("(1, 0)")):
        Protocol(cover, TranscriptSelector.explicit([0, 0, 0, 0]))


def test_compile_single_leaf():
    shape = DomainShape((2, 2))
    protocol = compile_tree(ProtocolTree(shape, TreeLeaf()))
    assert protocol.cover.num_boxes == 1
    assert (thickness_table(protocol.cover) == 1).all()


def test_compile_row_split():
    shape = DomainShape((2, 2))
    tree = ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, TreeLeaf(), TreeLeaf()))
    protocol = compile_tree(tree)
    assert protocol.cover.num_boxes == 2
    assert protocol.cover.boxes[0].factors() == ((0,), (0, 1))
    assert protocol.cover.boxes[1].factors() == ((1,), (0, 1))
    assert thickness_table(protocol.cover).max() == 1


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
        assert (thickness_table(protocol.cover) == 1).all()
        labels = selector_labels(protocol)
        for lin, cell in enumerate(shape.cells()):
            assert labels[lin] == select_transcript(protocol, cell)
            assert protocol.cover.boxes[labels[lin]].contains(cell)


def _general_tables(cover, seed):
    """The members' boxes in cell order and the seeded labels, the general
    way: one stable sort by cell, then the hash position mod each cell's
    thickness among its boxes."""
    boxes, cells = cover._members
    counts = np.bincount(cells, minlength=cover.shape.num_cells)
    by_cell = boxes[cells.argsort(kind="stable")]
    hashes = splitmix64(np.arange(counts.size, dtype=np.uint64) ^ np.uint64(splitmix64(seed)))
    pick = (hashes % counts.astype(np.uint64)).astype(np.int64)
    return by_cell, by_cell[counts.cumsum() - counts + pick]


def test_partition_tables_match_the_general_path():
    from commlab.verify import SuiteConfig, _random_instance

    for seed in range(100):
        cover = _random_instance(SuiteConfig(suite="tree"), seed)[0].cover
        assert (thickness_table(cover) == 1).all()
        by_cell, seeded = _general_tables(cover, seed)
        assert cover._by_cell[1].dtype == by_cell.dtype
        assert cover._by_cell[1].tolist() == by_cell.tolist()
        for selector, want in (
            (TranscriptSelector.min_index(), by_cell),
            (TranscriptSelector.seeded(seed), seeded),
        ):
            labels = selector_labels(Protocol(cover, selector))
            assert labels.dtype == np.int64 and not labels.flags.writeable
            assert labels.tolist() == want.tolist()


def test_a_cell_at_thickness_two_takes_the_general_path():
    shape = DomainShape((2, 2))
    rows = [box(shape, [0], [0, 1]), box(shape, [1], [0, 1])]
    cover = Cover(shape, (*rows, box(shape, [0], [0])))  # cell (0, 0) in boxes 0 and 2
    assert thickness_table(cover).tolist() == [2, 1, 1, 1]
    picks = set()
    for seed in range(16):
        by_cell, seeded = _general_tables(cover, seed)
        assert cover._by_cell[1].tolist() == by_cell.tolist() == [0, 2, 0, 1, 1]
        labels = selector_labels(Protocol(cover, TranscriptSelector.seeded(seed)))
        assert labels.tolist() == seeded.tolist()
        picks.add(int(labels[0]))
    assert picks == {0, 2}  # the hash decides, cell by cell
    # as many members as cells, but one cell twice and one in no box
    cover = Cover(shape, (box(shape, [0], [0]), box(shape, [0], [0]), rows[1]))
    assert thickness_table(cover).tolist() == [2, 0, 1, 1]
    boxes, cells = cover._members
    assert cover._by_cell[1].tolist() == boxes[cells.argsort(kind="stable")].tolist() == [0, 1, 2, 2]
    with pytest.raises(UncoveredCellError, match=re.escape("(0, 1)")):
        Protocol(cover, TranscriptSelector.min_index())


def _first_fault(shape, boxes):
    for b in boxes:
        try:
            b.validate(shape)
        except InvalidInputError as exc:
            return str(exc)
    return None


def test_a_cover_raises_the_first_fault_of_the_box_by_box_check():
    rng = np.random.default_rng(36)
    several = 0
    for _ in range(400):
        sizes = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(2, 4))))
        shape = DomainShape(sizes)
        boxes, faults = [], 0
        for _ in range(int(rng.integers(1, 6))):
            masks = [int(rng.integers(1, 1 << s)) for s in sizes]
            fault = int(rng.integers(0, 12))
            if fault < 5:
                faults += 1
                k = int(rng.integers(len(masks)))
                if fault == 0:
                    masks[k] = 0  # empty factor
                elif fault == 1:
                    masks[k] |= 1 << (sizes[k] + int(rng.integers(0, 3)))  # index out of range
                elif fault == 2:
                    masks[k] = -masks[k]
                elif fault == 3:
                    masks.pop()  # too few factors
                else:
                    masks.append(1)  # too many
            boxes.append(Box(tuple(masks)))
        several += faults >= 2
        first = _first_fault(shape, boxes)
        if first is None:
            assert Cover(shape, tuple(boxes)).boxes == tuple(boxes)
            continue
        with pytest.raises(InvalidInputError) as err:
            Cover(shape, tuple(boxes))
        assert str(err.value) == first
    assert several >= 100


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


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda arity: st.lists(st.integers(1, 4 if arity < 4 else 3), min_size=arity, max_size=arity)
    ),
    st.integers(1, 8),  # boxes, so thickness up to 8
    st.booleans(),  # one of them is the full box, so every cell is covered
    st.integers(0, 2**32 - 1),  # seed of the factors, the selector and the tables
)
def test_cover_tables_match_per_cell_reference_on_overlapping_covers(sizes, n_boxes, full, seed):
    rng = np.random.default_rng(seed)
    shape = DomainShape(sizes)
    boxes = [
        Box.from_factors([rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False) for s in sizes], shape)
        for _ in range(n_boxes)
    ]
    if full:
        boxes[int(rng.integers(n_boxes))] = full_box(shape)
    cover = Cover(shape, tuple(boxes))
    cells = list(shape.cells())
    brute = [_brute_thickness(cover, c) for c in cells]
    assert thickness_table(cover).tolist() == brute
    for i, b in enumerate(boxes):
        assert box_thickness_table(cover)[i] == max(n for c, n in zip(cells, brute) if b.contains(c))
    for selector in (TranscriptSelector.min_index(), TranscriptSelector.seeded(seed)):
        if 0 in brute:
            with pytest.raises(UncoveredCellError, match=re.escape(str(cells[brute.index(0)]))):
                Protocol(cover, selector)
            continue
        protocol = Protocol(cover, selector)
        assert selector_labels(protocol).tolist() == [select_transcript(protocol, c) for c in cells]
    # explicit tables: a valid one (where one exists) with a few cells moved,
    # checked against the first box, then the first cell, mapped wrongly
    table = rng.integers(0, n_boxes, size=len(cells))
    if 0 not in brute:
        table = np.array([select_transcript(Protocol(cover, TranscriptSelector.min_index()), c) for c in cells])
        moved = rng.choice(len(cells), size=min(len(cells), int(rng.integers(0, 3))), replace=False)
        table[moved] = rng.integers(0, n_boxes, size=moved.size)
    wrong = [(t, lin) for lin, (t, c) in enumerate(zip(table.tolist(), cells)) if not boxes[t].contains(c)]
    if not wrong:
        labels = selector_labels(Protocol(cover, TranscriptSelector.explicit(table.tolist())))
        assert labels.tolist() == table.tolist()
        return
    i, lin = min(wrong)
    with pytest.raises(InvalidSelectorError) as err:
        Protocol(cover, TranscriptSelector.explicit(table.tolist()))
    assert str(err.value) == (
        f"explicit selector maps cell {cells[lin]} to box {i}, which does not contain it"
    )


def test_cached_tables_are_read_only_and_computed_once():
    cover = windmill_cover()
    protocol = Protocol(cover, TranscriptSelector.seeded(3))
    tables = (thickness_table(cover), box_thickness_table(cover), selector_labels(protocol))
    for arr in tables:
        with pytest.raises(ValueError):
            arr[0] = 7
    assert thickness_table(cover) is tables[0]
    assert selector_labels(protocol) is tables[2]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 130).flatmap(
        lambda width: st.lists(st.lists(st.booleans(), min_size=width, max_size=width), max_size=5)
        .map(lambda rows: (width, rows))
    )
)
def test_bitset_codec_round_trip(case):
    # widths 0..130 cross every byte boundary; zero rows included
    width, rows = case
    bits = np.array(rows, dtype=bool).reshape(len(rows), width)
    sets = pack_rows(bits)
    assert sets == [mask_from_indices(np.flatnonzero(row), width) for row in bits]
    back = unpack_rows(sets, width)
    assert back.shape == bits.shape and back.dtype == bool
    assert (back == bits).all()


def test_bitset_codec_every_width_and_transposed_input():
    rng = np.random.default_rng(5)
    for width in range(131):
        for n_rows in (0, 1, 9):
            bits = rng.random((width, n_rows)) < 0.5  # packed through a transposed view
            sets = pack_rows(bits.T)
            assert sets == [mask_from_indices(np.flatnonzero(row), width) for row in bits.T]
            assert (unpack_rows(sets, width) == bits.T).all()



# the radix boundaries and any 32-bit key; a few of them fill rows with ties
_KEYS = st.one_of(
    st.sampled_from([0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_KEYS, min_size=1, max_size=8),
    st.integers(1, 4),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([np.int64, np.int32]),
)
def test_stable_argsort_matches_numpy_stable_argsort(alphabet, n_rows, width, seed, one_d, dtype):
    if dtype is np.int32:  # cell indices: int32 and below 2**24
        alphabet = [v % (1 << 24) for v in alphabet]
    picks = np.random.default_rng(seed).integers(len(alphabet), size=(n_rows, width))
    keys = np.array(alphabet, dtype=dtype)[picks]
    if one_d:
        keys = keys[0]
    order = stable_argsort(keys)
    assert order.shape == keys.shape
    assert (order == keys.argsort(axis=-1, kind="stable")).all()


@pytest.mark.parametrize(
    "shape, top, dtype",
    [
        ((70_000,), (1 << 24) - 1, np.int32),  # Cover._by_cell's cells, up to MAX_CELLS
        ((2, 4_096), (1 << 20) - 1, np.int64),  # batched label rows whose keys cross 2**16
        ((3, 5_000), (1 << 32) - 1, np.int64),
    ],
)
def test_stable_argsort_matches_numpy_at_cover_and_batch_sizes(shape, top, dtype):
    # few distinct values, so every row has long runs of ties, plus both ends
    rng = np.random.default_rng(shape[-1])
    values = np.concatenate([[0, top], rng.integers(0, top + 1, size=500)])
    keys = values[rng.integers(0, values.size, size=shape)].astype(dtype)
    assert keys.max() >> 16
    assert (stable_argsort(keys) == keys.argsort(axis=-1, kind="stable")).all()
