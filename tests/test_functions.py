"""Function/relation tables, generators, error protocols, GOOD sets."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commlab import (
    ColoredFunction,
    Cover,
    DomainShape,
    ErrorProtocol,
    GenerationFailureError,
    InvalidInputError,
    Protocol,
    Relation,
    TranscriptSelector,
    approx_xor_relation,
    box_color_labels,
    constant_function,
    eq_function,
    error_protocol_from_cover,
    functions,
    gen_cover,
    gen_function,
    matvec_function,
    monochromatic_color,
    parity_tightness_protocol,
    random_bounded_cover,
    random_function,
    trivial_merlin_cover,
    xor_function,
)
from commlab.core import Box, TreeLeaf, box, compile_tree, dense_ids, indices_from_mask, thickness_table
from commlab.functions import good_mask

from naive import bounded_additions_full_budget, enumerate_all_boxes, random_tree_reference


def test_xor1_table():
    f = xor_function(1)
    assert f.colors.tolist() == [[0, 1], [1, 0]]


def test_eq1_table():
    f = eq_function(1)
    assert f.colors.tolist() == [[1, 0], [0, 1]]


def test_matvec_identity_example():
    # x1=(1,0) -> 1, x2=(0,1) -> 2 (little-endian), x3=(1,1) -> 3
    f = matvec_function(3, 2)
    assert f.shape.sizes == (4, 4, 4)
    assert int(f.colors[1, 2, 3]) == 3  # columns e1,e2 times (1,1) = (1,1)
    assert int(f.colors[1, 2, 1]) == 1  # picks column 1 only
    assert int(f.colors[1, 2, 0]) == 0  # zero coefficient vector


def test_matvec_surjective_colors():
    f = matvec_function(3, 2)
    assert f.num_colors == 4
    assert sorted(np.unique(f.colors)) == [0, 1, 2, 3]


@pytest.mark.parametrize("arity, n", list(product((3, 4, 5), (1, 2, 3))))
def test_matvec_matches_the_per_cell_product(arity, n):
    # each cell's colour is the XOR of the columns its coefficient bits select
    f = matvec_function(arity, n)
    for cell in product(*(range(s) for s in f.shape.sizes)):
        expected = 0
        for j in range(arity - 1):
            if (cell[-1] >> j) & 1:
                expected ^= cell[j]
        assert f.colors[cell] == expected


@pytest.mark.parametrize(
    "make",
    [
        xor_function,
        eq_function,
        lambda n: approx_xor_relation(n, 0.5),
        parity_tightness_protocol,
        lambda n: matvec_function(3, n),
    ],
    ids=["xor", "eq", "approx-xor", "parity", "matvec"],
)
@pytest.mark.parametrize("n", [0, 13, 20000])
def test_constructors_reject_n_past_the_dimension_cap(make, n):
    # 2**13 passes MAX_DIM_SIZE, and 2**20000 has more digits than Python
    # will format into an error message
    with pytest.raises(InvalidInputError, match=f"needs 1 <= n <= 12, got {n}$"):
        make(n)


@pytest.mark.parametrize("arity", [2, 14, 20000])
def test_matvec_rejects_arity_past_the_dimension_cap(arity):
    # the coefficient party holds arity - 1 bits, so 2**13 indices at arity 14
    with pytest.raises(InvalidInputError, match=f"^matvec needs 3 <= arity <= 13, got {arity}$"):
        matvec_function(arity, 2)


def test_random_function_deterministic_and_contiguous():
    shape = DomainShape((4, 4))
    f1 = random_function(shape, 5, seed=11)
    f2 = random_function(shape, 5, seed=11)
    assert np.array_equal(f1.colors, f2.colors)
    assert np.array_equal(
        np.unique(f1.colors), np.arange(f1.num_colors)
    )
    f3 = random_function(shape, 5, seed=12)
    assert not np.array_equal(f1.colors, f3.colors)


@pytest.mark.parametrize("num_colors, seed", [(0, 0), (2**63, 0), (10**20, 0), (2, -1)])
def test_random_function_refuses_out_of_range_inputs(num_colors, seed):
    with pytest.raises(InvalidInputError):
        random_function(DomainShape((4, 4)), num_colors, seed)


def test_random_function_with_more_colors_than_cells():
    # past the cell count the ids come from a sort, not a presence table
    # num_colors long; they are np.unique's ranks
    shape = DomainShape((4, 4))
    raw = np.random.default_rng(3).integers(0, 17, size=shape.sizes)
    expected = np.unique(raw, return_inverse=True)[1].reshape(shape.sizes)
    assert random_function(shape, 17, 3).colors.tolist() == expected.tolist()
    f = random_function(shape, 2**63 - 1, 3)
    assert np.array_equal(np.unique(f.colors), np.arange(f.num_colors))


def test_colored_function_rejects_gaps():
    # ids past the cell count cannot be contiguous, and are rejected before
    # any table of that length is built
    shape = DomainShape((2, 2))
    for colors in ([[0, 2], [2, 0]], [[1, 1], [2, 1]], [[0, 1], [1, 2**40]]):
        with pytest.raises(InvalidInputError, match="^color ids must be contiguous from 0$"):
            ColoredFunction(shape, np.array(colors))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 70).flatmap(
        lambda bound: st.tuples(
            st.just(bound), st.lists(st.integers(0, bound - 1), min_size=1, max_size=300)
        )
    )
)
@example((2**62, [2**62 - 1, 5, 2**62 - 1, 0]))  # bound past the size: no table that long
def test_dense_ids_match_np_unique_inverse(case):
    bound, values = case
    values = np.array(values, dtype=np.int64)
    got = dense_ids(values, bound)
    expected = np.unique(values, return_inverse=True)[1]
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_approx_xor_delta_zero_singletons():
    rel = approx_xor_relation(2, 0.0)
    for x in range(4):
        for y in range(4):
            assert indices_from_mask(rel.admissible[4 * x + y]) == (x ^ y,)


def test_approx_xor_delta_one_everything():
    rel = approx_xor_relation(2, 1.0)
    for x in range(4):
        for y in range(4):
            assert indices_from_mask(rel.admissible[4 * x + y]) == (0, 1, 2, 3)


def test_approx_xor_half_ball_size():
    rel = approx_xor_relation(2, 0.5)  # radius 1 Hamming ball: 1 + C(2,1) = 3
    for x in range(4):
        for y in range(4):
            assert len(indices_from_mask(rel.admissible[4 * x + y])) == 3


def test_approx_xor_relation_delta_out_of_range():
    with pytest.raises(InvalidInputError):
        approx_xor_relation(2, 1.5)


def test_relation_color_count_is_capped_at_the_widest_approx_xor():
    from commlab.functions import MAX_RELATION_COLORS

    shape = DomainShape((1, 1))
    assert approx_xor_relation(2, 0.0).num_colors == 1 << 2
    assert MAX_RELATION_COLORS == 1 << functions.MAX_BITS  # approx-xor at the widest n
    assert Relation(shape, (1,), MAX_RELATION_COLORS).num_colors == MAX_RELATION_COLORS
    for bad in (0, -1, MAX_RELATION_COLORS + 1):
        with pytest.raises(InvalidInputError, match="colors"):
            Relation(shape, (1,), bad)


def test_trivial_merlin_cover_properties():
    f = xor_function(1)
    cover = gen_cover("trivial-merlin", shape=f.shape)
    assert cover.num_boxes == 4
    assert (thickness_table(cover) == 1).all()
    for b in cover.boxes:
        assert [m.bit_count() for m in b.masks] == [1, 1]
        assert monochromatic_color(b, f) is not None


def test_windmill_gen():
    cover = gen_cover("windmill")
    assert cover.num_boxes == 5
    assert (thickness_table(cover) == 1).all()


def test_random_bounded_respects_cap():
    for seed in range(25):
        shape = DomainShape((4, 4))
        cover = random_bounded_cover(shape, rho_max=2, extra=3, seed=seed)
        assert thickness_table(cover).all()
        assert thickness_table(cover).max() <= 2


def test_random_bounded_deterministic():
    shape = DomainShape((4, 8))
    c1 = random_bounded_cover(shape, rho_max=3, extra=4, seed=9)
    c2 = random_bounded_cover(shape, rho_max=3, extra=4, seed=9)
    assert [b.masks for b in c1.boxes] == [b.masks for b in c2.boxes]


def test_random_bounded_reports_failure_with_seed():
    # under rho_max=1 any extra box collides with the base partition
    shape = DomainShape((2, 2))
    with pytest.raises(GenerationFailureError) as err:
        random_bounded_cover(shape, rho_max=1, extra=1, seed=13)
    assert str(err.value).endswith("(seed=13)")


@settings(max_examples=1000, deadline=None)
@given(
    # 16- and 64-wide factors draw samples of more than 5 indices; a 1-wide
    # factor draws nothing, and as the last one its rows hold one bit
    st.sampled_from(
        [(r, c) for r in range(2, 9) for c in range(2, 9)]
        + [(2, 2, 2), (3, 2, 4), (4, 3, 2), (16, 4), (3, 16), (16, 16), (64, 2), (5, 64), (2, 16, 4)]
        + [(1, 8), (8, 1), (2, 1, 4)]
    ),
    st.integers(1, 8),  # rho_max
    st.integers(0, 8),  # extra; 0 is the tree partition alone
    st.integers(0, 2**32 - 1),  # seed
)
def test_random_bounded_matches_sampling_to_the_full_budget(sizes, rho_max, extra, seed):
    # a small budget makes failures with only part of the grid at the cap
    # common; stopping early must not change which seeds fail or what the
    # others draw
    shape = DomainShape(sizes)
    rng = np.random.default_rng(seed)
    try:
        cover = random_bounded_cover(shape, rho_max, extra, rng=rng, attempt_budget=20)
    except GenerationFailureError:
        cover = None
    ref_rng = np.random.default_rng(seed)
    base = compile_tree(functions.random_tree(shape, rng=ref_rng)).cover.boxes
    ones = {cell: 1 for cell in product(*(range(s) for s in sizes))}
    kept = bounded_additions_full_budget(sizes, ones, rho_max, extra, 20, ref_rng)
    assert (cover is None) == (kept is None)
    if cover is not None:
        expected = base + tuple(Box.from_factors(factors, shape) for factors in kept)
        assert [b.masks for b in cover.boxes] == [b.masks for b in expected]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _as_tuples(node):
    if isinstance(node, TreeLeaf):
        return None
    children = _as_tuples(node.left), _as_tuples(node.right)
    return (node.owner, node.left_mask, node.right_mask) + children


@settings(max_examples=300, deadline=None)
@given(
    # a tree has at most one leaf per cell; the cap keeps each example small
    st.lists(st.integers(1, 32), min_size=2, max_size=4).filter(lambda s: math.prod(s) <= 2048),
    st.integers(0, 2**64 - 1),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_random_tree_matches_the_reference_recursion(sizes, seed, split_prob):
    # the same tree and the same RNG state after it: random_tree skips only
    # the owner draw of a lone splittable party, which draws nothing, and
    # takes its coins from the bit generator, where the reference calls
    # rng.integers(0, 2, size=k)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = functions.random_tree(DomainShape(tuple(sizes)), rng=rng, split_prob=split_prob)
    assert _as_tuples(tree.root) == random_tree_reference(tuple(sizes), ref_rng, split_prob)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _plain(state):
    """A bit generator's state with its arrays as lists, so that states
    compare with ==: Philox and SFC64 keep parts of theirs in arrays."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]),
    st.lists(st.integers(1, 32), min_size=2, max_size=3).filter(lambda s: math.prod(s) <= 1024),
    st.integers(0, 2**64 - 1),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_random_tree_matches_the_reference_under_every_bit_generator(bits, sizes, seed, split_prob):
    # the coins are next_uint32() >> 31 on any bit generator, not only PCG64
    rng, ref_rng = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    tree = functions.random_tree(DomainShape(tuple(sizes)), rng=rng, split_prob=split_prob)
    assert _as_tuples(tree.root) == random_tree_reference(tuple(sizes), ref_rng, split_prob)
    assert _plain(rng.bit_generator.state) == _plain(ref_rng.bit_generator.state)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


def _count_next32(monkeypatch, reader):
    """Count the 32-bit draws a reader class consumes, through its next_uint32."""
    calls = []
    next32 = reader._next32

    def counted(self):
        calls.append(None)
        return next32(self)

    monkeypatch.setattr(reader, "_next32", counted)
    return calls


@pytest.mark.parametrize("bits", BIT_GENERATORS)
def test_draws_equal_numpy_integers_and_choice(bits, monkeypatch):
    # a range of 1 draws nothing and 2**32 is one plain next_uint32; just
    # past 2**31 Lemire's method rejects about half of all draws
    ranges = (1, 2, 3, 61, 2**31 - 1, 2**31 + 1, 2**31 + 2**30, 2**32 - 1, 2**32)
    redraws = 0
    calls = _count_next32(monkeypatch, functions._Draws)
    for seed in range(12):
        rng, ref = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
        with functions._Draws(rng) as draws:
            for m in ranges:
                del calls[:]
                assert draws.below(m) == int(ref.integers(m))
                if m <= 2**31:  # a redraw is rare here
                    assert len(calls) == (m > 1)
                redraws += len(calls) > 1
            for s in (1, 2, 3, 5, 16, 17, 64, 255, 4096):
                for k in sorted({1, 2, 3, s // 2, s} & set(range(1, s + 1))):
                    assert draws.sample(s, k) == ref.choice(s, size=k, replace=False).tolist()
            for k in (1, 2, 7, 8, 33):
                assert draws.coins(k) == ref.integers(0, 2, size=k).tolist()
        assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)
    assert redraws > 0


@pytest.mark.parametrize("bits", BIT_GENERATORS)
@pytest.mark.parametrize("pending", [False, True])
def test_reader_crosses_blocks_and_keeps_the_waiting_half(bits, pending):
    # one reader over well past its largest block: 10,001 coins, samples of
    # s = 4,096, and floats between them; with `pending` it opens on a
    # waiting high half and closes on one. Both generators then go on alike
    for seed in range(3):
        rng, ref = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
        if pending:
            assert int(rng.integers(5)) == int(ref.integers(5))  # one next_uint32
        with functions._Draws(rng) as draws:
            assert draws.random() == ref.random()
            assert draws.coins(10_001) == ref.integers(0, 2, size=10_001).tolist()
            assert draws.random() == ref.random()
            for k in (4096, 2048, 7, 4096):
                assert draws.sample(4096, k) == ref.choice(4096, size=k, replace=False).tolist()
                assert draws.coins(3) == ref.integers(0, 2, size=3).tolist()
            assert draws.coins(20_000) == ref.integers(0, 2, size=20_000).tolist()
            assert draws.random() == ref.random()
            if pending and not ref.bit_generator.state["has_uint32"]:
                assert draws.below(7) == int(ref.integers(7))  # close on a waiting half
        assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)
        if pending:
            assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.integers(2**32, size=5).tolist() == ref.integers(2**32, size=5).tolist()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("bits", BIT_GENERATORS)
def test_failed_generation_leaves_the_state_of_its_draws(bits, monkeypatch):
    # a failure closes the reader too: the generator is where the reference
    # leaves it after the tree and as many boxes as the failed call drew
    shape = DomainShape((4, 4))
    ones = {cell: 1 for cell in product(range(4), range(4))}
    calls = _count_draws(monkeypatch)
    failures = 0
    for seed in range(40):
        del calls[:]
        rng = np.random.Generator(bits(seed))
        try:
            random_bounded_cover(shape, rho_max=2, extra=8, rng=rng, attempt_budget=15)
        except GenerationFailureError:
            failures += 1
            ref = np.random.Generator(bits(seed))
            functions.random_tree(shape, rng=ref)
            assert bounded_additions_full_budget((4, 4), ones, 2, 8, len(calls), ref) is None
            assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)
    assert failures >= 10


def test_random_tree_refuses_a_32_bit_generator():
    # MT19937's state keeps no waiting half-word: the reader refuses it
    # before it draws anything
    rng = np.random.Generator(np.random.MT19937(0))
    before = _plain(rng.bit_generator.state)
    with pytest.raises(InvalidInputError, match="MT19937"):
        functions.random_tree(DomainShape((4, 4)), rng=rng)
    assert _plain(rng.bit_generator.state) == before


@pytest.mark.parametrize("suite, arity", [("main", 2), ("tree", 2), ("multiparty", 3)])
def test_suite_covers_are_the_reference_draws(suite, arity):
    # the tree leaves are compile_tree(random_tree(...)) drawn from the same
    # stream, and a random-bounded cover's extra boxes are the naive
    # rejection sampling's
    from commlab.verify import SuiteConfig, _random_instance

    config = SuiteConfig(suite=suite, arity=arity, max_bits=4 if arity == 2 else 2)
    checked = 0
    for seed in range(60):
        ref = np.random.default_rng(seed)
        bits = ref.integers(1, config.max_bits + 1, size=arity)
        shape = DomainShape(tuple(1 << int(b) for b in bits))
        if suite != "tree":
            rho_max = config.rho_max[int(ref.integers(len(config.rho_max)))]
            extra = min(config.extra, max(1, shape.num_cells // 4))
        base = compile_tree(functions.random_tree(shape, rng=ref)).cover.boxes
        if suite == "tree":
            expected = base
        else:
            ones = {cell: 1 for cell in product(*(range(s) for s in shape.sizes))}
            kept = bounded_additions_full_budget(shape.sizes, ones, rho_max, extra, 1000 * extra, ref)
            if kept is None:
                with pytest.raises(GenerationFailureError):
                    _random_instance(config, seed)
                continue
            expected = base + tuple(Box.from_factors(factors, shape) for factors in kept)
        protocol, _, _ = _random_instance(config, seed)
        assert [b.masks for b in protocol.cover.boxes] == [b.masks for b in expected]
        checked += 1
    assert checked >= 50


def _count_draws(monkeypatch, first=None):
    """Patch functions._random_box to count its calls; `first`, if given,
    replaces the first draw."""
    calls = []
    draw = functions._random_box

    def counted(shape, rng):
        calls.append(None)
        drawn = draw(shape, rng)
        return first if first is not None and len(calls) == 1 else drawn

    monkeypatch.setattr(functions, "_random_box", counted)
    return calls


def test_random_bounded_fails_without_drawing_when_the_cap_is_one(monkeypatch):
    calls = _count_draws(monkeypatch)
    with pytest.raises(GenerationFailureError, match="every cell is at the cap"):
        random_bounded_cover(DomainShape((4, 4)), rho_max=1, extra=3, seed=5)
    assert len(calls) == 0


def test_random_bounded_stops_once_every_cell_is_at_the_cap(monkeypatch):
    full = ([0, 1], [0, 1])
    calls = _count_draws(monkeypatch, first=full)
    with pytest.raises(GenerationFailureError, match="seed=3") as err:
        random_bounded_cover(DomainShape((2, 2)), rho_max=2, extra=2, seed=3)
    assert "every cell is at the cap" in str(err.value)
    assert len(calls) == 1


def test_monochromatic_color_function_cases():
    shape = DomainShape((2, 2))
    full = box(shape, [0, 1], [0, 1])
    assert monochromatic_color(full, constant_function(shape)) == 0
    assert monochromatic_color(full, xor_function(1)) is None


def test_monochromatic_color_relation_smallest():
    rel = approx_xor_relation(2, 0.5)
    shape = rel.shape
    singleton = box(shape, [0], [0])
    # ball of radius 1 around 00: {00, 01, 10}; smallest id is 0
    assert monochromatic_color(singleton, rel) == 0
    # whole domain has no common admissible value
    assert monochromatic_color(box(shape, range(4), range(4)), rel) is None


def test_box_color_labels_of_a_relation_mark_colorless_boxes_past_the_largest_color():
    # the colorless label is one past the largest color found, not the
    # relation's color count: it is hashed into instance ids
    from commlab.core import selector_labels

    rel = approx_xor_relation(2, 0.5)
    protocol = Protocol(random_bounded_cover(rel.shape, 3, 6, seed=3), TranscriptSelector.seeded(9))
    labels, colorless = box_color_labels(protocol, rel)
    t = selector_labels(protocol).tolist()
    colors = {i: monochromatic_color(protocol.cover.boxes[i], rel) for i in t}
    known = [c for c in colors.values() if c is not None]
    assert None in colors.values() and colorless == max(known) + 1 < rel.num_colors
    assert labels.tolist() == [colorless if colors[i] is None else colors[i] for i in t]


def test_box_color_labels_without_a_colored_box_put_every_cell_at_zero():
    # the full box mixes colors 0 and 1, so no selected box has a color
    shape = DomainShape((2, 2))
    f = ColoredFunction(shape, np.array([[0, 0], [1, 0]]))
    protocol = Protocol(Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index())
    labels, colorless = box_color_labels(protocol, f)
    assert labels.tolist() == [0, 0, 0, 0] and colorless == 0


def _indicator_color(b, target):
    """monochromatic_color read off the box's full-grid indicator."""
    ind = b.indicator(target.shape)
    if isinstance(target, ColoredFunction):
        values = np.unique(target.flat()[ind])
        return int(values[0]) if len(values) == 1 else None
    common = (1 << target.num_colors) - 1
    for i in np.flatnonzero(ind):
        common &= target.admissible[int(i)]
    return (common & -common).bit_length() - 1 if common else None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=3),
    st.integers(1, 3),  # colors
    st.integers(0, 2**32 - 1),
)
def test_monochromatic_color_matches_the_indicator_reference(sizes, num_colors, seed):
    # few colors, so that many boxes are monochromatic
    rng = np.random.default_rng(seed)
    shape = DomainShape(sizes)
    f = random_function(shape, num_colors, seed)
    masks = rng.integers(0, 1 << num_colors, size=shape.num_cells)
    admissible = [int(m) | (1 << int(rng.integers(num_colors))) for m in masks]  # never empty
    rel = Relation(shape, tuple(admissible), num_colors)
    for _ in range(10):
        b = Box.from_factors(
            [rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False) for s in sizes], shape
        )
        assert monochromatic_color(b, f) == _indicator_color(b, f)
        assert monochromatic_color(b, rel) == _indicator_color(b, rel)


def test_xor_has_no_multicell_monochromatic_box():
    # exhaustive over every box with more than one cell, n <= 2
    for n in (1, 2):
        f = xor_function(n)
        size = 1 << n
        for rows, cols in enumerate_all_boxes(size, size):
            if len(rows) * len(cols) <= 1:
                continue
            b = box(f.shape, rows, cols)
            assert monochromatic_color(b, f) is None
    # n = 3: any multicell box contains a 2-cell sub-box, so 2-cell suffices
    f = xor_function(3)
    for x1 in range(8):
        for x2 in range(8):
            for y in range(8):
                if x1 < x2:
                    assert monochromatic_color(box(f.shape, [x1, x2], [y]), f) is None
                    assert monochromatic_color(box(f.shape, [y], [x1, x2]), f) is None


def test_good_set_all_cells_for_monochromatic_cover():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    ep = error_protocol_from_cover(protocol, f)
    assert good_mask(ep, f).all()


def test_good_set_single_disagreement():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    ep = error_protocol_from_cover(protocol, f)
    g_a = ep.g_a.copy()
    bad_box = 3  # singleton box of cell (1, 1)
    g_a[1, bad_box] = 1 - g_a[1, bad_box]
    ep2 = ErrorProtocol(protocol, g_a, ep.g_b)
    assert np.flatnonzero(~good_mask(ep2, f)).tolist() == [f.shape.linear_index((1, 1))]


def test_good_set_relation_delta_one():
    rel = approx_xor_relation(1, 1.0)
    protocol = Protocol(trivial_merlin_cover(rel.shape), TranscriptSelector.min_index())
    n_boxes = protocol.cover.num_boxes
    g = np.zeros((2, n_boxes), dtype=np.int64)  # constant answer everywhere
    ep = ErrorProtocol(protocol, g, g)
    assert good_mask(ep, rel).all()


def test_error_protocol_requires_defined_entries():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    g_a = np.full((2, 4), -1, dtype=np.int64)
    g_b = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(InvalidInputError):
        ErrorProtocol(protocol, g_a, g_b)


def test_error_protocol_from_nonmonochromatic_cover_rejected():
    f = xor_function(1)
    shape = f.shape
    full = box(shape, [0, 1], [0, 1])
    protocol = Protocol(Cover(shape, (full,)), TranscriptSelector.min_index())
    with pytest.raises(InvalidInputError):
        error_protocol_from_cover(protocol, f)


def test_gen_function_dispatcher():
    assert gen_function("xor", n=2).num_colors == 4
    assert gen_function("constant", shape=DomainShape((2, 2))).num_colors == 1
    with pytest.raises(InvalidInputError):
        gen_function("nope")
