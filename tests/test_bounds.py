"""Catalog enumeration, exact/greedy cover, fooling sets, ranks, summary."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from commlab import (
    DomainShape,
    InvalidInputError,
    SolverTimeoutError,
    bound_summary,
    comm_matrix_rank,
    constant_function,
    cover_number,
    enumerate_maximal_monochromatic,
    eq_function,
    monochromatic_color,
    random_function,
    xor_function,
)
from commlab.bounds import (
    DUAL_SCALE,
    MonochromaticCatalog,
    _color_setups,
    _dual_weights,
    _exact_color_cover,
    fooling_set,
    fooling_sizes,
    gf2_rank,
    rational_rank,
)
from commlab.core import Box, Cover, indices_from_mask, thickness_table

from naive import (
    brute_force_cover_number,
    brute_maximal_monochromatic,
    first_maximum_fooling_set,
    greedy_fooling_set,
    is_fooling_set,
    plain_cover_search,
)


def _ladder():
    """The functions of the bounds ladder: xor(4), eq(3), random 9x9 2-colour
    seeds 1-4, 10x10 3-colour seeds 1-2 and 12x12 2-colour seeds 1-6."""
    yield xor_function(4)
    yield eq_function(3)
    for side, k, seeds in ((9, 2, range(1, 5)), (10, 3, range(1, 3)), (12, 2, range(1, 7))):
        for seed in seeds:
            yield random_function(DomainShape((side, side)), k, seed)


def test_catalog_constant_full_box():
    f = constant_function(DomainShape((2, 2)))
    catalog = enumerate_maximal_monochromatic(f)
    assert not catalog.partial
    assert len(catalog.boxes_by_color[0]) == 1
    assert catalog.boxes_by_color[0][0].factors() == ((0, 1), (0, 1))


def test_catalog_xor1_singletons():
    f = xor_function(1)
    catalog = enumerate_maximal_monochromatic(f)
    assert catalog.num_boxes == 4
    for color, boxes in catalog.boxes_by_color.items():
        assert len(boxes) == 2
        for b in boxes:
            assert [m.bit_count() for m in b.masks] == [1, 1]


def test_catalog_eq2_color1_diagonal_singletons():
    f = eq_function(2)
    catalog = enumerate_maximal_monochromatic(f)
    ones = catalog.boxes_by_color[1]
    assert len(ones) == 4
    assert all([m.bit_count() for m in b.masks] == [1, 1] for b in ones)
    # color 0: maximal boxes are S x complement(S), 2^4 - 2 of them
    zeros = catalog.boxes_by_color[0]
    assert len(zeros) == 14
    for b in zeros:
        rows, cols = b.factors()
        assert set(rows).isdisjoint(cols)
        assert set(rows) | set(cols) == {0, 1, 2, 3}


def test_catalog_matches_brute_force_on_random_functions():
    rng = np.random.default_rng(21)
    shapes = [(1, n) for n in range(1, 7)] + [(n, 1) for n in range(1, 7)]
    shapes += [(int(rng.integers(2, 7)), int(rng.integers(2, 7))) for _ in range(40)]
    for sizes in shapes:
        shape = DomainShape(sizes)
        f = random_function(shape, int(rng.integers(2, 4)), seed=int(rng.integers(1 << 16)))
        catalog = enumerate_maximal_monochromatic(f)
        expected = brute_maximal_monochromatic(f.colors.tolist())
        got = {
            color: sorted(b.factors() for b in boxes)
            for color, boxes in catalog.boxes_by_color.items()
            if boxes
        }
        expected = {color: sorted(boxes) for color, boxes in expected.items()}
        assert got == expected


def test_catalog_every_cell_covered_by_its_color():
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = random_function(DomainShape((4, 4)), 3, seed=int(rng.integers(1 << 16)))
        catalog = enumerate_maximal_monochromatic(f)
        for x in range(4):
            for y in range(4):
                color = int(f.colors[x, y])
                assert any(b.contains((x, y)) for b in catalog.boxes_by_color[color])


def test_catalog_cap_flags_partial():
    f = eq_function(2)
    catalog = enumerate_maximal_monochromatic(f, cap=3)
    assert catalog.partial


def test_catalog_cap_builds_no_box_of_the_capped_color(monkeypatch):
    # eq(2): color 0 (NEQ) has 14 boxes, color 1 the 4 diagonal cells, so a
    # cap of 15 is passed inside color 1, whose boxes are never built
    import commlab.bounds as bounds

    built = []

    def counting_box(masks):
        built.append(masks)
        return Box(masks)

    monkeypatch.setattr(bounds, "Box", counting_box)
    catalog = enumerate_maximal_monochromatic(eq_function(2), cap=15)
    assert catalog.partial
    assert len(built) == 14
    assert list(catalog.boxes_by_color) == [0]


def test_partial_catalog_ends_like_a_timeout():
    # a catalog cut at its cap certifies no cover: the call ends as a spent
    # budget ends it, with (color count, row-strip cover size)
    f = eq_function(2)
    for mode in ("exact", "greedy"):
        with pytest.raises(SolverTimeoutError) as err:
            cover_number(f, mode, catalog=enumerate_maximal_monochromatic(f, cap=3))
        assert (err.value.lower, err.value.upper) == (2, 8)


def test_cover_number_constant():
    f = constant_function(DomainShape((3, 3)))
    count, witness = cover_number(f)
    assert count == 1 and len(witness) == 1


def test_cover_number_xor():
    for n, expected in ((1, 4), (2, 16)):
        f = xor_function(n)
        count, witness = cover_number(f)
        assert count == expected
        assert thickness_table(Cover(f.shape, witness)).all()
        assert all(monochromatic_color(b, f) is not None for b in witness)


def test_cover_number_eq1():
    count, _ = cover_number(eq_function(1))
    assert count == 4


def test_greedy_at_least_exact():
    rng = np.random.default_rng(2)
    for _ in range(20):
        shape = DomainShape((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        f = random_function(shape, 2, seed=int(rng.integers(1 << 16)))
        exact, _ = cover_number(f, "exact")
        greedy, witness = cover_number(f, "greedy")
        assert greedy >= exact
        assert thickness_table(Cover(f.shape, witness)).all()


def test_exact_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 40:
        shape = DomainShape((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        f = random_function(shape, int(rng.integers(2, 4)), seed=int(rng.integers(1 << 16)))
        catalog = enumerate_maximal_monochromatic(f)
        if catalog.num_boxes > 20:
            continue
        exact, _ = cover_number(f, "exact", catalog=catalog)
        boxes = [b.factors() for group in catalog.boxes_by_color.values() for b in group]
        assert exact == brute_force_cover_number(*f.shape.sizes, boxes)
        checked += 1


def test_cover_number_eq_closed_form():
    # EQ(n): 2^n diagonal singletons plus the NEQ cover, the least k with
    # C(k, floor(k/2)) >= 2^n
    from math import comb

    for n, expected in ((1, 4), (2, 8), (3, 13)):
        k = next(k for k in range(1, 64) if comb(k, k // 2) >= 2**n)
        assert 2**n + k == expected
        count, witness = cover_number(eq_function(n))
        assert count == expected and len(witness) == expected


def test_exact_matches_brute_force_with_valid_witness():
    rng = np.random.default_rng(41)
    checked = {}
    while sum(checked.values()) < 40:
        side, colors = int(rng.integers(4, 6)), int(rng.integers(2, 4))
        f = random_function(DomainShape((side, side)), colors, seed=int(rng.integers(1 << 16)))
        catalog = enumerate_maximal_monochromatic(f)
        if catalog.num_boxes > 20:
            continue
        exact, witness = cover_number(f, "exact", catalog=catalog)
        boxes = [b.factors() for group in catalog.boxes_by_color.values() for b in group]
        assert exact == brute_force_cover_number(side, side, boxes)
        assert len(witness) == exact
        assert all(monochromatic_color(b, f) is not None for b in witness)
        assert thickness_table(Cover(f.shape, witness)).all()
        checked[side, colors] = checked.get((side, colors), 0) + 1
    assert len(checked) == 4  # 4x4 and 5x5, 2 and 3 colors


def test_exact_matches_plain_search_on_long_searches():
    # answers of the plain branch and bound (no dual weights, no banned
    # candidates) on searches long enough to use both; a search that bans
    # every other box through the branch cell misses the 7x7 minimum
    cases = (
        ((7, 7), 2, 9300, 12),
        ((9, 9), 2, 1, 15),
        ((9, 9), 2, 2, 14),
        ((9, 9), 2, 3, 16),
        ((9, 9), 2, 4, 14),
        ((10, 10), 3, 1, 27),
        ((10, 10), 3, 2, 27),
    )
    for sizes, colors, seed, expected in cases:
        f = random_function(DomainShape(sizes), colors, seed)
        count, witness = cover_number(f)
        assert count == expected == len(witness)
        assert all(monochromatic_color(b, f) is not None for b in witness)
        assert thickness_table(Cover(f.shape, witness)).all()


def _node_minimum(setup, uncovered, banned):
    """The minimum cover of a node's uncovered cells by its live boxes, by
    the oracle search from each uncovered cell's lowest live box."""
    cell_boxes = setup.cell_boxes
    start = sorted({indices_from_mask(cell_boxes[c] & ~banned)[0] for c in indices_from_mask(uncovered)})
    return len(plain_cover_search(setup.masks, cell_boxes, setup.by_size, start, uncovered, banned))


def _assert_feasible_node_dual(setup, uncovered, banned, weights, minimum):
    """`weights` is a feasible dual of the node: 0 off its uncovered cells,
    every live box at most DUAL_SCALE on them, and rounded up at most the
    node's `minimum` cover."""
    assert min(weights) >= 0
    assert all(weights[c] == 0 for c in range(len(weights)) if not uncovered >> c & 1)
    for i, m in enumerate(setup.masks):
        if not banned >> i & 1:
            assert sum(weights[c] for c in indices_from_mask(m & uncovered)) <= DUAL_SCALE
    assert -(-sum(weights) // DUAL_SCALE) <= minimum


def test_dual_weights_are_a_feasible_dual(monkeypatch):
    for seed in (1, 2, 3):
        f = random_function(DomainShape((12, 12)), 2, seed)
        catalog = enumerate_maximal_monochromatic(f)
        _, witness = cover_number(f, catalog=catalog)
        for color, setup in enumerate(_color_setups(f, catalog, math.inf)):
            masks, cell_boxes = setup.masks, setup.cell_boxes
            universe = (1 << len(cell_boxes)) - 1
            weights, multipliers = _dual_weights(
                cell_boxes, universe, 0, len(setup.greedy), None, math.inf
            )
            assert len(weights) == len(cell_boxes) and min(weights) >= 0
            for m in masks:
                assert sum(weights[c] for c in indices_from_mask(m)) <= DUAL_SCALE
            bound = -(-sum(weights) // DUAL_SCALE)
            # LP optimum is about 10 on these colours; the start point, one
            # over the largest box through each cell, is about 5
            assert 10 <= bound <= sum(monochromatic_color(b, f) == color for b in witness)
            # a node: the first two greedy boxes chosen, every third box
            # banned that leaves each uncovered cell a live box
            uncovered = universe & ~masks[setup.greedy[0]] & ~masks[setup.greedy[1]]
            banned = 0
            for i in range(0, len(masks), 3):
                if all(cell_boxes[c] & ~(banned | 1 << i) for c in indices_from_mask(masks[i] & uncovered)):
                    banned |= 1 << i
            # aimed at the minimum (it would prune) and past it, cold and
            # warm from the root's multipliers
            minimum = _node_minimum(setup, uncovered, banned)
            for need in (minimum, minimum + 1):
                for warm in (None, multipliers):
                    node, _ = _dual_weights(cell_boxes, uncovered, banned, need, warm, math.inf)
                    _assert_feasible_node_dual(setup, uncovered, banned, node, minimum)
                    assert minimum - 2 <= -(-sum(node) // DUAL_SCALE)
    # every node dual the search itself starts from its root dual's
    # multipliers, on eq(3)'s NEQ(8) and random 12x12 seed 1
    import commlab.bounds as bounds

    calls = []
    dual_weights = bounds._dual_weights

    def recording(cell_boxes, uncovered, banned, need, start, deadline):
        out = dual_weights(cell_boxes, uncovered, banned, need, start, deadline)
        calls.append((uncovered, banned, start, out))
        return out

    monkeypatch.setattr(bounds, "_dual_weights", recording)
    warm_started = 0
    for f in (eq_function(3), random_function(DomainShape((12, 12)), 2, 1)):
        for setup in _color_setups(f, enumerate_maximal_monochromatic(f), math.inf):
            calls.clear()
            _exact_color_cover(setup, math.inf)
            universe = (1 << len(setup.cell_boxes)) - 1
            roots = [out[1] for u, b, start, out in calls if start is None and u == universe and not b]
            for uncovered, banned, start, (node, _) in calls:
                if roots and start is roots[0]:
                    minimum = _node_minimum(setup, uncovered, banned)
                    _assert_feasible_node_dual(setup, uncovered, banned, node, minimum)
                    warm_started += 1
    assert warm_started >= 61  # NEQ(8) alone starts 61 node duals from its root dual


def test_exact_search_meets_the_plain_searchs_covers():
    # every bound of the search is valid, so the dual bound cuts no subtree
    # holding a cover smaller than the incumbent: the search meets the plain
    # search's incumbents in the same order and returns the same witness
    rng = np.random.default_rng(21)
    sample = [
        random_function(DomainShape((side, side)), int(rng.integers(2, 4)), int(rng.integers(1 << 16)))
        for side in rng.integers(6, 11, size=60).tolist()
    ]
    searched = 0
    for f in [*_ladder(), eq_function(2), *sample]:
        catalog = enumerate_maximal_monochromatic(f)
        for setup in _color_setups(f, catalog, math.inf):
            if setup.lower < len(setup.greedy):
                universe = (1 << len(setup.cell_boxes)) - 1
                want = plain_cover_search(setup.masks, setup.cell_boxes, setup.by_size, setup.greedy, universe)
                assert _exact_color_cover(setup, math.inf) == want
                searched += 1
    assert searched >= 100


def test_eq3_search_takes_at_most_200_nodes(monkeypatch):
    # perfbench counts search nodes as calls of _independent_lower_bound;
    # with one dual at the root, the NEQ(8) colour took 2,766 nodes
    import commlab.bounds as bounds

    calls = []
    independent = bounds._independent_lower_bound
    monkeypatch.setattr(
        bounds, "_independent_lower_bound", lambda *args: calls.append(1) or independent(*args)
    )
    assert cover_number(eq_function(3))[0] == 13
    assert len(calls) <= 200


def test_node_duals_start_from_one_root_dual_per_colour(monkeypatch):
    # a node dual that inherits no multipliers starts from the colour's
    # root dual, computed once; before, each started cold (61 on NEQ(8))
    import commlab.bounds as bounds

    cold = []
    dual_weights = bounds._dual_weights
    monkeypatch.setattr(
        bounds, "_dual_weights", lambda *args: cold.append(args[4] is None) or dual_weights(*args)
    )
    ladder = list(_ladder())
    for f in ladder[1:2] + ladder[-6:]:  # eq(3) and the 12x12 cases
        catalog = enumerate_maximal_monochromatic(f)
        searched = sum(s.lower < len(s.greedy) for s in _color_setups(f, catalog, math.inf))
        cold.clear()
        cover_number(f, catalog=catalog)
        assert sum(cold) <= searched
        assert len(cold) > sum(cold)  # nodes started from the root dual
        if f.shape.sizes == (8, 8):  # eq(3): NEQ(8) alone is searched
            assert sum(cold) == searched == 1


def test_timeout_lower_bound_is_raised_by_the_root_dual(monkeypatch):
    # the clock runs out right after colour 0's root dual: that colour's
    # lower bound rises from its setup bound, 8, to the dual's rounded-up
    # weight, 11, its exact cover; colour 1 keeps its setup bound, 8
    import commlab.bounds as bounds

    f = random_function(DomainShape((12, 12)), 2, 2)
    catalog = enumerate_maximal_monochromatic(f)
    setups = _color_setups(f, catalog, math.inf)
    roots = []
    dual_weights = bounds._dual_weights

    def root_then_expire(cell_boxes, uncovered, banned, need, start, deadline):
        out = dual_weights(cell_boxes, uncovered, banned, need, start, deadline)
        if start is None:
            roots.append(-(-sum(out[0]) // DUAL_SCALE))
        return out

    monkeypatch.setattr(bounds, "_dual_weights", root_then_expire)
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(len(roots))))
    with pytest.raises(SolverTimeoutError) as err:
        cover_number(f, catalog=catalog, deadline=0.5)
    assert [s.lower for s in setups] == [8, 8] and roots == [11]
    assert len(_exact_color_cover(setups[0], math.inf)) == 11
    assert err.value.lower == 11 + 8
    assert err.value.lower <= 22  # the cover number


def test_catalog_deadline_bounds_cover():
    f = eq_function(3)  # enough closures to reach a deadline check
    with pytest.raises(SolverTimeoutError) as err:
        enumerate_maximal_monochromatic(f, deadline=time.monotonic() - 1.0)
    # color count below, one strip per (row, color present in the row) above
    assert (err.value.lower, err.value.upper) == (2, 16)


def test_catalog_deadline_is_checked_while_boxes_are_built(monkeypatch):
    # the clock passes the deadline once the 10th of NEQ(8)'s 254 boxes is
    # built; at most the rest of that block may be built after it
    import commlab.bounds as bounds

    built = []

    def counting_box(masks):
        built.append(masks)
        return Box(masks)

    monkeypatch.setattr(bounds, "Box", counting_box)
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(len(built) >= 10)))
    with pytest.raises(SolverTimeoutError):
        enumerate_maximal_monochromatic(eq_function(3), deadline=0.5)
    assert 10 <= len(built) < 254
    assert len(built) - 10 <= bounds.CATALOG_BLOCK


def test_bound_summary_eq4_honours_budget():
    start = time.monotonic()
    summary = bound_summary(eq_function(4), timeout_s=1.0)
    assert time.monotonic() - start < 2.5
    assert summary.cover_bounds is not None
    lower, upper = summary.cover_bounds
    assert summary.fooling_sum <= lower <= 22 <= upper
    assert "internal" not in summary.status
    # 3 s reach the search: the root bounds of NEQ's 65,534 boxes and a cover
    start = time.monotonic()
    summary = bound_summary(eq_function(4), timeout_s=3.0)
    assert time.monotonic() - start < 3.5
    assert summary.cover_bounds is not None
    lower, upper = summary.cover_bounds
    assert 20 <= lower <= 22 <= upper <= 24
    assert "internal" not in summary.status


def test_cover_timeout_returns_bounds():
    f = eq_function(2)  # overlapping color-0 catalog, no partition fast path
    with pytest.raises(SolverTimeoutError) as err:
        cover_number(f, "exact", deadline=time.monotonic())
    assert 1 <= err.value.lower <= err.value.upper


def test_zero_budget_times_out_at_the_first_check():
    # xor(2) needs no search: every color is a partition
    with pytest.raises(SolverTimeoutError):
        cover_number(xor_function(2), "exact", deadline=time.monotonic())


def test_cover_setup_honours_deadline():
    # eq(4) by hand: NEQ's boxes S x complement(S) and the diagonal singletons;
    # setting up NEQ's 65,534 boxes takes about 0.2 s, so a 0.05 s budget ends
    # inside setup, before any search bound exists
    f = eq_function(4)
    full = (1 << 16) - 1
    catalog = MonochromaticCatalog(
        f.shape,
        {0: tuple(Box((s, full ^ s)) for s in range(1, full)), 1: tuple(Box((1 << i, 1 << i)) for i in range(16))},
        partial=False,
    )
    start = time.monotonic()
    with pytest.raises(SolverTimeoutError) as err:
        cover_number(f, "exact", deadline=time.monotonic() + 0.05, catalog=catalog)
    assert time.monotonic() - start < 1.0
    assert (err.value.lower, err.value.upper) == (2, 32)  # color count, row strips


def test_timeout_upper_bound_is_at_most_row_strip_cover():
    # the greedy covers sum to 39 here; one strip per (row, color) needs 32.
    # The search starts after a few ms and solves after about 0.9 s on 2 cores
    f = random_function(DomainShape((16, 16)), 2, 1)
    summary = bound_summary(f, timeout_s=0.25)
    assert summary.cover_bounds is not None
    assert summary.cover_bounds[1] <= 32


def test_random_16x16_is_solved_within_five_seconds():
    f = random_function(DomainShape((16, 16)), 2, 1)
    summary = bound_summary(f, timeout_s=5.0)
    assert summary.cover_exact == len(summary.cover_witness) == 30
    assert thickness_table(Cover(f.shape, summary.cover_witness)).all()
    assert all(monochromatic_color(b, f) is not None for b in summary.cover_witness)
    assert "internal" not in summary.status


def test_fooling_eq2_diagonal():
    f = eq_function(2)
    cells = fooling_set(f, 1, "exact")
    assert len(cells) == 4
    assert sorted(cells) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert is_fooling_set(f.colors.tolist(), 1, cells)


def test_fooling_constant_is_single_cell():
    f = constant_function(DomainShape((3, 3)))
    assert len(fooling_set(f, 0, "exact")) == 1


def test_fooling_xor1_color0():
    f = xor_function(1)
    cells = fooling_set(f, 0, "exact")
    assert sorted(cells) == [(0, 0), (1, 1)]
    assert is_fooling_set(f.colors.tolist(), 0, cells)


def test_fooling_greedy_is_valid_and_maximal_under_extension():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_function(DomainShape((4, 4)), 2, seed=int(rng.integers(1 << 16)))
        for color in range(f.num_colors):
            cells = fooling_set(f, color, "greedy")
            assert is_fooling_set(f.colors.tolist(), color, cells)
            exact = fooling_set(f, color, "exact")
            assert len(exact) >= len(cells)
            assert is_fooling_set(f.colors.tolist(), color, exact)


def test_fooling_exact_cap():
    f = constant_function(DomainShape((9, 9)))  # 81 candidate cells > 64
    with pytest.raises(InvalidInputError):
        fooling_set(f, 0, "exact")
    assert len(fooling_set(f, 0, "greedy")) == 1


def _fooling_family():
    """Random 3x3..10x10 functions with 2-4 colors (seeds 0..24), eq and xor
    of 1..3 bits, and constant functions."""
    for side in range(3, 11):
        for k in (2, 3, 4):
            for seed in range(25):
                yield random_function(DomainShape((side, side)), k, seed)
    for n in (1, 2, 3):
        yield eq_function(n)
        yield xor_function(n)
    for sizes in ((1, 1), (3, 5), (8, 8), (9, 9)):
        yield constant_function(DomainShape(sizes))


def test_fooling_sets_are_the_plain_searches_sets():
    exact_classes = 0
    for f in _fooling_family():
        colors = f.colors.tolist()
        for color in range(f.num_colors):
            assert fooling_set(f, color, "greedy") == greedy_fooling_set(colors, color)
            if int((f.colors == color).sum()) <= 64:
                assert fooling_set(f, color, "exact") == first_maximum_fooling_set(colors, color)
                exact_classes += 1
    assert exact_classes >= 1812


def test_greedy_fooling_set_on_a_large_grid_is_the_plain_greedys():
    f = random_function(DomainShape((128, 128)), 2, 1)
    colors = f.colors.tolist()
    for color in range(2):
        cells = fooling_set(f, color, "greedy")
        assert cells == greedy_fooling_set(colors, color)
        assert is_fooling_set(colors, color, cells)


def test_fooling_sizes_of_the_bounds_ladder():
    # the 12x12 colors have over 64 cells each, so their sets are greedy
    assert fooling_sizes(xor_function(4)) == {c: 16 for c in range(16)}
    assert fooling_sizes(eq_function(3)) == {0: 3, 1: 8}
    for side, k, per_seed in (
        (9, 2, [(7, 7), (7, 7), (7, 8), (7, 7)]),
        (10, 3, [(8, 9, 9), (9, 9, 9)]),
        (12, 2, [(5, 8), (6, 7), (7, 7), (8, 7), (7, 9), (6, 6)]),
    ):
        for seed, want in enumerate(per_seed, 1):
            f = random_function(DomainShape((side, side)), k, seed)
            assert fooling_sizes(f) == dict(enumerate(want)), (side, k, seed)


def test_rank_eq2_identity():
    f = eq_function(2)
    assert comm_matrix_rank(f, "rational", color=1) == 4
    assert comm_matrix_rank(f, "gf2", color=1) == 4


def test_rank_xor1():
    f = xor_function(1)  # color 1's indicator is f itself
    assert comm_matrix_rank(f, "gf2", color=1) == 2
    assert comm_matrix_rank(f, "rational", color=1) == 2


def test_rank_all_ones():
    f = constant_function(DomainShape((3, 4)))
    assert comm_matrix_rank(f, "rational", color=0) == 1


def test_rank_rejects_a_color_not_present():
    f = xor_function(2)  # colors 0..3
    with pytest.raises(InvalidInputError, match="color 4 not present"):
        comm_matrix_rank(f, "gf2", color=4)


def test_rational_rank_checks_the_deadline_at_every_pivot_column(monkeypatch):
    import commlab.bounds as bounds

    ticks = iter(range(1000))  # each clock read is one second later
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    with pytest.raises(SolverTimeoutError) as err:
        rational_rank(np.eye(6, dtype=np.int64), deadline=3.0)
    assert (err.value.lower, err.value.upper) == (3, 6)  # columns 0-2 done


def test_bound_summary_leaves_out_a_rank_the_budget_cut(monkeypatch):
    # eq(3): bound_summary reads the clock once, then each color's GF(2)
    # rank once, then each color's rational rank once before its matrix and
    # once per pivot column, 8 each; a 12 s budget on a clock that reads one
    # second later each time cuts color 1 before its matrix is built
    import commlab.bounds as bounds

    ticks = iter(range(1000))
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    summary = bound_summary(eq_function(3), timeout_s=12.0)
    assert summary.rank_rational == {0: 8}
    assert summary.rank_rational_max is None  # not 8, the maximum over the rest
    assert summary.rank_gf2 == {0: 8, 1: 8}
    assert summary.cover_bounds is not None


def test_bound_summary_builds_no_rational_matrix_past_the_deadline(monkeypatch):
    # the clock of the test above: color 0's rational rank finishes at 11 s,
    # and color 1's is cut at 12 s before its indicator matrix is built
    import commlab.bounds as bounds

    built = []
    indicator_matrix = bounds._indicator_matrix
    monkeypatch.setattr(
        bounds, "_indicator_matrix", lambda f, c: built.append(c) or indicator_matrix(f, c)
    )
    ticks = iter(range(1000))
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    summary = bound_summary(eq_function(3), timeout_s=12.0)
    assert built == [0, 1, 0]  # GF(2) colors 0 and 1, then rational color 0 only
    assert summary.rank_rational == {0: 8}
    with pytest.raises(SolverTimeoutError):
        comm_matrix_rank(eq_function(3), "rational", 1, deadline=0.5)
    assert built == [0, 1, 0]


def test_bound_summary_checks_the_deadline_before_each_gf2_rank(monkeypatch):
    # xor(2), 4 colors: bound_summary reads the clock once, then once before
    # each color's GF(2) rank; a 2.5 s budget on a clock that reads one
    # second later each time cuts color 2 before its matrix is built, and
    # the rational rank of color 0 before its own
    import commlab.bounds as bounds

    built = []
    indicator_matrix = bounds._indicator_matrix
    monkeypatch.setattr(
        bounds, "_indicator_matrix", lambda f, c: built.append(c) or indicator_matrix(f, c)
    )
    ticks = iter(range(1000))
    monkeypatch.setattr(bounds, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    summary = bound_summary(xor_function(2), timeout_s=2.5)
    assert built == [0, 1]
    assert summary.rank_gf2 == {0: 4, 1: 4}
    assert summary.rank_gf2_max is None  # not 4, the maximum over the rest
    assert summary.rank_rational == {}
    assert summary.cover_bounds is not None
    with pytest.raises(SolverTimeoutError):
        comm_matrix_rank(xor_function(2), "gf2", 0, deadline=0.5)


def test_rank_oracles_match_numpy_on_random_01_matrices():
    rng = np.random.default_rng(14)
    for _ in range(30):
        m = rng.integers(0, 2, size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        assert rational_rank(m) == np.linalg.matrix_rank(m.astype(float))
        # GF(2) rank via brute-force row space size
        span = {0}
        packed = []
        for row in m:
            acc = 0
            for j, v in enumerate(row):
                acc |= int(v) << j
            packed.append(acc)
        for r in packed:
            span |= {s ^ r for s in span}
        assert gf2_rank(m) == int(np.log2(len(span)))


def test_bound_summary_xor2():
    summary = bound_summary(xor_function(2))
    assert summary.color_count == 4
    assert summary.cover_exact == 16
    assert summary.fooling[0] == 4
    assert summary.rank_gf2_max >= 1
    assert summary.rank_rational_max >= 1
    assert "internal" not in summary.status


def test_bound_summary_constant():
    summary = bound_summary(constant_function(DomainShape((2, 2))))
    assert summary.cover_exact == 1
    assert summary.cover_greedy == 1
    assert summary.color_count == 1
    assert summary.fooling_best == 1


def test_bound_summary_eq2_identity_structure():
    summary = bound_summary(eq_function(2))
    assert summary.rank_rational[1] == 4
    assert summary.fooling[1] == 4
    # four color-1 boxes appear in any minimal cover; check the witness
    witness_colors = [monochromatic_color(b, eq_function(2)) for b in summary.cover_witness]
    assert witness_colors.count(1) == 4
    assert "internal" not in summary.status


def test_bound_summary_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_function(DomainShape((4, 4)), 3, seed=int(rng.integers(1 << 16)))
        s = bound_summary(f)
        assert s.color_count <= s.cover_greedy
        assert s.cover_exact <= s.cover_greedy
        assert s.fooling_best <= s.fooling_sum <= s.cover_exact
        assert "internal" not in s.status


# xor(1) is 2x2 with colour 0 on the diagonal; one singleton box per cell
_XOR1_BOX = {cell: Box((1 << cell[0], 1 << cell[1])) for cell in ((0, 0), (0, 1), (1, 0), (1, 1))}
_XOR1_COVER = tuple(_XOR1_BOX.values())  # two boxes of each colour


@pytest.mark.parametrize(
    "fooling, solved, problem",
    [
        ({0: 2, 1: 2}, (1, None, None, None), "color_count > cover_greedy"),
        ({0: 2, 1: 2}, (None, None, None, (5, 3)), "cover lower bound > upper bound"),
        ({0: 2, 1: 2}, (3, 4, _XOR1_COVER, None), "cover_exact > cover_greedy"),
        ({0: 1, 1: 0}, (4, 1, (_XOR1_BOX[0, 0],), None), "color_count > cover_exact"),
        ({0: 2, 1: 2}, (4, 3, _XOR1_COVER, None), "fooling_sum > cover_exact"),
        (
            {0: 2, 1: 2},
            (4, 4, (_XOR1_BOX[0, 0], _XOR1_BOX[1, 1], _XOR1_BOX[0, 0], _XOR1_BOX[0, 1]), None),
            "fooling[1] exceeds witness boxes of that color",
        ),
    ],
)
def test_bound_summary_consistency_checks_can_fail(fooling, solved, problem, monkeypatch):
    # each set of solver results breaks exactly one relation between the bounds
    import commlab.bounds as bounds

    monkeypatch.setattr(bounds, "fooling_sizes", lambda f: dict(fooling))
    monkeypatch.setattr(bounds, "solve_cover", lambda *args: solved)
    summary = bound_summary(xor_function(1))
    assert summary.status == {"internal": f"internal-error: {problem}"}
