"""Catalog enumeration, exact/greedy cover, fooling sets, ranks, summary."""

import math
import time

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
    validate_cover,
    xor_function,
)
from commlab.bounds import (
    DUAL_SCALE,
    MonochromaticCatalog,
    _color_setups,
    _dual_weights,
    fooling_set,
    gf2_rank,
    is_fooling_set,
    rational_rank,
)
from commlab.core import Box, Cover, indices_from_mask

from naive import brute_force_cover_number, brute_maximal_monochromatic


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
            assert b.num_cells == 1


def test_catalog_eq2_color1_diagonal_singletons():
    f = eq_function(2)
    catalog = enumerate_maximal_monochromatic(f)
    ones = catalog.boxes_by_color[1]
    assert len(ones) == 4
    assert all(b.num_cells == 1 for b in ones)
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


def test_cover_number_constant():
    f = constant_function(DomainShape((3, 3)))
    count, witness = cover_number(f)
    assert count == 1 and len(witness) == 1


def test_cover_number_xor():
    for n, expected in ((1, 4), (2, 16)):
        f = xor_function(n)
        count, witness = cover_number(f)
        assert count == expected
        cover = Cover(f.shape, witness)
        report = validate_cover(cover)
        assert report.covers_domain
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
        assert validate_cover(Cover(f.shape, witness)).covers_domain


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
        boxes = [b.factors() for _, b in catalog.all_boxes()]
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
        boxes = [b.factors() for _, b in catalog.all_boxes()]
        assert exact == brute_force_cover_number(side, side, boxes)
        assert len(witness) == exact
        assert all(monochromatic_color(b, f) is not None for b in witness)
        assert validate_cover(Cover(f.shape, witness)).covers_domain
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
        assert validate_cover(Cover(f.shape, witness)).covers_domain


def test_dual_weights_are_a_feasible_dual():
    for seed in (1, 2, 3):
        f = random_function(DomainShape((12, 12)), 2, seed)
        catalog = enumerate_maximal_monochromatic(f)
        _, witness = cover_number(f, catalog=catalog)
        for color, setup in enumerate(_color_setups(f, catalog, math.inf)):
            n_cells = len(setup.cell_boxes)
            weights = _dual_weights(setup.cell_boxes, len(setup.masks), len(setup.greedy), math.inf)
            assert len(weights) == n_cells and min(weights) >= 0
            for m in setup.masks:
                assert sum(weights[c] for c in indices_from_mask(m)) <= DUAL_SCALE
            bound = -(-sum(weights) // DUAL_SCALE)
            # LP optimum is about 10 on these colours; the start point, one
            # over the largest box through each cell, is about 5
            assert 10 <= bound <= sum(monochromatic_color(b, f) == color for b in witness)


def test_catalog_deadline_bounds_cover():
    f = eq_function(3)  # enough closures to reach a deadline check
    with pytest.raises(SolverTimeoutError) as err:
        enumerate_maximal_monochromatic(f, deadline=time.monotonic() - 1.0)
    # color count below, one strip per (row, color present in the row) above
    assert (err.value.lower, err.value.upper) == (2, 16)


def test_bound_summary_eq4_honours_budget():
    start = time.monotonic()
    summary = bound_summary(eq_function(4), timeout_s=1.0)
    assert time.monotonic() - start < 2.5
    assert summary.status["cover_exact"] == "timeout"
    lower, upper = summary.cover_bounds
    assert summary.fooling_sum <= lower <= 22 <= upper
    assert "internal" not in summary.status


def test_cover_timeout_returns_bounds():
    f = eq_function(2)  # overlapping color-0 catalog, no partition fast path
    with pytest.raises(SolverTimeoutError) as err:
        cover_number(f, "exact", timeout_s=0.0)
    assert 1 <= err.value.lower <= err.value.upper


def test_zero_budget_times_out_at_the_first_check():
    # xor(2) needs no search: every color is a partition
    with pytest.raises(SolverTimeoutError):
        cover_number(xor_function(2), "exact", timeout_s=0)


def test_cover_setup_honours_deadline():
    # eq(4) by hand: NEQ's boxes S x complement(S) and the diagonal singletons;
    # setting up NEQ's 65,534 boxes takes several seconds
    f = eq_function(4)
    full = (1 << 16) - 1
    catalog = MonochromaticCatalog(
        f.shape,
        {0: tuple(Box((s, full ^ s)) for s in range(1, full)), 1: tuple(Box((1 << i, 1 << i)) for i in range(16))},
        partial=False,
    )
    start = time.monotonic()
    with pytest.raises(SolverTimeoutError) as err:
        cover_number(f, "exact", timeout_s=0.5, catalog=catalog)
    assert time.monotonic() - start < 1.0
    assert (err.value.lower, err.value.upper) == (2, 32)  # color count, row strips


def test_timeout_upper_bound_is_at_most_row_strip_cover():
    # the greedy covers sum to 35 here; one strip per (row, color) needs 32
    f = random_function(DomainShape((16, 16)), 2, 1)
    summary = bound_summary(f, timeout_s=0.5)
    assert summary.status["cover_exact"] == "timeout"
    assert summary.cover_bounds[1] <= 32


def test_fooling_eq2_diagonal():
    f = eq_function(2)
    cells = fooling_set(f, 1, "exact")
    assert len(cells) == 4
    assert sorted(cells) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert is_fooling_set(f, 1, cells)


def test_fooling_constant_is_single_cell():
    f = constant_function(DomainShape((3, 3)))
    assert len(fooling_set(f, 0, "exact")) == 1


def test_fooling_xor1_color0():
    f = xor_function(1)
    cells = fooling_set(f, 0, "exact")
    assert sorted(cells) == [(0, 0), (1, 1)]
    assert is_fooling_set(f, 0, cells)


def test_fooling_greedy_is_valid_and_maximal_under_extension():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_function(DomainShape((4, 4)), 2, seed=int(rng.integers(1 << 16)))
        for color in range(f.num_colors):
            cells = fooling_set(f, color, "greedy")
            assert is_fooling_set(f, color, cells)
            exact = fooling_set(f, color, "exact")
            assert len(exact) >= len(cells)
            assert is_fooling_set(f, color, exact)


def test_fooling_exact_cap():
    f = constant_function(DomainShape((9, 9)))  # 81 candidate cells > 64
    with pytest.raises(InvalidInputError):
        fooling_set(f, 0, "exact")
    assert len(fooling_set(f, 0, "greedy")) == 1


def test_rank_eq2_identity():
    f = eq_function(2)
    assert comm_matrix_rank(f, "rational", color=1) == 4
    assert comm_matrix_rank(f, "gf2", color=1) == 4


def test_rank_xor1():
    f = xor_function(1)
    assert comm_matrix_rank(f, "gf2") == 2
    assert comm_matrix_rank(f, "rational") == 2


def test_rank_all_ones():
    f = constant_function(DomainShape((3, 4)))
    assert comm_matrix_rank(f, "rational", color=0) == 1


def test_rank_rejects_nonboolean_without_color():
    f = xor_function(2)  # 4 colors
    with pytest.raises(InvalidInputError):
        comm_matrix_rank(f, "gf2")


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
