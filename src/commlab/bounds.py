"""Classical lower/upper bound machinery: exact minimum monochromatic cover,
fooling sets, communication-matrix rank, and color counting.

Cell sets and index sets are int bitmasks throughout; the exact searches are
deterministic (fixed tie-breaking) so repeated runs agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import Box, DomainShape, indices_from_mask
from .errors import InvalidInputError, SolverTimeoutError
from .functions import ColoredFunction, monochromatic_color

ENUMERATION_CELL_CAP = 1 << 16
DEFAULT_CATALOG_CAP = 10**6
EXACT_FOOLING_CAP = 64


@dataclass
class MonochromaticCatalog:
    """Per color: the complete list of maximal monochromatic boxes."""

    shape: DomainShape
    boxes_by_color: dict[int, tuple[Box, ...]]
    partial: bool

    def all_boxes(self) -> list[tuple[int, Box]]:
        out = []
        for color in sorted(self.boxes_by_color):
            for b in self.boxes_by_color[color]:
                out.append((color, b))
        return out

    @property
    def num_boxes(self) -> int:
        return sum(len(v) for v in self.boxes_by_color.values())


def _require_two_party(f: ColoredFunction) -> None:
    if f.shape.arity != 2:
        raise InvalidInputError("bound machinery works on two-party functions")


def _closure(col_sets: list[int], rows_of_color: int, t_mask: int) -> tuple[int, int]:
    """Galois closure of a column set: all rows containing it, then the common
    columns of those rows."""
    s_mask = 0
    for x in indices_from_mask(rows_of_color):
        if col_sets[x] & t_mask == t_mask:
            s_mask |= 1 << x
    t_closed = None
    for x in indices_from_mask(s_mask):
        t_closed = col_sets[x] if t_closed is None else t_closed & col_sets[x]
    return s_mask, t_closed if t_closed is not None else 0


def enumerate_maximal_monochromatic(
    f: ColoredFunction, cap: int = DEFAULT_CATALOG_CAP
) -> MonochromaticCatalog:
    """All maximal monochromatic boxes (maximal bicliques of each color's
    bipartite cell graph), via consensus expansion: seed with per-vertex star
    closures, then close pairwise column intersections until fixpoint."""
    _require_two_party(f)
    if f.shape.num_cells > ENUMERATION_CELL_CAP:
        raise InvalidInputError(
            f"domain has {f.shape.num_cells} cells, enumeration cap is {ENUMERATION_CELL_CAP}"
        )
    n_rows, n_cols = f.shape.sizes
    colors = f.colors
    by_color: dict[int, tuple[Box, ...]] = {}
    partial = False
    total = 0
    for color in range(f.num_colors):
        onset = colors == color
        col_sets = [0] * n_rows  # columns of this color per row
        row_sets = [0] * n_cols
        for x in range(n_rows):
            mask = 0
            for y in np.flatnonzero(onset[x]):
                mask |= 1 << int(y)
            col_sets[x] = mask
        for y in range(n_cols):
            mask = 0
            for x in np.flatnonzero(onset[:, y]):
                mask |= 1 << int(x)
            row_sets[y] = mask
        rows_of_color = 0
        for x in range(n_rows):
            if col_sets[x]:
                rows_of_color |= 1 << x

        found: dict[tuple[int, int], None] = {}
        queue: list[int] = []  # candidate column sets to close

        def push(t_mask: int):
            if t_mask == 0:
                return
            s_mask, t_closed = _closure(col_sets, rows_of_color, t_mask)
            if s_mask == 0 or t_closed == 0:
                return
            key = (s_mask, t_closed)
            if key not in found:
                found[key] = None
                queue.append(t_closed)

        for x in indices_from_mask(rows_of_color):
            push(col_sets[x])
        for y in range(n_cols):
            if row_sets[y]:
                push(1 << y)

        # consensus: intersect every pair of closed column sets
        i = 0
        closed_list = list(queue)
        while i < len(closed_list):
            t1 = closed_list[i]
            before = len(found)
            for j in range(i):
                push(t1 & closed_list[j])
            if len(found) > before:
                closed_list = list(queue)
            i += 1
            if len(found) + total > cap:
                partial = True
                break

        boxes = tuple(
            Box((s, t)) for s, t in sorted(found.keys())
        )
        by_color[color] = boxes
        total += len(boxes)
        if partial:
            break
    return MonochromaticCatalog(shape=f.shape, boxes_by_color=by_color, partial=partial)


# ---------------------------------------------------------------------------
# Set cover over the catalog


def _cell_mask(b: Box, shape: DomainShape) -> int:
    mask = 0
    for i in np.flatnonzero(b.indicator(shape)):
        mask |= 1 << int(i)
    return mask


def _greedy_cover(universe: int, masks: list[int]) -> list[int]:
    chosen: list[int] = []
    uncovered = universe
    while uncovered:
        best = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = i
        if best < 0:
            raise InvalidInputError("catalog does not cover the domain")
        chosen.append(best)
        uncovered &= ~masks[best]
    return chosen


def _independent_lower_bound(uncovered: int, cell_boxes: list[int]) -> int:
    """Greedy set of uncovered cells whose candidate-box sets are pairwise
    disjoint; each needs its own box."""
    taken_boxes = 0
    count = 0
    m = uncovered
    while m:
        low = m & -m
        cell = low.bit_length() - 1
        m ^= low
        if cell_boxes[cell] & taken_boxes == 0:
            taken_boxes |= cell_boxes[cell]
            count += 1
    return count


def cover_number(
    f: ColoredFunction,
    mode: str = "exact",
    timeout_s: float = 60.0,
    catalog: MonochromaticCatalog | None = None,
) -> tuple[int, tuple[Box, ...]]:
    """Minimum (exact) or greedy number of monochromatic boxes covering the
    domain, with the witness cover. Exact search is branch-and-bound over the
    maximal-box catalog; on timeout it raises SolverTimeoutError carrying the
    best (lower, upper) bounds."""
    _require_two_party(f)
    if catalog is None:
        catalog = enumerate_maximal_monochromatic(f)
    if catalog.partial:
        raise InvalidInputError("catalog is partial; raise the cap first")
    entries = catalog.all_boxes()
    boxes = [b for _, b in entries]
    if not boxes:
        raise InvalidInputError("empty catalog")
    shape = f.shape
    masks = [_cell_mask(b, shape) for b in boxes]
    universe = (1 << shape.num_cells) - 1

    greedy_idx = _greedy_cover(universe, masks)
    if mode == "greedy":
        return len(greedy_idx), tuple(boxes[i] for i in greedy_idx)
    if mode != "exact":
        raise InvalidInputError(f"unknown cover mode {mode!r}")

    n_cells = shape.num_cells
    cell_boxes = [0] * n_cells
    cell_candidates: list[list[int]] = [[] for _ in range(n_cells)]
    for i, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            cell = low.bit_length() - 1
            mm ^= low
            cell_boxes[cell] |= 1 << i
            cell_candidates[cell].append(i)

    # partitions admit exactly one cover: every box is forced
    if all(len(c) == 1 for c in cell_candidates):
        forced = sorted({c[0] for c in cell_candidates})
        return len(forced), tuple(boxes[i] for i in forced)

    max_box_size = max(m.bit_count() for m in masks)
    deadline = time.monotonic() + timeout_s
    best_len = len(greedy_idx)
    best_sol = list(greedy_idx)
    root_lb = max(
        -(-universe.bit_count() // max_box_size),
        _independent_lower_bound(universe, cell_boxes),
    )
    nodes = 0

    def search(uncovered: int, chosen: list[int]):
        nonlocal best_len, best_sol, nodes
        nodes += 1
        if nodes % 256 == 0 and time.monotonic() > deadline:
            raise SolverTimeoutError(
                f"exact cover search timed out after {timeout_s}s",
                lower=max(root_lb, 1),
                upper=best_len,
            )
        if uncovered == 0:
            if len(chosen) < best_len:
                best_len = len(chosen)
                best_sol = list(chosen)
            return
        lb = max(
            -(-uncovered.bit_count() // max_box_size),
            _independent_lower_bound(uncovered, cell_boxes),
        )
        if len(chosen) + lb >= best_len:
            return
        # branch on the uncovered cell with the fewest candidates
        pick = -1
        pick_count = None
        m = uncovered
        while m:
            low = m & -m
            cell = low.bit_length() - 1
            m ^= low
            c = len(cell_candidates[cell])
            if pick_count is None or c < pick_count:
                pick, pick_count = cell, c
                if c == 1:
                    break
        for i in cell_candidates[pick]:
            chosen.append(i)
            search(uncovered & ~masks[i], chosen)
            chosen.pop()

    if timeout_s <= 0:
        raise SolverTimeoutError(
            "exact cover search given no budget", lower=max(root_lb, 1), upper=best_len
        )
    search(universe, [])
    return best_len, tuple(boxes[i] for i in sorted(best_sol))


# ---------------------------------------------------------------------------
# Fooling sets


def _fooling_graph(f: ColoredFunction, color: int) -> tuple[list, np.ndarray]:
    cells = [tuple(int(v) for v in c) for c in np.argwhere(f.colors == color)]
    n = len(cells)
    adj = np.zeros((n, n), dtype=bool)
    colors = f.colors
    for i in range(n):
        x1, y1 = cells[i]
        for j in range(i + 1, n):
            x2, y2 = cells[j]
            if colors[x1, y2] != color or colors[x2, y1] != color:
                adj[i, j] = adj[j, i] = True
    return cells, adj


def fooling_set(
    f: ColoredFunction, color: int, mode: str = "exact"
) -> tuple[tuple[int, int], ...]:
    """A set of color-cells such that every crossed pair leaves the color.
    Exact mode finds a maximum such set (clique search on the fooling graph,
    capped at 64 candidate cells); greedy extends in row-major cell order."""
    _require_two_party(f)
    if not 0 <= color < f.num_colors:
        raise InvalidInputError(f"color {color} not present")
    cells, adj = _fooling_graph(f, color)
    n = len(cells)
    if mode == "greedy":
        chosen: list[int] = []
        for i in range(n):
            if all(adj[i, j] for j in chosen):
                chosen.append(i)
        return tuple(cells[i] for i in chosen)
    if mode != "exact":
        raise InvalidInputError(f"unknown fooling mode {mode!r}")
    if n > EXACT_FOOLING_CAP:
        raise InvalidInputError(
            f"{n} candidate cells exceed the exact cap {EXACT_FOOLING_CAP}; use greedy"
        )
    neighbor = [0] * n
    for i in range(n):
        for j in range(n):
            if adj[i, j]:
                neighbor[i] |= 1 << j
    best: list[int] = []

    def expand(current: list[int], allowed: int):
        nonlocal best
        if not allowed:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + allowed.bit_count() <= len(best):
            return
        m = allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            current.append(v)
            expand(current, allowed & neighbor[v] & ~((1 << (v + 1)) - 1))
            current.pop()
            if len(current) + m.bit_count() <= len(best):
                return

    expand([], (1 << n) - 1)
    if not best and n:
        best = [0]
    return tuple(cells[i] for i in best)


def is_fooling_set(f: ColoredFunction, color: int, cells) -> bool:
    colors = f.colors
    cells = list(cells)
    for x, y in cells:
        if colors[x, y] != color:
            return False
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            x1, y1 = cells[i]
            x2, y2 = cells[j]
            if colors[x1, y2] == color and colors[x2, y1] == color:
                return False
    return True


# ---------------------------------------------------------------------------
# Matrix rank


def _indicator_matrix(f: ColoredFunction, color: int | None) -> np.ndarray:
    if color is not None:
        if not 0 <= color < f.num_colors:
            raise InvalidInputError(f"color {color} not present")
        return (f.colors == color).astype(np.int64)
    if f.num_colors > 2:
        raise InvalidInputError("rank without a color needs a 0/1-valued function")
    return f.colors.astype(np.int64)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2); rows packed into ints."""
    n_rows, n_cols = matrix.shape
    rows = []
    for r in range(n_rows):
        acc = 0
        for c in range(n_cols):
            if matrix[r, c] & 1:
                acc |= 1 << c
        rows.append(acc)
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if (rows[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and ((rows[r] >> col) & 1):
                rows[r] ^= rows[pivot_row]
        rank += 1
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rank


def rational_rank(matrix: np.ndarray) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination
    on Python ints; no floating point anywhere."""
    work = [[int(v) for v in row] for row in matrix]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, n_rows):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        p = work[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            for c in range(col + 1, n_cols):
                work[r][c] = (work[r][c] * p - work[r][col] * work[pivot_row][c]) // prev_pivot
            work[r][col] = 0
        prev_pivot = p
        rank += 1
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return rank


def comm_matrix_rank(
    f: ColoredFunction, field_name: str = "gf2", color: int | None = None
) -> int:
    """Rank of the color-indicator matrix (or of a 0/1-valued f itself)."""
    _require_two_party(f)
    matrix = _indicator_matrix(f, color)
    if field_name == "gf2":
        return gf2_rank(matrix)
    if field_name == "rational":
        return rational_rank(matrix)
    raise InvalidInputError(f"unknown field {field_name!r}")


# ---------------------------------------------------------------------------
# Summary


@dataclass
class BoundSummary:
    color_count: int
    cover_exact: int | None
    cover_witness: tuple[Box, ...] | None
    cover_bounds: tuple[int, int] | None  # (lower, upper) when timed out
    cover_greedy: int
    fooling: dict[int, int] = field(default_factory=dict)
    fooling_mode: dict[int, str] = field(default_factory=dict)
    rank_gf2: dict[int, int] = field(default_factory=dict)
    rank_rational: dict[int, int] = field(default_factory=dict)
    status: dict[str, str] = field(default_factory=dict)

    @property
    def fooling_best(self) -> int:
        return max(self.fooling.values()) if self.fooling else 0

    @property
    def rank_gf2_max(self) -> int:
        return max(self.rank_gf2.values()) if self.rank_gf2 else 0

    @property
    def rank_rational_max(self) -> int:
        return max(self.rank_rational.values()) if self.rank_rational else 0


def bound_summary(f: ColoredFunction, timeout_s: float = 60.0) -> BoundSummary:
    """Run every bound within the budget and cross-check the internal
    consistency relations; a broken relation flags an internal error."""
    _require_two_party(f)
    catalog = enumerate_maximal_monochromatic(f)
    status: dict[str, str] = {}
    greedy_count, _ = cover_number(f, mode="greedy", catalog=catalog)
    exact = None
    witness = None
    bounds_pair = None
    try:
        exact, witness = cover_number(f, mode="exact", timeout_s=timeout_s, catalog=catalog)
        status["cover_exact"] = "ok"
    except SolverTimeoutError as exc:
        bounds_pair = (exc.lower, exc.upper)
        status["cover_exact"] = "timeout"
    fooling: dict[int, int] = {}
    fooling_mode: dict[int, str] = {}
    rank_gf2_by: dict[int, int] = {}
    rank_rat: dict[int, int] = {}
    for color in range(f.num_colors):
        n_cells_color = int((f.colors == color).sum())
        if n_cells_color <= EXACT_FOOLING_CAP:
            fooling[color] = len(fooling_set(f, color, "exact"))
            fooling_mode[color] = "exact"
        else:
            fooling[color] = len(fooling_set(f, color, "greedy"))
            fooling_mode[color] = "greedy"
        rank_gf2_by[color] = comm_matrix_rank(f, "gf2", color)
        rank_rat[color] = comm_matrix_rank(f, "rational", color)
    summary = BoundSummary(
        color_count=f.num_colors,
        cover_exact=exact,
        cover_witness=witness,
        cover_bounds=bounds_pair,
        cover_greedy=greedy_count,
        fooling=fooling,
        fooling_mode=fooling_mode,
        rank_gf2=rank_gf2_by,
        rank_rational=rank_rat,
        status=status,
    )
    problems = []
    if summary.color_count > summary.cover_greedy:
        problems.append("color_count > cover_greedy")
    if exact is not None:
        if exact > greedy_count:
            problems.append("cover_exact > cover_greedy")
        if summary.color_count > exact:
            problems.append("color_count > cover_exact")
        if summary.fooling_best > exact:
            problems.append("fooling_best > cover_exact")
        if witness is not None:
            witness_colors = [monochromatic_color(b, f) for b in witness]
            for color, size in fooling.items():
                if fooling_mode[color] == "exact":
                    have = sum(1 for c in witness_colors if c == color)
                    if size > have:
                        problems.append(f"fooling[{color}] exceeds witness boxes of that color")
    if problems:
        status["internal"] = "internal-error: " + "; ".join(problems)
    return summary
