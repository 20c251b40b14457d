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
DEADLINE_CHECK_EVERY = 256  # candidate column sets or search nodes between deadline checks
DUAL_SCALE = 1 << 20  # dual weights are integers in units of 1 / DUAL_SCALE
DUAL_ROUNDS = 60  # subgradient steps behind one color's dual weights
DUAL_AFTER_NODES = 32  # search nodes of a color before it computes dual weights


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


def _row_strip_cover_size(f: ColoredFunction) -> int:
    """Boxes in the row-strip cover: one per (row, color present in the row).
    Each strip is monochromatic, so this bounds the cover number from above
    without a catalog."""
    return sum(len(set(row)) for row in f.colors.tolist())


def enumerate_maximal_monochromatic(
    f: ColoredFunction, cap: int = DEFAULT_CATALOG_CAP, deadline: float | None = None
) -> MonochromaticCatalog:
    """All maximal monochromatic boxes (maximal bicliques of each color's
    bipartite cell graph), via consensus expansion: seed with per-vertex star
    closures, then close pairwise column intersections until fixpoint.

    A column set is closed once; intersections that repeat one are skipped.
    `deadline` is a time.monotonic() value, checked every
    DEADLINE_CHECK_EVERY candidate column sets; past it the enumeration raises
    SolverTimeoutError with the color count and the row-strip cover size as
    (lower, upper)."""
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
    pushed = 0
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
        tried: set[int] = set()  # column sets already closed

        def push(t_mask: int):
            nonlocal pushed
            pushed += 1
            if (
                deadline is not None
                and pushed % DEADLINE_CHECK_EVERY == 0
                and time.monotonic() > deadline
            ):
                raise SolverTimeoutError(
                    "maximal-box enumeration ran out of budget",
                    lower=f.num_colors,
                    upper=_row_strip_cover_size(f),
                )
            if t_mask == 0 or t_mask in tried:
                return
            tried.add(t_mask)
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


def _cell_mask(b: Box, n_cols: int) -> int:
    """Row-major cell bitmask of a two-party box."""
    rows, cols = b.masks
    mask = 0
    for x in indices_from_mask(rows):
        mask |= cols << (x * n_cols)
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


def _color_cells(cells: int, masks: list[int]) -> tuple[list[int], list[int]]:
    """One color's boxes over that color's cells only, renumbered so that
    cells in fewer boxes come first (ties: row-major order). Returns the
    renumbered box masks and, per renumbered cell, the mask of the boxes
    that contain it."""
    boxes_of = dict.fromkeys(indices_from_mask(cells), 0)
    for i, m in enumerate(masks):
        for cell in indices_from_mask(m):
            boxes_of[cell] |= 1 << i
    order = sorted(boxes_of, key=lambda cell: (boxes_of[cell].bit_count(), cell))
    position = {cell: k for k, cell in enumerate(order)}
    local = []
    for m in masks:
        lm = 0
        for cell in indices_from_mask(m):
            lm |= 1 << position[cell]
        local.append(lm)
    return local, [boxes_of[cell] for cell in order]


def _independent_lower_bound(uncovered: int, cell_boxes: list[int], banned: int = 0) -> int:
    """Greedy set of uncovered cells, lowest index first, whose candidate
    boxes outside `banned` are pairwise disjoint; each needs its own box."""
    taken = 0
    count = 0
    m = uncovered
    while m:
        low = m & -m
        live = cell_boxes[low.bit_length() - 1] & ~banned
        m ^= low
        if not live & taken:
            taken |= live
            count += 1
    return count


def _root_lower_bound(cells: int, masks: list[int], cell_boxes: list[int]) -> int:
    """Boxes needed to cover one color's `cells`: the gain bound (no box
    covers more than the largest box ∩ cells) or the independent-cell bound.
    The search tests the same two bounds against its incumbent."""
    max_gain = max((m & cells).bit_count() for m in masks)
    return max(-(-cells.bit_count() // max_gain), _independent_lower_bound(cells, cell_boxes))


def _dual_weights(n_cells: int, masks: list[int], upper: int) -> list[int]:
    """Integer weights on cells 0..n_cells-1, in units of 1 / DUAL_SCALE,
    whose sum over the cells of any box is at most DUAL_SCALE. They are a
    feasible dual of the covering LP, so the weight of a set of cells,
    rounded up to whole units, lower-bounds the boxes that cover it, also
    after boxes are banned or cells covered.

    Subgradient steps on the Lagrangian of the covering LP, aimed at the
    incumbent cover size `upper`, move the multipliers; each step's
    multipliers, divided per cell by the heaviest box through it, are a
    feasible dual, and the heaviest of those is kept."""
    n_bytes = (n_cells + 7) >> 3
    bits = [
        np.unpackbits(np.frombuffer(m.to_bytes(n_bytes, "little"), dtype=np.uint8), bitorder="little")
        for m in masks
    ]
    a = np.stack(bits, axis=1)[:n_cells].astype(np.float64)  # cells x boxes incidence
    lam = 1.0 / (a * a.sum(axis=0)).max(axis=1)  # 1 / largest box through the cell
    best, best_sum = lam, 0.0
    step = 2.0
    for _ in range(DUAL_ROUNDS):
        load = lam @ a  # per box: multiplier sum over its cells
        y = lam / np.maximum((a * load).max(axis=1), 1.0)
        if y.sum() > best_sum:
            best, best_sum = y, float(y.sum())
        take = load > 1.0  # boxes with negative reduced cost
        lagrangian = lam.sum() + (1.0 - load[take]).sum()
        g = 1.0 - a @ take  # subgradient: 1 - times each cell is covered
        norm = float(g @ g)
        if norm == 0.0:
            break
        lam = np.maximum(lam + step * (upper - lagrangian) / norm * g, 0.0)
        step *= 0.95
    weights = np.floor(best * DUAL_SCALE).astype(np.int64)
    if (weights @ a.astype(np.int64)).max() > DUAL_SCALE:  # float rounding; not seen
        return [0] * n_cells
    return weights.tolist()


def _exact_color_cover(
    universe: int,
    masks: list[int],
    cell_boxes: list[int],
    best: list[int],
    lower: int,
    deadline: float,
) -> list[int]:
    """Minimum cover of one color's cells `universe` by that color's boxes
    `masks`, by branch and bound from the incumbent cover `best`; cells
    are numbered as _color_cells numbers them.

    A node prunes on three lower bounds: independent cells, the weight of
    the uncovered cells under the color's dual weights (computed once the
    search passes DUAL_AFTER_NODES nodes), and the gain bound. It branches
    on the uncovered cell with the fewest live candidate boxes, largest
    restriction to the uncovered cells first. Each branch bans the
    candidates before it from its subtree, as a cover using one of them is
    found in that candidate's branch, and a candidate whose restriction is
    contained in an earlier one's (equal restrictions: the lower index
    stays) is skipped. A branch that one more box must complete is checked
    in place. Past `deadline` it raises SolverTimeoutError with this
    color's (lower, upper)."""
    nodes = 0
    by_size = sorted(range(len(masks)), key=lambda i: -masks[i].bit_count())
    weights: list[int] = []

    def weight(cells: int) -> int:
        total = 0
        while cells:
            low = cells & -cells
            total += weights[low.bit_length() - 1]
            cells ^= low
        return total

    def completion(rest: int, banned: int) -> int:
        """The lowest box outside `banned` containing all of `rest`, or -1."""
        live = ~banned
        while rest and live:
            low = rest & -rest
            live &= cell_boxes[low.bit_length() - 1]
            rest ^= low
        return (live & -live).bit_length() - 1 if live else -1

    def search(uncovered: int, chosen: list[int], banned: int, dual: int | None):
        nonlocal best, nodes, weights
        nodes += 1
        if nodes % DEADLINE_CHECK_EVERY == 0 and time.monotonic() > deadline:
            raise SolverTimeoutError("exact cover search timed out", lower=lower, upper=len(best))
        if nodes == DUAL_AFTER_NODES:
            weights = _dual_weights(universe.bit_length(), masks, len(best))
        need = len(best) - len(chosen)  # boxes left before matching the incumbent
        if _independent_lower_bound(uncovered, cell_boxes, banned) >= need:
            return
        if weights:
            if dual is None:
                dual = weight(uncovered)
            if dual > (need - 1) * DUAL_SCALE:
                return
        # gain bound: ceil(|uncovered| / max gain) >= need unless some live
        # box covers at least |uncovered| / (need - 1) of the uncovered cells
        n_uncovered = uncovered.bit_count()
        for i in by_size:
            if not banned >> i & 1 and (masks[i] & uncovered).bit_count() * (need - 1) >= n_uncovered:
                break
        else:
            return
        pick = -1
        pick_count = None
        m = uncovered
        while m:
            low = m & -m
            cell = low.bit_length() - 1
            m ^= low
            c = (cell_boxes[cell] & ~banned).bit_count()
            if pick_count is None or c < pick_count:
                pick, pick_count = cell, c
                if c <= 1:
                    break
        restricted = sorted(
            ((masks[i] & uncovered, i) for i in indices_from_mask(cell_boxes[pick] & ~banned)),
            key=lambda ri: -ri[0].bit_count(),
        )
        kept: list[int] = []
        for r, i in restricted:
            banned |= 1 << i
            if any(r | s == s for s in kept):
                continue  # dominated: an earlier candidate covers all it would
            kept.append(r)
            rest = uncovered & ~r
            if not rest:
                best = chosen + [i]
                return
            need = len(best) - len(chosen)
            if need <= 2:
                continue  # only this box alone would beat the incumbent
            if need == 3:
                j = completion(rest, banned)
                if j >= 0:
                    best = chosen + [i, j]
                continue
            chosen.append(i)
            search(rest, chosen, banned, None if dual is None else dual - weight(r))
            chosen.pop()

    search(universe, [], 0, None)
    return best


def cover_number(
    f: ColoredFunction,
    mode: str = "exact",
    timeout_s: float = 60.0,
    catalog: MonochromaticCatalog | None = None,
) -> tuple[int, tuple[Box, ...]]:
    """Minimum (exact) or greedy number of monochromatic boxes covering the
    domain, with the witness cover sorted by catalog index.

    Boxes of different colors never share a cell, so the exact minimum is
    the sum of per-color minima, each found by branch and bound over that
    color's maximal boxes from its greedy cover. On timeout it raises
    SolverTimeoutError carrying (lower, upper): the solved colors' minima
    plus, for the rest, their root lower bounds and their best covers."""
    _require_two_party(f)
    if catalog is None:
        catalog = enumerate_maximal_monochromatic(f)
    if catalog.partial:
        raise InvalidInputError("catalog is partial; raise the cap first")
    boxes = [b for _, b in catalog.all_boxes()]
    if not boxes:
        raise InvalidInputError("empty catalog")
    shape = f.shape
    n_cols = shape.sizes[1]
    masks = [_cell_mask(b, n_cols) for b in boxes]
    universe = (1 << shape.num_cells) - 1

    if mode == "greedy":
        greedy_idx = _greedy_cover(universe, masks)
        return len(greedy_idx), tuple(boxes[i] for i in greedy_idx)
    if mode != "exact":
        raise InvalidInputError(f"unknown cover mode {mode!r}")

    deadline = time.monotonic() + timeout_s
    parts = []  # per color: (offset, masks, cell boxes, greedy cover, root lower bound)
    offset = 0
    n_covered = 0
    for color in sorted(catalog.boxes_by_color):
        color_masks = masks[offset : offset + len(catalog.boxes_by_color[color])]
        cells = 0
        for m in color_masks:
            cells |= m
        if cells:
            n_covered += cells.bit_count()
            color_masks, cell_boxes = _color_cells(cells, color_masks)
            cells = (1 << len(cell_boxes)) - 1
            greedy = _greedy_cover(cells, color_masks)
            root_lb = _root_lower_bound(cells, color_masks, cell_boxes)
            parts.append((offset, color_masks, cell_boxes, greedy, root_lb))
        offset += len(color_masks)
    if n_covered != shape.num_cells:
        raise InvalidInputError("catalog does not cover the domain")

    if timeout_s <= 0 and any(lb < len(greedy) for *_, greedy, lb in parts):
        raise SolverTimeoutError(
            "exact cover search given no budget",
            lower=sum(p[4] for p in parts),
            upper=sum(len(p[3]) for p in parts),
        )
    chosen: list[int] = []
    for k, (offset, color_masks, cell_boxes, greedy, root_lb) in enumerate(parts):
        best = greedy
        if root_lb < len(greedy):
            try:
                best = _exact_color_cover(
                    (1 << len(cell_boxes)) - 1, color_masks, cell_boxes, greedy, root_lb, deadline
                )
            except SolverTimeoutError as exc:
                rest = parts[k + 1 :]
                raise SolverTimeoutError(
                    f"exact cover search timed out after {timeout_s}s",
                    lower=len(chosen) + exc.lower + sum(p[4] for p in rest),
                    upper=len(chosen) + exc.upper + sum(len(p[3]) for p in rest),
                ) from None
        chosen.extend(offset + i for i in best)
    return len(chosen), tuple(boxes[i] for i in sorted(chosen))


# ---------------------------------------------------------------------------
# Fooling sets


def _fooling_graph(f: ColoredFunction, color: int) -> tuple[list, np.ndarray]:
    """The color's cells and their fooling relation: two cells are adjacent
    when one of their crossed cells leaves the color."""
    where = np.argwhere(f.colors == color)
    cells = [tuple(int(v) for v in c) for c in where]
    leaves = f.colors[where[:, 0][:, None], where[:, 1][None, :]] != color
    return cells, leaves | leaves.T


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
    cover_greedy: int | None  # None when the catalog enumeration timed out
    fooling: dict[int, int] = field(default_factory=dict)
    fooling_mode: dict[int, str] = field(default_factory=dict)
    rank_gf2: dict[int, int] = field(default_factory=dict)
    rank_rational: dict[int, int] = field(default_factory=dict)
    status: dict[str, str] = field(default_factory=dict)

    @property
    def fooling_best(self) -> int:
        return max(self.fooling.values()) if self.fooling else 0

    @property
    def fooling_sum(self) -> int:
        """A fooling set of color c lower-bounds the boxes of color c in any
        cover, so the sum lower-bounds the cover number."""
        return sum(self.fooling.values())

    @property
    def rank_gf2_max(self) -> int:
        return max(self.rank_gf2.values()) if self.rank_gf2 else 0

    @property
    def rank_rational_max(self) -> int:
        return max(self.rank_rational.values()) if self.rank_rational else 0


def fooling_sizes(f: ColoredFunction) -> tuple[dict[int, int], dict[int, str]]:
    """Per color: the size of a fooling set and the mode that found it
    (exact up to EXACT_FOOLING_CAP cells of the color, greedy above)."""
    sizes: dict[int, int] = {}
    modes: dict[int, str] = {}
    for color in range(f.num_colors):
        modes[color] = "exact" if int((f.colors == color).sum()) <= EXACT_FOOLING_CAP else "greedy"
        sizes[color] = len(fooling_set(f, color, modes[color]))
    return sizes, modes


def bound_summary(f: ColoredFunction, timeout_s: float = 60.0) -> BoundSummary:
    """Run every bound within one budget and cross-check the internal
    consistency relations; a broken relation flags an internal error.

    Fooling sets and ranks come first; catalog enumeration and the exact
    search share what is left of the budget. On timeout `cover_bounds` is
    (lower, upper) with the lower bound raised to the per-color fooling sum;
    a catalog timeout leaves `cover_greedy` unset and bounds the cover by
    the color count and the row-strip cover."""
    _require_two_party(f)
    deadline = time.monotonic() + timeout_s
    fooling, fooling_mode = fooling_sizes(f)
    rank_gf2_by = {c: comm_matrix_rank(f, "gf2", c) for c in range(f.num_colors)}
    rank_rat = {c: comm_matrix_rank(f, "rational", c) for c in range(f.num_colors)}
    summary = BoundSummary(
        color_count=f.num_colors,
        cover_exact=None,
        cover_witness=None,
        cover_bounds=None,
        cover_greedy=None,
        fooling=fooling,
        fooling_mode=fooling_mode,
        rank_gf2=rank_gf2_by,
        rank_rational=rank_rat,
    )
    try:
        catalog = enumerate_maximal_monochromatic(f, deadline=deadline)
        summary.cover_greedy, _ = cover_number(f, mode="greedy", catalog=catalog)
        summary.cover_exact, summary.cover_witness = cover_number(
            f, mode="exact", timeout_s=deadline - time.monotonic(), catalog=catalog
        )
        summary.status["cover_exact"] = "ok"
    except SolverTimeoutError as exc:
        summary.cover_bounds = (max(exc.lower, summary.fooling_sum), exc.upper)
        summary.status["cover_exact"] = "timeout"
    problems = []
    exact, greedy, witness = summary.cover_exact, summary.cover_greedy, summary.cover_witness
    if greedy is not None and summary.color_count > greedy:
        problems.append("color_count > cover_greedy")
    if summary.cover_bounds is not None and summary.cover_bounds[0] > summary.cover_bounds[1]:
        problems.append("cover lower bound > upper bound")
    if exact is not None:
        if exact > greedy:
            problems.append("cover_exact > cover_greedy")
        if summary.color_count > exact:
            problems.append("color_count > cover_exact")
        if summary.fooling_sum > exact:
            problems.append("fooling_sum > cover_exact")
        witness_colors = [monochromatic_color(b, f) for b in witness]
        for color, size in fooling.items():
            if size > witness_colors.count(color):
                problems.append(f"fooling[{color}] exceeds witness boxes of that color")
    if problems:
        summary.status["internal"] = "internal-error: " + "; ".join(problems)
    return summary
