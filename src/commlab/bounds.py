"""Classical lower/upper bound machinery: exact minimum monochromatic cover,
fooling sets, communication-matrix rank, and color counting.

Cell sets and index sets are int bitmasks throughout; the exact searches are
deterministic (fixed tie-breaking) so repeated runs agree bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Box, DomainShape, indices_from_mask
from .errors import InvalidInputError, SolverTimeoutError
from .functions import ColoredFunction, monochromatic_color

ENUMERATION_CELL_CAP = 1 << 16
DEFAULT_CATALOG_CAP = 10**6
EXACT_FOOLING_CAP = 64
DUAL_SCALE = 1 << 20  # dual weights are integers in units of 1 / DUAL_SCALE
DUAL_ROUNDS = 60  # subgradient steps behind one color's dual weights
DUAL_AFTER_NODES = 32  # search nodes of a color before it computes dual weights


@dataclass
class MonochromaticCatalog:
    """Per color: the complete list of maximal monochromatic boxes."""

    shape: DomainShape
    boxes_by_color: dict[int, tuple[Box, ...]]
    partial: bool
    _setups: list[_ColorSetup] | None = field(default=None, init=False, repr=False, compare=False)

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


def _row_strip_cover_size(f: ColoredFunction) -> int:
    """Boxes in the row-strip cover: one per (row, color present in the row).
    Each strip is monochromatic, so this bounds the cover number from above
    without a catalog."""
    return sum(len(set(row)) for row in f.colors.tolist())


def _budget_check(f: ColoredFunction, deadline: float, what: str):
    """A check for every step of catalog work: once time.monotonic() reaches
    `deadline` it raises SolverTimeoutError with the bounds that need no
    catalog, (color count, row-strip cover size)."""

    def check() -> None:
        if time.monotonic() >= deadline:
            raise SolverTimeoutError(
                f"{what} ran out of budget", lower=f.num_colors, upper=_row_strip_cover_size(f)
            )

    return check


def enumerate_maximal_monochromatic(
    f: ColoredFunction, cap: int = DEFAULT_CATALOG_CAP, deadline: float = math.inf
) -> MonochromaticCatalog:
    """All maximal monochromatic boxes (maximal bicliques of each color's
    bipartite cell graph), sorted by (rows, columns).

    The columns of a maximal box are the columns all its rows share, so a
    color's boxes are the nonempty intersections of its rows' column sets,
    each with every row that contains it. Each new column set is intersected
    with every row until no new set appears. `deadline` is a
    time.monotonic() value checked at every column set (see _budget_check)."""
    _require_two_party(f)
    if f.shape.num_cells > ENUMERATION_CELL_CAP:
        raise InvalidInputError(
            f"domain has {f.shape.num_cells} cells, enumeration cap is {ENUMERATION_CELL_CAP}"
        )
    check = _budget_check(f, deadline, "maximal-box enumeration")
    by_color: dict[int, tuple[Box, ...]] = {}
    partial = False
    total = 0
    for color in range(f.num_colors):
        col_sets = [sum(1 << int(y) for y in np.flatnonzero(row)) for row in f.colors == color]

        def rows_of(t_mask: int) -> int:
            return sum(1 << x for x, c in enumerate(col_sets) if c & t_mask == t_mask)

        found = {t: rows_of(t) for t in col_sets if t}  # column set -> rows containing it
        queue = list(found)
        for t_mask in queue:  # also visits the sets appended below
            check()
            for c in col_sets:
                meet = t_mask & c
                if meet and meet not in found:
                    found[meet] = rows_of(meet)
                    queue.append(meet)
            if len(found) + total > cap:
                partial = True
                break
        by_color[color] = tuple(Box((s, t)) for s, t in sorted((s, t) for t, s in found.items()))
        total += len(found)
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


class _ColorSetup(NamedTuple):
    """One color's boxes over that color's cells only, the cells renumbered
    fewest boxes first (ties: row-major order) so that the independent-cell
    bound takes constrained cells first."""

    offset: int  # catalog index of the color's first box
    masks: list[int]  # per box of the color, its renumbered cells
    cell_boxes: list[int]  # per renumbered cell, the mask of the boxes containing it
    greedy: list[int]  # a greedy cover, boxes in pick order
    lower: int  # root lower bound


def _color_setups(
    f: ColoredFunction, catalog: MonochromaticCatalog, deadline: float
) -> list[_ColorSetup]:
    """The _ColorSetup of every color with cells, built once per catalog
    and kept on it. The deadline is checked at every box and every greedy
    pick (see _budget_check)."""
    if catalog._setups is not None:
        return catalog._setups
    check = _budget_check(f, deadline, "cover setup")
    n_cols = f.shape.sizes[1]
    setups = []
    offset = 0
    n_covered = 0
    for color in sorted(catalog.boxes_by_color):
        boxes = catalog.boxes_by_color[color]
        boxes_of: dict[int, int] = {}  # cell -> mask of the boxes containing it
        masks = []
        for i, b in enumerate(boxes):
            check()
            masks.append(_cell_mask(b, n_cols))
            for cell in indices_from_mask(masks[-1]):
                boxes_of[cell] = boxes_of.get(cell, 0) | 1 << i
        if boxes_of:
            n_covered += len(boxes_of)
            order = sorted(boxes_of, key=lambda cell: (boxes_of[cell].bit_count(), cell))
            position = {cell: k for k, cell in enumerate(order)}
            local = []
            for m in masks:
                check()
                local.append(sum(1 << position[cell] for cell in indices_from_mask(m)))
            cell_boxes = [boxes_of[cell] for cell in order]
            cells = (1 << len(order)) - 1
            greedy = []
            uncovered = cells
            while uncovered:
                check()
                gains = [(m & uncovered).bit_count() for m in local]
                greedy.append(gains.index(max(gains)))
                uncovered &= ~local[greedy[-1]]
            lower = _root_lower_bound(cells, local, cell_boxes)
            setups.append(_ColorSetup(offset, local, cell_boxes, greedy, lower))
        offset += len(boxes)
    if n_covered != f.shape.num_cells:
        raise InvalidInputError("catalog does not cover the domain")
    catalog._setups = setups
    return setups


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


def _dual_weights(cell_boxes: list[int], n_boxes: int, upper: int, deadline: float) -> list[int]:
    """Integer weights on the cells of `cell_boxes`, in units of 1 / DUAL_SCALE,
    whose sum over the cells of any box is at most DUAL_SCALE. They are a
    feasible dual of the covering LP, so the weight of a set of cells,
    rounded up to whole units, lower-bounds the boxes that cover it, also
    after boxes are banned or cells covered.

    Subgradient steps on the Lagrangian of the covering LP, aimed at the
    incumbent cover size `upper`, move the multipliers; each step's
    multipliers, divided per cell by the heaviest box through it, are a
    feasible dual, and the heaviest of those is kept. A step that starts
    past `deadline`, a time.monotonic() value, returns no weights instead."""
    n_bytes = (n_boxes + 7) >> 3
    bits = [
        np.unpackbits(np.frombuffer(m.to_bytes(n_bytes, "little"), dtype=np.uint8), bitorder="little")
        for m in cell_boxes
    ]
    a = np.stack(bits)[:, :n_boxes].astype(np.float64)  # cells x boxes incidence
    lam = 1.0 / (a * a.sum(axis=0)).max(axis=1)  # 1 / largest box through the cell
    best, best_sum = lam, 0.0
    step = 2.0
    for _ in range(DUAL_ROUNDS):
        if time.monotonic() >= deadline:
            return []
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
        return [0] * len(cell_boxes)
    return weights.tolist()


def _exact_color_cover(setup: _ColorSetup, deadline: float) -> list[int]:
    """Minimum cover of one color's cells by that color's boxes, by branch
    and bound from its greedy cover.

    A node prunes on three lower bounds: independent cells, the weight of
    the uncovered cells under the color's dual weights (computed once the
    search passes DUAL_AFTER_NODES nodes), and the gain bound. It branches
    on the uncovered cell with the fewest live candidate boxes, largest
    restriction to the uncovered cells first. Each branch bans the
    candidates before it from its subtree, as a cover using one of them is
    found in that candidate's branch, and a candidate whose restriction is
    contained in an earlier one's (equal restrictions: the lower index
    stays) is skipped. A branch that one more box must complete is checked
    in place. The deadline is checked at every node; past it the search
    raises SolverTimeoutError with this color's (lower, upper)."""
    _, masks, cell_boxes, best, lower = setup
    universe = (1 << len(cell_boxes)) - 1
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
        if time.monotonic() >= deadline:
            raise SolverTimeoutError("exact cover search timed out", lower=lower, upper=len(best))
        if nodes == DUAL_AFTER_NODES:
            weights = _dual_weights(cell_boxes, len(masks), len(best), deadline)
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

    Boxes of different colors never share a cell, so both counts are sums
    over colors: the greedy count of the per-color greedy covers, the exact
    minimum of per-color minima, each found by branch and bound over that
    color's maximal boxes from its greedy cover.

    `timeout_s` is one budget for the whole call, checked at every step of
    enumeration (when `catalog` is None), setup and search; a budget <= 0
    times out at the first check. On timeout it raises SolverTimeoutError
    carrying (lower, upper). During enumeration or setup that is (color
    count, row-strip cover size); during the search, the solved colors'
    minima plus, for the rest, their root lower bounds and their best
    covers, with the upper bound capped at the row-strip cover size."""
    _require_two_party(f)
    if mode not in ("exact", "greedy"):
        raise InvalidInputError(f"unknown cover mode {mode!r}")
    deadline = time.monotonic() + timeout_s
    if catalog is None:
        catalog = enumerate_maximal_monochromatic(f, deadline=deadline)
    if catalog.partial:
        raise InvalidInputError("catalog is partial; raise the cap first")
    boxes = [b for _, b in catalog.all_boxes()]
    if not boxes:
        raise InvalidInputError("empty catalog")
    setups = _color_setups(f, catalog, deadline)
    chosen: list[int] = []
    for k, setup in enumerate(setups):
        best = setup.greedy
        if mode == "exact" and setup.lower < len(best):
            try:
                best = _exact_color_cover(setup, deadline)
            except SolverTimeoutError as exc:
                rest = setups[k + 1 :]
                upper = len(chosen) + exc.upper + sum(len(p.greedy) for p in rest)
                raise SolverTimeoutError(
                    f"exact cover search timed out after {timeout_s}s",
                    lower=len(chosen) + exc.lower + sum(p.lower for p in rest),
                    upper=min(upper, _row_strip_cover_size(f)),
                ) from None
        chosen.extend(setup.offset + i for i in best)
    return len(chosen), tuple(boxes[i] for i in sorted(chosen))


# ---------------------------------------------------------------------------
# Fooling sets


def _fooling_graph(f: ColoredFunction, color: int) -> tuple[list, np.ndarray]:
    """The color's cells and their fooling relation: two cells are adjacent
    when one of their crossed cells leaves the color."""
    inside = f.colors == color
    where = np.argwhere(inside)
    cells = [tuple(int(v) for v in c) for c in where]
    leaves = ~inside[where[:, 0][:, None], where[:, 1][None, :]]
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
    (lower, upper) with the lower bound raised to the per-color fooling sum
    and the upper bound at most the row-strip cover size; a timeout before
    the greedy covers are built leaves `cover_greedy` unset and bounds the
    cover by the color count and the row-strip cover."""
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
        summary.cover_greedy, _ = cover_number(
            f, mode="greedy", timeout_s=deadline - time.monotonic(), catalog=catalog
        )
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
