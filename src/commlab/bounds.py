"""Classical lower/upper bound machinery: exact minimum monochromatic cover,
fooling sets, communication-matrix rank, and color counting.

Cell sets and index sets are int bitmasks throughout; the exact searches are
deterministic (fixed tie-breaking) so repeated runs agree bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import Box, DomainShape, indices_from_mask, pack_rows, unpack_rows
from .errors import InvalidInputError, SolverTimeoutError
from .functions import ColoredFunction, monochromatic_color

ENUMERATION_CELL_CAP = 1 << 16
DEFAULT_CATALOG_CAP = 10**6
EXACT_FOOLING_CAP = 64
DUAL_SCALE = 1 << 20  # dual weights are integers in units of 1 / DUAL_SCALE
DUAL_ROUNDS = 40  # subgradient steps, at most, behind one node's dual weights
DUAL_AFTER_NODES = 32  # search nodes of a color before any dual weights, its root's too
CATALOG_BLOCK = 64  # boxes built per enumeration deadline check: well under 1 ms
SETUP_BLOCK_CELLS = 1 << 19  # box-cell pairs per setup deadline check: a few ms on NEQ(16)
SEARCH_BLOCK = 4096  # branch candidates per search deadline check: a few ms on NEQ(16)


@dataclass
class MonochromaticCatalog:
    """Per color: the complete list of maximal monochromatic boxes."""

    shape: DomainShape
    boxes_by_color: dict[int, tuple[Box, ...]]
    partial: bool
    _setups: list[_ColorSetup] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_boxes(self) -> int:
        return sum(len(v) for v in self.boxes_by_color.values())


def _require_bounds_domain(f: ColoredFunction) -> None:
    """Two parties, at most ENUMERATION_CELL_CAP cells: every bound checks this first."""
    if f.shape.arity != 2:
        raise InvalidInputError("bound machinery works on two-party functions")
    if f.shape.num_cells > ENUMERATION_CELL_CAP:
        raise InvalidInputError(
            f"domain has {f.shape.num_cells} cells, enumeration cap is {ENUMERATION_CELL_CAP}"
        )


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
    time.monotonic() value checked at every column set and every
    CATALOG_BLOCK boxes built (see _budget_check). Once the boxes found pass
    `cap`, it returns at once, `partial` and without the boxes of the color
    it was enumerating: a partial catalog certifies no cover."""
    _require_bounds_domain(f)
    check = _budget_check(f, deadline, "maximal-box enumeration")
    by_color: dict[int, tuple[Box, ...]] = {}
    total = 0
    n_cols = f.shape.sizes[1]
    low = (1 << n_cols) - 1
    for color in range(f.num_colors):
        col_sets = pack_rows(f.colors == color)

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
                return MonochromaticCatalog(shape=f.shape, boxes_by_color=by_color, partial=True)
        # one int per box sorts like its (rows, columns) pair, as columns < 2**n_cols
        keys = [s << n_cols | t for t, s in found.items()]
        check()
        keys.sort()
        boxes: list[Box] = []
        for start in range(0, len(keys), CATALOG_BLOCK):
            check()
            boxes.extend(Box((k >> n_cols, k & low)) for k in keys[start : start + CATALOG_BLOCK])
        by_color[color] = tuple(boxes)
        total += len(found)
    return MonochromaticCatalog(shape=f.shape, boxes_by_color=by_color, partial=False)


# ---------------------------------------------------------------------------
# Set cover over the catalog


class _ColorSetup(NamedTuple):
    """One color's boxes over that color's cells only, the cells renumbered
    fewest boxes first (ties: row-major order) so that the independent-cell
    bound takes constrained cells first."""

    offset: int  # catalog index of the color's first box
    masks: list[int]  # per box of the color, its renumbered cells
    cell_boxes: list[int]  # per renumbered cell, the mask of the boxes containing it
    greedy: list[int]  # a greedy cover, boxes in pick order
    lower: int  # root lower bound
    by_size: list[int]  # the boxes, most cells first (ties: lower index first)


def _color_setups(
    f: ColoredFunction, catalog: MonochromaticCatalog, deadline: float
) -> list[_ColorSetup]:
    """The _ColorSetup of every color with cells, built once per catalog
    and kept on it. A box is a product, so the boxes through cell (x, y) are
    those holding row x AND those holding column y, and a box's renumbered
    cells are a packed row of the gather of its row and column bits. The
    deadline is checked at every block of boxes (see _budget_check)."""
    if catalog._setups is not None:
        return catalog._setups
    check = _budget_check(f, deadline, "cover setup")
    n_rows, n_cols = f.shape.sizes
    step = max(1, SETUP_BLOCK_CELLS // f.shape.num_cells)
    setups = []
    offset = 0
    n_covered = 0
    for color in sorted(catalog.boxes_by_color):
        boxes = catalog.boxes_by_color[color]
        blocks = [slice(start, start + step) for start in range(0, len(boxes), step)]
        rows = np.zeros((n_rows, len(boxes)), dtype=bool)  # row x box membership
        cols = np.zeros((n_cols, len(boxes)), dtype=bool)
        for block in blocks:
            check()
            rows[:, block] = unpack_rows([b.masks[0] for b in boxes[block]], n_rows).T
            cols[:, block] = unpack_rows([b.masks[1] for b in boxes[block]], n_cols).T
        col_boxes = pack_rows(cols)
        meet = [r & c for r in pack_rows(rows) for c in col_boxes]  # per row-major cell
        order = sorted((k for k, m in enumerate(meet) if m), key=lambda k: meet[k].bit_count())
        if order:
            n_covered += len(order)
            cell_boxes = [meet[k] for k in order]
            at_row, at_col = np.divmod(order, n_cols)
            local, sizes = [], np.zeros(len(boxes), dtype=np.int64)
            for block in blocks:
                check()
                gathered = rows[at_row, block] & cols[at_col, block]  # cells x boxes
                local += pack_rows(gathered.T)
                sizes[block] = gathered.sum(axis=0)
            check()
            by_size = np.argsort(-sizes, kind="stable").tolist()
            cells = (1 << len(order)) - 1
            greedy = []
            uncovered = cells
            while uncovered:
                gains = []
                for block in blocks:
                    check()
                    gains += [(m & uncovered).bit_count() for m in local[block]]
                greedy.append(gains.index(max(gains)))
                uncovered &= ~local[greedy[-1]]
            gain_bound = -(-len(order) // int(sizes.max()))  # no box covers more cells
            lower = max(gain_bound, _independent_lower_bound(cells, cell_boxes))
            setups.append(_ColorSetup(offset, local, cell_boxes, greedy, lower, by_size))
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


def _dual_weights(
    cell_boxes: list[int],
    uncovered: int,
    banned: int,
    need: int,
    start: np.ndarray | None,
    deadline: float,
) -> tuple[list[int], np.ndarray] | None:
    """Integer weights on the cells of `uncovered`, in units of 1 / DUAL_SCALE,
    whose sum over the uncovered cells of any box outside `banned` is at most
    DUAL_SCALE. They are a feasible dual of the covering LP of that
    subproblem, so the weight of any set of its cells, rounded up to whole
    units, lower-bounds the boxes that cover it, also after more boxes are
    banned.

    Subgradient steps on the Lagrangian of the covering LP over the live
    boxes, aimed at `need` boxes, move the multipliers, from `start` (per
    cell of the color, as returned before: a parent node's or the root's)
    or else one over the largest box through each cell. Any start gives a
    feasible dual. Each step's multipliers, divided per cell by the
    heaviest box through it, are a feasible dual; the heaviest is kept, and
    the steps stop once it proves that fewer than `need` boxes cannot cover
    the cells. Returns (weights per cell of the color, 0 off `uncovered`;
    the last multipliers, the same way), or None past `deadline`, a
    time.monotonic() value checked between stages and steps."""
    not_banned = ~banned
    cells, rows = [], []
    live = 0
    for c in indices_from_mask(uncovered):
        row = cell_boxes[c] & not_banned
        if row:  # a cell that no live box holds has no constraint: weight 0
            cells.append(c)
            rows.append(row)
            live |= row
    a = unpack_rows(rows, live.bit_length())[:, indices_from_mask(live)]
    a = a.astype(np.float64)  # cells x live boxes incidence
    if time.monotonic() >= deadline:
        return None
    lam = 1.0 / (a * a.sum(axis=0)).max(axis=1) if start is None else start[cells]
    target = (need - 1) * DUAL_SCALE
    best, best_sum = np.zeros(len(cells)), 0.0
    step = 2.0
    for _ in range(DUAL_ROUNDS):
        if time.monotonic() >= deadline:
            return None
        load = lam @ a  # per box: multiplier sum over its cells
        # each cell's divisor is at least the load of every box through it,
        # so every box sums to at most 1; a cell whose boxes all have load 0
        # has multiplier 0 and keeps it
        y = np.floor(lam * DUAL_SCALE / np.maximum((a * load).max(axis=1), np.finfo(float).tiny))
        total = float(y.sum())
        if total > best_sum:
            best, best_sum = y, total
            if best_sum > target:
                break
        take = load > 1.0  # boxes with negative reduced cost
        lagrangian = lam.sum() + (1.0 - load[take]).sum()
        g = 1.0 - a @ take  # subgradient: 1 - times each cell is covered
        norm = float(g @ g)
        if norm == 0.0:
            break
        lam = np.maximum(lam + step * (need - lagrangian) / norm * g, 0.0)
        step *= 0.95
    if time.monotonic() >= deadline:
        return None
    weights = [0] * len(cell_boxes)
    multipliers = np.zeros(len(cell_boxes))
    multipliers[cells] = lam
    # exact in float64: box sums are integers below 2^20 weight * 2^24 cells
    if (best @ a).max() <= DUAL_SCALE:  # float rounding could break it; not seen
        for c, w in zip(cells, best.astype(np.int64).tolist()):
            weights[c] = w
    return weights, multipliers


def _exact_color_cover(setup: _ColorSetup, deadline: float) -> list[int]:
    """Minimum cover of one color's cells by that color's boxes, by branch
    and bound from its greedy cover.

    A node prunes on three lower bounds: independent cells, the weight of
    the uncovered cells under dual weights of the covering LP, and the gain
    bound. Once the search passes DUAL_AFTER_NODES nodes, each node that may
    still recurse computes dual weights over its own uncovered cells and
    live boxes (_dual_weights); its subtree inherits them, as a subtree
    only covers more cells and bans more boxes. The steps start from the
    parent's multipliers or, where no ancestor computed weights, from those
    of the root dual (every cell, no box banned, aimed at the incumbent),
    which the first such node computes once for the whole search. Its
    weight, rounded up, also raises this color's timeout lower bound.

    It branches on the uncovered cell with the fewest live candidate boxes,
    largest restriction to the uncovered cells first. Each branch bans the
    candidates before it from its subtree, as a cover using one of them is
    found in that candidate's branch, and a candidate whose restriction is
    contained in an earlier one's (equal restrictions: the lower index
    stays) is skipped. A branch that one more box must complete is checked
    in place. Every bound is valid, so it cuts no subtree holding a cover
    smaller than the incumbent, and the search meets the same incumbents,
    in the same order, as one without the dual bound. The deadline is
    checked at every node, every SEARCH_BLOCK candidates scored and every
    candidate tried; past it the search raises SolverTimeoutError with this
    color's (lower, upper): lower is the setup's bound, or the root dual's
    when larger."""
    _, masks, cell_boxes, best, lower, by_size = setup
    universe = (1 << len(cell_boxes)) - 1
    nodes = 0
    root = None  # the root's dual weights and multipliers, once a node needs them

    def weight(cells: int, weights: list[int]) -> int:
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

    def check() -> None:
        if time.monotonic() >= deadline:
            raise SolverTimeoutError("exact cover search timed out", lower=lower, upper=len(best))

    def search(uncovered: int, chosen: list[int], banned: int, weights, multipliers, dual: int):
        """`weights`: the dual weights the node inherits (all 0 before any),
        `multipliers` their multipliers (None before any), `dual` their sum
        over `uncovered`."""
        nonlocal best, nodes, root, lower
        nodes += 1
        check()
        need = len(best) - len(chosen)  # boxes left before matching the incumbent
        if _independent_lower_bound(uncovered, cell_boxes, banned) >= need:
            return
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
        if need >= 4 and nodes > DUAL_AFTER_NODES:  # this node may recurse
            if multipliers is None:
                if root is None:
                    root = _dual_weights(cell_boxes, universe, 0, len(best), None, deadline)
                    if root is not None:
                        lower = max(lower, -(-sum(root[0]) // DUAL_SCALE))
                if root is not None:
                    multipliers = root[1]
            own = _dual_weights(cell_boxes, uncovered, banned, need, multipliers, deadline)
            if own is not None:
                weights, multipliers = own
                dual = sum(weights)
                if dual > (need - 1) * DUAL_SCALE:
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
        candidates = indices_from_mask(cell_boxes[pick] & ~banned)
        gains = []  # ints only: a list of tuples per node would keep the collector busy
        for start in range(0, len(candidates), SEARCH_BLOCK):
            check()
            block = candidates[start : start + SEARCH_BLOCK]
            gains += [(masks[i] & uncovered).bit_count() for i in block]
        kept: list[int] = []
        # largest restriction first; reverse=True keeps equal gains in index order
        for k in sorted(range(len(candidates)), key=gains.__getitem__, reverse=True):
            if time.monotonic() >= deadline:  # check() inline: this loop is the hot path
                check()
            i = candidates[k]
            r = masks[i] & uncovered
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
            search(rest, chosen, banned, weights, multipliers, dual - weight(r, weights))
            chosen.pop()

    search(universe, [], 0, [0] * len(cell_boxes), None, 0)
    return best


def cover_number(
    f: ColoredFunction,
    mode: str = "exact",
    deadline: float = math.inf,
    catalog: MonochromaticCatalog | None = None,
) -> tuple[int, tuple[Box, ...]]:
    """Minimum (exact) or greedy number of monochromatic boxes covering the
    domain, with the witness cover sorted by catalog index.

    Boxes of different colors never share a cell, so both counts are sums
    over colors: the greedy count of the per-color greedy covers, the exact
    minimum of per-color minima, each found by branch and bound over that
    color's maximal boxes from its greedy cover.

    `deadline`, a time.monotonic() value, is one budget for the whole call,
    checked at every step of enumeration (when `catalog` is None), setup and
    search; a deadline already past times out at the first check. On timeout
    it raises SolverTimeoutError carrying (lower, upper). During enumeration
    or setup, or on a catalog that reached its cap, that is (color count,
    row-strip cover size); during the search, the solved colors' minima plus,
    for the rest, their root lower bounds and their best covers, with the
    upper bound capped at the row-strip cover size."""
    _require_bounds_domain(f)
    if mode not in ("exact", "greedy"):
        raise InvalidInputError(f"unknown cover mode {mode!r}")
    if catalog is None:
        catalog = enumerate_maximal_monochromatic(f, deadline=deadline)
    if catalog.partial:  # a spent cap ends the call as a spent budget does
        raise SolverTimeoutError(
            "maximal-box enumeration reached its cap",
            lower=f.num_colors, upper=_row_strip_cover_size(f),
        )
    if not catalog.num_boxes:
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
                    "exact cover search timed out",
                    lower=len(chosen) + exc.lower + sum(p.lower for p in rest),
                    upper=min(upper, _row_strip_cover_size(f)),
                ) from None
        chosen.extend(setup.offset + i for i in best)
    by_color = catalog.boxes_by_color
    boxes = tuple(chain.from_iterable(by_color[c] for c in sorted(by_color)))  # catalog order
    return len(chosen), tuple(boxes[i] for i in sorted(chosen))


# ---------------------------------------------------------------------------
# Fooling sets


def _greedy_fooling(inside: np.ndarray) -> list[tuple[int, int]]:
    """The greedy fooling set of the True cells of `inside`: each cell, in
    row-major order, joins when it fools every cell taken so far. Cell (x, y)
    fools (x2, y2) unless (x, y2) and (x2, y) are both inside, so two cells of
    one row or column never fool each other and a row gives at most its
    first cell that passes; the check reads only the rows' column sets."""
    row_cols = pack_rows(inside)
    chosen: list[tuple[int, int]] = []
    for x, cols in enumerate(row_cols):
        crossed = 0  # columns y with (x, y2) and (x2, y) inside for a chosen (x2, y2)
        for x2, y2 in chosen:
            if cols >> y2 & 1:
                crossed |= row_cols[x2]
        free = cols & ~crossed
        if free:
            chosen.append((x, (free & -free).bit_length() - 1))
    return chosen


def _class_tops(allowed: int, neighbor: list[int]) -> list[int]:
    """A greedy graph coloring of the vertices of `allowed`, highest vertex
    first, each into the first class that holds none of its neighbors; the
    highest vertex of each class, in class order, so descending. A clique
    has at most one vertex per class, so a clique among the vertices >= v
    has at most as many vertices as there are tops >= v."""
    tops = []
    while allowed:
        tops.append(allowed.bit_length() - 1)
        free = allowed  # vertices that may still join this class
        while free:
            v = free.bit_length() - 1
            allowed ^= 1 << v
            free &= ~neighbor[v] & ~(1 << v)
    return tops


def _first_maximum_clique(neighbor: list[int]) -> list[int]:
    """The lexicographically first maximum clique of the graph, vertices
    ascending. Depth-first search adds vertices in ascending order, so it
    meets the maximal cliques in lexicographic order and keeps the first of
    each new size. A node cuts its branch on v, and every later one, when
    the vertices >= v it may still add, counted or bounded by the classes
    of a greedy coloring (_class_tops; the bound of Tomita and Seki's MCQ),
    cannot lift the clique past the best found. A node colors its vertices
    at most once, and only when counting them does not cut but a cut is
    possible."""
    best: list[int] = []

    def expand(current: list[int], allowed: int) -> None:
        nonlocal best
        if not allowed:
            if len(current) > len(best):
                best = list(current)
            return
        tops = None
        while allowed:
            slack = len(best) - len(current)  # vertices a clique must add to beat best
            if allowed.bit_count() <= slack:
                return
            v = (allowed & -allowed).bit_length() - 1
            if slack > 0:
                if tops is None:
                    tops = _class_tops(allowed, neighbor)
                while tops[-1] < v:
                    tops.pop()
                if len(tops) <= slack:
                    return
            allowed ^= 1 << v
            current.append(v)
            expand(current, allowed & neighbor[v])
            current.pop()

    expand([], (1 << len(neighbor)) - 1)
    return best


def fooling_set(
    f: ColoredFunction, color: int, mode: str = "exact"
) -> tuple[tuple[int, int], ...]:
    """A set of color-cells such that every crossed pair leaves the color.

    Greedy mode takes the cells in row-major order, each when it fools all
    taken before (_greedy_fooling; no graph is built). Exact mode returns
    the lexicographically first maximum set in row-major cell order: the
    first maximum clique of the fooling graph on the color's cells, two
    cells adjacent when a crossed cell leaves the color, found by branch and
    bound with greedy graph-coloring bounds (_first_maximum_clique). Exact
    mode refuses a color of more than EXACT_FOOLING_CAP cells."""
    _require_bounds_domain(f)
    if not 0 <= color < f.num_colors:
        raise InvalidInputError(f"color {color} not present")
    inside = f.colors == color
    if mode == "greedy":
        return tuple(_greedy_fooling(inside))
    if mode != "exact":
        raise InvalidInputError(f"unknown fooling mode {mode!r}")
    rows, cols = np.nonzero(inside)  # row-major
    if len(rows) > EXACT_FOOLING_CAP:
        raise InvalidInputError(
            f"{len(rows)} candidate cells exceed the exact cap {EXACT_FOOLING_CAP}; use greedy"
        )
    crossed = inside[np.ix_(rows, cols)]  # [i, j]: cell (row of i, column of j) has the color
    best = _first_maximum_clique(pack_rows(~(crossed & crossed.T)))
    cells = list(zip(rows.tolist(), cols.tolist()))
    return tuple(cells[i] for i in best)


# ---------------------------------------------------------------------------
# Matrix rank


def _indicator_matrix(f: ColoredFunction, color: int) -> np.ndarray:
    if not 0 <= color < f.num_colors:
        raise InvalidInputError(f"color {color} not present")
    return (f.colors == color).astype(np.int64)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2): the size of an XOR basis of the rows, keyed by leading bit."""
    basis: dict[int, int] = {}
    for row in pack_rows(np.asarray(matrix) & 1):
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if row:
            basis[row.bit_length()] = row
    return len(basis)


def rational_rank(matrix: np.ndarray, deadline: float = math.inf) -> int:
    """Exact rank over the rationals via fraction-free (Bareiss) elimination
    on Python ints; no floating point anywhere. `deadline`, a
    time.monotonic() value, is checked at every pivot column; past it the
    elimination raises SolverTimeoutError with (rank so far, min(rows, cols))."""
    work = [[int(v) for v in row] for row in matrix]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    prev_pivot = 1
    for col in range(n_cols):
        if time.monotonic() >= deadline:
            raise SolverTimeoutError(
                "rank elimination ran out of budget", lower=rank, upper=min(n_rows, n_cols)
            )
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
    f: ColoredFunction, field_name: str, color: int, deadline: float = math.inf
) -> int:
    """Rank of the indicator matrix of one color. `deadline` is checked
    before the matrix is built, and the rational rank checks it again at
    every pivot column (see rational_rank)."""
    _require_bounds_domain(f)
    if field_name not in ("gf2", "rational"):
        raise InvalidInputError(f"unknown field {field_name!r}")
    if time.monotonic() >= deadline:
        raise SolverTimeoutError(
            f"{field_name} rank ran out of budget", lower=0, upper=min(f.shape.sizes)
        )
    matrix = _indicator_matrix(f, color)
    if field_name == "gf2":
        return gf2_rank(matrix)
    return rational_rank(matrix, deadline)


# ---------------------------------------------------------------------------
# Summary


@dataclass
class BoundSummary:
    color_count: int
    cover_exact: int | None = None
    cover_witness: tuple[Box, ...] | None = None
    cover_bounds: tuple[int, int] | None = None  # (lower, upper) when timed out
    cover_greedy: int | None = None  # None when the catalog enumeration timed out
    fooling: dict[int, int] = field(default_factory=dict)
    rank_gf2: dict[int, int] = field(default_factory=dict)
    rank_rational: dict[int, int] = field(default_factory=dict)
    status: dict[str, str] = field(default_factory=dict)  # "internal": a failed consistency check

    @property
    def fooling_best(self) -> int:
        return max(self.fooling.values()) if self.fooling else 0

    @property
    def fooling_sum(self) -> int:
        """A fooling set of color c lower-bounds the boxes of color c in any
        cover, so the sum lower-bounds the cover number."""
        return sum(self.fooling.values())

    def _rank_max(self, ranks: dict[int, int]) -> int | None:
        """The largest per-color rank; None when the budget cut a color out.
        A color's rank bounds its boxes in any partition (not in a cover:
        NEQ(8) has rank 8 and a 5-box cover), so a maximum over some colors
        would still be a bound; None keeps the column a maximum over all."""
        return max(ranks.values()) if len(ranks) == self.color_count else None

    @property
    def rank_gf2_max(self) -> int | None:
        return self._rank_max(self.rank_gf2)

    @property
    def rank_rational_max(self) -> int | None:
        return self._rank_max(self.rank_rational)


def fooling_sizes(f: ColoredFunction) -> dict[int, int]:
    """Per color, the size of a fooling set: exact up to EXACT_FOOLING_CAP
    cells of the color, greedy above."""
    _require_bounds_domain(f)
    counts = np.bincount(f.colors.ravel(), minlength=f.num_colors).tolist()
    return {
        color: len(fooling_set(f, color, "exact" if n <= EXACT_FOOLING_CAP else "greedy"))
        for color, n in enumerate(counts)
    }


def solve_cover(
    f: ColoredFunction, deadline: float, fooling_sum: int, exact: bool = True
) -> tuple[int | None, int | None, tuple[Box, ...] | None, tuple[int, int] | None]:
    """(greedy count, exact count, exact witness, timeout bounds) of f's
    cover, from one catalog within `deadline`, a time.monotonic() value; the
    exact search runs only with `exact`. A timeout leaves every count not yet
    found at None and gives (lower, upper) with the lower bound raised to
    `fooling_sum`, a per-color fooling set sum."""
    greedy = count = witness = None
    try:
        catalog = enumerate_maximal_monochromatic(f, deadline=deadline)
        greedy, _ = cover_number(f, mode="greedy", deadline=deadline, catalog=catalog)
        if exact:
            count, witness = cover_number(f, mode="exact", deadline=deadline, catalog=catalog)
    except SolverTimeoutError as exc:
        return greedy, None, None, (max(exc.lower, fooling_sum), exc.upper)
    return greedy, count, witness, None


def bound_summary(f: ColoredFunction, timeout_s: float = 60.0) -> BoundSummary:
    """Run every bound within one budget and cross-check the internal
    consistency relations; a broken relation flags an internal error.

    Fooling sets and ranks come first. The fooling sets do not check the
    budget. Both ranks check it before each color's matrix is built, the
    rational ranks also at every pivot column, and a color whose rank it cuts
    is left out of `rank_gf2` or `rank_rational`, with every color after
    it. Catalog enumeration and the exact search share what is left of the
    budget (see solve_cover). On timeout `cover_bounds` is (lower, upper)
    with the upper bound at most the row-strip cover size; a timeout
    before the greedy covers are built leaves `cover_greedy` unset and
    bounds the cover by the color count and the row-strip cover."""
    _require_bounds_domain(f)
    deadline = time.monotonic() + timeout_s
    summary = BoundSummary(color_count=f.num_colors, fooling=fooling_sizes(f))
    for field_name, ranks in (("gf2", summary.rank_gf2), ("rational", summary.rank_rational)):
        try:
            for c in range(f.num_colors):
                ranks[c] = comm_matrix_rank(f, field_name, c, deadline)
        except SolverTimeoutError:
            pass  # the deadline has passed: every later color would be cut too
    summary.cover_greedy, summary.cover_exact, summary.cover_witness, summary.cover_bounds = (
        solve_cover(f, deadline, summary.fooling_sum)
    )
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
        for color, size in summary.fooling.items():
            if size > witness_colors.count(color):
                problems.append(f"fooling[{color}] exceeds witness boxes of that color")
    if problems:
        summary.status["internal"] = "internal-error: " + "; ".join(problems)
    return summary
