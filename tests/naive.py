"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive (dict loops, plain sums) and shares no
code with the implementation under test.
"""

from __future__ import annotations

import math
from itertools import combinations, groupby, product


def pairwise_sum_levels(values) -> float:
    """Adjacent-pairwise tree sum by its level-by-level definition: add
    neighbours (0, 1), (2, 3), ..., carry an odd last element unchanged, and
    repeat until one value is left. Python floats are IEEE doubles, so this
    is bit-comparable with any implementation of the same tree."""
    level = [float(v) for v in values]
    if not level:
        return 0.0
    while len(level) > 1:
        pairs = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            pairs.append(level[-1])
        level = pairs
    return level[0]


def grouped_pairwise_sums_levels(values, group_ids) -> list:
    """pairwise_sum_levels over each run of equal consecutive group ids."""
    runs = groupby(zip(values, group_ids), key=lambda pair: pair[1])
    return [pairwise_sum_levels([value for value, _ in run]) for _, run in runs]


def entropy_levels(probs, labels, log2) -> float:
    """Joint entropy summed with the engine's trees: each outcome's mass is
    pairwise_sum_levels over its cells in index order, and H is
    pairwise_sum_levels of -q*log2(q) over the outcomes in ascending label
    order, a zero mass adding -0.0. The caller passes log2, so that both
    sides take the same elementwise logarithm (numpy's and math's can differ
    in the last bit)."""
    cells_of: dict = {}
    for p, label in zip(probs, labels):
        cells_of.setdefault(label, []).append(float(p))
    masses = [pairwise_sum_levels(cells_of[k]) for k in sorted(cells_of)]
    return pairwise_sum_levels([-q * log2(q) if q > 0.0 else -0.0 for q in masses])


def naive_entropy(prob_by_key: dict) -> float:
    """H of a {outcome: probability} table, plain left-to-right sum."""
    total = 0.0
    for p in prob_by_key.values():
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def project(p_by_cell: dict, keyfunc) -> dict:
    out: dict = {}
    for cell, p in p_by_cell.items():
        k = keyfunc(cell)
        out[k] = out.get(k, 0.0) + p
    return out


def naive_joint_entropy(p_by_cell: dict, keyfunc) -> float:
    return naive_entropy(project(p_by_cell, keyfunc))


def naive_mutual_information(p_by_cell: dict, f_a, f_b) -> float:
    return (
        naive_joint_entropy(p_by_cell, f_a)
        + naive_joint_entropy(p_by_cell, f_b)
        - naive_joint_entropy(p_by_cell, lambda c: (f_a(c), f_b(c)))
    )


def naive_conditional_mi(p_by_cell: dict, f_a, f_b, f_w) -> float:
    h = naive_joint_entropy
    return (
        h(p_by_cell, lambda c: (f_a(c), f_w(c)))
        + h(p_by_cell, lambda c: (f_b(c), f_w(c)))
        - h(p_by_cell, lambda c: (f_a(c), f_b(c), f_w(c)))
        - h(p_by_cell, f_w)
    )


def enumerate_all_boxes(n_rows: int, n_cols: int):
    """Every nonempty rectangle of a small grid as (row tuple, col tuple)."""
    rows = [c for k in range(1, n_rows + 1) for c in combinations(range(n_rows), k)]
    cols = [c for k in range(1, n_cols + 1) for c in combinations(range(n_cols), k)]
    for r in rows:
        for c in cols:
            yield r, c


def brute_maximal_monochromatic(colors) -> dict:
    """All maximal monochromatic rectangles per color by full enumeration."""
    n_rows = len(colors)
    n_cols = len(colors[0])
    mono: dict[int, list] = {}
    for r, c in enumerate_all_boxes(n_rows, n_cols):
        values = {colors[x][y] for x in r for y in c}
        if len(values) == 1:
            mono.setdefault(values.pop(), []).append((set(r), set(c)))
    out: dict[int, list] = {}
    for color, boxes in mono.items():
        maximal = []
        for r1, c1 in boxes:
            dominated = any(
                (r1 <= r2 and c1 <= c2) and (r1, c1) != (r2, c2) for r2, c2 in boxes
            )
            if not dominated:
                maximal.append((tuple(sorted(r1)), tuple(sorted(c1))))
        out[color] = sorted(set(maximal))
    return out


def is_fooling_set(colors, color: int, cells) -> bool:
    """Every cell has `color`, and every two cells cross: at least one of
    their crossed cells (x1, y2), (x2, y1) does not. `colors` is a list of
    rows."""
    cells = list(cells)
    if any(colors[x][y] != color for x, y in cells):
        return False
    for (x1, y1), (x2, y2) in combinations(cells, 2):
        if colors[x1][y2] == color and colors[x2][y1] == color:
            return False
    return True


def fooling_graph(colors, color: int):
    """The cells of `color` in row-major order, and per cell the int bitset
    of the cells it fools: (x1, y1) and (x2, y2) fool each other when
    (x1, y2) or (x2, y1) has another color. `colors` is a list of rows."""
    cells = [(x, y) for x, row in enumerate(colors) for y, v in enumerate(row) if v == color]
    neighbor = [
        sum(
            1 << j
            for j, (x2, y2) in enumerate(cells)
            if colors[x1][y2] != color or colors[x2][y1] != color
        )
        for x1, y1 in cells
    ]
    return cells, neighbor


def first_maximum_fooling_set(colors, color: int):
    """The maximum fooling set of `color` that comes first in lexicographic
    row-major cell order, by a plain clique search on fooling_graph: cells
    added in ascending order, a branch cut only when the cells left to add
    cannot lift it past the best set found, so the first set of each new
    size is kept."""
    cells, neighbor = fooling_graph(colors, color)
    best: list = []

    def expand(current: list, allowed: int):
        nonlocal best
        if not allowed:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + bin(allowed).count("1") <= len(best):
            return
        m = allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            current.append(v)
            expand(current, allowed & neighbor[v] & ~((1 << (v + 1)) - 1))
            current.pop()
            if len(current) + bin(m).count("1") <= len(best):
                return

    expand([], (1 << len(cells)) - 1)
    return tuple(cells[i] for i in best)


def greedy_fooling_set(colors, color: int):
    """Each cell of `color`, in row-major order, joins when it fools every
    cell taken before (see fooling_graph)."""
    chosen: list = []
    for x1, row in enumerate(colors):
        for y1, v in enumerate(row):
            if v == color and all(
                colors[x1][y2] != color or colors[x2][y1] != color for x2, y2 in chosen
            ):
                chosen.append((x1, y1))
    return tuple(chosen)


def brute_force_cover_number(n_rows: int, n_cols: int, boxes) -> int:
    """Fewest of the given (rows, cols) rectangles whose union is the whole
    grid, by subset enumeration; only for at most 20 rectangles."""
    if len(boxes) > 20:
        raise ValueError("oracle is capped at 20 rectangles")
    masks = [sum(1 << (x * n_cols + y) for x in rows for y in cols) for rows, cols in boxes]
    universe = (1 << (n_rows * n_cols)) - 1
    for k in range(1, len(masks) + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == universe:
                return k
    raise ValueError("rectangles do not cover the grid")


def plain_cover_search(masks, cell_boxes, by_size, best, uncovered, banned=0):
    """The exact cover search of one colour with no LP dual bound, on plain
    ints: masks[i] is box i's cells, cell_boxes[c] the boxes through cell c,
    by_size the boxes most cells first. From `best`, a cover of the cells of
    `uncovered` by boxes outside `banned`, depth first: prune when the
    independent cells (lowest first, pairwise without a common live box)
    or the gain bound (no live box covers 1/(need-1) of the cells) show
    that `need` more boxes cannot beat the incumbent; branch on the first
    cell with the fewest live boxes, its boxes largest restriction first
    (ties: lower index), each banning those before it, skipping one whose
    restriction lies inside a kept one's, and completing in place a branch
    that one more box must finish. Returns the last cover found: a minimum,
    or `best` when none is smaller."""
    best = list(best)

    def bits(m):
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def count(m):
        return bin(m).count("1")

    def search(uncovered, chosen, banned):
        nonlocal best
        need = len(best) - len(chosen)
        taken = independent = 0
        for c in bits(uncovered):
            live = cell_boxes[c] & ~banned
            if not live & taken:
                taken |= live
                independent += 1
        if independent >= need:
            return
        n_uncovered = count(uncovered)
        if not any(
            not banned >> i & 1 and count(masks[i] & uncovered) * (need - 1) >= n_uncovered
            for i in by_size
        ):
            return
        pick, pick_count = -1, None
        for c in bits(uncovered):
            n = count(cell_boxes[c] & ~banned)
            if pick_count is None or n < pick_count:
                pick, pick_count = c, n
                if n <= 1:
                    break
        kept = []
        for i in sorted(bits(cell_boxes[pick] & ~banned), key=lambda i: -count(masks[i] & uncovered)):
            r = masks[i] & uncovered
            banned |= 1 << i
            if any(r | s == s for s in kept):
                continue
            kept.append(r)
            rest = uncovered & ~r
            if not rest:
                best = chosen + [i]
                return
            need = len(best) - len(chosen)
            if need <= 2:
                continue
            if need == 3:
                completing = [j for j in range(len(masks)) if not banned >> j & 1 and rest & masks[j] == rest]
                if completing:
                    best = chosen + [i, completing[0]]
                continue
            search(rest, chosen + [i], banned)

    search(uncovered, [], banned)
    return best


def bounded_additions_full_budget(sizes, base_counts: dict, rho_max: int, extra: int, budget: int, rng):
    """Rejection sampling of `extra` boxes under a thickness cap, run to the
    end of its budget: draw a random box (per factor, with probability 1/4 a
    size uniform in 1..s, else uniform in 1..min(s, 3), then that many
    distinct indices), keep it if every cell stays at or below rho_max, and
    give up only after `budget` draws. base_counts maps each cell tuple to its
    thickness before the additions. Returns each kept box as a tuple of
    sorted index tuples, or None when the budget runs out first."""
    counts = dict(base_counts)
    kept = []
    for _ in range(budget):
        if len(kept) == extra:
            break
        drawn = []
        for s in sizes:
            if rng.random() < 0.25:
                k = 1 + int(rng.integers(s))
            else:
                k = 1 + int(rng.integers(min(s, 3)))
            drawn.append([int(i) for i in rng.choice(s, size=k, replace=False)])
        cells = list(product(*drawn))
        if all(counts[c] < rho_max for c in cells):
            for c in cells:
                counts[c] += 1
            kept.append(tuple(tuple(sorted(d)) for d in drawn))
    return kept if len(kept) == extra else None


def random_tree_reference(sizes, rng, split_prob=None):
    """A random protocol tree by the recursion of its first version: at each
    node, with probability split_prob, a party that holds two or more indices
    is picked uniformly, always with integers(number of such parties), and its
    indices are cut by fair coins redrawn until both halves are nonempty.
    split_prob defaults to integers(30, 91) / 100. A leaf is None and a split
    is (owner, left mask, right mask, left subtree, right subtree)."""
    if split_prob is None:
        split_prob = int(rng.integers(30, 91)) / 100.0

    def build(masks):
        splittable = [i for i in range(len(sizes)) if bin(masks[i]).count("1") >= 2]
        if not splittable or rng.random() >= split_prob:
            return None
        owner = splittable[int(rng.integers(len(splittable)))]
        idxs = [i for i in range(sizes[owner]) if (masks[owner] >> i) & 1]
        while True:
            side = rng.integers(0, 2, size=len(idxs))
            if 0 < int(side.sum()) < len(idxs):
                break
        left = sum(1 << i for t, i in zip(side.tolist(), idxs) if t)
        right = masks[owner] ^ left
        return (
            owner,
            left,
            right,
            build(masks[:owner] + (left,) + masks[owner + 1 :]),
            build(masks[:owner] + (right,) + masks[owner + 1 :]),
        )

    return build(tuple((1 << s) - 1 for s in sizes))
