"""Colored function / relation tables, protocol generators, error protocols,
and AM branch families.

Generators are deterministic under (kind, params, seed): they draw only from
numpy's seeded PCG64 stream and from the portable hash in core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Box,
    Cover,
    DomainShape,
    Protocol,
    ProtocolTree,
    TranscriptSelector,
    TreeLeaf,
    TreeSplit,
    box,
    compile_tree,
    indices_from_mask,
    mask_from_indices,
    pack_rows,
    selector_labels,
    unpack_rows,
)
from .errors import GenerationFailureError, InvalidInputError

# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True, eq=False)
class ColoredFunction:
    """Dense per-cell color table; color ids are contiguous from 0."""

    shape: DomainShape
    colors: np.ndarray  # int array shaped like the domain

    def __post_init__(self):
        arr = np.asarray(self.colors, dtype=np.int64)
        if arr.shape != tuple(self.shape.sizes):
            raise InvalidInputError("color table shape does not match domain")
        if arr.min() < 0:
            raise InvalidInputError("color ids must be non-negative")
        # k contiguous ids need k cells, so the max bounds the bincount's length
        if arr.max() >= arr.size or not np.bincount(arr.reshape(-1)).all():
            raise InvalidInputError("color ids must be contiguous from 0")
        arr.flags.writeable = False
        object.__setattr__(self, "colors", arr)

    @property
    def num_colors(self) -> int:
        return int(self.colors.max()) + 1

    def flat(self) -> np.ndarray:
        return self.colors.reshape(-1)


def dense_ids(values: np.ndarray, bound: int) -> np.ndarray:
    """Each value's rank among the distinct values, for non-negative ints
    below `bound`: np.unique's inverse, from a presence table instead of a
    sort."""
    present = np.zeros(bound, dtype=bool)
    present[values] = True
    return (present.cumsum() - 1)[values]


@dataclass(frozen=True, eq=False)
class Relation:
    """Per-cell admissible color sets, stored as int bitmasks over color ids
    0..num_colors-1. "Smallest admissible" means smallest id."""

    shape: DomainShape
    admissible: tuple[int, ...]  # flat row-major, one bitmask per cell
    num_colors: int

    def __post_init__(self):
        masks = tuple(int(m) for m in self.admissible)
        if len(masks) != self.shape.num_cells:
            raise InvalidInputError("admissible table length does not match domain")
        full = (1 << self.num_colors) - 1
        for i, m in enumerate(masks):
            if m == 0:
                raise InvalidInputError(
                    f"cell {self.shape.cell_of_linear(i)} admits no color"
                )
            if m & ~full:
                raise InvalidInputError("admissible set contains out-of-range color id")
        object.__setattr__(self, "admissible", masks)

    def admissible_ids(self, cell) -> tuple[int, ...]:
        return indices_from_mask(self.admissible[self.shape.linear_index(cell)])


@dataclass(frozen=True, eq=False)
class ErrorProtocol:
    """Protocol plus per-party output tables g_a(row, box) / g_b(col, box).

    Entries are color ids, -1 where undefined; the tables must be defined
    wherever the input is a row/column of the box. Two-party only.
    """

    protocol: Protocol
    g_a: np.ndarray  # (n_rows, n_boxes)
    g_b: np.ndarray  # (n_cols, n_boxes)

    def __post_init__(self):
        shape = self.protocol.shape
        if shape.arity != 2:
            raise InvalidInputError("error protocols are two-party")
        n_boxes = self.protocol.cover.num_boxes
        ga = np.asarray(self.g_a, dtype=np.int64)
        gb = np.asarray(self.g_b, dtype=np.int64)
        if ga.shape != (shape.sizes[0], n_boxes):
            raise InvalidInputError("g_a table has wrong shape")
        if gb.shape != (shape.sizes[1], n_boxes):
            raise InvalidInputError("g_b table has wrong shape")
        for i, b in enumerate(self.protocol.cover.boxes):
            rows = list(indices_from_mask(b.masks[0]))
            cols = list(indices_from_mask(b.masks[1]))
            if (ga[rows, i] < 0).any():
                raise InvalidInputError(f"g_a undefined for a row of box {i}")
            if (gb[cols, i] < 0).any():
                raise InvalidInputError(f"g_b undefined for a column of box {i}")
        ga.flags.writeable = False
        gb.flags.writeable = False
        object.__setattr__(self, "g_a", ga)
        object.__setattr__(self, "g_b", gb)

    @property
    def shape(self) -> DomainShape:
        return self.protocol.shape


@dataclass(frozen=True)
class AMProtocol:
    """Uniform mixture of error protocols, one branch per randomness value."""

    branches: tuple[ErrorProtocol, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise InvalidInputError("AM protocol needs at least one branch")
        shape = self.branches[0].shape
        for b in self.branches[1:]:
            if b.shape.sizes != shape.sizes:
                raise InvalidInputError("AM branches must share a domain shape")

    @property
    def shape(self) -> DomainShape:
        return self.branches[0].shape


# ---------------------------------------------------------------------------
# Function generators


def xor_function(n: int) -> ColoredFunction:
    """f(x, y) = bitwise XOR of the n-bit row and column indices."""
    if n < 1:
        raise InvalidInputError("xor needs n >= 1")
    size = 1 << n
    shape = DomainShape((size, size))
    idx = np.arange(size)
    return ColoredFunction(shape, np.bitwise_xor.outer(idx, idx))


def eq_function(n: int) -> ColoredFunction:
    """f(x, y) = 1 iff x == y, else 0."""
    if n < 1:
        raise InvalidInputError("eq needs n >= 1")
    size = 1 << n
    shape = DomainShape((size, size))
    idx = np.arange(size)
    return ColoredFunction(shape, np.equal.outer(idx, idx).astype(np.int64))


def matvec_function(arity: int, n: int) -> ColoredFunction:
    """GF(2) matrix-vector product: parties 1..arity-1 hold n-bit column
    vectors, the last party holds an (arity-1)-bit coefficient vector, and the
    color is the XOR of the selected columns (bit j of the last input selects
    column j; integers encode vectors little-endian)."""
    if arity < 3:
        raise InvalidInputError("matvec needs at least 3 parties")
    if n < 1:
        raise InvalidInputError("matvec needs n >= 1")
    col_size = 1 << n
    coeff_size = 1 << (arity - 1)
    shape = DomainShape((col_size,) * (arity - 1) + (coeff_size,))
    colors = np.zeros(shape.sizes, dtype=np.int64)
    for cell in shape.cells():
        coeffs = cell[-1]
        acc = 0
        for j in range(arity - 1):
            if (coeffs >> j) & 1:
                acc ^= cell[j]
        colors[cell] = acc
    return ColoredFunction(shape, colors)


def constant_function(shape: DomainShape) -> ColoredFunction:
    return ColoredFunction(shape, np.zeros(shape.sizes, dtype=np.int64))


def random_function(shape: DomainShape, num_colors: int, seed: int) -> ColoredFunction:
    """Uniform per-cell colors, relabeled to a contiguous 0..k-1 id space."""
    if num_colors < 1:
        raise InvalidInputError("need at least one color")
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, num_colors, size=shape.sizes)
    return ColoredFunction(shape, dense_ids(raw, num_colors))


def gen_function(kind: str, **params) -> ColoredFunction:
    """Dispatcher used by the CLI; see the named constructors for semantics."""
    if kind == "xor":
        return xor_function(params["n"])
    if kind == "eq":
        return eq_function(params["n"])
    if kind == "matvec":
        return matvec_function(params["arity"], params["n"])
    if kind == "constant":
        return constant_function(params["shape"])
    if kind == "random":
        return random_function(params["shape"], params["num_colors"], params["seed"])
    raise InvalidInputError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# Relation generators

_POPCOUNT_DTYPE = np.uint32


def approx_xor_relation(n: int, delta: float) -> Relation:
    """Admissible(x, y) = all z within Hamming distance floor(delta*n) of x^y."""
    if n < 1:
        raise InvalidInputError("approx-xor needs n >= 1")
    if not 0.0 <= delta <= 1.0:
        raise InvalidInputError("delta must lie in [0, 1]")
    radius = int(np.floor(delta * n))
    size = 1 << n
    shape = DomainShape((size, size))
    values = np.arange(size, dtype=_POPCOUNT_DTYPE)
    dist = np.bitwise_count(np.bitwise_xor.outer(values, values))
    ball_masks = pack_rows(dist <= radius)
    target = np.bitwise_xor.outer(np.arange(size), np.arange(size)).reshape(-1)
    return Relation(shape, tuple(ball_masks[int(v)] for v in target), size)


def relation_from_table(shape: DomainShape, admissible_lists, num_colors: int) -> Relation:
    masks = []
    for ids in admissible_lists:
        masks.append(mask_from_indices(ids, num_colors))
    return Relation(shape, tuple(masks), num_colors)


def gen_relation(kind: str, **params) -> Relation:
    if kind == "approx-xor":
        return approx_xor_relation(params["n"], params["delta"])
    if kind == "table":
        return relation_from_table(
            params["shape"], params["admissible"], params["num_colors"]
        )
    raise InvalidInputError(f"unknown relation kind {kind!r}")


# ---------------------------------------------------------------------------
# Cover generators


def trivial_merlin_cover(shape: DomainShape) -> Cover:
    """All-singleton partition: the prover names the exact cell."""
    boxes = tuple(
        Box(tuple(1 << c for c in cell)) for cell in shape.cells()
    )
    return Cover(shape, boxes)


def windmill_cover() -> Cover:
    """The fixed five-box pinwheel partition of the 4x4 grid."""
    shape = DomainShape((4, 4))
    return Cover(
        shape,
        (
            box(shape, [0], [0, 1, 2]),
            box(shape, [0, 1, 2], [3]),
            box(shape, [3], [1, 2, 3]),
            box(shape, [1, 2, 3], [0]),
            box(shape, [1, 2], [1, 2]),
        ),
    )


def random_tree(
    shape: DomainShape,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    split_prob: float | None = None,
) -> ProtocolTree:
    """Random protocol tree: at each node, with probability split_prob pick a
    splittable party uniformly and cut its index set into two random nonempty
    halves. split_prob defaults to a per-tree draw from [0.30, 0.90]."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if split_prob is None:
        split_prob = int(rng.integers(30, 91)) / 100.0
    random, integers = rng.random, rng.integers
    # integers(0, 2, size=k) is the top bits of k next_uint32() draws: for a
    # range of 2, Lemire's bounded draw never rejects, as 2 divides 2**32.
    # Drawing them straight from the bit generator gives the same bits and
    # state without numpy's per-call cost, and skips the Generator's lock:
    # no commlab code shares a generator between threads.
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state

    def build(masks: tuple[int, ...]):
        splittable = [i for i, m in enumerate(masks) if m.bit_count() >= 2]
        if not splittable or random() >= split_prob:
            return TreeLeaf()
        # integers(1) is always 0 and draws nothing, so a lone candidate skips it
        owner = splittable[int(integers(len(splittable)))] if len(splittable) > 1 else splittable[0]
        idxs = indices_from_mask(masks[owner])
        while True:
            side = [next_uint32(state) >> 31 for _ in idxs]
            if 0 < sum(side) < len(idxs):
                break
        left = 0
        for t, i in zip(side, idxs):
            if t:
                left |= 1 << i
        right = masks[owner] ^ left
        return TreeSplit(
            owner,
            left,
            right,
            build(masks[:owner] + (left,) + masks[owner + 1 :]),
            build(masks[:owner] + (right,) + masks[owner + 1 :]),
        )

    return ProtocolTree(shape, build(tuple((1 << s) - 1 for s in shape.sizes)))


def _random_box(shape: DomainShape, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The drawn index array of each factor of one random box."""
    # factor sizes biased small so additions fit under tight thickness caps;
    # occasionally draw a large factor for variety
    drawn = []
    for s in shape.sizes:
        if rng.random() < 0.25:
            k = 1 + int(rng.integers(s))
        else:
            k = 1 + int(rng.integers(min(s, 3)))
        drawn.append(rng.choice(s, size=k, replace=False))
    return tuple(drawn)


def random_bounded_cover(
    shape: DomainShape,
    rho_max: int,
    extra: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    attempt_budget: int | None = None,
) -> Cover:
    """Random tree partition plus `extra` random boxes, rejecting any addition
    that would push a cell's thickness above rho_max.

    Sampling stops as soon as every cell is at rho_max. Until then a draw can
    still be accepted (any single cell is a possible box), so stopping early
    changes no outcome and no RNG call of a successful seed."""
    if rho_max < 1:
        raise InvalidInputError("rho_max must be >= 1")
    if extra < 0:
        raise InvalidInputError("extra must be >= 0")
    if rng is None:
        rng = np.random.default_rng(seed)
    base = compile_tree(random_tree(shape, rng=rng)).cover
    boxes = list(base.boxes)
    counts = np.ones(shape.sizes, dtype=np.int64)  # tree leaves partition the grid
    open_cells = counts.size if rho_max > 1 else 0  # cells still below rho_max
    budget = 1000 * extra if attempt_budget is None else attempt_budget
    attempts = 0
    added = 0
    while added < extra:
        if open_cells == 0 or attempts >= budget:
            why = "every cell is at the cap" if open_cells == 0 else f"no fit in {attempts} attempts"
            raise GenerationFailureError(
                f"could not add {extra} boxes under rho_max={rho_max}: {why} (seed={seed})",
                seed=seed,
            )
        attempts += 1
        drawn = _random_box(shape, rng)
        # the open mesh np.ix_ builds, without its per-call cost; the drawn
        # indices are distinct, so each cell is written once
        cells = tuple(d.reshape((-1,) + (1,) * (len(drawn) - 1 - k)) for k, d in enumerate(drawn))
        sub = counts[cells]
        if (sub >= rho_max).any():
            continue
        counts[cells] = sub + 1
        open_cells -= int(np.count_nonzero(sub == rho_max - 1))
        boxes.append(Box.from_factors(drawn, shape))
        added += 1
    return Cover(shape, tuple(boxes))


def gen_cover(kind: str, **params) -> Cover:
    if kind == "trivial-merlin":
        target = params.get("target")
        shape = target.shape if target is not None else params["shape"]
        return trivial_merlin_cover(shape)
    if kind == "from-tree":
        return compile_tree(params["tree"]).cover
    if kind == "random-bounded":
        return random_bounded_cover(
            params["shape"],
            params["rho_max"],
            params["extra"],
            seed=params.get("seed"),
            rng=params.get("rng"),
        )
    if kind == "windmill":
        return windmill_cover()
    raise InvalidInputError(f"unknown cover kind {kind!r}")


def parity_tightness_protocol(n: int = 1) -> Protocol:
    """Two copies of the full domain box with the parity selector
    t(x, y) = popcount(x ^ y) mod 2. Under the uniform distribution this makes
    the main inequality tight: the transcript creates one bit of conditional
    correlation and the thickness term pays for it exactly."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    size = 1 << n
    shape = DomainShape((size, size))
    full = Box(((1 << size) - 1, (1 << size) - 1))
    idx = np.arange(size, dtype=_POPCOUNT_DTYPE)
    parity = np.bitwise_count(np.bitwise_xor.outer(idx, idx)) & 1
    return Protocol(
        Cover(shape, (full, full)),
        TranscriptSelector.explicit(parity.reshape(-1).tolist()),
    )


# ---------------------------------------------------------------------------
# Colors of boxes, correctness sets


def monochromatic_color(b: Box, target: ColoredFunction | Relation) -> int | None:
    """Function: the unique color on the box, if any. Relation: the smallest
    color admissible at every cell of the box, if any."""
    b.validate(target.shape)
    factors = b.factors()
    if isinstance(target, ColoredFunction):
        sub = target.colors[np.ix_(*factors)]
        first = sub.flat[0]
        return int(first) if (sub == first).all() else None
    cells = [0]  # the box's row-major flat indices, one factor at a time
    for f, s in zip(factors, target.shape.sizes):
        cells = [i * s + c for i in cells for c in f]
    common = (1 << target.num_colors) - 1
    for i in cells:
        common &= target.admissible[i]
        if common == 0:
            return None
    return (common & -common).bit_length() - 1


def good_mask(ep: ErrorProtocol, target: ColoredFunction | Relation) -> np.ndarray:
    """Flat bool mask of the cells where both parties output the same value
    and that value is correct (function) or admissible (relation)."""
    shape = ep.shape
    if target.shape.sizes != shape.sizes:
        raise InvalidInputError("target shape does not match protocol domain")
    t = selector_labels(ep.protocol)
    rows, cols = shape.coordinate_labels()
    a = ep.g_a[rows, t]
    ok = (a == ep.g_b[cols, t]) & (a >= 0)
    if isinstance(target, ColoredFunction):
        return ok & (a == target.flat())
    for i in np.flatnonzero(ok).tolist():
        ok[i] = (target.admissible[i] >> int(a[i])) & 1
    return ok


def good_set(ep: ErrorProtocol, target: ColoredFunction | Relation) -> set[tuple[int, int]]:
    """The cells of good_mask."""
    cells = np.flatnonzero(good_mask(ep, target)).tolist()
    return {ep.shape.cell_of_linear(i) for i in cells}


def error_rate(ep: ErrorProtocol, target: ColoredFunction | Relation) -> float:
    return 1.0 - int(good_mask(ep, target).sum()) / ep.shape.num_cells


def error_protocol_from_cover(
    protocol: Protocol, target: ColoredFunction | Relation
) -> ErrorProtocol:
    """Zero-error protocol for a cover whose boxes are all monochromatic:
    both parties output the designated box's color."""
    shape = protocol.shape
    if shape.arity != 2:
        raise InvalidInputError("error protocols are two-party")
    boxes = protocol.cover.boxes
    colors = [monochromatic_color(b, target) for b in boxes]
    if None in colors:
        raise InvalidInputError(f"box {colors.index(None)} is not monochromatic for the target")
    in_a, in_b = (unpack_rows([b.masks[k] for b in boxes], shape.sizes[k]).T for k in (0, 1))
    return ErrorProtocol(protocol, np.where(in_a, colors, -1), np.where(in_b, colors, -1))


def trivial_merlin_am(target: ColoredFunction | Relation) -> AMProtocol:
    """Single-branch AM protocol over the all-singleton partition."""
    protocol = Protocol(trivial_merlin_cover(target.shape), TranscriptSelector.min_index())
    return AMProtocol((error_protocol_from_cover(protocol, target),))
