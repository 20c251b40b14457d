"""Colored function / relation tables, protocol generators, error protocols,
and AM branch families.

Generators are deterministic under (kind, params, seed): they draw only from
numpy's seeded PCG64 stream and from the portable hash in core.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_BITS,
    Box,
    Cover,
    DomainShape,
    Protocol,
    ProtocolTree,
    TranscriptSelector,
    TreeLeaf,
    TreeSplit,
    box,
    dense_ids,
    indices_from_mask,
    pack_rows,
    selector_labels,
    unpack_rows,
)
from .errors import GenerationFailureError, InvalidInputError

MAX_RELATION_COLORS = 1 << MAX_BITS  # approx_xor_relation's colors at the widest n

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


@dataclass(frozen=True, eq=False)
class Relation:
    """Per-cell admissible color sets, stored as int bitmasks over color ids
    0..num_colors-1. "Smallest admissible" means smallest id."""

    shape: DomainShape
    admissible: tuple[int, ...]  # flat row-major, one bitmask per cell
    num_colors: int

    def __post_init__(self):
        if not 1 <= self.num_colors <= MAX_RELATION_COLORS:  # before masks that wide are built
            raise InvalidInputError(f"a relation has 1..{MAX_RELATION_COLORS} colors")
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


def _side(n: int, name: str) -> int:
    """2**n, the side of an n-bit party's dimension. n is checked against
    the dimension cap before the shift: a huge n would otherwise build a huge
    int first, and DomainShape could not even format it into its error."""
    if not 1 <= n <= MAX_BITS:
        raise InvalidInputError(f"{name} needs 1 <= n <= {MAX_BITS}, got {n}")
    return 1 << n


def xor_function(n: int) -> ColoredFunction:
    """f(x, y) = bitwise XOR of the n-bit row and column indices."""
    size = _side(n, "xor")
    shape = DomainShape((size, size))
    idx = np.arange(size)
    return ColoredFunction(shape, np.bitwise_xor.outer(idx, idx))


def eq_function(n: int) -> ColoredFunction:
    """f(x, y) = 1 iff x == y, else 0."""
    size = _side(n, "eq")
    shape = DomainShape((size, size))
    idx = np.arange(size)
    return ColoredFunction(shape, np.equal.outer(idx, idx).astype(np.int64))


def matvec_function(arity: int, n: int) -> ColoredFunction:
    """GF(2) matrix-vector product: parties 1..arity-1 hold n-bit column
    vectors, the last party holds an (arity-1)-bit coefficient vector, and the
    color is the XOR of the selected columns (bit j of the last input selects
    column j; integers encode vectors little-endian)."""
    if not 3 <= arity <= MAX_BITS + 1:  # the coefficient party has arity - 1 bits
        raise InvalidInputError(f"matvec needs 3 <= arity <= {MAX_BITS + 1}, got {arity}")
    col_size = _side(n, "matvec")
    coeff_size = 1 << (arity - 1)
    shape = DomainShape((col_size,) * (arity - 1) + (coeff_size,))
    *columns, coeffs = np.ix_(*(np.arange(s) for s in shape.sizes))
    colors = np.zeros(shape.sizes, dtype=np.int64)
    for j, column in enumerate(columns):
        colors ^= column * ((coeffs >> j) & 1)
    return ColoredFunction(shape, colors)


def constant_function(shape: DomainShape) -> ColoredFunction:
    return ColoredFunction(shape, np.zeros(shape.sizes, dtype=np.int64))


def random_function(shape: DomainShape, num_colors: int, seed: int) -> ColoredFunction:
    """Uniform per-cell colors among num_colors (1..2**63-1, drawn from
    seed >= 0), relabeled to a contiguous 0..k-1 id space."""
    top = np.iinfo(np.int64).max
    if not 1 <= num_colors <= top:
        raise InvalidInputError(f"need 1 <= colors <= {top}, got {num_colors}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    raw = np.random.default_rng(seed).integers(0, num_colors, size=shape.sizes)
    return ColoredFunction(shape, dense_ids(raw, num_colors))


def gen_function(kind: str, **params) -> ColoredFunction:
    """The one dispatch on function kinds, for the CLI and named specs in
    instance files; see the named constructors for semantics."""
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
    size = _side(n, "approx-xor")
    if not 0.0 <= delta <= 1.0:
        raise InvalidInputError("delta must lie in [0, 1]")
    radius = int(np.floor(delta * n))
    shape = DomainShape((size, size))
    values = np.arange(size, dtype=_POPCOUNT_DTYPE)
    dist = np.bitwise_count(np.bitwise_xor.outer(values, values))
    ball_masks = pack_rows(dist <= radius)
    target = np.bitwise_xor.outer(np.arange(size), np.arange(size)).reshape(-1)
    return Relation(shape, tuple(ball_masks[int(v)] for v in target), size)


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


READER_FIRST_BLOCK = 64  # words in a reader's first block; each later block doubles
READER_BLOCK = 4096  # words in a reader's largest block, about 160 KB as Python ints


class _Draws:
    """A reader of a Generator's draws. It takes the bit generator's raw
    words in growing blocks (`random_raw`) and follows numpy's rules in plain
    Python, so every value, and the generator state once the reader closes,
    are those of the numpy calls it stands for. Open it with `with`; no numpy
    draw may touch the generator until the reader closes.

    - A 64-bit word gives numpy's buffered next_uint32 halves, low half
      first. The high half waits in the state's `has_uint32` and `uinteger`,
      which the reader reads on entry and writes back on exit; a half that is
      taken leaves `uinteger` stale, as numpy does. random() is
      (word >> 11) * 2**-53. A bit generator whose state has no
      `has_uint32` (MT19937, whose words are 32 bits) is refused on entry.
    - A bounded integer below n (`rng.integers(n)`) follows Lemire's method
      (Lemire 2019, "Fast random integer generation in an interval"): a
      next_uint32 x gives m = x * n, redrawn while
      m mod 2**32 < (2**32 - n) mod n, and the value is m >> 32. A range of
      1 draws nothing.
    - `choice(s, size=k, replace=False)` runs Floyd's algorithm over
      j = s-k..s-1, then shuffles positions k-1..1 (numpy's path for
      populations up to 10,000, and MAX_DIM_SIZE keeps every dimension below
      that).

    On every exit, an exception's included, the generator goes back to the
    state saved before the last block and re-draws the words read from it."""

    __slots__ = ("_bits", "_words", "_pop", "_block", "_saved", "_has", "_half")

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        self._words: list[int] = []  # the last block's unread words, the next one last
        self._pop = self._words.pop
        self._block = 0  # the last block's size

    def __enter__(self) -> "_Draws":
        state = self._saved = self._bits.state
        if "has_uint32" not in state:
            raise InvalidInputError(f"{state['bit_generator']} has no 64-bit words to draw from")
        self._has, self._half = state["has_uint32"], state["uinteger"]
        return self

    def __exit__(self, *exc) -> None:
        state = self._saved
        state["has_uint32"], state["uinteger"] = self._has, self._half
        self._bits.state = state
        self._bits.random_raw(self._block - len(self._words))

    def _refill(self) -> None:
        """Read the next block, twice the last one up to READER_BLOCK words,
        after saving the state it starts from."""
        if self._block:
            self._saved = self._bits.state
        n = self._block = min(2 * self._block or READER_FIRST_BLOCK, READER_BLOCK)
        self._words[:] = self._bits.random_raw(n)[::-1].tolist()

    def _word(self) -> int:
        try:
            return self._pop()
        except IndexError:
            self._refill()
            return self._pop()

    def _next32(self) -> int:
        """numpy's next_uint32: the waiting high half, else a new word's low half."""
        if self._has:
            self._has = 0
            return self._half
        w = self._word()
        self._has, self._half = 1, w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        """rng.random(): one whole word; a waiting half keeps waiting."""
        return (self._word() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """int(rng.integers(n)), for 1 <= n <= 2**32."""
        if n == 1:
            return 0
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:  # n bounds the threshold, so most draws skip it
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def sample(self, s: int, k: int) -> list[int]:
        """rng.choice(s, size=k, replace=False).tolist(), for k <= s <= 10,000."""
        below = self.below
        out: list[int] = []
        taken: set[int] = set()
        for j in range(s - k, s):
            v = below(j + 1)
            if v in taken:
                v = j
            taken.add(v)
            out.append(v)
        for i in range(k - 1, 0, -1):
            j = below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def coins(self, k: int) -> list[int]:
        """rng.integers(0, 2, size=k).tolist(): for a range of 2 each value
        is the top bit of one next_uint32, as 2 divides 2**32."""
        next32 = self._next32
        return [next32() >> 31 for _ in range(k)]


def _reader(rng: np.random.Generator | _Draws | None, seed: int | None):
    """The reader to draw with: a new one over rng, or over a generator from
    seed when rng is None. An open reader passed as rng is used as it is;
    its owner closes it."""
    if isinstance(rng, _Draws):
        return contextlib.nullcontext(rng)
    return _Draws(np.random.default_rng(seed) if rng is None else rng)


def _grow_tree(shape: DomainShape, draws: _Draws, split_prob: float | None, nodes: bool):
    """random_tree's recursion, which the cover generators share: returns
    the root (None unless `nodes`) and the leaves' masks, left to right, the
    order in which compile_tree lists them. `masks` and `idxs` hold each
    party's index set at the current node, as a bitmask and as a list: a
    split sets the owner's entries for each child and puts them back
    after."""
    if split_prob is None:
        split_prob = (30 + draws.below(61)) / 100.0  # rng.integers(30, 91)
    random, below, coins = draws.random, draws.below, draws.coins
    leaves: list[tuple[int, ...]] = []
    leaf = TreeLeaf()
    masks = [(1 << s) - 1 for s in shape.sizes]
    idxs = [list(range(s)) for s in shape.sizes]

    def build():
        splittable = [i for i, ix in enumerate(idxs) if len(ix) > 1]
        if not splittable or random() >= split_prob:
            leaves.append(tuple(masks))
            return leaf
        owner = splittable[below(len(splittable))]
        mask, ix = masks[owner], idxs[owner]
        while True:
            side = coins(len(ix))
            left_ix = [i for t, i in zip(side, ix) if t]
            if 0 < len(left_ix) < len(ix):  # both halves nonempty
                break
        left = 0
        for i in left_ix:
            left |= 1 << i
        masks[owner], idxs[owner] = left, left_ix
        first = build()
        masks[owner], idxs[owner] = mask ^ left, [i for t, i in zip(side, ix) if not t]
        second = build()
        masks[owner], idxs[owner] = mask, ix
        return TreeSplit(owner, left, mask ^ left, first, second) if nodes else None

    return build(), leaves


def random_tree(
    shape: DomainShape,
    seed: int | None = None,
    rng: np.random.Generator | _Draws | None = None,
    split_prob: float | None = None,
) -> ProtocolTree:
    """Random protocol tree: at each node, with probability split_prob pick
    a splittable party uniformly and cut its index set into two random
    nonempty halves, by fair coins redrawn until both are nonempty.
    split_prob defaults to a per-tree draw from [0.30, 0.90]."""
    with _reader(rng, seed) as draws:
        return ProtocolTree(shape, _grow_tree(shape, draws, split_prob, nodes=True)[0])


def _random_box(shape: DomainShape, draws: _Draws) -> tuple[list[int], ...]:
    """The drawn indices of each factor of one random box, all from the
    reader: per factor a size, with probability 1/4 uniform in 1..s and else
    uniform in 1..min(s, 3), then that many distinct indices."""
    # factor sizes biased small so additions fit under tight thickness caps;
    # occasionally draw a large factor for variety
    drawn = []
    for s in shape.sizes:
        if draws.random() < 0.25:
            k = 1 + draws.below(s)
        else:
            k = 1 + draws.below(min(s, 3))
        drawn.append(draws.sample(s, k))
    return tuple(drawn)


def random_bounded_cover(
    shape: DomainShape,
    rho_max: int,
    extra: int,
    seed: int | None = None,
    rng: np.random.Generator | _Draws | None = None,
    attempt_budget: int | None = None,
) -> Cover:
    """Random tree partition plus `extra` random boxes, rejecting any addition
    that would push a cell's thickness above rho_max. With extra=0 it is the
    tree partition alone: compile_tree(random_tree(shape, seed, rng)).cover
    from the same draws, without building the tree's nodes.

    Sampling stops as soon as every cell is at rho_max. Until then a draw can
    still be accepted (any single cell is a possible box), so stopping early
    changes no outcome and no RNG call of a successful seed.

    A row is a cell's coordinates but the last. at[j][row], for j >= 1, is
    the bitset of the last coordinates of the row's cells at thickness j or
    more. Level j is made when a cell first reaches it, so the levels take
    memory in step with the boxes kept, whatever rho_max is."""
    if rho_max < 1:
        raise InvalidInputError("rho_max must be >= 1")
    if extra < 0:
        raise InvalidInputError("extra must be >= 0")
    *heads, last = shape.sizes
    rows = shape.num_cells // last
    # the tree leaves partition the grid, so every cell starts at thickness 1
    at = [None, [(1 << last) - 1] * rows]
    open_cells = shape.num_cells if rho_max > 1 else 0  # cells still below rho_max
    budget = 1000 * extra if attempt_budget is None else attempt_budget
    attempts = 0
    added = 0
    with _reader(rng, seed) as draws:
        boxes = [Box(m) for m in _grow_tree(shape, draws, None, nodes=False)[1]]
        while added < extra:
            if open_cells == 0 or attempts >= budget:
                why = (
                    "every cell is at the cap" if open_cells == 0 else f"no fit in {attempts} attempts"
                )
                raise GenerationFailureError(
                    f"could not add {extra} boxes under rho_max={rho_max}: {why} (seed={seed})"
                )
            attempts += 1
            drawn = _random_box(shape, draws)
            box_rows = [0]
            for d, s in zip(drawn, heads):
                box_rows = [r * s + i for r in box_rows for i in d]
            cols = 0
            for i in drawn[-1]:
                cols |= 1 << i
            if len(at) > rho_max and any(at[rho_max][r] & cols for r in box_rows):
                continue
            if any(at[-1][r] & cols for r in box_rows):  # a cell reaches a new level
                at.append([0] * rows)
            for r in box_rows:
                for j in range(len(at) - 2, 0, -1):  # each level from the one below before this box
                    at[j + 1][r] |= at[j][r] & cols
            if len(at) > rho_max:
                open_cells -= sum((at[rho_max][r] & cols).bit_count() for r in box_rows)
            boxes.append(Box.from_factors(drawn, shape))
            added += 1
    return Cover(shape, tuple(boxes))


def gen_cover(kind: str, **params) -> Cover:
    """Dispatcher used by the CLI; see the named constructors for semantics."""
    if kind == "trivial-merlin":
        return trivial_merlin_cover(params["shape"])
    if kind == "random-tree":
        return random_bounded_cover(params["shape"], 1, 0, seed=params["seed"])
    if kind == "random-bounded":
        return random_bounded_cover(
            params["shape"], params["rho_max"], params["extra"], seed=params["seed"]
        )
    if kind == "windmill":
        return windmill_cover()
    raise InvalidInputError(f"unknown cover kind {kind!r}")


def parity_tightness_protocol(n: int = 1) -> Protocol:
    """Two copies of the full domain box with the parity selector
    t(x, y) = popcount(x ^ y) mod 2. Under the uniform distribution this makes
    the main inequality tight: the transcript creates one bit of conditional
    correlation and the thickness term pays for it exactly."""
    size = _side(n, "parity tightness")
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


def box_color_labels(
    protocol: Protocol, target: ColoredFunction | Relation
) -> tuple[np.ndarray, int]:
    """The monochromatic_color of each cell's selected box, flat row-major, and
    the label of cells whose box has none: one past the largest color found."""
    t = selector_labels(protocol)
    boxes = protocol.cover.boxes
    colors = {i: monochromatic_color(boxes[i], target) for i in np.unique(t).tolist()}
    known = {i: c for i, c in colors.items() if c is not None}
    colorless = max(known.values(), default=-1) + 1
    color_of = np.full(len(boxes), colorless, dtype=np.int64)
    color_of[list(known)] = list(known.values())
    return color_of[t], colorless


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
