"""Index grids, boxes (combinatorial rectangles), covers, transcript selectors,
and deterministic protocol trees.

Factor sets are stored as int bitmasks so membership and intersection are
O(words). All types are immutable after construction; every operation here is
a pure function. Each Cover lists its (box, cell) members once; per-cell and
per-box thickness and the selected box of every cell are derived from that
list once per Cover/Protocol and cached on it as read-only arrays; the
module-level table functions read that cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidSelectorError,
    InvalidTreeError,
    UncoveredCellError,
)

MAX_CELLS = 1 << 24
MAX_DIM_SIZE = 1 << 12

_M64 = (1 << 64) - 1


def splitmix64(x):
    """One round of the splitmix64 output function (public-domain constants),
    on a Python int or elementwise on a numpy uint64 array, where it wraps."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def hash64(seed: int, value: int) -> int:
    """Portable 64-bit mix of (seed, value): splitmix64(splitmix64(seed) ^ value).

    This is the fixed hash behind the seeded-random selector; changing it
    changes every seeded selection, so it is pinned by tests. It is the
    per-cell reference for the selector's vectorised table.
    """
    return splitmix64(splitmix64(seed & _M64) ^ (value & _M64))


def mask_from_indices(indices, size: int) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 0 <= i < size:
            raise InvalidInputError(f"index {i} out of range for dimension of size {size}")
        mask |= 1 << i
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    if mask.bit_count() > 64:  # one numpy pass beats a loop per bit from about here
        return tuple(np.flatnonzero(unpack_rows([mask], mask.bit_length())[0]).tolist())
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """keys.argsort(axis=-1, kind="stable") for integer keys in [0, 2**32).

    numpy sorts keys of 16 bits or fewer by radix. So the keys are sorted by
    their low 16 bits, then stably by their high 16 bits when any key has
    them: two stable passes, least significant first, give the order of one
    stable sort of the whole key."""
    order = keys.astype(np.uint16).argsort(axis=-1, kind="stable")  # the cast keeps the low 16 bits
    if keys.size and int(keys.max()) >> 16:
        high = np.take_along_axis((keys >> 16).astype(np.uint16), order, axis=-1)
        order = np.take_along_axis(order, high.argsort(axis=-1, kind="stable"), axis=-1)
    return order


def pack_rows(bits) -> list[int]:
    """Each row of a 2-D bool array as an int bitset (bit j = column j)."""
    packed = np.packbits(np.ascontiguousarray(bits, dtype=bool), axis=1, bitorder="little")
    n, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * n : i * n + n], "little") for i in range(len(packed))]


def unpack_rows(sets: list[int], width: int) -> np.ndarray:
    """The inverse of pack_rows: a len(sets) x width bool array."""
    n_bytes = (width + 7) >> 3
    data = b"".join(s.to_bytes(n_bytes, "little") for s in sets)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(sets), n_bytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


@dataclass(frozen=True)
class DomainShape:
    """Per-dimension cardinalities of the input grid (one entry per party)."""

    sizes: tuple[int, ...]
    num_cells: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2:
            raise InvalidInputError("domain needs at least 2 dimensions")
        total = 1
        for s in sizes:
            if s < 1:
                raise InvalidInputError(f"dimension size must be >= 1, got {s}")
            if s > MAX_DIM_SIZE:
                raise InvalidInputError(f"dimension size {s} exceeds cap {MAX_DIM_SIZE}")
            total *= s
        if total > MAX_CELLS:
            raise InvalidInputError(f"domain has {total} cells, cap is {MAX_CELLS}")
        object.__setattr__(self, "num_cells", total)

    @property
    def arity(self) -> int:
        return len(self.sizes)

    def cells(self):
        """Iterate all cells in row-major order."""
        return np.ndindex(*self.sizes)

    def linear_index(self, cell) -> int:
        cell = tuple(int(c) for c in cell)
        if len(cell) != self.arity:
            raise InvalidInputError(f"cell {cell} has wrong arity for shape {self.sizes}")
        idx = 0
        for c, s in zip(cell, self.sizes):
            if not 0 <= c < s:
                raise InvalidInputError(f"cell {cell} out of range for shape {self.sizes}")
            idx = idx * s + c
        return idx

    def cell_of_linear(self, idx: int) -> tuple[int, ...]:
        out = []
        for s in reversed(self.sizes):
            out.append(idx % s)
            idx //= s
        return tuple(reversed(out))

    def coordinate_labels(self) -> list[np.ndarray]:
        """Flat per-dimension coordinate arrays in row-major cell order."""
        grids = np.indices(self.sizes)
        return [g.reshape(-1) for g in grids]


@dataclass(frozen=True)
class Box:
    """Product of index subsets, one bitmask per dimension. For two parties
    this is the combinatorial rectangle rows x columns."""

    masks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(int(m) for m in self.masks))

    @classmethod
    def from_factors(cls, factors, shape: DomainShape) -> "Box":
        if len(factors) != shape.arity:
            raise InvalidInputError("box arity does not match shape")
        return cls(tuple(mask_from_indices(f, s) for f, s in zip(factors, shape.sizes)))

    def factors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_from_mask(m) for m in self.masks)

    def contains(self, cell) -> bool:
        return all((m >> int(c)) & 1 for m, c in zip(self.masks, cell))

    @property
    def num_cells(self) -> int:
        n = 1
        for m in self.masks:
            n *= m.bit_count()
        return n

    def validate(self, shape: DomainShape) -> None:
        if len(self.masks) != shape.arity:
            raise InvalidInputError("box arity does not match shape")
        for m, s in zip(self.masks, shape.sizes):
            if m == 0:
                raise InvalidInputError("box has an empty factor")
            if m >> s:
                raise InvalidInputError(f"box factor has index >= dimension size {s}")

    def indicator(self, shape: DomainShape) -> np.ndarray:
        """Flat boolean membership array over the shape's cells."""
        self.validate(shape)
        ind = None
        for m, s in zip(self.masks, shape.sizes):
            vec = np.zeros(s, dtype=bool)
            vec[list(indices_from_mask(m))] = True
            ind = vec if ind is None else np.logical_and.outer(ind, vec)
        return ind.reshape(-1)


def box(shape: DomainShape, *factors) -> Box:
    """Convenience constructor from per-dimension index iterables."""
    b = Box.from_factors(factors, shape)
    b.validate(shape)
    return b


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = arr.reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Cover:
    """An ordered list of boxes intended to cover the whole domain."""

    shape: DomainShape
    boxes: tuple[Box, ...]

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self.boxes:
            raise InvalidInputError("cover needs at least one box")
        for b in self.boxes:
            b.validate(self.shape)

    @property
    def num_boxes(self) -> int:
        return len(self.boxes)

    @cached_property
    def _members(self) -> tuple[np.ndarray, np.ndarray]:
        """(box index, flat row-major cell) of every cell of every box: box by
        box, each box's cells in row-major order. Position r within a box is
        split into one digit per factor, the last factor varying fastest."""
        sizes = self.shape.sizes
        factors = [unpack_rows([b.masks[k] for b in self.boxes], s) for k, s in enumerate(sizes)]
        widths = [f.sum(axis=1) for f in factors]
        per_box = np.prod(widths, axis=0)
        boxes = np.repeat(np.arange(self.num_boxes), per_box)
        rest = np.arange(boxes.size) - np.repeat(per_box.cumsum() - per_box, per_box)
        cells = np.zeros(boxes.size, dtype=np.int64)
        stride = 1
        for f, w, s in zip(reversed(factors), reversed(widths), reversed(sizes)):
            rest, digit = np.divmod(rest, w[boxes])
            cells += np.nonzero(f)[1][(w.cumsum() - w)[boxes] + digit] * stride
            stride *= s
        # int32 halves what every cover keeps: cells < MAX_CELLS = 2**24, and
        # box indices stay far below 2**31 (each box is a Python object)
        return boxes.astype(np.int32), cells.astype(np.int32)

    @cached_property
    def _by_cell(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-cell thickness, the members' boxes in cell order): one stable
        sort by cell, so each cell's boxes stay in ascending index order."""
        boxes, cells = self._members
        counts = np.bincount(cells, minlength=self.shape.num_cells)
        return _read_only(counts), boxes[stable_argsort(cells)]

    @cached_property
    def _box_thickness(self) -> np.ndarray:
        """Max cell thickness inside each box, over each box's run of members."""
        boxes, cells = self._members
        runs = np.searchsorted(boxes, np.arange(self.num_boxes))
        return _read_only(np.maximum.reduceat(self._by_cell[0][cells], runs))


@dataclass(frozen=True)
class CoverageReport:
    covers_domain: bool
    uncovered: tuple[tuple[int, ...], ...]
    is_partition: bool


def thickness_table(cover: Cover) -> np.ndarray:
    """Per-cell count of covering boxes, flat row-major read-only int array."""
    return cover._by_cell[0]


def validate_cover(cover: Cover) -> CoverageReport:
    counts = thickness_table(cover)
    missing = np.flatnonzero(counts == 0)
    uncovered = tuple(cover.shape.cell_of_linear(int(i)) for i in missing)
    return CoverageReport(
        covers_domain=len(uncovered) == 0,
        uncovered=uncovered,
        is_partition=bool(len(uncovered) == 0 and (counts == 1).all()),
    )


def thickness(cover: Cover, *, cell=None, box: int | None = None) -> int:
    """Thickness at a cell, of a box (max over its cells), or global (max over
    all cells). Pass at most one of cell/box; neither means global."""
    if cell is not None and box is not None:
        raise InvalidInputError("pass at most one of cell= and box=")
    if cell is not None:
        return int(thickness_table(cover)[cover.shape.linear_index(cell)])
    if box is not None:
        if not 0 <= box < cover.num_boxes:
            raise InvalidInputError(f"box index {box} out of range")
        return int(box_thickness_table(cover)[box])
    return int(thickness_table(cover).max())


def box_thickness_table(cover: Cover) -> np.ndarray:
    """Thickness of every box (max cell thickness inside it), index-aligned,
    read-only."""
    return cover._box_thickness


SELECTOR_KINDS = ("min-index", "seeded-random", "explicit")


@dataclass(frozen=True)
class TranscriptSelector:
    """Deterministic rule that names one covering box per cell."""

    kind: str
    seed: int | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise InvalidInputError(f"unknown selector kind {self.kind!r}")
        if self.kind == "seeded-random" and self.seed is None:
            raise InvalidInputError("seeded-random selector needs a seed")
        if self.kind == "explicit":
            if self.table is None:
                raise InvalidInputError("explicit selector needs a table")
            object.__setattr__(self, "table", tuple(int(t) for t in self.table))

    @classmethod
    def min_index(cls) -> "TranscriptSelector":
        return cls("min-index")

    @classmethod
    def seeded(cls, seed: int) -> "TranscriptSelector":
        return cls("seeded-random", seed=int(seed))

    @classmethod
    def explicit(cls, table) -> "TranscriptSelector":
        return cls("explicit", table=tuple(table))


@dataclass(frozen=True)
class Protocol:
    """A cover plus a transcript selector; validated at construction."""

    cover: Cover
    selector: TranscriptSelector

    def __post_init__(self):
        sel = self.selector
        if sel.kind == "explicit":
            n = self.cover.shape.num_cells
            if len(sel.table) != n:
                raise InvalidSelectorError(
                    f"explicit selector table has {len(sel.table)} entries, domain has {n} cells"
                )
            table = np.asarray(sel.table, dtype=np.int64)
            if (table < 0).any() or (table >= self.cover.num_boxes).any():
                raise InvalidSelectorError("explicit selector entry is not a box index")
            # a cell is held when one of its members is the box it is mapped to
            boxes, cells = self.cover._members
            held = np.zeros(n, dtype=bool)
            held[cells[table[cells] == boxes]] = True
            if not held.all():
                bad = np.flatnonzero(~held)
                i = int(table[bad].min())
                cell = self.cover.shape.cell_of_linear(int(bad[table[bad] == i][0]))
                raise InvalidSelectorError(
                    f"explicit selector maps cell {cell} to box {i}, which does not contain it"
                )

    @property
    def shape(self) -> DomainShape:
        return self.cover.shape

    @cached_property
    def _labels(self) -> np.ndarray:
        sel = self.selector
        if sel.kind == "explicit":
            return _read_only(np.array(sel.table, dtype=np.int64))
        counts, boxes = self.cover._by_cell
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            cell = self.shape.cell_of_linear(int(missing[0]))
            raise UncoveredCellError(f"cell {cell} is covered by no box")
        pick = 0
        if sel.kind == "seeded-random":
            # position hash64(seed, linear) mod rho_cell among the containing
            # boxes in ascending index order
            cells = np.arange(counts.size, dtype=np.uint64)
            hashes = splitmix64(cells ^ np.uint64(splitmix64(sel.seed & _M64)))
            pick = (hashes % counts.astype(np.uint64)).astype(np.int64)
        return _read_only(boxes[counts.cumsum() - counts + pick].astype(np.int64))


def select_transcript(protocol: Protocol, cell) -> int:
    """Index of the box the selector designates for one cell; the per-cell
    reference that selector_labels is tested against."""
    shape = protocol.shape
    lin = shape.linear_index(cell)
    sel = protocol.selector
    if sel.kind == "explicit":
        return int(sel.table[lin])
    containing = [i for i, b in enumerate(protocol.cover.boxes) if b.contains(cell)]
    if not containing:
        raise UncoveredCellError(f"cell {tuple(cell)} is covered by no box")
    if sel.kind == "min-index":
        return containing[0]
    return containing[hash64(sel.seed, lin) % len(containing)]


def selector_labels(protocol: Protocol) -> np.ndarray:
    """Selected box index for every cell, flat row-major and read-only."""
    return protocol._labels


# ---------------------------------------------------------------------------
# Protocol trees


@dataclass(frozen=True)
class TreeLeaf:
    pass


@dataclass(frozen=True)
class TreeSplit:
    owner: int
    left_mask: int
    right_mask: int
    left: "TreeLeaf | TreeSplit"
    right: "TreeLeaf | TreeSplit"


@dataclass(frozen=True)
class ProtocolTree:
    """Binary tree of two-way index-set splits; leaves denote boxes."""

    shape: DomainShape
    root: TreeLeaf | TreeSplit


def compile_tree(tree: ProtocolTree) -> Protocol:
    """Flatten a protocol tree into a partition cover. Its leaves partition
    the domain by the split discipline, so the min-index selector maps each
    cell to its unique leaf."""
    shape = tree.shape
    boxes: list[Box] = []

    def walk(node, masks: tuple[int, ...]):
        if isinstance(node, TreeLeaf):
            boxes.append(Box(masks))
            return
        if not isinstance(node, TreeSplit):
            raise InvalidTreeError(f"unexpected tree node {node!r}")
        if not 0 <= node.owner < shape.arity:
            raise InvalidTreeError(f"split owner {node.owner} out of range")
        current = masks[node.owner]
        left, right = int(node.left_mask), int(node.right_mask)
        if left == 0 or right == 0:
            raise InvalidTreeError("split side is empty")
        if (left & right) or (left | right) != current:
            raise InvalidTreeError("split sides do not partition the inherited index set")
        walk(node.left, masks[: node.owner] + (left,) + masks[node.owner + 1 :])
        walk(node.right, masks[: node.owner] + (right,) + masks[node.owner + 1 :])

    walk(tree.root, tuple((1 << s) - 1 for s in shape.sizes))
    return Protocol(Cover(shape, tuple(boxes)), TranscriptSelector.min_index())

