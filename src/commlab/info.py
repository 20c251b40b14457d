"""Exact Shannon quantities over explicit finite joint distributions.

Everything is in bits (log base 2) with 0*log(0) = 0. Conditional quantities
are joint-entropy differences, never per-condition renormalizations, so
zero-probability branches cost nothing. All reductions are adjacent-pairwise
tree sums in a fixed index order, which makes results independent of any
parallel schedule. The one exception to both is the chain-rule check's second
route to H(X1|X0): per-row conditionals and plain numpy sums.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainShape,
    Protocol,
    box_thickness_table,
    selector_labels,
    stable_argsort,
    thickness_table,
)
from .errors import DegenerateInstanceError, InvalidInputError

NORMALIZATION_TOL = 1e-12
BATCH_CELLS = 1 << 16  # label cells per batched entropy sort: one group of a 65,536-cell grid
KEY_LIMIT = 1 << 32  # combined label keys past this are ranked densely; well inside int64


def pairwise_sum(values) -> float:
    """Adjacent-pairwise tree sum of a flat array, left to right.

    Level by level, neighbours (0, 1), (2, 3), ... are added and an odd last
    element is carried unchanged. Padding with -0.0 to a power of two gives
    the same tree, because x + (-0.0) == x for every float x.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        return 0.0
    buf = np.full(1 << (arr.size - 1).bit_length(), -0.0)
    buf[: arr.size] = arr
    while buf.size > 1:
        buf = buf[0::2] + buf[1::2]
    return float(buf[0])


def grouped_pairwise_sums(values: np.ndarray, group_ids: np.ndarray) -> np.ndarray:
    """Per-group adjacent-pairwise sums, each the tree `pairwise_sum` builds
    over that group's run. group_ids must be nondecreasing; the result is
    ordered by group id.

    Each run is padded with -0.0 to a power-of-two width, and the runs are laid
    out widest first, so every run starts at a multiple of its own width and
    one level of every tree is a single strided add over the runs still wider
    than one slot.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    ids = np.asarray(group_ids).reshape(-1)
    is_start = np.ones(vals.size + 1, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=is_start[1:-1])
    bounds = np.flatnonzero(is_start)
    if bounds.size == vals.size + 1:  # every run is a single term
        return vals.copy()
    lengths = bounds[1:] - bounds[:-1]
    exponents = np.frexp(lengths - 1)[1]  # 2**e is the least power of two >= length
    order = (-exponents).argsort()
    widths = np.int64(1) << exponents[order]
    ends = widths.cumsum()
    offsets = np.empty_like(lengths)
    offsets[order] = ends - widths
    buf = np.full(int(ends[-1]), -0.0)
    buf[np.repeat(offsets - bounds[:-1], lengths) + np.arange(vals.size)] = vals
    # level by level, the runs that are down to one slot are the last slots
    sums = np.empty(lengths.size)
    done = lengths.size
    for count in np.bincount(exponents).tolist():
        head = buf.size - count
        sums[done - count : done] = buf[head:]
        buf = buf[0:head:2] + buf[1:head:2]
        done -= count
    out = np.empty_like(sums)
    out[order] = sums
    return out


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Explicit probability table over the domain's cells (flat row-major)."""

    shape: DomainShape
    p: np.ndarray

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, so no sum over p depends on the sign of zero
        arr = np.asarray(self.p, dtype=np.float64).reshape(-1) + 0.0
        if arr.size != self.shape.num_cells:
            raise InvalidInputError("probability table length does not match domain")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise InvalidInputError("probabilities must be finite and non-negative")
        total = pairwise_sum(arr)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidInputError(f"probabilities sum to {total!r}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, shape: DomainShape) -> "JointDistribution":
        n = shape.num_cells
        return cls(shape, np.full(n, 1.0 / n))

    @classmethod
    def from_table(cls, shape: DomainShape, table) -> "JointDistribution":
        return cls(shape, np.asarray(table, dtype=np.float64).reshape(-1))

    @classmethod
    def from_cells(cls, shape: DomainShape, weights: dict) -> "JointDistribution":
        """Build from a {cell: probability} mapping; unmentioned cells get 0."""
        p = np.zeros(shape.num_cells)
        for cell, w in weights.items():
            p[shape.linear_index(cell)] = w
        return cls(shape, p)

    @classmethod
    def random_integer_weights(
        cls,
        shape: DomainShape,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        max_weight: int = 8,
        allow_zero: bool = True,
    ) -> "JointDistribution":
        """Random rational distribution w_i / sum(w) with small integer
        weights; reproducible and platform-stable."""
        if rng is None:
            rng = np.random.default_rng(seed)
        low = 0 if allow_zero else 1
        w = rng.integers(low, max_weight + 1, size=shape.num_cells).astype(np.float64)
        if w.sum() == 0:
            w[0] = 1.0
        return cls(shape, w / w.sum())

    def condition_on(self, keep: np.ndarray) -> tuple["JointDistribution", float]:
        """Restrict to the flat boolean mask and renormalize. Returns the
        conditioned distribution and the probability mass that was dropped."""
        keep = np.asarray(keep, dtype=bool).reshape(-1)
        if keep.size != self.p.size:
            raise InvalidInputError("condition mask length does not match domain")
        kept_mass = pairwise_sum(np.where(keep, self.p, 0.0))
        if kept_mass <= 0.0:
            raise DegenerateInstanceError("conditioning event has zero probability")
        p = np.where(keep, self.p, 0.0) / kept_mass
        return JointDistribution(self.shape, p / pairwise_sum(p)), 1.0 - kept_mass


@dataclass(frozen=True, eq=False)
class VariableSpec:
    """Named derived variables over cells: flat non-negative label arrays.

    Every variable is a deterministic function of the cell, so joint
    entropies of label groups are exact functionals of the distribution.
    """

    shape: DomainShape
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    radices: dict[str, int] = field(init=False, repr=False)  # max label + 1

    def __post_init__(self):
        clean, radices = {}, {}
        for name, arr in self.labels.items():
            arr = np.asarray(arr, dtype=np.int64).reshape(-1)
            if arr.size != self.shape.num_cells:
                raise InvalidInputError(f"variable {name!r} has wrong length")
            if arr.min() < 0:
                raise InvalidInputError(f"variable {name!r} has negative labels")
            arr.flags.writeable = False
            clean[name] = arr
            radices[name] = int(arr.max()) + 1
        object.__setattr__(self, "labels", clean)
        object.__setattr__(self, "radices", radices)

    @classmethod
    def coordinates(cls, shape: DomainShape) -> "VariableSpec":
        coords = shape.coordinate_labels()
        return cls(shape, {f"X{i}": c for i, c in enumerate(coords)})

    def with_variable(self, name: str, labels) -> "VariableSpec":
        merged = dict(self.labels)
        merged[name] = np.asarray(labels)
        return VariableSpec(self.shape, merged)

    def names(self) -> tuple[str, ...]:
        return tuple(self.labels)


def _dense(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of the labels, which keep their order, and their count."""
    values, ranks = np.unique(labels, return_inverse=True)
    return ranks.reshape(-1), values.size


class InfoEngine:
    """Caching evaluator of joint/conditional entropies over one distribution
    and one variable spec."""

    def __init__(self, dist: JointDistribution, variables: VariableSpec):
        if dist.shape.num_cells != variables.shape.num_cells:
            raise InvalidInputError("distribution and variables disagree on domain size")
        self.dist = dist
        self.variables = variables
        self._joint_cache: dict[frozenset, float] = {frozenset(): 0.0}

    def _group_labels(self, names: tuple[str, ...]) -> np.ndarray:
        """Labels of the group, ordered like the tuples of its variables'
        labels in sorted name order: a mixed-radix key built variable by
        variable, where `radix` bounds the key so far. A step whose key could
        pass KEY_LIMIT ranks both sides densely first, and a key still past it
        is ranked at the end, so every label is below KEY_LIMIT and no key
        wraps int64 (a side has at most MAX_CELLS = 2**24 ranks)."""
        names = sorted(names)
        labels, radices = self.variables.labels, self.variables.radices
        for name in names:
            if name not in labels:
                raise InvalidInputError(f"unknown variable {name!r}")
        combined, radix = labels[names[0]], radices[names[0]]
        for name in names[1:]:
            b, b_radix = labels[name], radices[name]
            if radix * b_radix > KEY_LIMIT:
                (combined, radix), (b, b_radix) = _dense(combined), _dense(b)
            combined, radix = combined * b_radix + b, radix * b_radix
        if radix > KEY_LIMIT:
            combined, _ = _dense(combined)
        return combined

    def entropies(self, groups) -> list[float]:
        """Joint entropies H of many groups of named variables, in bits.

        Uncached groups are computed in batches of at most BATCH_CELLS label
        cells: one stable radix argsort of the stacked label rows, then one
        grouped sum for the mass of every outcome (a run of equal labels in a
        row) and one for the entropy of every group. Each sum is the tree its
        group gets alone, so no value depends on the batch."""
        keys = [frozenset(_as_names(g)) for g in groups]
        todo = [k for k in dict.fromkeys(keys) if k not in self._joint_cache]
        n = self.dist.p.size
        step = max(1, BATCH_CELLS // n)
        for start in range(0, len(todo), step):
            batch = todo[start : start + step]
            labels = np.stack([self._group_labels(tuple(k)) for k in batch])
            order = stable_argsort(labels)  # every key is below KEY_LIMIT = 2**32
            labels = np.take_along_axis(labels, order, axis=1)
            is_start = np.ones(labels.shape, dtype=bool)
            np.not_equal(labels[:, 1:], labels[:, :-1], out=is_start[:, 1:])
            is_start = is_start.reshape(-1)
            # int32 run ids: a batch holds at most max(BATCH_CELLS, MAX_CELLS) = 2**24 cells
            runs = is_start.cumsum(dtype=np.int32)
            q = grouped_pairwise_sums(self.dist.p[order].reshape(-1), runs)
            terms = -q * np.log2(np.where(q > 0.0, q, 1.0))
            values = grouped_pairwise_sums(terms, np.flatnonzero(is_start) // n)
            self._joint_cache.update(zip(batch, values.tolist()))
        return [self._joint_cache[k] for k in keys]

    def entropy(self, names) -> float:
        """Joint entropy H of a group of named variables, in bits."""
        key = frozenset(_as_names(names))
        if key not in self._joint_cache:
            self.entropies([key])
        return self._joint_cache[key]

    def cond_entropy(self, names, given=()) -> float:
        return _cond_entropy(self.entropy, _as_names(names), _as_names(given))

    def mutual_information(self, a, b, given=()) -> float:
        return _mutual_information(self.entropy, _as_names(a), _as_names(b), _as_names(given))


def _as_names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(value)


# The quantities below read joint entropies through h, a function from a tuple
# of variable names to their joint entropy: InfoEngine.entropy, or a profile's
# read of its batch. Either way each quantity is the same float expression.


def _cond_entropy(h, names: tuple[str, ...], given: tuple[str, ...]) -> float:
    if not given:
        return h(names)
    return h(names + given) - h(given)


def _mutual_information(
    h, a: tuple[str, ...], b: tuple[str, ...], given: tuple[str, ...] = ()
) -> float:
    return _cond_entropy(h, a, given) + _cond_entropy(h, b, given) - _cond_entropy(h, a + b, given)


_EXPR_RE = re.compile(r"^\s*(H|I)\s*\((.*)\)\s*$", re.S)


def _parse_group(text: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise InvalidInputError(f"empty variable group in {text!r}")
    return names


def info_quantity(dist: JointDistribution, variables: VariableSpec, expr: str) -> float:
    """Evaluate an entropy expression over named variables.

    Supported forms: H(A), H(A|C), I(A:B), I(A:B|C), I(A:B:C); groups are
    comma-separated variable names.
    """
    m = _EXPR_RE.match(expr)
    if not m:
        raise InvalidInputError(f"cannot parse expression {expr!r}")
    kind, body = m.group(1), m.group(2)
    if "|" in body:
        main, cond = body.split("|", 1)
        given = _parse_group(cond)
    else:
        main, given = body, ()
    engine = InfoEngine(dist, variables)
    if kind == "H":
        return engine.cond_entropy(_parse_group(main), given)
    groups = [g for g in main.split(":")]
    if len(groups) == 2:
        return engine.mutual_information(_parse_group(groups[0]), _parse_group(groups[1]), given)
    if len(groups) == 3:
        if given:
            raise InvalidInputError("triple information does not take a condition here")
        return _triple(engine.entropy, *(_parse_group(g) for g in groups)).value
    raise InvalidInputError(f"I takes 2 or 3 groups, got {len(groups)}")


def binary_entropy(delta: float) -> float:
    """h(delta) = delta*log2(1/delta) + (1-delta)*log2(1/(1-delta))."""
    if not 0.0 <= delta <= 1.0:
        raise InvalidInputError("binary entropy argument must lie in [0, 1]")
    total = 0.0
    for q in (delta, 1.0 - delta):
        if q > 0.0:
            total += q * math.log2(1.0 / q)
    return total


@dataclass(frozen=True)
class TripleInformation:
    value: float
    formula_gap: float


def _triple(h, x, y, w) -> TripleInformation:
    x, y, w = _as_names(x), _as_names(y), _as_names(w)
    first = _mutual_information(h, x, y) - _mutual_information(h, x, y, w)
    second = h(w) - _cond_entropy(h, w, x) - _cond_entropy(h, w, y) + _cond_entropy(h, w, x + y)
    return TripleInformation(value=first, formula_gap=abs(first - second))


def triple_information(
    dist: JointDistribution, variables: VariableSpec, x_group, y_group, w_group
) -> TripleInformation:
    """I(X:Y:W) via I(X:Y) - I(X:Y|W), plus the absolute gap against the
    inclusion-exclusion form H(W) - H(W|X) - H(W|Y) + H(W|X,Y). Both are exact
    identities for Shannon entropy, so the gap is floating-point noise."""
    return _triple(InfoEngine(dist, variables).entropy, x_group, y_group, w_group)


# ---------------------------------------------------------------------------
# Protocol-aware quantities


def _information_cost(h, arity: int) -> float:
    names = [f"X{i}" for i in range(arity)]
    total = 0.0
    for i in range(arity):
        rest = tuple(n for j, n in enumerate(names) if j != i)
        total += _mutual_information(h, (names[i],), ("T",), rest)
    return total


def internal_information_cost(dist: JointDistribution, protocol: Protocol) -> float:
    """Sum over parties of I(X_i : T | other coordinates). For two parties
    this is I(X:T|Y) + I(Y:T|X)."""
    return build_profile(dist, protocol)["IC"]


@dataclass(frozen=True, eq=False)
class InfoProfile:
    """All entropic quantities of one (distribution, protocol[, target])
    instance, plus thickness statistics."""

    arity: int
    sizes: tuple[int, ...]
    quantities: dict[str, float]
    rho_global: int
    expected_log_rho: float
    f_mode: str | None
    excluded_mass: float
    fingerprint: str

    def __getitem__(self, key: str) -> float:
        return self.quantities[key]


def _profile_fingerprint(
    dist: JointDistribution,
    protocol: Protocol,
    f_labels: np.ndarray | None,
    f_mode: str | None,
) -> str:
    h = hashlib.sha256()
    h.update(repr(protocol.shape.sizes).encode())
    h.update("".join(repr(b.masks) for b in protocol.cover.boxes).encode())
    sel = protocol.selector
    h.update(sel.kind.encode())
    h.update(repr(sel.seed).encode())
    if sel.table is not None:
        h.update(np.asarray(sel.table, dtype=np.int64).tobytes())
    h.update(dist.p.tobytes())
    if f_labels is not None:
        h.update(np.asarray(f_labels, dtype=np.int64).tobytes())
    h.update(repr(f_mode).encode())
    return h.hexdigest()


def _row_conditional_entropy(dist: JointDistribution) -> float:
    """H(X1|X0) from the per-row conditionals p(x1|x0) of the (X0, X1)
    marginal: a route apart from the difference H(X0,X1) - H(X0), so that the
    chain-rule check compares two computations."""
    sizes = dist.shape.sizes
    joint = dist.p.reshape(sizes[0], sizes[1], -1).sum(axis=2)
    rows = joint.sum(axis=1, keepdims=True)
    conditional = joint / np.where(rows > 0.0, rows, 1.0)
    return float(-(joint * np.log2(np.where(conditional > 0.0, conditional, 1.0))).sum())


def _profile_groups(arity: int, with_f: bool) -> list[tuple[str, ...]]:
    """The groups whose joint entropies build_profile reads: T; all, X0 and X1,
    each and all but each coordinate, with and without T; and with F, F alone,
    with all coordinates, and with each coordinate, with and without T."""
    xs = tuple(f"X{i}" for i in range(arity))
    bases = [xs, ("X0", "X1")] + [(x,) for x in xs] + [xs[:i] + xs[i + 1 :] for i in range(arity)]
    groups = [("T",)] + bases + [g + ("T",) for g in bases]
    if with_f:
        groups += [("F",), xs + ("F",)] + [(x, "F") for x in xs] + [(x, "T", "F") for x in xs]
    return groups


def build_profile(
    dist: JointDistribution,
    protocol: Protocol,
    target=None,
    f_mode: str = "function",
    f_table=None,
) -> InfoProfile:
    """Assemble every quantity the inequality checkers consume.

    f_mode "function" reads per-cell colors from a ColoredFunction target;
    "box-color" colors each selected box (unique function color, or smallest
    common admissible relation color) and excludes cells whose selected box
    has no color, conditioning the distribution on the rest; an explicit
    f_table bypasses both.
    """
    from .functions import ColoredFunction, Relation, monochromatic_color

    if dist.shape.sizes != protocol.shape.sizes:
        raise InvalidInputError("distribution shape does not match protocol domain")
    shape = protocol.shape
    arity = shape.arity
    counts = thickness_table(protocol.cover)
    bad = np.flatnonzero((dist.p > 0.0) & (counts == 0))
    if bad.size:
        cell = shape.cell_of_linear(int(bad[0]))
        raise InvalidInputError(f"distribution puts mass on uncovered cell {cell}")
    t_labels = selector_labels(protocol)

    excluded_mass = 0.0
    f_labels = None
    mode: str | None = None
    if f_table is not None:
        f_labels = np.asarray(f_table, dtype=np.int64).reshape(-1)
        if f_labels.size != shape.num_cells:
            raise InvalidInputError("explicit f table has wrong length")
        mode = "explicit"
    elif target is not None:
        if f_mode == "function":
            if not isinstance(target, ColoredFunction):
                raise InvalidInputError("function mode needs a ColoredFunction target")
            if target.shape.sizes != shape.sizes:
                raise InvalidInputError("target shape does not match protocol domain")
            f_labels = target.flat()
            mode = "function"
        elif f_mode == "box-color":
            if not isinstance(target, (ColoredFunction, Relation)):
                raise InvalidInputError("box-color mode needs a function or relation target")
            if target.shape.sizes != shape.sizes:
                raise InvalidInputError("target shape does not match protocol domain")
            selected = sorted(set(int(i) for i in np.unique(t_labels)))
            box_colors = {}
            colorless = []
            for i in selected:
                color = monochromatic_color(protocol.cover.boxes[i], target)
                if color is None:
                    colorless.append(i)
                else:
                    box_colors[i] = color
            sentinel = (
                max(box_colors.values()) + 1 if box_colors else 0
            )
            f_labels = np.array(
                [box_colors.get(int(t), sentinel) for t in t_labels], dtype=np.int64
            )
            if colorless:
                keep = ~np.isin(t_labels, colorless)
                dist, excluded_mass = dist.condition_on(keep)
            mode = "box-color"
        else:
            raise InvalidInputError(f"unknown f mode {f_mode!r}")

    labels = {f"X{i}": c for i, c in enumerate(shape.coordinate_labels())}
    labels["T"] = t_labels
    if f_labels is not None:
        labels["F"] = f_labels
    engine = InfoEngine(dist, VariableSpec(shape, labels))

    rho_global = int(counts.max())
    box_rho = box_thickness_table(protocol.cover)
    expected_log_rho = pairwise_sum(dist.p * np.log2(box_rho.astype(np.float64))[t_labels])

    # every quantity reads the one batch: the group's position, found by its names
    groups = _profile_groups(arity, f_labels is not None)
    values = engine.entropies(groups)
    slot = {frozenset(g): k for k, g in enumerate(groups)}

    def h(names: tuple[str, ...]) -> float:
        return values[slot[frozenset(names)]]

    xs = tuple(f"X{i}" for i in range(arity))
    q: dict[str, float] = {}
    q["H(T)"] = h(("T",))
    for x in xs:
        q[f"H({x})"] = h((x,))
        q[f"H(T|{x})"] = _cond_entropy(h, ("T",), (x,))
    q["H(X0,X1)"] = h(("X0", "X1"))
    q["H(X1|X0)"] = _row_conditional_entropy(dist)
    q["chain_gap"] = abs(q["H(X0,X1)"] - q["H(X0)"] - q["H(X1|X0)"])

    triple = _triple(h, "X0", "X1", "T")
    if arity == 2:
        q["I(X0:X1)"] = _mutual_information(h, ("X0",), ("X1",))
        q["I(X0:X1|T)"] = _mutual_information(h, ("X0",), ("X1",), ("T",))
        q["I(X0:X1:T)"] = triple.value
    q["triple_gap"] = triple.formula_gap
    q["IC"] = _information_cost(h, arity)

    if f_labels is not None:
        q["H(F)"] = h(("F",))
        for x in xs:
            q[f"H(F|{x})"] = _cond_entropy(h, ("F",), (x,))
            q[f"H(T|{x},F)"] = _cond_entropy(h, ("T",), (x, "F"))
        q["H(F|X0,X1)"] = _cond_entropy(h, ("F",), xs)

    return InfoProfile(
        arity=arity,
        sizes=shape.sizes,
        quantities=q,
        rho_global=rho_global,
        expected_log_rho=expected_log_rho,
        f_mode=mode,
        excluded_mass=excluded_mass,
        fingerprint=_profile_fingerprint(dist, protocol, f_labels, mode),
    )
