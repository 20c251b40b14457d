"""Exact Shannon quantities over explicit finite joint distributions.

Everything is in bits (log base 2) with 0*log(0) = 0. Conditional quantities
are joint-entropy differences, never per-condition renormalizations, so
zero-probability branches cost nothing. All reductions are adjacent-pairwise
tree sums in a fixed index order, which makes results independent of any
parallel schedule. The one exception to both is the chain-rule check's second
route to H(X1|X0): per-row conditionals and plain numpy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainShape, dense_ids, flat_positions, stable_argsort
from .errors import DegenerateInstanceError, InvalidInputError

NORMALIZATION_TOL = 1e-12
# label cells per batched entropy sort: the fastest of 2**12..2**16 on verify-large
# (BENCH_flatpasses.json); a profile's 11 groups on up to 1,024 cells are one batch
BATCH_CELLS = 1 << 14
KEY_LIMIT = 1 << 32  # combined label keys past this are ranked densely; well inside int64
MAX_WEIGHT = 8  # random_integer_weights draws integer cell weights up to MAX_WEIGHT


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


def grouped_pairwise_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-run adjacent-pairwise sums, each the tree `pairwise_sum` builds
    over that run. starts holds the first position of every run, ascending
    from 0; a run ends where the next starts, and the last at the end.

    Each run is padded with -0.0 to a power-of-two width, and the runs are laid
    out widest first, so every run starts at a multiple of its own width and
    one level of every tree is a single strided add over the runs still wider
    than one slot.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    starts = np.asarray(starts).reshape(-1)
    if starts.size == vals.size:  # every run is a single term
        return vals.copy()
    lengths = np.append(starts[1:], vals.size) - starts
    exponents = np.frexp(lengths - 1)[1]  # 2**e is the least power of two >= length
    order = (-exponents).argsort()
    widths = np.int64(1) << exponents[order]
    ends = widths.cumsum()
    offsets = np.empty_like(lengths)
    offsets[order] = ends - widths
    buf = np.full(int(ends[-1]), -0.0)
    buf[np.repeat(offsets - starts, lengths) + np.arange(vals.size)] = vals
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
    def random_integer_weights(
        cls,
        shape: DomainShape,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "JointDistribution":
        """Random rational distribution w_i / sum(w) with small integer
        weights; reproducible and platform-stable."""
        if rng is None:
            rng = np.random.default_rng(seed)
        w = rng.integers(0, MAX_WEIGHT + 1, size=shape.num_cells).astype(np.float64)
        if w.sum() == 0:
            w[0] = 1.0
        return cls(shape, w / w.sum())

    def condition_on(self, keep: np.ndarray) -> "JointDistribution":
        """Restrict to the flat boolean mask and renormalize."""
        keep = np.asarray(keep, dtype=bool).reshape(-1)
        if keep.size != self.p.size:
            raise InvalidInputError("condition mask length does not match domain")
        kept_mass = pairwise_sum(np.where(keep, self.p, 0.0))
        if kept_mass <= 0.0:
            raise DegenerateInstanceError("conditioning event has zero probability")
        p = np.where(keep, self.p, 0.0) / kept_mass
        return JointDistribution(self.shape, p / pairwise_sum(p))


class InfoEngine:
    """Caching evaluator of joint/conditional entropies over one distribution.
    labels names each variable's flat non-negative labels, one per cell, so every
    entropy is exact; the engine keeps each variable's radix (largest label + 1)."""

    def __init__(self, dist: JointDistribution, labels: dict):
        self.dist = dist
        self.labels, self.radices = {}, {}
        for name, arr in labels.items():
            arr = np.asarray(arr, dtype=np.int64).reshape(-1)
            if arr.size != dist.p.size:
                raise InvalidInputError(f"variable {name!r} has wrong length")
            if arr.min() < 0:
                raise InvalidInputError(f"variable {name!r} has negative labels")
            arr.flags.writeable = False
            self.labels[name] = arr
            self.radices[name] = int(arr.max()) + 1
        self._joint_cache: dict[frozenset, float] = {frozenset(): 0.0}

    def _group_labels(self, names: tuple[str, ...]) -> np.ndarray:
        """Labels of the group, ordered like the tuples of its variables'
        labels in sorted name order: a mixed-radix key built variable by
        variable, where `radix` bounds the key so far. A step whose key could
        pass KEY_LIMIT ranks both sides densely first, and a key still past it
        is ranked at the end, so every label is below KEY_LIMIT and no key
        wraps int64 (a side has at most MAX_CELLS = 2**24 ranks)."""
        names = sorted(names)
        labels, radices = self.labels, self.radices
        for name in names:
            if name not in labels:
                raise InvalidInputError(f"unknown variable {name!r}")
        combined, radix = labels[names[0]], radices[names[0]]
        for name in names[1:]:
            b, b_radix = labels[name], radices[name]
            if radix * b_radix > KEY_LIMIT:
                combined, b = dense_ids(combined, radix), dense_ids(b, b_radix)
                radix, b_radix = int(combined.max()) + 1, int(b.max()) + 1
            combined, radix = combined * b_radix + b, radix * b_radix
        if radix > KEY_LIMIT:
            combined = dense_ids(combined, radix)
        return combined

    def entropies(self, groups) -> list[float]:
        """Joint entropies H of many groups of named variables, in bits.

        Uncached groups are computed in batches of at most BATCH_CELLS label
        cells. A batch stacks its groups' label rows and sorts each row by one
        stable radix argsort; every gather after it is a 1-D index on flat
        positions. A run of equal labels in the flat sorted labels is one
        outcome, and each row's first cell starts a run, so no run crosses a
        row. One grouped sum over the run starts gives every outcome's mass,
        and one over the rows' first runs every group's entropy. Each sum is
        the tree its group gets alone, so no value depends on the batch."""
        keys = [frozenset(_as_names(g)) for g in groups]
        todo = [k for k in dict.fromkeys(keys) if k not in self._joint_cache]
        n = self.dist.p.size
        step = max(1, BATCH_CELLS // n)
        for start in range(0, len(todo), step):
            batch = todo[start : start + step]
            labels = np.stack([self._group_labels(tuple(k)) for k in batch])
            order = stable_argsort(labels)  # every key is below KEY_LIMIT = 2**32
            labels = labels.reshape(-1)[flat_positions(order).reshape(-1)]
            is_start = np.empty(labels.size, dtype=bool)
            np.not_equal(labels[1:], labels[:-1], out=is_start[1:])
            is_start[::n] = True
            starts = np.flatnonzero(is_start)
            q = grouped_pairwise_sums(self.dist.p[order.reshape(-1)], starts)
            terms = -q * np.log2(np.where(q > 0.0, q, 1.0))
            first_runs = np.searchsorted(starts, np.arange(len(batch)) * n)
            values = grouped_pairwise_sums(terms, first_runs)
            self._joint_cache.update(zip(batch, values.tolist()))
        return [self._joint_cache[k] for k in keys]

    def entropy(self, names) -> float:
        """Joint entropy H of a group of named variables, in bits."""
        key = frozenset(_as_names(names))
        if key not in self._joint_cache:
            self.entropies([key])
        return self._joint_cache[key]


def _as_names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(value)


# The quantities below read joint entropies through h, an InfoEngine's entropy:
# a function from a tuple of variable names to their joint entropy.


def _cond_entropy(h, names: tuple[str, ...], given: tuple[str, ...]) -> float:
    if not given:
        return h(names)
    return h(names + given) - h(given)


def _mutual_information(
    h, a: tuple[str, ...], b: tuple[str, ...], given: tuple[str, ...] = ()
) -> float:
    return _cond_entropy(h, a, given) + _cond_entropy(h, b, given) - _cond_entropy(h, a + b, given)


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
    dist: JointDistribution, labels: dict, x_group, y_group, w_group
) -> TripleInformation:
    """I(X:Y:W) via I(X:Y) - I(X:Y|W), plus the absolute gap against the
    inclusion-exclusion form H(W) - H(W|X) - H(W|Y) + H(W|X,Y). Both are exact
    identities for Shannon entropy, so the gap is floating-point noise."""
    return _triple(InfoEngine(dist, labels).entropy, x_group, y_group, w_group)


# ---------------------------------------------------------------------------
# Profiles of labelled instances


def _information_cost(h, arity: int) -> float:
    """Sum over parties of I(X_i : T | other coordinates): I(X:T|Y) + I(Y:T|X) for two."""
    names = [f"X{i}" for i in range(arity)]
    total = 0.0
    for i in range(arity):
        rest = tuple(n for j, n in enumerate(names) if j != i)
        total += _mutual_information(h, (names[i],), ("T",), rest)
    return total


@dataclass(frozen=True, eq=False)
class InfoProfile:
    """All entropic quantities of one labelled instance, plus its named log2
    charges, carried as given."""

    arity: int
    quantities: dict[str, float]
    charges: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.quantities[key]


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
    each and all but each coordinate, with and without T; and with F, each
    coordinate with F, with and without T."""
    xs = tuple(f"X{i}" for i in range(arity))
    bases = [xs, ("X0", "X1")] + [(x,) for x in xs] + [xs[:i] + xs[i + 1 :] for i in range(arity)]
    groups = [("T",)] + bases + [g + ("T",) for g in bases]
    if with_f:
        groups += [(x, "F") for x in xs] + [(x, "T", "F") for x in xs]
    return groups


def build_profile(dist: JointDistribution, labels: dict, charges: dict) -> InfoProfile:
    """Assemble every quantity the inequality checkers consume.

    labels holds one flat row-major label per cell for each coordinate
    X0..X{l-1} and the transcript T, and for the output F if it is present.
    charges names the log2 charges (in bits) a check may use for log2(rho).
    """
    arity = dist.shape.arity
    with_f = "F" in labels
    engine = InfoEngine(dist, labels)

    # one batch fills the engine's cache, and every quantity reads it by name
    engine.entropies(_profile_groups(arity, with_f))
    h = engine.entropy
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

    if with_f:
        for x in xs:
            q[f"H(F|{x})"] = _cond_entropy(h, ("F",), (x,))
            q[f"H(T|{x},F)"] = _cond_entropy(h, ("T",), (x, "F"))

    return InfoProfile(arity=arity, quantities=q, charges=charges)
