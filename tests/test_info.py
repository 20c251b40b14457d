"""Entropy engine: exact values, identities, profiles, oracle agreement."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commlab import (
    Cover,
    DomainShape,
    GenerationFailureError,
    InvalidInputError,
    JointDistribution,
    Protocol,
    TranscriptSelector,
    UncoveredCellError,
    binary_entropy,
    build_profile,
    compile_tree,
    constant_function,
    pairwise_sum,
    parity_tightness_protocol,
    protocol_profile,
    random_bounded_cover,
    random_tree,
    triple_information,
    trivial_merlin_cover,
    windmill_cover,
    xor_function,
)
from commlab.core import box, box_thickness_table, selector_labels, thickness_table
from commlab.info import InfoEngine, _cond_entropy, _mutual_information, grouped_pairwise_sums

from naive import (
    grouped_pairwise_sums_levels,
    naive_conditional_mi,
    naive_entropy,
    naive_joint_entropy,
    naive_mutual_information,
    pairwise_sum_levels,
)


def dist_from_dict(shape, cells):
    """The distribution with these {cell: probability} entries, 0 elsewhere."""
    p = np.zeros(shape.num_cells)
    for cell, w in cells.items():
        p[shape.linear_index(cell)] = w
    return JointDistribution(shape, p)


def coordinates(shape, **labels):
    """The coordinates X0, X1, ... of the shape's cells, and the given labels."""
    coords = {f"X{i}": c for i, c in enumerate(shape.coordinate_labels())}
    return {**coords, **labels}


def protocol_labels(protocol, f_labels=None):
    """The labels of a protocol's profile: the coordinates, T the selected
    box, and F if given."""
    extra = {} if f_labels is None else {"F": f_labels}
    return coordinates(protocol.shape, T=selector_labels(protocol), **extra)


def to_dict(dist):
    shape = dist.shape
    return {shape.cell_of_linear(i): float(p) for i, p in enumerate(dist.p) if p > 0}


# ---------------------------------------------------------------------------
# Summation primitives


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 3, 7, 100, 1001):
        values = rng.random(n)
        got = pairwise_sum(values)
        assert got.hex() == pairwise_sum_levels(values.tolist()).hex()
        assert got == pytest.approx(math.fsum(values), abs=1e-12)


def _run_starts(ids) -> np.ndarray:
    """The first position of every run of equal consecutive ids."""
    ids = np.asarray(ids)
    return np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))


def test_grouped_pairwise_sums_match_per_group_fsum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        ids = np.sort(rng.integers(0, 20, size=n))
        vals = rng.random(n)
        got = grouped_pairwise_sums(vals, _run_starts(ids))
        expected = grouped_pairwise_sums_levels(vals.tolist(), ids.tolist())
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]
        fsums = [math.fsum(vals[ids == g]) for g in np.unique(ids)]
        assert np.allclose(got, fsums, atol=1e-12)


SCALES = st.sampled_from([1e-9, 1.0, 1e9])


@settings(max_examples=200, deadline=None)
@given(
    scale=SCALES,
    terms=st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(min_value=-1.0, max_value=1.0)),
        max_size=300,
    ),
)
@example(scale=1.0, terms=[-0.0, -0.0, -0.0])  # a point mass over three groups
def test_pairwise_sum_is_bit_identical_to_level_oracle(scale, terms):
    values = [t * scale for t in terms]
    assert pairwise_sum(np.array(values)).hex() == pairwise_sum_levels(values).hex()


@settings(max_examples=200, deadline=None)
@given(
    scale=SCALES,
    runs=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0).map(abs), min_size=1, max_size=300),
        min_size=1,
        max_size=20,
    ),
    gaps=st.lists(st.integers(min_value=1, max_value=3), min_size=20, max_size=20),
)
def test_grouped_pairwise_sums_are_bit_identical_to_level_oracle(scale, runs, gaps):
    # non-negative terms without -0.0, as JointDistribution stores them;
    # at most 300 terms, in runs of any length and with gaps between ids
    values = [v * scale for run in runs for v in run][:300]
    ids = [gid for run, gid in zip(runs, np.cumsum(gaps).tolist()) for _ in run][:300]
    got = grouped_pairwise_sums(np.array(values), _run_starts(ids))
    expected = grouped_pairwise_sums_levels(values, ids)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]


# ---------------------------------------------------------------------------
# Distributions


def test_distribution_validation():
    shape = DomainShape((2, 2))
    with pytest.raises(InvalidInputError):
        JointDistribution(shape, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(InvalidInputError):
        JointDistribution(shape, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(InvalidInputError):
        JointDistribution(shape, [1.0, 0.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            JointDistribution(shape, [bad, 0.5, 0.5, 0.0])
    with pytest.raises(InvalidInputError):
        JointDistribution(shape, [math.nan, 1.0, 0.0, 0.0])


def test_uniform_entropy_two_bits():
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    engine = InfoEngine(dist, coordinates(shape))
    assert engine.entropy(("X0", "X1")) == pytest.approx(2.0, abs=1e-12)


def test_diagonal_mutual_information():
    shape = DomainShape((2, 2))
    dist = dist_from_dict(shape, {(0, 0): 0.5, (1, 1): 0.5})
    engine = InfoEngine(dist, coordinates(shape))
    assert _mutual_information(engine.entropy, ("X0",), ("X1",)) == pytest.approx(1.0, abs=1e-12)


def test_marginal_entropy_three_cell_dist():
    shape = DomainShape((2, 2))
    dist = dist_from_dict(shape, {(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
    engine = InfoEngine(dist, coordinates(shape))
    # H(X) = h(1/4), computed independently from the definition
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert expected == pytest.approx(0.8112781244591328, abs=1e-12)
    assert engine.entropy("X0") == pytest.approx(expected, abs=1e-12)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(InvalidInputError):
        binary_entropy(1.5)


def test_unknown_variable_rejected():
    shape = DomainShape((2, 2))
    engine = InfoEngine(JointDistribution.uniform(shape), coordinates(shape))
    with pytest.raises(InvalidInputError):
        engine.entropy("X9")


# ---------------------------------------------------------------------------
# Identities


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=16, max_size=16),
)
def test_chain_rule_exact(weights):
    if sum(weights) == 0:
        weights = [1] + list(weights[1:])
    shape = DomainShape((4, 4))
    p = np.asarray(weights, dtype=np.float64)
    dist = JointDistribution(shape, p / p.sum())
    variables = coordinates(shape)
    engine = InfoEngine(dist, variables)
    # H(X1|X0) row by row, the way build_profile's chain-rule check reads it
    table = dist.p.reshape(4, 4)
    h_rows = sum(
        row.sum() * naive_entropy({y: q / row.sum() for y, q in enumerate(row)})
        for row in table
        if row.sum() > 0.0
    )
    gap = abs(engine.entropy(("X0", "X1")) - engine.entropy("X0") - h_rows)
    assert gap <= 1e-9
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    profile = build_profile(dist, protocol_labels(protocol), {})
    assert profile["H(X1|X0)"] == pytest.approx(h_rows, abs=1e-12)
    assert profile["chain_gap"] <= 1e-9


def test_triple_information_constant_w():
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    variables = coordinates(shape, W=[0, 0, 0, 0])
    t = triple_information(dist, variables, "X0", "X1", "W")
    assert t.value == pytest.approx(0.0, abs=1e-12)
    assert t.formula_gap <= 1e-9


def test_triple_information_xor_is_minus_one():
    # brute-forced joint over independent uniform bits with W = X^Y: I(X:Y)=0,
    # I(X:Y|W)=1, so the triple information is -1
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    xor_labels = [0, 1, 1, 0]
    variables = coordinates(shape, W=xor_labels)
    t = triple_information(dist, variables, "X0", "X1", "W")
    d = to_dict(dist)
    expected = naive_mutual_information(d, lambda c: c[0], lambda c: c[1]) - naive_conditional_mi(
        d, lambda c: c[0], lambda c: c[1], lambda c: c[0] ^ c[1]
    )
    assert expected == pytest.approx(-1.0, abs=1e-12)
    assert t.value == pytest.approx(-1.0, abs=1e-12)
    assert t.formula_gap <= 1e-9


def test_triple_information_copy_equals_mi():
    shape = DomainShape((2, 2))
    dist = dist_from_dict(shape, {(0, 0): 0.5, (1, 1): 0.5})
    variables = coordinates(shape, W=[0, 0, 1, 1])
    t = triple_information(dist, variables, "X0", "X1", "W")
    assert t.value == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=8),
    labels=st.lists(st.integers(min_value=0, max_value=2), min_size=8, max_size=8),
)
def test_triple_formula_gap_random(weights, labels):
    if sum(weights) == 0:
        weights = [1] + list(weights[1:])
    shape = DomainShape((2, 4))
    p = np.asarray(weights, dtype=np.float64)
    dist = JointDistribution(shape, p / p.sum())
    variables = coordinates(shape, W=labels)
    t = triple_information(dist, variables, "X0", "X1", "W")
    assert t.formula_gap <= 1e-9


# ---------------------------------------------------------------------------
# Protocol-aware quantities


def alice_sends_x_protocol():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]), box(shape, [1], [0, 1])))
    return Protocol(cover, TranscriptSelector.min_index())


def test_ic_alice_sends_x():
    protocol = alice_sends_x_protocol()
    dist = JointDistribution.uniform(protocol.shape)
    profile = build_profile(dist, protocol_labels(protocol), {})
    assert profile["IC"] == pytest.approx(1.0, abs=1e-12)


def test_ic_constant_transcript():
    shape = DomainShape((2, 2))
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    dist = JointDistribution.uniform(shape)
    profile = build_profile(dist, protocol_labels(protocol), {})
    assert profile["IC"] == pytest.approx(0.0, abs=1e-12)


def test_ic_singleton_partition():
    shape = DomainShape((2, 2))
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(shape)
    profile = build_profile(dist, protocol_labels(protocol), {})
    assert profile["IC"] == pytest.approx(2.0, abs=1e-12)


def test_support_outside_cover_rejected():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]),))  # misses row 1
    dist = dist_from_dict(shape, {(1, 0): 1.0})
    # the protocol itself is refused, before any profile of it
    with pytest.raises(UncoveredCellError, match=re.escape("(1, 0)")):
        protocol_profile(dist, Protocol(cover, TranscriptSelector.min_index()))


def test_profile_xor_singletons():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(f.shape)
    profile, row = protocol_profile(dist, protocol, f.flat())
    assert profile["H(T)"] == pytest.approx(2.0, abs=1e-12)
    assert profile["I(X0:X1|T)"] == pytest.approx(0.0, abs=1e-12)
    assert profile["H(F|X0)"] == pytest.approx(1.0, abs=1e-12)
    assert profile["H(F|X1)"] == pytest.approx(1.0, abs=1e-12)
    assert row.rho_global == 1


def test_profile_constant_single_box():
    shape = DomainShape((2, 2))
    f = constant_function(shape)
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    profile = build_profile(
        JointDistribution.uniform(shape), protocol_labels(protocol, f.flat()), {}
    )
    assert profile["H(T)"] == pytest.approx(0.0, abs=1e-12)
    assert profile["H(F|X0)"] == pytest.approx(0.0, abs=1e-12)
    assert profile["IC"] == pytest.approx(0.0, abs=1e-12)


def test_negative_zero_probabilities_give_the_same_profile():
    # a point mass leaves whole label groups at zero; their sums must not
    # depend on the sign of those zeros
    shape = DomainShape((4, 4))
    protocol = Protocol(windmill_cover(), TranscriptSelector.min_index())
    table = np.zeros(16)
    table[5] = 1.0

    def fields_of(p):
        profile, row = protocol_profile(JointDistribution(shape, p), protocol)
        return (
            profile.arity,
            {k: v.hex() for k, v in profile.quantities.items()},
            {k: v.hex() for k, v in profile.charges.items()},
            dataclasses.asdict(row),
        )

    assert fields_of(np.where(table > 0.0, table, -0.0)) == fields_of(table)


def test_profile_parity_selector_brute_force():
    protocol = parity_tightness_protocol(1)
    dist = JointDistribution.uniform(protocol.shape)
    profile, row = protocol_profile(dist, protocol)
    d = to_dict(dist)
    t_of = lambda c: (c[0] ^ c[1]) & 1
    i_xy = naive_mutual_information(d, lambda c: c[0], lambda c: c[1])
    i_xy_t = naive_conditional_mi(d, lambda c: c[0], lambda c: c[1], t_of)
    assert i_xy == pytest.approx(0.0, abs=1e-12)
    assert i_xy_t == pytest.approx(1.0, abs=1e-12)
    assert profile["I(X0:X1)"] == pytest.approx(i_xy, abs=1e-12)
    assert profile["I(X0:X1|T)"] == pytest.approx(i_xy_t, abs=1e-12)
    assert profile["I(X0:X1:T)"] == pytest.approx(-1.0, abs=1e-9)
    assert profile["IC"] == pytest.approx(2.0, abs=1e-12)
    assert row.rho_global == 2


def _profile_and_engine(monkeypatch, *args, **kwargs):
    """build_profile(*args, **kwargs) and the InfoEngine it read its entropies
    from, to read an entropy the profile does not report, such as H(F)."""
    engines = []
    init = InfoEngine.__init__

    def record(self, dist, variables):
        init(self, dist, variables)
        engines.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(InfoEngine, "__init__", record)
        profile = build_profile(*args, **kwargs)
    assert len(engines) == 1
    return profile, engines[0]


def test_profile_box_color_exclusion(monkeypatch):
    # two boxes: a non-monochromatic full box and a monochromatic row box;
    # the cells that select the colorless box are conditioned away
    from commlab import ColoredFunction, box_color_labels

    shape = DomainShape((2, 2))
    f = ColoredFunction(shape, np.array([[0, 0], [1, 0]]))
    full = box(shape, [0, 1], [0, 1])
    row0 = box(shape, [0], [0, 1])
    protocol = Protocol(Cover(shape, (full, row0)), TranscriptSelector.explicit([1, 1, 0, 0]))
    labels, colorless = box_color_labels(protocol, f)
    assert labels.tolist() == [0, 0, 1, 1] and colorless == 1
    kept = JointDistribution.uniform(shape).condition_on(labels != colorless)
    assert kept.p.tolist() == [0.5, 0.5, 0.0, 0.0]
    profile, engine = _profile_and_engine(monkeypatch, kept, protocol_labels(protocol, labels), {})
    assert "H(F|X0)" in profile.quantities
    assert engine.entropy("F") == pytest.approx(0.0, abs=1e-12)


def test_profile_box_color_relation(monkeypatch):
    from commlab import approx_xor_relation, box_color_labels

    rel = approx_xor_relation(1, 1.0)  # every color admissible everywhere
    shape = rel.shape
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    labels, colorless = box_color_labels(protocol, rel)
    assert labels.tolist() == [0, 0, 0, 0] and colorless == 1  # no cell to condition away
    profile, engine = _profile_and_engine(
        monkeypatch, JointDistribution.uniform(shape), protocol_labels(protocol, labels), {}
    )
    assert "H(F|X0)" in profile.quantities
    assert engine.entropy("F") == pytest.approx(0.0, abs=1e-12)  # single box, one color


def test_profiles_match_naive_oracle_on_random_instances():
    from commlab import random_bounded_cover

    rng = np.random.default_rng(77)
    for _ in range(10):
        shape = DomainShape((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        cover = random_bounded_cover(shape, rho_max=3, extra=2, rng=rng)
        protocol = Protocol(cover, TranscriptSelector.seeded(int(rng.integers(1 << 20))))
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        labels = selector_labels(protocol)
        profile = build_profile(dist, protocol_labels(protocol), {})
        d = to_dict(dist)
        t_of = lambda c: int(labels[shape.linear_index(c)])
        assert profile["H(T)"] == pytest.approx(
            naive_joint_entropy(d, t_of), abs=1e-9
        )
        assert profile["I(X0:X1)"] == pytest.approx(
            naive_mutual_information(d, lambda c: c[0], lambda c: c[1]), abs=1e-9
        )
        assert profile["I(X0:X1|T)"] == pytest.approx(
            naive_conditional_mi(d, lambda c: c[0], lambda c: c[1], t_of), abs=1e-9
        )
        ic = naive_conditional_mi(d, lambda c: c[0], t_of, lambda c: c[1]) + (
            naive_conditional_mi(d, lambda c: c[1], t_of, lambda c: c[0])
        )
        assert profile["IC"] == pytest.approx(ic, abs=1e-9)


def test_triple_info_of_output_variable_identity():
    # F is cell-determined, so H(F|X,Y) = 0 and the inclusion-exclusion form
    # collapses: I(X:Y:F) = H(F) - H(F|X) - H(F|Y)
    from commlab import random_bounded_cover, random_function, selector_labels

    rng = np.random.default_rng(55)
    for _ in range(15):
        shape = DomainShape((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        cover = random_bounded_cover(shape, rho_max=2, extra=1, rng=rng)
        protocol = Protocol(cover, TranscriptSelector.min_index())
        f = random_function(shape, 3, seed=int(rng.integers(1 << 16)))
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        variables = coordinates(shape, F=f.flat())
        h = InfoEngine(dist, variables).entropy
        assert _cond_entropy(h, ("F",), ("X0", "X1")) <= 1e-9
        triple = triple_information(dist, variables, "X0", "X1", "F")
        collapsed = h("F") - _cond_entropy(h, ("F",), ("X0",)) - _cond_entropy(h, ("F",), ("X1",))
        assert abs(triple.value - collapsed) <= 1e-9


def test_entropy_engine_matches_naive_on_large_random_dists():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n_rows = int(rng.integers(2, 65))
        n_cols = int(rng.integers(2, 65))
        shape = DomainShape((n_rows, n_cols))
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        variables = coordinates(shape)
        engine = InfoEngine(dist, variables)
        naive = -sum(p * math.log2(p) for p in dist.p if p > 0)
        assert engine.entropy(("X0", "X1")) == pytest.approx(naive, abs=1e-9)


# ---------------------------------------------------------------------------
# Batched entropies


def _five_variables(shape, seed):
    """The coordinates and three random labels, over a distribution with zero
    cells whose label A = 0 is an outcome of zero mass. C takes the values 0
    and 2**20, so on 64x64 the keys of groups with both coordinates and C pass
    KEY_LIMIT and are ranked densely."""
    rng = np.random.default_rng(seed)
    n = shape.num_cells
    labels = {name: rng.integers(0, k, size=n) for name, k in (("A", 3), ("B", 5), ("C", 2))}
    labels["C"] <<= 20
    weights = rng.integers(0, 4, size=n).astype(np.float64)
    weights[labels["A"] == 0] = 0.0
    weights[labels["A"] != 0] += 1.0
    dist = JointDistribution(shape, weights / weights.sum())
    return dist, coordinates(shape, **labels)


@pytest.mark.parametrize("sizes, min_batches", [((3, 5), 1), ((64, 64), 2)])
def test_batched_entropies_are_bit_identical_to_each_group_alone(sizes, min_batches):
    from itertools import combinations

    from commlab.info import BATCH_CELLS

    from naive import entropy_levels

    shape = DomainShape(sizes)
    dist, variables = _five_variables(shape, seed=sum(sizes))
    names = sorted(variables)
    groups = [g for k in range(1, len(names) + 1) for g in combinations(names, k)]
    batches = math.ceil(len(groups) / max(1, BATCH_CELLS // shape.num_cells))
    assert batches >= min_batches
    batched = InfoEngine(dist, variables).entropies(groups)
    alone = [InfoEngine(dist, variables).entropy(g) for g in groups]
    columns = [variables[name].tolist() for name in names]
    rows = list(zip(*columns))
    oracle = [
        entropy_levels(
            dist.p.tolist(),
            [tuple(row[names.index(name)] for name in g) for row in rows],
            lambda q: float(np.log2(q)),
        )
        for g in groups
    ]
    assert [v.hex() for v in batched] == [v.hex() for v in alone] == [v.hex() for v in oracle]
    assert InfoEngine(dist, variables).entropies([("A",), (), "A"])[1] == 0.0


def _profile_engine(seed):
    """The engine and the 11 distinct groups that build_profile reads for a
    verify-large (max_bits 8) instance."""
    from commlab.info import _profile_groups
    from commlab.verify import SuiteConfig, _random_instance

    protocol, function, dist = _random_instance(SuiteConfig(max_bits=8), seed)
    shape = protocol.shape
    variables = coordinates(shape, T=selector_labels(protocol), F=function.flat())
    groups = list(dict.fromkeys(frozenset(g) for g in _profile_groups(2, True)))
    assert len(groups) == 11
    return InfoEngine(dist, variables), groups


@pytest.mark.parametrize("seed, sizes", [(84, (64, 64)), (13, (256, 128))])
def test_profile_entropies_do_not_depend_on_the_batch_size(seed, sizes, monkeypatch):
    import commlab.info

    values = []
    for cells in (1 << 10, 1 << 14, 1 << 16):
        monkeypatch.setattr(commlab.info, "BATCH_CELLS", cells)
        engine, groups = _profile_engine(seed)
        assert engine.dist.shape.sizes == sizes
        values.append([v.hex() for v in engine.entropies(groups)])
    assert values[0] == values[1] == values[2]


def test_entropies_of_a_65536_cell_grid_match_the_level_oracle():
    # keys past 2**16 take both radix passes, and each batch holds one group
    from commlab.info import BATCH_CELLS

    from naive import entropy_levels

    shape = DomainShape((256, 256))
    n = shape.num_cells
    assert max(1, BATCH_CELLS // n) == 1
    rng = np.random.default_rng(5)
    t = rng.choice(1 << 20, size=3000, replace=False)[rng.integers(0, 3000, size=n)]
    f = rng.integers(0, 8, size=n)
    variables = coordinates(shape, T=t, F=f)
    dist = JointDistribution.random_integer_weights(shape, seed=5)
    groups = [("T",), ("T", "X1"), ("F", "T", "X0")]
    engine = InfoEngine(dist, variables)
    assert all(engine._group_labels(g).max() >> 16 for g in groups)
    got = engine.entropies(groups)
    for g, value in zip(groups, got):
        keys = list(zip(*(variables[name].tolist() for name in g)))
        expected = entropy_levels(dist.p.tolist(), keys, lambda q: float(np.log2(q)))
        assert value.hex() == expected.hex(), g


def test_combined_keys_past_int64_do_not_merge_outcomes():
    # 4 * (2**62 + 1) wraps in int64; a wrapped key made (4, 0) and (0, 4)
    # one outcome and gave 0.918 bits
    shape = DomainShape((3, 1))
    variables = {"A": [0, 4, 0], "B": [2**62, 0, 4]}
    engine = InfoEngine(JointDistribution.uniform(shape), variables)
    assert engine.entropy(("A", "B")) == pytest.approx(math.log2(3), abs=1e-15)


def test_group_labels_stay_below_key_limit_and_order_like_tuples():
    # the radix sort needs every label below KEY_LIMIT, and the entropy sums
    # need the outcomes in the order of their label tuples
    from commlab.info import KEY_LIMIT

    rng = np.random.default_rng(11)
    shape = DomainShape((8, 8))
    shifts = {"A": 40, "B": 0, "C": 33}
    labels = {name: rng.integers(0, 4, size=64) << bits for name, bits in shifts.items()}
    engine = InfoEngine(JointDistribution.uniform(shape), labels)
    for names in (("A",), ("C", "A"), ("A", "B", "C"), ("B", "C"), ("B",)):
        got = engine._group_labels(names)
        assert got.min() >= 0 and got.max() < KEY_LIMIT
        tuples = np.stack([labels[name] for name in sorted(names)], axis=1)
        want = np.unique(tuples, axis=0, return_inverse=True)[1].reshape(-1)
        assert (np.unique(got, return_inverse=True)[1].reshape(-1) == want).all()


def test_group_keys_just_past_key_limit_are_ranked_before_the_radix_sort():
    # A's radix 2**16 + 1 times B's 2**16 lies 2**16 above KEY_LIMIT = 2**32,
    # so the pair is ranked densely first; an unranked key would pass the
    # radix sort's 32 bits and merge outcomes (5.375 bits instead of 1.928).
    # 64 cells keep the row on the radix path.
    from commlab.core import RADIX_MIN_WIDTH

    from naive import naive_joint_entropy

    shape = DomainShape((8, 8))
    assert shape.num_cells >= RADIX_MIN_WIDTH
    c = np.arange(shape.num_cells)
    variables = {"A": (c % 2) << 16, "B": np.where(c % 3 == 0, 2**16 - 1, 0)}
    dist = JointDistribution.uniform(shape)
    p_by_cell = dict(enumerate(dist.p.tolist()))
    expected = naive_joint_entropy(p_by_cell, lambda i: (variables["A"][i], variables["B"][i]))
    assert expected == pytest.approx(1.9284, abs=1e-4)
    got = InfoEngine(dist, variables).entropy(("A", "B"))
    assert got == pytest.approx(expected, abs=1e-12)


_NEAR_2_62 = st.one_of(st.integers(0, 6), st.integers(2**62 - 6, 2**62 + 6))


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.lists(
                st.lists(_NEAR_2_62, min_size=sizes[0] * sizes[1], max_size=sizes[0] * sizes[1]),
                min_size=3,
                max_size=3,
            ),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_entropies_of_labels_near_2_62_match_the_level_oracle(case, seed):
    from itertools import combinations

    from naive import entropy_levels

    sizes, columns = case
    shape = DomainShape(sizes)
    dist = JointDistribution.random_integer_weights(shape, seed=seed)
    names = ("A", "B", "C")
    variables = dict(zip(names, columns))
    groups = [g for k in (1, 2, 3) for g in combinations(names, k)]
    got = InfoEngine(dist, variables).entropies(groups)
    oracle = [
        entropy_levels(
            dist.p.tolist(),
            list(zip(*(columns[names.index(name)] for name in g))),
            lambda q: float(np.log2(q)),
        )
        for g in groups
    ]
    assert [v.hex() for v in got] == [v.hex() for v in oracle]


@pytest.mark.parametrize(
    "suite, arity, f_mode",
    [("main", 2, "function"), ("main", 2, None), ("tree", 2, "function"),
     ("multiparty", 3, "function"), ("multiparty", 4, None)],
)
def test_build_profile_computes_every_entropy_in_its_one_batch(monkeypatch, suite, arity, f_mode):
    # the profile fills the engine's cache with one entropies() call and
    # reads every quantity through entropy(), which batches a group it finds
    # uncached on its own: one batch means it held every group read, and
    # recording the reads shows every batched group is read
    from commlab.errors import GenerationFailureError
    from commlab.verify import SuiteConfig, _random_instance

    batches, reads = [], set()
    entropies, entropy = InfoEngine.entropies, InfoEngine.entropy

    def record_batch(self, groups):
        batches.append([frozenset((g,) if isinstance(g, str) else g) for g in groups])
        return entropies(self, groups)

    def record_read(self, names):
        reads.add(frozenset((names,) if isinstance(names, str) else names))
        return entropy(self, names)

    monkeypatch.setattr(InfoEngine, "entropies", record_batch)
    monkeypatch.setattr(InfoEngine, "entropy", record_read)
    config = SuiteConfig(suite=suite, arity=arity, max_bits=2)
    profiles = 0
    for seed in range(8):
        try:
            protocol, function, dist = _random_instance(config, seed)
        except GenerationFailureError:
            continue
        batches.clear()
        reads.clear()
        build_profile(dist, protocol_labels(protocol, function.flat() if f_mode else None), {})
        assert len(batches) == 1
        assert set(batches[0]) == reads
        profiles += 1
    assert profiles >= 5


def _engine_profile_quantities(dist, protocol, f_labels):
    """Every quantity of a profile, each read through the name-keyed engine."""
    from commlab.core import selector_labels
    from commlab.info import _information_cost, _row_conditional_entropy, _triple

    arity = protocol.shape.arity
    labels = {"T": selector_labels(protocol)}
    if f_labels is not None:
        labels["F"] = f_labels
    h = InfoEngine(dist, coordinates(protocol.shape, **labels)).entropy
    xs = tuple(f"X{i}" for i in range(arity))
    q = {"H(T)": h("T")}
    for x in xs:
        q[f"H({x})"] = h(x)
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
        for x in xs:
            q[f"H(F|{x})"] = _cond_entropy(h, ("F",), (x,))
            q[f"H(T|{x},F)"] = _cond_entropy(h, ("T",), (x, "F"))
    return q


def _profile_cases():
    """(dist, protocol, f labels, f mode) for sweep instances of every suite,
    a box-colour relation profile with a colourless selected box, its
    distribution conditioned on the coloured ones, and F labels past
    KEY_LIMIT."""
    from commlab import approx_xor_relation, box_color_labels, random_bounded_cover
    from commlab.errors import GenerationFailureError
    from commlab.info import KEY_LIMIT, MAX_WEIGHT
    from commlab.verify import SuiteConfig, _random_instance

    for suite, arity in (("main", 2), ("tree", 2), ("multiparty", 3), ("multiparty", 4)):
        config = SuiteConfig(suite=suite, arity=arity, max_bits=3 if arity == 2 else 2)
        for seed in range(6):
            try:
                protocol, function, dist = _random_instance(config, seed)
            except GenerationFailureError:
                continue
            yield dist, protocol, function.flat(), "function"
            yield dist, protocol, None, "function"

    shape = DomainShape((4, 4))
    protocol = Protocol(random_bounded_cover(shape, 3, 6, seed=3), TranscriptSelector.seeded(9))
    f_labels, colorless = box_color_labels(protocol, approx_xor_relation(2, 0.5))
    assert (f_labels == colorless).any() and (f_labels != colorless).any()
    # weights 1..MAX_WEIGHT: every cell has mass
    w = np.random.default_rng(5).integers(1, MAX_WEIGHT + 1, size=shape.num_cells).astype(np.float64)
    dist = JointDistribution(shape, w / w.sum())
    yield dist.condition_on(f_labels != colorless), protocol, f_labels, "box-color"

    big = np.arange(shape.num_cells) % 3 * (KEY_LIMIT // 2)
    yield dist, protocol, big, "explicit"


def test_profile_quantities_equal_the_name_keyed_engine_bit_for_bit():
    from commlab.core import box_thickness_table, selector_labels

    cases = 0
    for dist, protocol, f_labels, f_mode in _profile_cases():
        profile, _ = protocol_profile(dist, protocol, f_labels, f_mode)
        expected = _engine_profile_quantities(dist, protocol, f_labels)
        assert list(profile.quantities) == list(expected)
        got = [v.hex() for v in profile.quantities.values()]
        assert got == [v.hex() for v in expected.values()]
        t = selector_labels(protocol)
        box_rho = box_thickness_table(protocol.cover)
        log_rho = pairwise_sum(dist.p * np.log2(box_rho[t].astype(np.float64)))
        assert profile.charges["expected"].hex() == log_rho.hex()
        cases += 1
    assert cases >= 40


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["random-bounded", "tree"]),
    st.lists(st.integers(1, 8), min_size=2, max_size=3),
    st.integers(2, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)
def test_max_box_thickness_is_the_global_thickness(kind, sizes, rho_max, extra, seed, selector_seed):
    # every cell lies in its selected box, and a box's thickness is the
    # largest among its cells, so the largest selected-box thickness is the
    # global rho: the reason the rho_box_max column reports rho_global
    shape = DomainShape(tuple(sizes))
    if kind == "tree":
        cover = compile_tree(random_tree(shape, seed=seed)).cover
    else:
        try:
            cover = random_bounded_cover(shape, rho_max, extra, seed=seed, attempt_budget=200)
        except GenerationFailureError:
            return
    selector = (
        TranscriptSelector.min_index()
        if selector_seed is None
        else TranscriptSelector.seeded(selector_seed)
    )
    labels = selector_labels(Protocol(cover, selector))
    assert box_thickness_table(cover)[labels].max() == thickness_table(cover).max()
