"""Entropy engine: exact values, identities, profiles, oracle agreement."""

import dataclasses
import math

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
    VariableSpec,
    binary_entropy,
    build_profile,
    compile_tree,
    constant_function,
    info_quantity,
    internal_information_cost,
    pairwise_sum,
    parity_tightness_protocol,
    random_bounded_cover,
    random_tree,
    triple_information,
    trivial_merlin_cover,
    windmill_cover,
    xor_function,
)
from commlab.core import box, box_thickness_table, selector_labels, thickness_table
from commlab.info import InfoEngine, grouped_pairwise_sums

from naive import (
    grouped_pairwise_sums_levels,
    naive_conditional_mi,
    naive_entropy,
    naive_joint_entropy,
    naive_mutual_information,
    pairwise_sum_levels,
)


def dist_from_dict(shape, cells):
    return JointDistribution.from_cells(shape, cells)


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


def test_grouped_pairwise_sums_match_per_group_fsum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        ids = np.sort(rng.integers(0, 20, size=n))
        vals = rng.random(n)
        got = grouped_pairwise_sums(vals, ids)
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
    got = grouped_pairwise_sums(np.array(values), np.array(ids))
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
    variables = VariableSpec.coordinates(shape)
    assert info_quantity(dist, variables, "H(X0,X1)") == pytest.approx(2.0, abs=1e-12)


def test_diagonal_mutual_information():
    shape = DomainShape((2, 2))
    dist = dist_from_dict(shape, {(0, 0): 0.5, (1, 1): 0.5})
    variables = VariableSpec.coordinates(shape)
    assert info_quantity(dist, variables, "I(X0:X1)") == pytest.approx(1.0, abs=1e-12)


def test_marginal_entropy_three_cell_dist():
    shape = DomainShape((2, 2))
    dist = dist_from_dict(shape, {(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
    variables = VariableSpec.coordinates(shape)
    # H(X) = h(1/4), computed independently from the definition
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert expected == pytest.approx(0.8112781244591328, abs=1e-12)
    assert info_quantity(dist, variables, "H(X0)") == pytest.approx(expected, abs=1e-12)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(InvalidInputError):
        binary_entropy(1.5)


def test_expression_parser_errors():
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    variables = VariableSpec.coordinates(shape)
    with pytest.raises(InvalidInputError):
        info_quantity(dist, variables, "H[X0]")
    with pytest.raises(InvalidInputError):
        info_quantity(dist, variables, "I(X0)")
    with pytest.raises(InvalidInputError):
        info_quantity(dist, variables, "H(X9)")


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
    variables = VariableSpec.coordinates(shape)
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
    profile = build_profile(dist, protocol)
    assert profile["H(X1|X0)"] == pytest.approx(h_rows, abs=1e-12)
    assert profile["chain_gap"] <= 1e-9


def test_triple_information_constant_w():
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    variables = VariableSpec.coordinates(shape).with_variable("W", [0, 0, 0, 0])
    t = triple_information(dist, variables, "X0", "X1", "W")
    assert t.value == pytest.approx(0.0, abs=1e-12)
    assert t.formula_gap <= 1e-9


def test_triple_information_xor_is_minus_one():
    # brute-forced joint over independent uniform bits with W = X^Y: I(X:Y)=0,
    # I(X:Y|W)=1, so the triple information is -1
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    xor_labels = [0, 1, 1, 0]
    variables = VariableSpec.coordinates(shape).with_variable("W", xor_labels)
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
    variables = VariableSpec.coordinates(shape).with_variable("W", [0, 0, 1, 1])
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
    variables = VariableSpec.coordinates(shape).with_variable("W", labels)
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
    assert internal_information_cost(dist, protocol) == pytest.approx(1.0, abs=1e-12)


def test_ic_constant_transcript():
    shape = DomainShape((2, 2))
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    dist = JointDistribution.uniform(shape)
    assert internal_information_cost(dist, protocol) == pytest.approx(0.0, abs=1e-12)


def test_ic_singleton_partition():
    shape = DomainShape((2, 2))
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(shape)
    assert internal_information_cost(dist, protocol) == pytest.approx(2.0, abs=1e-12)


def test_support_outside_cover_rejected():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]),))  # misses row 1
    protocol = Protocol(cover, TranscriptSelector.min_index())
    dist = dist_from_dict(shape, {(1, 0): 1.0})
    with pytest.raises(InvalidInputError):
        internal_information_cost(dist, protocol)
    with pytest.raises(InvalidInputError):
        build_profile(dist, protocol)


def test_profile_xor_singletons():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(f.shape)
    profile = build_profile(dist, protocol, target=f)
    assert profile["H(T)"] == pytest.approx(2.0, abs=1e-12)
    assert profile["I(X0:X1|T)"] == pytest.approx(0.0, abs=1e-12)
    assert profile["H(F|X0)"] == pytest.approx(1.0, abs=1e-12)
    assert profile["H(F|X1)"] == pytest.approx(1.0, abs=1e-12)
    assert profile.rho_global == 1


def test_profile_constant_single_box():
    shape = DomainShape((2, 2))
    f = constant_function(shape)
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    profile = build_profile(JointDistribution.uniform(shape), protocol, target=f)
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
        profile = build_profile(JointDistribution.from_table(shape, p), protocol)
        out = {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}
        out["quantities"] = {k: v.hex() for k, v in out["quantities"].items()}
        out["expected_log_rho"] = out["expected_log_rho"].hex()
        out["excluded_mass"] = out["excluded_mass"].hex()
        return out

    assert fields_of(np.where(table > 0.0, table, -0.0)) == fields_of(table)


def test_profile_parity_selector_brute_force():
    protocol = parity_tightness_protocol(1)
    dist = JointDistribution.uniform(protocol.shape)
    profile = build_profile(dist, protocol)
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
    assert profile.rho_global == 2


def test_profile_box_color_exclusion():
    # two boxes: a non-monochromatic full box and a monochromatic row box;
    # cells selecting the colorless box get conditioned away
    from commlab import ColoredFunction

    shape = DomainShape((2, 2))
    f = ColoredFunction(shape, np.array([[0, 0], [1, 0]]))
    full = box(shape, [0, 1], [0, 1])
    row0 = box(shape, [0], [0, 1])
    cover = Cover(shape, (full, row0))
    protocol = Protocol(cover, TranscriptSelector.explicit([1, 1, 0, 0]))
    dist = JointDistribution.uniform(shape)
    profile = build_profile(dist, protocol, target=f, f_mode="box-color")
    assert profile.excluded_mass == pytest.approx(0.5, abs=1e-12)
    assert profile["H(F)"] == pytest.approx(0.0, abs=1e-12)


def test_profile_box_color_relation():
    from commlab import approx_xor_relation

    rel = approx_xor_relation(1, 1.0)  # every color admissible everywhere
    shape = rel.shape
    protocol = Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )
    profile = build_profile(
        JointDistribution.uniform(shape), protocol, target=rel, f_mode="box-color"
    )
    assert profile.excluded_mass == 0.0
    assert profile["H(F)"] == pytest.approx(0.0, abs=1e-12)  # single box, one color


def test_profiles_match_naive_oracle_on_random_instances():
    from commlab import random_bounded_cover

    rng = np.random.default_rng(77)
    for _ in range(10):
        shape = DomainShape((int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        cover = random_bounded_cover(shape, rho_max=3, extra=2, rng=rng)
        protocol = Protocol(cover, TranscriptSelector.seeded(int(rng.integers(1 << 20))))
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        profile = build_profile(dist, protocol)
        from commlab import selector_labels

        labels = selector_labels(protocol)
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
        variables = VariableSpec.coordinates(shape).with_variable("F", f.flat())
        engine = InfoEngine(dist, variables)
        assert engine.cond_entropy("F", ("X0", "X1")) <= 1e-9
        triple = triple_information(dist, variables, "X0", "X1", "F")
        collapsed = (
            engine.entropy("F")
            - engine.cond_entropy("F", "X0")
            - engine.cond_entropy("F", "X1")
        )
        assert abs(triple.value - collapsed) <= 1e-9


def test_entropy_engine_matches_naive_on_large_random_dists():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n_rows = int(rng.integers(2, 65))
        n_cols = int(rng.integers(2, 65))
        shape = DomainShape((n_rows, n_cols))
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        variables = VariableSpec.coordinates(shape)
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
    variables = VariableSpec.coordinates(shape)
    for name, arr in labels.items():
        variables = variables.with_variable(name, arr)
    return dist, variables


@pytest.mark.parametrize("sizes, batches", [((3, 5), 1), ((64, 64), 2)])
def test_batched_entropies_are_bit_identical_to_each_group_alone(sizes, batches):
    from itertools import combinations

    from commlab.info import BATCH_CELLS

    from naive import entropy_levels

    shape = DomainShape(sizes)
    dist, variables = _five_variables(shape, seed=sum(sizes))
    names = sorted(variables.names())
    groups = [g for k in range(1, len(names) + 1) for g in combinations(names, k)]
    assert math.ceil(len(groups) / (BATCH_CELLS // shape.num_cells)) == batches
    batched = InfoEngine(dist, variables).entropies(groups)
    alone = [InfoEngine(dist, variables).entropy(g) for g in groups]
    columns = [variables.labels[name].tolist() for name in names]
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


def test_combined_keys_past_int64_do_not_merge_outcomes():
    # 4 * (2**62 + 1) wraps in int64; a wrapped key made (4, 0) and (0, 4)
    # one outcome and gave 0.918 bits
    shape = DomainShape((3, 1))
    variables = VariableSpec(shape, {"A": [0, 4, 0], "B": [2**62, 0, 4]})
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
    variables = VariableSpec(shape, labels)
    engine = InfoEngine(JointDistribution.uniform(shape), variables)
    for names in (("A",), ("C", "A"), ("A", "B", "C"), ("B", "C"), ("B",)):
        got = engine._group_labels(names)
        assert got.min() >= 0 and got.max() < KEY_LIMIT
        tuples = np.stack([variables.labels[name] for name in sorted(names)], axis=1)
        want = np.unique(tuples, axis=0, return_inverse=True)[1].reshape(-1)
        assert (np.unique(got, return_inverse=True)[1].reshape(-1) == want).all()


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
    variables = VariableSpec(shape, dict(zip(names, columns)))
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
    # the profile reads its quantities by position from the list that its
    # entropies() call returns: one call means the batch held every group
    # read, and recording the positions read shows every batched group is read
    from commlab.errors import GenerationFailureError
    from commlab.verify import SuiteConfig, _random_instance

    batches, reads = [], set()
    entropies = InfoEngine.entropies

    class RecordedReads(list):
        def __getitem__(self, k):
            reads.add(batches[-1][k])
            return list.__getitem__(self, k)

    def record_batch(self, groups):
        batches.append([frozenset((g,) if isinstance(g, str) else g) for g in groups])
        return RecordedReads(entropies(self, groups))

    monkeypatch.setattr(InfoEngine, "entropies", record_batch)
    config = SuiteConfig(suite=suite, arity=arity, max_bits=2)
    profiles = 0
    for seed in range(8):
        try:
            protocol, function, dist = _random_instance(config, seed)
        except GenerationFailureError:
            continue
        batches.clear()
        reads.clear()
        build_profile(dist, protocol, target=function if f_mode else None)
        assert len(batches) == 1
        assert set(batches[0]) == reads
        profiles += 1
    assert profiles >= 5


def _engine_profile_quantities(dist, protocol, f_labels):
    """Every quantity of a profile, each read through the name-keyed engine."""
    from commlab.core import selector_labels
    from commlab.info import _information_cost, _row_conditional_entropy, _triple

    arity = protocol.shape.arity
    t_labels = selector_labels(protocol)
    variables = VariableSpec.coordinates(protocol.shape).with_variable("T", t_labels)
    if f_labels is not None:
        variables = variables.with_variable("F", f_labels)
    engine = InfoEngine(dist, variables)
    xs = tuple(f"X{i}" for i in range(arity))
    q = {"H(T)": engine.entropy("T")}
    for x in xs:
        q[f"H({x})"] = engine.entropy(x)
        q[f"H(T|{x})"] = engine.cond_entropy("T", x)
    q["H(X0,X1)"] = engine.entropy(("X0", "X1"))
    q["H(X1|X0)"] = _row_conditional_entropy(dist)
    q["chain_gap"] = abs(q["H(X0,X1)"] - q["H(X0)"] - q["H(X1|X0)"])
    triple = _triple(engine.entropy, "X0", "X1", "T")
    if arity == 2:
        q["I(X0:X1)"] = engine.mutual_information("X0", "X1")
        q["I(X0:X1|T)"] = engine.mutual_information("X0", "X1", given="T")
        q["I(X0:X1:T)"] = triple.value
    q["triple_gap"] = triple.formula_gap
    q["IC"] = _information_cost(engine.entropy, arity)
    if f_labels is not None:
        q["H(F)"] = engine.entropy("F")
        for x in xs:
            q[f"H(F|{x})"] = engine.cond_entropy("F", x)
            q[f"H(T|{x},F)"] = engine.cond_entropy("T", (x, "F"))
        q["H(F|X0,X1)"] = engine.cond_entropy("F", xs)
    return q


def _profile_cases():
    """(dist, protocol, build_profile keywords, f labels, dist the profile
    reads) for sweep instances of every suite, a box-colour relation profile
    with a colourless selected box, and F labels past KEY_LIMIT."""
    from commlab import approx_xor_relation, monochromatic_color, random_bounded_cover
    from commlab.core import selector_labels
    from commlab.errors import GenerationFailureError
    from commlab.info import KEY_LIMIT
    from commlab.verify import SuiteConfig, _random_instance

    for suite, arity in (("main", 2), ("tree", 2), ("multiparty", 3), ("multiparty", 4)):
        config = SuiteConfig(suite=suite, arity=arity, max_bits=3 if arity == 2 else 2)
        for seed in range(6):
            try:
                protocol, function, dist = _random_instance(config, seed)
            except GenerationFailureError:
                continue
            yield dist, protocol, {"target": function}, function.flat(), dist
            yield dist, protocol, {}, None, dist

    shape = DomainShape((4, 4))
    relation = approx_xor_relation(2, 0.5)
    protocol = Protocol(random_bounded_cover(shape, 3, 6, seed=3), TranscriptSelector.seeded(9))
    t = selector_labels(protocol)
    colors = {i: monochromatic_color(protocol.cover.boxes[i], relation) for i in set(t.tolist())}
    colored = [c for c in colors.values() if c is not None]
    assert None in colors.values() and colored
    f_labels = np.array([colors[i] if colors[i] is not None else max(colored) + 1 for i in t])
    dist = JointDistribution.random_integer_weights(shape, seed=5, allow_zero=False)
    kept, _ = dist.condition_on(np.array([colors[i] is not None for i in t]))
    yield dist, protocol, {"target": relation, "f_mode": "box-color"}, f_labels, kept

    big = np.arange(shape.num_cells) % 3 * (KEY_LIMIT // 2)
    yield dist, protocol, {"f_table": big}, big, dist


def test_profile_quantities_equal_the_name_keyed_engine_bit_for_bit():
    from commlab.core import box_thickness_table, selector_labels

    cases = 0
    for dist, protocol, kwargs, f_labels, read_dist in _profile_cases():
        profile = build_profile(dist, protocol, **kwargs)
        expected = _engine_profile_quantities(read_dist, protocol, f_labels)
        assert list(profile.quantities) == list(expected)
        got = [v.hex() for v in profile.quantities.values()]
        assert got == [v.hex() for v in expected.values()]
        t = selector_labels(protocol)
        box_rho = box_thickness_table(protocol.cover)
        log_rho = pairwise_sum(read_dist.p * np.log2(box_rho[t].astype(np.float64)))
        assert profile.expected_log_rho.hex() == log_rho.hex()
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
