"""Inequality checkers, AM analysis, and the batch runner."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from commlab import (
    AMProtocol,
    Box,
    Cover,
    DegenerateInstanceError,
    DomainShape,
    ErrorProtocol,
    InvalidInputError,
    JointDistribution,
    Protocol,
    ProtocolTree,
    SuiteConfig,
    TranscriptSelector,
    TreeLeaf,
    TreeSplit,
    am_analyze,
    batch_experiment,
    check_ic,
    check_main_inequality,
    check_multiparty,
    check_transcript_bound,
    compile_tree,
    constant_function,
    error_protocol_from_cover,
    pairwise_sum,
    parity_tightness_protocol,
    protocol_profile,
    trivial_merlin_am,
    trivial_merlin_cover,
    xor_function,
)
from commlab.core import box, box_thickness_table, selector_labels
from commlab.errors import GenerationFailureError
from commlab.verify import _random_instance, analyze_instance, run_suite_row

from naive import naive_entropy, naive_joint_entropy, project


def diag_dist(shape):
    """Half the mass on cell (0, 0), half on (1, 1)."""
    p = np.zeros(shape.num_cells)
    p[[shape.linear_index((0, 0)), shape.linear_index((1, 1))]] = 0.5
    return JointDistribution(shape, p)


def alice_sends_x():
    shape = DomainShape((2, 2))
    cover = Cover(shape, (box(shape, [0], [0, 1]), box(shape, [1], [0, 1])))
    return Protocol(cover, TranscriptSelector.min_index())


def single_full_box():
    shape = DomainShape((2, 2))
    return Protocol(
        Cover(shape, (box(shape, [0, 1], [0, 1]),)), TranscriptSelector.min_index()
    )


# ---------------------------------------------------------------------------
# Main inequality


def test_main_margin_tree_partition_diagonal():
    protocol = alice_sends_x()
    profile, row = protocol_profile(diag_dist(protocol.shape), protocol)
    assert check_main_inequality(profile) == pytest.approx(1.0, abs=1e-9)
    assert row.rho_global == 1  # a partition: log2(rho) = 0


def test_main_margin_parity_tight():
    protocol = parity_tightness_protocol(1)
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    assert abs(check_main_inequality(profile, rho_mode="global")) <= 1e-9
    assert profile["I(X0:X1:T)"] == pytest.approx(-1.0, abs=1e-9)


def test_main_margin_single_box_zero():
    protocol = single_full_box()
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    assert check_main_inequality(profile) == pytest.approx(0.0, abs=1e-9)


def test_rho_modes_differ_on_mixed_cover():
    # one overlapping pair plus untouched singleton rows: the expected mode
    # weights the thin boxes, global uses the worst cell
    shape = DomainShape((2, 2))
    full = box(shape, [0, 1], [0, 1])
    cover = Cover(shape, (full, full, box(shape, [0], [0, 1])))
    protocol = Protocol(cover, TranscriptSelector.explicit([2, 2, 0, 1]))
    profile, row = protocol_profile(JointDistribution.uniform(shape), protocol)
    assert row.rho_global == 3
    # half the mass sits on the thickness-3 singleton-row box
    assert profile.charges["expected"] == pytest.approx(np.log2(3), abs=1e-12)
    assert check_main_inequality(profile, "expected") == pytest.approx(
        check_main_inequality(profile, "global"), abs=1e-12
    )
    # max-box would be the global rho under a second name, so it is not a mode
    with pytest.raises(InvalidInputError):
        check_main_inequality(profile, "max-box")


def _general_charges(dist, protocol):
    """The two charges as computed for any cover: log2 of the largest cell
    thickness, and the pairwise sum of p * log2 of the selected box's."""
    box_rho = box_thickness_table(protocol.cover).astype(np.float64)
    return {
        "global": math.log2(int(box_rho.max())),
        "expected": pairwise_sum(dist.p * np.log2(box_rho)[selector_labels(protocol)]),
    }


def test_partition_charges_are_the_general_charges_and_exactly_zero():
    for seed in range(100):
        protocol, function, dist = _random_instance(SuiteConfig(suite="tree"), seed)
        profile, row = protocol_profile(dist, protocol, function.flat())
        assert row.rho_global == 1
        assert profile.charges == _general_charges(dist, protocol)
        for charge in profile.charges.values():
            assert (charge, math.copysign(1.0, charge)) == (0.0, 1.0)  # +0.0, not -0.0
    # one cell at thickness 2 takes the general path
    shape = DomainShape((2, 2))
    rows = [box(shape, [0], [0, 1]), box(shape, [1], [0, 1])]
    protocol = Protocol(Cover(shape, (*rows, box(shape, [0], [0]))), TranscriptSelector.seeded(1))
    dist = JointDistribution(shape, np.array([0.4, 0.3, 0.2, 0.1]))
    profile, row = protocol_profile(dist, protocol)
    assert row.rho_global == 2
    assert profile.charges == _general_charges(dist, protocol)
    assert profile.charges["global"] == 1.0 and profile.charges["expected"] == pytest.approx(0.7)


def test_rho_mode_expected_weighting():
    protocol = parity_tightness_protocol(1)
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    assert profile.charges["expected"] == pytest.approx(1.0, abs=1e-12)
    assert check_main_inequality(profile, "expected") == pytest.approx(0.0, abs=1e-9)


def test_main_requires_two_party():
    shape = DomainShape((2, 2, 2))
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    profile, _ = protocol_profile(JointDistribution.uniform(shape), protocol)
    with pytest.raises(InvalidInputError):
        check_main_inequality(profile)


# ---------------------------------------------------------------------------
# Transcript bound


def test_transcript_xor_singletons_tight():
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    profile, _ = protocol_profile(JointDistribution.uniform(f.shape), protocol, f.flat())
    assert check_transcript_bound(profile) == pytest.approx(0.0, abs=1e-9)
    assert profile["H(T)"] == pytest.approx(2.0, abs=1e-12)


def test_transcript_constant_function():
    shape = DomainShape((2, 2))
    f = constant_function(shape)
    protocol = single_full_box()
    profile, _ = protocol_profile(JointDistribution.uniform(shape), protocol, f.flat())
    assert check_transcript_bound(profile) == pytest.approx(0.0, abs=1e-9)


def test_transcript_relation_delta_zero_matches_function():
    from commlab import approx_xor_relation, box_color_labels

    rel = approx_xor_relation(2, 0.0)
    f = xor_function(2)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(f.shape)
    rel_labels, colorless = box_color_labels(protocol, rel)
    assert (rel_labels != colorless).all()  # every singleton box has a color
    p_rel, _ = protocol_profile(dist, protocol, rel_labels, "box-color")
    p_fun, _ = protocol_profile(dist, protocol, f.flat(), "function")
    assert check_transcript_bound(p_rel) == pytest.approx(
        check_transcript_bound(p_fun), abs=1e-12
    )
    assert p_rel["H(F|X0)"] == pytest.approx(p_fun["H(F|X0)"], abs=1e-12)


def test_transcript_mode_follows_the_profile():
    # f_mode only names where F came from: it is hashed into the instance id
    # and moves no quantity
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    dist = JointDistribution.uniform(f.shape)
    instance_ids, quantities = set(), []
    for f_mode in ("function", "box-color", "explicit"):
        profile, row = protocol_profile(dist, protocol, f.flat(), f_mode)
        assert check_transcript_bound(profile) == pytest.approx(0.0, abs=1e-9)
        instance_ids.add(row.instance_id)
        quantities.append(profile.quantities)
    assert len(instance_ids) == 3
    assert quantities[0] == quantities[1] == quantities[2]


def test_transcript_mode_validation():
    protocol = single_full_box()
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    with pytest.raises(InvalidInputError):
        check_transcript_bound(profile)  # no F in profile


# ---------------------------------------------------------------------------
# Information cost


def test_ic_alice_sends_x():
    protocol = alice_sends_x()
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    gap, bound = check_ic(profile)
    assert profile["IC"] == pytest.approx(1.0, abs=1e-12)
    assert gap <= 1e-9
    assert bound == pytest.approx(0.0, abs=1e-9)


def test_ic_constant_transcript():
    protocol = single_full_box()
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    gap, bound = check_ic(profile)
    assert gap <= 1e-9
    assert bound == pytest.approx(0.0, abs=1e-9)


def test_ic_parity_selector_brute_force():
    protocol = parity_tightness_protocol(1)
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    gap, bound = check_ic(profile)
    assert profile["IC"] == pytest.approx(2.0, abs=1e-12)
    assert profile["H(T)"] == pytest.approx(1.0, abs=1e-12)
    assert profile["I(X0:X1:T)"] == pytest.approx(-1.0, abs=1e-9)
    assert gap <= 1e-9
    assert bound == pytest.approx(0.0, abs=1e-9)  # 1 + 1 - 2


# ---------------------------------------------------------------------------
# Multiparty


def test_multiparty_three_party_singletons_tight():
    shape = DomainShape((2, 2, 2))
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    profile, _ = protocol_profile(JointDistribution.uniform(shape), protocol)
    assert profile["H(T)"] == pytest.approx(3.0, abs=1e-12)
    assert check_multiparty(profile, "transcript-only") == pytest.approx(0.0, abs=1e-9)


def test_multiparty_single_box_zero():
    shape = DomainShape((2, 2, 2))
    full = Box(((1 << 2) - 1,) * 3)
    protocol = Protocol(Cover(shape, (full,)), TranscriptSelector.min_index())
    profile, _ = protocol_profile(JointDistribution.uniform(shape), protocol)
    assert check_multiparty(profile, "transcript-only") == pytest.approx(0.0, abs=1e-9)


def test_multiparty_two_party_matches_ic_bound():
    protocol = parity_tightness_protocol(1)
    profile, _ = protocol_profile(JointDistribution.uniform(protocol.shape), protocol)
    _, ic_bound = check_ic(profile)
    assert check_multiparty(profile, "transcript-only") == pytest.approx(ic_bound, abs=1e-12)


# ---------------------------------------------------------------------------
# Tree monotonicity: a tree's leaves partition the grid, so rho = 1 and the
# main margin is I(X:Y) - I(X:Y|T), which the chain rule keeps non-negative


def tree_margin(tree, dist):
    return check_main_inequality(protocol_profile(dist, compile_tree(tree))[0])


def full_communication_tree(shape):
    col_split = TreeSplit(1, 0b01, 0b10, TreeLeaf(), TreeLeaf())
    return ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, col_split, col_split))


def test_monotonicity_full_tree_diagonal():
    shape = DomainShape((2, 2))
    margin = tree_margin(full_communication_tree(shape), diag_dist(shape))
    assert margin == pytest.approx(1.0, abs=1e-9)


def test_monotonicity_alice_tree_any_dist():
    shape = DomainShape((2, 2))
    tree = ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, TreeLeaf(), TreeLeaf()))
    rng = np.random.default_rng(3)
    for _ in range(20):
        dist = JointDistribution.random_integer_weights(shape, rng=rng)
        profile, _ = protocol_profile(dist, compile_tree(tree))
        margin = check_main_inequality(profile)
        assert margin >= -1e-9
        # I(X:Y|T) = I(X:Y|X) = 0, so the margin equals I(X:Y)
        assert margin == pytest.approx(profile["I(X0:X1)"], abs=1e-9)


def test_monotonicity_independent_dist_zero():
    shape = DomainShape((2, 2))
    dist = JointDistribution.uniform(shape)
    for tree in (
        full_communication_tree(shape),
        ProtocolTree(shape, TreeSplit(0, 0b01, 0b10, TreeLeaf(), TreeLeaf())),
    ):
        assert tree_margin(tree, dist) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# AM analysis


def test_am_trivial_merlin_xor2():
    f = xor_function(2)
    am = trivial_merlin_am(f)
    report = am_analyze(am, f)
    assert report.overall_error == 0.0
    assert report.cost == pytest.approx(4.0, abs=1e-12)  # log2(16)
    assert report.r0 == 0
    assert report.estimated_lower_bound == pytest.approx(4.0, abs=1e-9)
    # H(T) = 4 = H(F|X) + H(F|Y), and T is fixed by either input and F
    assert report.restricted_margin == pytest.approx(0.0, abs=1e-9)
    assert report.cost >= report.estimated_lower_bound - 1e-9


def test_am_two_branches_disjoint_error_quarters():
    f = constant_function(DomainShape((4, 4)))
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    base = error_protocol_from_cover(protocol, f)

    def corrupt(rows):
        g_a = base.g_a.copy()
        for x in rows:
            for y in range(4):
                b = f.shape.linear_index((x, y))  # singleton box index == cell
                g_a[x, b] = 1 - g_a[x, b]
        return ErrorProtocol(protocol, g_a, base.g_b)

    am = AMProtocol((corrupt([0]), corrupt([1])))
    report = am_analyze(am, f, correctness_mode="uniform")
    assert report.branch_errors == (0.25, 0.25)
    assert report.good_sizes == (12, 12)
    assert report.r0 == 0
    assert report.overall_error == pytest.approx(0.25, abs=1e-12)


def test_am_constant_branch_on_xor1():
    f = xor_function(1)
    shape = f.shape
    protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
    g = np.zeros((2, 4), dtype=np.int64)  # both parties always answer 0
    am = AMProtocol((ErrorProtocol(protocol, g, g),))
    report = am_analyze(am, f)
    assert report.good_sizes == (2,)
    assert report.overall_error == pytest.approx(0.5, abs=1e-12)


def test_am_correctness_modes_disagree():
    # two branches: one perfect, one always wrong; per-input needs 2/3 of
    # branches so every cell fails, uniform averaging reports 1/2
    f = constant_function(DomainShape((2, 2)))
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    base = error_protocol_from_cover(protocol, f)
    g_bad = np.ones_like(base.g_a)
    bad = ErrorProtocol(protocol, g_bad, g_bad)
    am = AMProtocol((base, bad))
    uniform = am_analyze(am, f, correctness_mode="uniform")
    per_input = am_analyze(am, f, correctness_mode="per-input")
    assert uniform.overall_error == pytest.approx(0.5, abs=1e-12)
    assert per_input.overall_error == pytest.approx(1.0, abs=1e-12)
    # note: bad branch outputs 1 == agreement, admissibility fails for f=0


def test_am_degenerate_empty_good():
    f = constant_function(DomainShape((2, 2)))
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    g_bad = np.ones((2, 4), dtype=np.int64)
    am = AMProtocol((ErrorProtocol(protocol, g_bad, g_bad),))
    with pytest.raises(DegenerateInstanceError):
        am_analyze(am, f)


def test_am_r0_beats_average():
    rng = np.random.default_rng(9)
    f = xor_function(1)
    protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
    base = error_protocol_from_cover(protocol, f)
    branches = []
    for _ in range(5):
        g_a = base.g_a.copy()
        for x in range(2):
            if rng.random() < 0.5:
                b = int(rng.integers(4))
                g_a[x, b] = int(rng.integers(2))
        branches.append(ErrorProtocol(protocol, g_a, base.g_b))
    report = am_analyze(AMProtocol(tuple(branches)), f)
    assert report.good_sizes[report.r0] >= np.mean(report.good_sizes)


# ---------------------------------------------------------------------------
# Batch runner


def test_batch_small_main_suite_clean():
    config = SuiteConfig(suite="main", seeds=tuple(range(30)))
    result = batch_experiment(config)
    assert len(result.rows) == 30
    assert result.violations == 0
    assert result.max_chain_gap <= 1e-9
    assert result.max_triple_gap <= 1e-9
    assert result.max_ic_gap <= 1e-9
    assert result.min_margin_main >= -1e-9
    assert result.max_transcript_gap <= 1e-9


def test_chain_rule_check_can_fail(monkeypatch):
    # H(X1|X0) is computed row by row, not as H(X0,X1) - H(X0), so moving the
    # cached H(X0,X1) opens the chain-rule gap
    _shift_entropy(monkeypatch, {"X0", "X1"}, 1e-6)
    for suite in ("tree", "main"):
        row, violations, stats, _ = run_suite_row(SuiteConfig(suite=suite), 0)
        assert "chain-rule" in violations and "chain-rule" in row.status
        assert stats["chain_gap"] == pytest.approx(1e-6, rel=1e-6)


def _shift_entropy(monkeypatch, group, delta):
    """Move every read of one group's joint entropy, as the profile reads
    each quantity's entropies through InfoEngine.entropy."""
    from commlab.info import InfoEngine

    entropy = InfoEngine.entropy

    def shifted(self, names):
        value = entropy(self, names)
        return value + delta if set(names) == group else value

    monkeypatch.setattr(InfoEngine, "entropy", shifted)


def test_transcript_identity_check_can_fail(monkeypatch):
    # H(X0,T,F) enters only H(T|X0,F), so moving it moves the transcript
    # margin off the main margin, which it equals when F is a function of T
    _shift_entropy(monkeypatch, {"X0", "T", "F"}, 1e-6)
    for suite in ("tree", "main"):
        row, violations, stats, _ = run_suite_row(SuiteConfig(suite=suite), 0)
        assert violations == ["transcript"] and row.status == "violation:transcript"
        assert stats["transcript_gap"] == pytest.approx(1e-6, rel=1e-6)


def test_with_f_identity_check_can_fail(monkeypatch):
    _shift_entropy(monkeypatch, {"X0", "T", "F"}, 1e-6)
    config = SuiteConfig(suite="multiparty", arity=3, max_bits=2)
    row, violations, stats, _ = run_suite_row(config, 4)
    assert violations == ["multiparty-with-f"] and row.status == "violation:multiparty-with-f"
    assert stats["transcript_gap"] == pytest.approx(1e-6 / 2, rel=1e-6)


def test_multiparty_bound_check_can_fail(monkeypatch):
    # H(T) enters the transcript-only and the with-f margins alike, so moving
    # it far down breaks the bound and leaves their gap and every identity
    _shift_entropy(monkeypatch, {"T"}, -100.0)
    config = SuiteConfig(suite="multiparty", arity=3, max_bits=2)
    row, violations, stats, _ = run_suite_row(config, 4)
    assert violations == ["multiparty"] and row.status == "violation:multiparty"
    assert row.margin_main < -90.0 and stats["transcript_gap"] <= 1e-9


def test_ic_identity_check_can_fail(monkeypatch):
    # IC - (H(T) - I(X:Y:T)) reduces to H(X0,X1) - H(X0,X1,T), equal while T
    # is a function of the cell; the shift also moves margin_main off the
    # transcript margin
    _shift_entropy(monkeypatch, {"X0", "X1", "T"}, 1e-6)
    row, violations, stats, _ = run_suite_row(SuiteConfig(suite="main"), 0)
    assert violations == ["ic-identity", "transcript"]
    assert stats["ic_gap"] == pytest.approx(1e-6, rel=1e-6)


def test_rho_modes_are_the_cli_choices():
    # one list of charge names: the profile's charges are the CLI's choices
    from commlab.cli import _build_parser
    from commlab.verify import _rho_bits

    verify_parser = _build_parser()._subparsers._group_actions[0].choices["verify"]
    (action,) = [a for a in verify_parser._actions if a.dest == "rho_mode"]
    profile, _ = protocol_profile(JointDistribution.uniform(DomainShape((2, 2))), single_full_box())
    assert list(action.choices) == list(profile.charges)
    for mode in action.choices:
        assert isinstance(_rho_bits(profile, mode), float)
    for mode in ("max-box", "GLOBAL", "", "expected "):
        assert mode not in action.choices
        with pytest.raises(InvalidInputError):
            _rho_bits(profile, mode)


def test_analyze_instance_rejects_f_not_a_function_of_t():
    # two cells of one selected box take different colours, where the
    # transcript and with-f identities do not hold
    from commlab import ColoredFunction, InstanceBundle

    protocol = single_full_box()
    f = ColoredFunction(protocol.shape, np.array([[0, 0], [0, 1]]))
    with pytest.raises(InvalidInputError, match="box 0"):
        analyze_instance(InstanceBundle(protocol=protocol, function=f))
    # without mass on the odd cell, F is a function of T where it counts
    dist = JointDistribution(protocol.shape, [0.5, 0.0, 0.5, 0.0])  # cells (0, 0) and (1, 0)
    row, violations = analyze_instance(
        InstanceBundle(protocol=protocol, function=f, distribution=dist)
    )
    assert violations == [] and row.margin_main == pytest.approx(0.0, abs=1e-9)


def test_batch_empty_seed_list():
    result = batch_experiment(SuiteConfig(suite="main", seeds=()))
    assert result.rows == [] and result.violations == 0


def test_batch_rows_sorted_and_deterministic():
    config = SuiteConfig(suite="tree", seeds=(5, 1, 3))
    r1 = batch_experiment(config)
    r2 = batch_experiment(config)
    assert [row.seed for row in r1.rows] == [1, 3, 5]
    for a, b in zip(r1.rows, r2.rows):
        assert a.margin_main == b.margin_main
        assert a.instance_id == b.instance_id


def test_run_suite_row_multiparty():
    config = SuiteConfig(suite="multiparty", seeds=(), arity=3, max_bits=2)
    row, violations, stats, _ = run_suite_row(config, 4)
    assert violations == []
    assert row.margin_main >= -1e-9
    assert stats["transcript_gap"] <= 1e-9


def test_reproducer_written_on_violation(tmp_path):
    # force the violation path with a negative tolerance: tight instances have
    # margin 0 < 0.5, so they get flagged and dumped
    config = SuiteConfig(
        suite="tree", seeds=(0, 1), tol=-0.5, out_dir=str(tmp_path)
    )
    result = batch_experiment(config)
    assert result.violations >= 1
    assert result.reproducers
    from commlab import load_instance
    from commlab.verify import analyze_instance

    # re-running a reproducer alone reproduces the flagged margin
    for path in result.reproducers:
        seed = int(path.rsplit("-", 1)[1].split(".")[0])
        original = next(r for r in result.rows if r.seed == seed)
        bundle = load_instance(path)
        assert bundle.distribution is not None and bundle.function is not None
        row, _ = analyze_instance(bundle)
        assert abs(row.margin_main - original.margin_main) <= 1e-12

def test_violating_seed_generated_once(tmp_path, monkeypatch):
    # the reproducer is written from the instance the row was computed on,
    # byte for byte what a fresh generation of that seed writes
    from commlab import verify

    config = SuiteConfig(
        suite="tree", seeds=(0, 1, 2), tol=-0.5, out_dir=str(tmp_path / "sweep")
    )
    calls = []

    def counted(cfg, seed):
        calls.append(seed)
        return _random_instance(cfg, seed)

    monkeypatch.setattr(verify, "_random_instance", counted)
    result = batch_experiment(config)
    assert result.violations == 3 and len(result.reproducers) == 3
    assert sorted(calls) == [0, 1, 2]
    monkeypatch.undo()
    for path in result.reproducers:
        seed = int(path.rsplit("-", 1)[1].split(".")[0])
        fresh = replace(config, out_dir=str(tmp_path / "fresh"))
        expected = verify._write_reproducer(fresh, seed, *_random_instance(fresh, seed))
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()


def test_analyze_instance_matches_suite_row(tmp_path):
    # a saved sweep instance goes through the same checks and row building
    from commlab import InstanceBundle, load_instance, save_instance

    config = SuiteConfig(suite="main")
    for seed in range(20):
        expected, _, _, (protocol, function, dist) = run_suite_row(config, seed)
        path = str(tmp_path / f"instance-{seed}.json")
        save_instance(
            InstanceBundle(protocol=protocol, function=function, distribution=dist), path
        )
        row, _ = analyze_instance(load_instance(path))
        for r in (expected, row):
            r.seed = r.runtime_ms = None
        assert row == expected


# ---------------------------------------------------------------------------
# The margin identity: with Q(x, t) = P(t) * prod_i P(x_i|t), the same T with
# the coordinates made independent inside each box,
#   (l - 1) * margin = [sum_i H(X_i) - H_Q(X)] + [charge - H_Q(T|X)],
# which for two parties is margin = I_Q(X:Y) + [charge - H_Q(T|X,Y)].


def _q_terms(protocol, dist, rho_mode):
    """The identity's two terms, from Q and the charge built cell by cell with
    the naive oracles; only T's labels come from the package."""
    shape = protocol.shape
    t_of = selector_labels(protocol)
    p = {shape.cell_of_linear(i): float(w) for i, w in enumerate(dist.p) if w > 0.0}
    t_at = {cell: int(t_of[shape.linear_index(cell)]) for cell in p}
    p_t = project(p, lambda c: t_at[c])
    marginals = [project(p, lambda c, i=i: (c[i], t_at[c])) for i in range(shape.arity)]
    q = {}
    for t, w_t in p_t.items():
        factors = [[(x, w / w_t) for (x, s), w in m.items() if s == t] for m in marginals]
        for combo in product(*factors):
            q[tuple(x for x, _ in combo), t] = w_t * math.prod(w for _, w in combo)
    thickness, box_cells = {}, []
    for b in protocol.cover.boxes:
        ranges = [[j for j in range(size) if mask >> j & 1] for mask, size in zip(b.masks, shape.sizes)]
        box_cells.append(list(product(*ranges)))
        for cell in box_cells[-1]:
            thickness[cell] = thickness.get(cell, 0) + 1
    if rho_mode == "global":
        charge = math.log2(max(thickness.values()))
    else:
        box_rho = [max(thickness[cell] for cell in cells) for cells in box_cells]
        charge = sum(w * math.log2(box_rho[t_at[cell]]) for cell, w in p.items())
    h_x = naive_joint_entropy(q, lambda k: k[0])
    parts = sum(naive_joint_entropy(p, lambda c, i=i: c[i]) for i in range(shape.arity))
    return parts - h_x, charge - (naive_entropy(q) - h_x)


@pytest.mark.parametrize(
    "config, seeds",
    [
        (SuiteConfig(suite="main"), range(200)),
        (SuiteConfig(suite="tree"), range(200)),
        (SuiteConfig(suite="multiparty", arity=3, max_bits=2), range(50)),
    ],
    ids=["main", "tree", "multiparty"],
)
def test_every_margin_is_i_q_plus_the_charge_slack(config, seeds):
    # Each side is a handful of entropies over at most 8 * 256 outcomes, each
    # at most 11 bits and summed in doubles, so rounding moves a side by well
    # under 1e-12 (2.0e-14 over these 900 checks). The suites' own 1e-9 is far
    # above that, and a wrong entropy or charge moves one side by the error.
    checks = 0
    for rho_mode in ("global", "expected"):
        for seed in seeds:
            try:
                row, _, _, (protocol, _, dist) = run_suite_row(replace(config, rho_mode=rho_mode), seed)
            except GenerationFailureError:
                continue
            i_q, slack = _q_terms(protocol, dist, rho_mode)
            assert i_q >= -1e-9 and slack >= -1e-9
            assert abs((config.arity - 1) * row.margin_main - (i_q + slack)) <= 1e-9, (rho_mode, seed)
            checks += 1
    assert checks >= 2 * len(seeds) * 0.9


def test_margin_identity_check_can_fail(monkeypatch):
    # H(T) enters the package's margin and neither Q term
    _shift_entropy(monkeypatch, {"T"}, 1e-6)
    row, _, _, (protocol, _, dist) = run_suite_row(SuiteConfig(suite="main"), 0)
    i_q, slack = _q_terms(protocol, dist, "global")
    assert abs(row.margin_main - (i_q + slack)) == pytest.approx(1e-6, rel=1e-6)
