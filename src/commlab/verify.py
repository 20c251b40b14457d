"""Margin checkers for the covering/transcript/information-cost inequalities,
AM protocol analysis, and the seeded batch experiment runner.

Every checker reports a signed margin (>= 0 means the inequality held on the
instance); nothing is asserted here. Identity checks report a gap that should
be floating-point noise. The batch runner is a counterexample search: any
margin below -tol writes a reproducer instance file and is counted as a
violation.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainShape,
    Protocol,
    TranscriptSelector,
    box_thickness_table,
    dense_ids,
    selector_labels,
    thickness_table,
)
from .errors import DegenerateInstanceError, GenerationFailureError, InvalidInputError
from .functions import (
    AMProtocol,
    ColoredFunction,
    Relation,
    _Draws,
    box_color_labels,
    good_mask,
    random_bounded_cover,
)
from .info import InfoProfile, JointDistribution, build_profile, pairwise_sum
from .reports import ReportRow


@dataclass(frozen=True)
class AMReport:
    branch_errors: tuple[float, ...]
    overall_error: float
    cost: float
    r0: int
    good_sizes: tuple[int, ...]
    restricted_margin: float
    estimated_lower_bound: float
    correctness_mode: str
    instance_id: str


def protocol_profile(
    dist: JointDistribution, protocol: Protocol, f_labels=None, f_mode: str = "function"
) -> tuple[InfoProfile, ReportRow]:
    """The profile of a protocol on a distribution, with T the selected box
    and the `--rho-mode` charges, and a row holding the instance's id, sizes
    and thickness. f_labels, if given, is the output F, flat row-major;
    f_mode only names where F came from ("function", "box-color" or
    "explicit"), for the instance id."""
    shape = protocol.shape
    if dist.shape.sizes != shape.sizes:
        raise InvalidInputError("distribution shape does not match protocol domain")
    t_labels = selector_labels(protocol)
    labels = {f"X{i}": c for i, c in enumerate(shape.coordinate_labels())}
    labels["T"] = t_labels
    if f_labels is not None:
        labels["F"] = f_labels
    rho_global = int(thickness_table(protocol.cover).max())
    expected = 0.0  # a partition's: every p * log2(1) is +0.0, as p holds no -0.0
    if rho_global > 1:
        box_rho = box_thickness_table(protocol.cover)
        expected = pairwise_sum(dist.p * np.log2(box_rho.astype(np.float64))[t_labels])
    charges = {"global": math.log2(rho_global), "expected": expected}
    profile = build_profile(dist, labels, charges)

    digest = hashlib.sha256()
    digest.update(repr(shape.sizes).encode())
    digest.update("".join(repr(b.masks) for b in protocol.cover.boxes).encode())
    sel = protocol.selector
    digest.update(sel.kind.encode())
    digest.update(repr(sel.seed).encode())
    if sel.table is not None:
        digest.update(np.asarray(sel.table, dtype=np.int64).tobytes())
    digest.update(dist.p.tobytes())
    if f_labels is not None:
        digest.update(np.asarray(f_labels, dtype=np.int64).tobytes())
    digest.update(repr(None if f_labels is None else f_mode).encode())
    row = ReportRow(
        instance_id=digest.hexdigest()[:12],
        sizes="x".join(str(s) for s in shape.sizes),
        rho_global=rho_global,
        # every cell lies in its selected box and a box's thickness is the
        # largest among its cells, so the largest selected-box thickness is
        # the largest cell thickness
        rho_box_max=rho_global,
    )
    return profile, row


def _rho_bits(profile: InfoProfile, rho_mode: str) -> float:
    if rho_mode not in profile.charges:
        raise InvalidInputError(f"unknown rho mode {rho_mode!r}")
    return profile.charges[rho_mode]


def check_main_inequality(profile: InfoProfile, rho_mode: str = "global") -> float:
    """Margin of I(X:Y) - I(X:Y|T) + log2(rho) >= 0."""
    if profile.arity != 2:
        raise InvalidInputError("main inequality checker is two-party")
    rho = _rho_bits(profile, rho_mode)
    return profile["I(X0:X1)"] - profile["I(X0:X1|T)"] + rho


def check_transcript_bound(profile: InfoProfile, rho_mode: str = "global") -> float:
    """Margin of H(T) >= H(F|X) + H(F|Y) + H(T|X,F) + H(T|Y,F) - log2(rho)."""
    if profile.arity != 2:
        raise InvalidInputError("transcript bound checker is two-party")
    if "H(F|X0)" not in profile.quantities:
        raise InvalidInputError("profile carries no output variable F")
    rho = _rho_bits(profile, rho_mode)
    return profile["H(T)"] - (
        profile["H(F|X0)"]
        + profile["H(F|X1)"]
        + profile["H(T|X0,F)"]
        + profile["H(T|X1,F)"]
        - rho
    )


def check_ic(profile: InfoProfile, rho_mode: str = "global") -> tuple[float, float]:
    """The identity gap |IC - (H(T) - I(X:Y:T))| and the bound margin
    H(T) + log2(rho) - IC."""
    if profile.arity != 2:
        raise InvalidInputError("information cost checker is two-party")
    ic = profile["IC"]
    h_t = profile["H(T)"]
    gap = abs(ic - (h_t - profile["I(X0:X1:T)"]))
    return gap, h_t + _rho_bits(profile, rho_mode) - ic


def check_multiparty(
    profile: InfoProfile, mode: str = "transcript-only", rho_mode: str = "global"
) -> float:
    """Margin of H(T) >= (1/(l-1)) * [sum_i H(T|X_i) - log2(rho)], or the
    with-f variant replacing H(T|X_i) by H(F|X_i) + H(T|X_i,F)."""
    rho = _rho_bits(profile, rho_mode)
    total = 0.0
    if mode == "transcript-only":
        for i in range(profile.arity):
            total += profile[f"H(T|X{i})"]
    elif mode == "with-f":
        if "H(F|X0)" not in profile.quantities:
            raise InvalidInputError("with-f mode needs a profile with an F variable")
        for i in range(profile.arity):
            total += profile[f"H(F|X{i})"] + profile[f"H(T|X{i},F)"]
    else:
        raise InvalidInputError(f"unknown multiparty mode {mode!r}")
    return profile["H(T)"] - (total - rho) / (profile.arity - 1)


# ---------------------------------------------------------------------------
# AM analysis

CORRECTNESS_MODES = ("uniform", "per-input")


def am_analyze(
    am: AMProtocol,
    target: ColoredFunction | Relation,
    correctness_mode: str = "uniform",
) -> AMReport:
    """Per-branch GOOD sets, the best branch r0, the overall error under the
    chosen correctness reading, and the transcript lower bound evaluated on
    the uniform distribution restricted to GOOD_{r0}."""
    if correctness_mode not in CORRECTNESS_MODES:
        raise InvalidInputError(f"unknown correctness mode {correctness_mode!r}")
    shape = am.shape
    if target.shape.sizes != shape.sizes:
        raise InvalidInputError("target shape does not match AM domain")
    n_cells = shape.num_cells
    goods = [good_mask(branch, target) for branch in am.branches]
    good_sizes = tuple(int(g.sum()) for g in goods)
    branch_errors = tuple(1.0 - size / n_cells for size in good_sizes)
    if correctness_mode == "uniform":
        overall_error = float(np.mean(branch_errors))
    else:
        # a cell is correct when at least 2/3 of the branches handle it
        correct = 3 * np.sum(goods, axis=0) >= 2 * len(am.branches)
        overall_error = 1.0 - float(correct.sum()) / n_cells

    r0 = int(np.argmax(good_sizes))
    if good_sizes[r0] == 0:
        raise DegenerateInstanceError("every branch's GOOD set is empty")
    branch = am.branches[r0]
    cost = math.log2(max(b.protocol.cover.num_boxes for b in am.branches))
    restricted_dist = JointDistribution.uniform(shape).condition_on(goods[r0])

    if isinstance(target, ColoredFunction):
        f_table = target.flat()
    else:
        # on GOOD cells both outputs agree; elsewhere the mass is zero, so any
        # placeholder label is invisible to the entropies
        rows = shape.coordinate_labels()[0]
        f_table = branch.g_a[rows, selector_labels(branch.protocol)]
        f_table = np.where(f_table < 0, target.num_colors, f_table)

    profile, row = protocol_profile(restricted_dist, branch.protocol, f_table, "explicit")
    estimated = profile["H(F|X0)"] + profile["H(F|X1)"] - _rho_bits(profile, "global")
    return AMReport(
        branch_errors=branch_errors,
        overall_error=overall_error,
        cost=cost,
        r0=r0,
        good_sizes=good_sizes,
        restricted_margin=check_transcript_bound(profile),
        estimated_lower_bound=estimated,
        correctness_mode=correctness_mode,
        instance_id=row.instance_id,
    )


# ---------------------------------------------------------------------------
# Batch experiments

MAX_COLORS = 8  # each suite instance colors its boxes from 0..MAX_COLORS-1


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "main"  # main | tree | multiparty
    seeds: tuple[int, ...] = ()
    arity: int = 2
    max_bits: int = 4
    rho_max: tuple[int, ...] = (2, 4, 8)
    extra: int = 4
    rho_mode: str = "global"
    tol: float = 1e-9
    out_dir: str | None = None


@dataclass
class BatchResult:
    rows: list = field(default_factory=list)
    violations: int = 0
    reproducers: list = field(default_factory=list)
    generation_failures: int = 0
    min_margin_main: float | None = None
    max_transcript_gap: float = 0.0
    max_chain_gap: float = 0.0
    max_triple_gap: float = 0.0
    max_ic_gap: float = 0.0


def _random_instance(config: SuiteConfig, seed: int):
    """One seeded instance: protocol, box-colored function, distribution. One
    reader makes every scalar draw, the cover's included; the sized draws
    (box colors, weights) are numpy calls after it closes."""
    rng = np.random.default_rng(seed)
    with _Draws(rng) as draws:
        bits = [1 + draws.below(config.max_bits) for _ in range(config.arity)]
        shape = DomainShape(tuple(1 << b for b in bits))
        # tree is main at cap 1 with no extra boxes: below(1) draws nothing
        caps, extra = ((1,), 0) if config.suite == "tree" else (config.rho_max, config.extra)
        rho_max = caps[draws.below(len(caps))]
        # tiny grids cannot absorb many extra boxes under a tight cap
        extra = min(extra, max(1, shape.num_cells // 4))
        cover = random_bounded_cover(shape, rho_max=rho_max, extra=extra, seed=seed, rng=draws)
        if draws.random() < 0.5:
            selector = TranscriptSelector.min_index()
        else:
            selector = TranscriptSelector.seeded(draws.below(1 << 32))
    protocol = Protocol(cover, selector)

    # color the boxes, then read the function off the selected box so that the
    # protocol computes it exactly (F is a function of T)
    box_colors = rng.integers(0, MAX_COLORS, size=cover.num_boxes)
    raw = box_colors[selector_labels(protocol)]
    function = ColoredFunction(shape, dense_ids(raw, MAX_COLORS).reshape(shape.sizes))
    dist = JointDistribution.random_integer_weights(shape, rng=rng)
    return protocol, function, dist


def _write_reproducer(config: SuiteConfig, seed: int, protocol, function, dist) -> str | None:
    if config.out_dir is None:
        return None
    from .serialize import InstanceBundle, save_instance

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"reproducer-{config.suite}-{seed}.json")
    save_instance(
        InstanceBundle(protocol=protocol, function=function, distribution=dist), path
    )
    return path


def check_profile(
    profile: InfoProfile, row: ReportRow, suite: str, rho_mode: str, tol: float
) -> tuple[list[str], dict]:
    """Run one suite's checks on a profile and fill in its row; returns
    (violation tags, gap stats). Each suite checks one bound: main and tree
    the main inequality, multiparty the transcript-only inequality. Every
    other check is a gap that should be floating-point noise. With T a function of the cell and F
    a function of T, the transcript margin equals the main margin and the
    with-f margin the transcript-only one, so each is reported as its gap to
    the suite's bound."""
    violations: list[str] = []
    stats = {
        "chain_gap": profile["chain_gap"],
        "triple_gap": profile["triple_gap"],
    }
    if profile["chain_gap"] > tol:
        violations.append("chain-rule")
    if profile["triple_gap"] > tol:
        violations.append("triple-formulas")

    row.H_T = profile["H(T)"]
    row.ic = profile["IC"]
    with_f = "H(F|X0)" in profile.quantities

    if suite in ("main", "tree"):
        margin = check_main_inequality(profile, rho_mode)
        ic_gap, row.margin_ic = check_ic(profile, rho_mode)
        row.I_XY = profile["I(X0:X1)"]
        row.I_XY_given_T = profile["I(X0:X1|T)"]
        stats["ic_gap"] = ic_gap
        if margin < -tol:
            violations.append("main")
        if ic_gap > tol:
            violations.append("ic-identity")
        if with_f:
            stats["transcript_gap"] = abs(check_transcript_bound(profile, rho_mode) - margin)
            if stats["transcript_gap"] > tol:
                violations.append("transcript")
    elif suite == "multiparty":
        margin = check_multiparty(profile, "transcript-only", rho_mode)
        if margin < -tol:
            violations.append("multiparty")
        if with_f:
            stats["transcript_gap"] = abs(check_multiparty(profile, "with-f", rho_mode) - margin)
            if stats["transcript_gap"] > tol:
                violations.append("multiparty-with-f")
    else:
        raise InvalidInputError(f"unknown suite {suite!r}")
    row.margin_main = margin

    if violations:
        row.status = "violation:" + "+".join(violations)
    return violations, stats


def run_suite_row(config: SuiteConfig, seed: int) -> tuple[ReportRow, list[str], dict, tuple]:
    """Run one seeded instance; returns (row, violation tags, gap stats, and
    the instance as (protocol, function, distribution))."""
    start = time.monotonic()
    instance = _random_instance(config, seed)
    protocol, function, dist = instance
    profile, row = protocol_profile(dist, protocol, function.flat())
    violations, stats = check_profile(profile, row, config.suite, config.rho_mode, config.tol)
    row.seed = seed
    row.runtime_ms = (time.monotonic() - start) * 1000.0
    return row, violations, stats, instance


def batch_experiment(config: SuiteConfig) -> BatchResult:
    """Deterministic seeded sweep; rows come back sorted by seed."""
    result = BatchResult()
    for seed in sorted(config.seeds):
        try:
            row, violations, stats, instance = run_suite_row(config, seed)
        except GenerationFailureError:
            result.generation_failures += 1
            result.rows.append(
                ReportRow(
                    instance_id=f"seed-{seed}",
                    status=f"generation-failure:{seed}",
                    seed=seed,
                )
            )
            continue
        result.rows.append(row)
        result.max_chain_gap = max(result.max_chain_gap, stats["chain_gap"])
        result.max_triple_gap = max(result.max_triple_gap, stats["triple_gap"])
        if "ic_gap" in stats:
            result.max_ic_gap = max(result.max_ic_gap, stats["ic_gap"])
        result.max_transcript_gap = max(result.max_transcript_gap, stats["transcript_gap"])
        if result.min_margin_main is None or row.margin_main < result.min_margin_main:
            result.min_margin_main = row.margin_main
        if violations:
            result.violations += 1
            path = _write_reproducer(config, seed, *instance)
            if path is not None:
                result.reproducers.append(path)
    return result


def analyze_instance(
    bundle, rho_mode: str = "global", tol: float = 1e-9
) -> tuple[ReportRow, list[str]]:
    """Checks for one loaded instance bundle (uniform distribution when the
    file does not carry one): the main-suite checks for two parties, the
    multiparty checks otherwise. A function must be a function of the
    transcript wherever the distribution puts mass, as the suites' identity
    gaps assume."""
    start = time.monotonic()
    protocol = bundle.protocol
    dist = bundle.distribution or JointDistribution.uniform(protocol.shape)
    f_labels, f_mode = None, "function"
    if bundle.function is not None:
        f_labels = bundle.function.flat()
        on = dist.p > 0.0
        t, f = selector_labels(protocol)[on], f_labels[on]
        color = np.zeros(protocol.cover.num_boxes, dtype=np.int64)
        color[t] = f
        clash = np.flatnonzero(color[t] != f)
        if clash.size:
            i = clash[0]
            raise InvalidInputError(
                f"the function is not a function of the transcript: box {t[i]} is "
                f"selected at cells of colours {color[t[i]]} and {f[i]}"
            )
    elif bundle.relation is not None:  # cells of colourless boxes are conditioned away
        f_labels, colorless = box_color_labels(protocol, bundle.relation)
        f_mode = "box-color"
        if (f_labels == colorless).any():
            dist = dist.condition_on(f_labels != colorless)
    profile, row = protocol_profile(dist, protocol, f_labels, f_mode)
    suite = "main" if profile.arity == 2 else "multiparty"
    violations, _ = check_profile(profile, row, suite, rho_mode, tol)
    row.runtime_ms = (time.monotonic() - start) * 1000.0
    return row, violations
