"""Margin checkers for the covering/transcript/information-cost inequalities,
AM protocol analysis, and the seeded batch experiment runner.

Every checker reports a signed margin (>= 0 means the inequality held on the
instance); nothing is asserted here. Identity checks report a gap that should
be floating-point noise. The batch runner is a counterexample search: any
margin below -tol writes a reproducer instance file and is counted as a
violation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DomainShape, Protocol, TranscriptSelector, compile_tree, log2_int
from .errors import (
    DegenerateInstanceError,
    GenerationFailureError,
    InvalidInputError,
)
from .functions import (
    AMProtocol,
    ColoredFunction,
    Relation,
    dense_ids,
    good_set,
    random_bounded_cover,
    random_tree,
)
from .info import InfoProfile, JointDistribution, build_profile
from .reports import ReportRow

RHO_MODES = ("global", "expected")


@dataclass(frozen=True)
class MarginReport:
    inequality_id: str
    margin: float
    components: dict
    rho_mode: str
    fingerprint: str


@dataclass(frozen=True)
class AMReport:
    branch_errors: tuple[float, ...]
    overall_error: float
    cost: float
    r0: int
    good_sizes: tuple[int, ...]
    restricted: MarginReport
    estimated_lower_bound: float
    correctness_mode: str
    fingerprint: str


def _rho_bits(profile: InfoProfile, rho_mode: str) -> float:
    if rho_mode == "global":
        return log2_int(profile.rho_global)
    if rho_mode == "expected":
        return profile.expected_log_rho
    raise InvalidInputError(f"unknown rho mode {rho_mode!r}")


def check_main_inequality(profile: InfoProfile, rho_mode: str = "global") -> MarginReport:
    """Margin of I(X:Y) - I(X:Y|T) + log2(rho) >= 0."""
    if profile.arity != 2:
        raise InvalidInputError("main inequality checker is two-party")
    rho = _rho_bits(profile, rho_mode)
    i_xy = profile["I(X0:X1)"]
    i_xy_t = profile["I(X0:X1|T)"]
    margin = i_xy - i_xy_t + rho
    return MarginReport(
        inequality_id="main",
        margin=margin,
        components={
            "I(X0:X1)": i_xy,
            "I(X0:X1|T)": i_xy_t,
            "I(X0:X1:T)": profile["I(X0:X1:T)"],
            "log2_rho": rho,
        },
        rho_mode=rho_mode,
        fingerprint=profile.fingerprint,
    )


# the transcript mode, which names the inequality, by the profile's f_mode
_TRANSCRIPT_MODES = {"function": "function", "box-color": "relation", "explicit": "restricted"}


def check_transcript_bound(profile: InfoProfile, rho_mode: str = "global") -> MarginReport:
    """Margin of H(T) >= H(F|X) + H(F|Y) + H(T|X,F) + H(T|Y,F) - log2(rho)."""
    if profile.arity != 2:
        raise InvalidInputError("transcript bound checker is two-party")
    if profile.f_mode is None:
        raise InvalidInputError("profile carries no output variable F")
    mode = _TRANSCRIPT_MODES[profile.f_mode]
    rho = _rho_bits(profile, rho_mode)
    h_t = profile["H(T)"]
    parts = {
        "H(T)": h_t,
        "H(F|X0)": profile["H(F|X0)"],
        "H(F|X1)": profile["H(F|X1)"],
        "H(T|X0,F)": profile["H(T|X0,F)"],
        "H(T|X1,F)": profile["H(T|X1,F)"],
        "log2_rho": rho,
        "excluded_mass": profile.excluded_mass,
    }
    margin = h_t - (
        parts["H(F|X0)"]
        + parts["H(F|X1)"]
        + parts["H(T|X0,F)"]
        + parts["H(T|X1,F)"]
        - rho
    )
    return MarginReport(
        inequality_id=f"transcript-{mode}",
        margin=margin,
        components=parts,
        rho_mode=rho_mode,
        fingerprint=profile.fingerprint,
    )


def check_ic(profile: InfoProfile, rho_mode: str = "global") -> tuple[MarginReport, MarginReport]:
    """Identity |IC - (H(T) - I(X:Y:T))| (reported as a negated-gap margin)
    and the bound margin H(T) + log2(rho) - IC."""
    if profile.arity != 2:
        raise InvalidInputError("information cost checker is two-party")
    ic = profile["IC"]
    h_t = profile["H(T)"]
    triple = profile["I(X0:X1:T)"]
    gap = abs(ic - (h_t - triple))
    rho = _rho_bits(profile, rho_mode)
    bound_margin = h_t + rho - ic
    components = {"IC": ic, "H(T)": h_t, "I(X0:X1:T)": triple, "log2_rho": rho}
    identity = MarginReport(
        inequality_id="ic-identity",
        margin=-gap,
        components=dict(components, gap=gap),
        rho_mode=rho_mode,
        fingerprint=profile.fingerprint,
    )
    bound = MarginReport(
        inequality_id="ic-bound",
        margin=bound_margin,
        components=components,
        rho_mode=rho_mode,
        fingerprint=profile.fingerprint,
    )
    return identity, bound


def check_multiparty(
    profile: InfoProfile, mode: str = "transcript-only", rho_mode: str = "global"
) -> MarginReport:
    """Margin of H(T) >= (1/(l-1)) * [sum_i H(T|X_i) - log2(rho)], or the
    with-f variant replacing H(T|X_i) by H(F|X_i) + H(T|X_i,F)."""
    arity = profile.arity
    rho = _rho_bits(profile, rho_mode)
    h_t = profile["H(T)"]
    components = {"H(T)": h_t, "log2_rho": rho}
    if mode == "transcript-only":
        total = 0.0
        for i in range(arity):
            components[f"H(T|X{i})"] = profile[f"H(T|X{i})"]
            total += profile[f"H(T|X{i})"]
        margin = h_t - (total - rho) / (arity - 1)
    elif mode == "with-f":
        if profile.f_mode is None:
            raise InvalidInputError("with-f mode needs a profile with an F variable")
        total = 0.0
        for i in range(arity):
            components[f"H(F|X{i})"] = profile[f"H(F|X{i})"]
            components[f"H(T|X{i},F)"] = profile[f"H(T|X{i},F)"]
            total += profile[f"H(F|X{i})"] + profile[f"H(T|X{i},F)"]
        margin = h_t - (total - rho) / (arity - 1)
    else:
        raise InvalidInputError(f"unknown multiparty mode {mode!r}")
    return MarginReport(
        inequality_id=f"multiparty-{mode}",
        margin=margin,
        components=components,
        rho_mode=rho_mode,
        fingerprint=profile.fingerprint,
    )


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
    goods = [good_set(branch, target) for branch in am.branches]
    good_sizes = tuple(len(g) for g in goods)
    branch_errors = tuple(1.0 - size / n_cells for size in good_sizes)
    if correctness_mode == "uniform":
        overall_error = float(np.mean(branch_errors))
    else:
        # a cell is correct when at least 2/3 of the branches handle it
        per_cell = np.zeros(n_cells, dtype=np.int64)
        for g in goods:
            for cell in g:
                per_cell[shape.linear_index(cell)] += 1
        correct = 3 * per_cell >= 2 * len(am.branches)
        overall_error = 1.0 - float(correct.sum()) / n_cells

    sizes_arr = np.array(good_sizes)
    r0 = int(np.argmax(sizes_arr))
    if good_sizes[r0] == 0:
        raise DegenerateInstanceError("every branch's GOOD set is empty")
    branch = am.branches[r0]
    cost = log2_int(max(b.protocol.cover.num_boxes for b in am.branches))

    keep = np.zeros(n_cells, dtype=bool)
    for cell in goods[r0]:
        keep[shape.linear_index(cell)] = True
    restricted_dist, _ = JointDistribution.uniform(shape).condition_on(keep)

    if isinstance(target, ColoredFunction):
        f_table = target.flat()
    else:
        # on GOOD cells both outputs agree; elsewhere the mass is zero, so any
        # placeholder label is invisible to the entropies
        from .core import selector_labels

        t = selector_labels(branch.protocol)
        rows, cols = shape.coordinate_labels()
        f_table = branch.g_a[rows, t]
        f_table = np.where(f_table < 0, target.num_colors, f_table)

    profile = build_profile(restricted_dist, branch.protocol, f_table=f_table)
    restricted = check_transcript_bound(profile)
    rho_bits = log2_int(profile.rho_global)
    estimated = profile["H(F|X0)"] + profile["H(F|X1)"] - rho_bits
    return AMReport(
        branch_errors=branch_errors,
        overall_error=overall_error,
        cost=cost,
        r0=r0,
        good_sizes=good_sizes,
        restricted=restricted,
        estimated_lower_bound=estimated,
        correctness_mode=correctness_mode,
        fingerprint=profile.fingerprint,
    )


# ---------------------------------------------------------------------------
# Batch experiments


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "main"  # main | tree | multiparty
    seeds: tuple[int, ...] = ()
    generator: str = "random-bounded"  # random-bounded | random-tree
    arity: int = 2
    max_bits: int = 4
    rho_max: tuple[int, ...] = (2, 4, 8)
    extra: int = 4
    max_colors: int = 8
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
    min_transcript_margin_given_main_ok: float | None = None
    max_chain_gap: float = 0.0
    max_triple_gap: float = 0.0
    max_ic_gap: float = 0.0


def _min_opt(current: float | None, value: float) -> float:
    return value if current is None else min(current, value)


def _random_instance(config: SuiteConfig, seed: int):
    """One seeded instance: protocol, box-colored function, distribution."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(1, config.max_bits + 1, size=config.arity)
    shape = DomainShape(tuple(1 << int(b) for b in bits))
    if config.suite == "tree" or config.generator == "random-tree":
        cover = compile_tree(random_tree(shape, rng=rng)).cover
    else:
        rho_max = int(config.rho_max[int(rng.integers(len(config.rho_max)))])
        # tiny grids cannot absorb many extra boxes under a tight cap
        extra = min(config.extra, max(1, shape.num_cells // 4))
        cover = random_bounded_cover(
            shape, rho_max=rho_max, extra=extra, seed=seed, rng=rng
        )
    if rng.random() < 0.5:
        selector = TranscriptSelector.min_index()
    else:
        selector = TranscriptSelector.seeded(int(rng.integers(1 << 32)))
    protocol = Protocol(cover, selector)

    # color the boxes, then read the function off the selected box so that the
    # protocol computes it exactly (F is a function of T)
    from .core import selector_labels

    box_colors = rng.integers(0, config.max_colors, size=cover.num_boxes)
    raw = box_colors[selector_labels(protocol)]
    function = ColoredFunction(shape, dense_ids(raw, config.max_colors).reshape(shape.sizes))
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
    profile: InfoProfile, suite: str, rho_mode: str, tol: float
) -> tuple[ReportRow, list[str], dict]:
    """Run one suite's checks on a profile; returns (row, violation tags, gap
    stats). main and tree run the two-party checks, multiparty the l-party
    ones; the transcript and with-f checks need a profile with F."""
    violations: list[str] = []
    stats = {
        "chain_gap": profile["chain_gap"],
        "triple_gap": profile["triple_gap"],
    }
    if profile["chain_gap"] > tol:
        violations.append("chain-rule")
    if profile["triple_gap"] > tol:
        violations.append("triple-formulas")

    row = ReportRow(
        instance_id=profile.fingerprint[:12],
        status="ok",
        sizes="x".join(str(s) for s in profile.sizes),
        rho_global=profile.rho_global,
        # every cell lies in its selected box and a box's thickness is the
        # largest among its cells, so the largest selected-box thickness is
        # the largest cell thickness
        rho_box_max=profile.rho_global,
        H_T=profile["H(T)"],
    )

    if suite in ("main", "tree"):
        main = check_main_inequality(profile, rho_mode)
        identity, bound = check_ic(profile, rho_mode)
        row.I_XY = profile["I(X0:X1)"]
        row.I_XY_given_T = profile["I(X0:X1|T)"]
        row.margin_main = main.margin
        row.ic = profile["IC"]
        row.margin_ic = bound.margin
        stats["ic_gap"] = -identity.margin
        if main.margin < -tol:
            violations.append("main")
        if -identity.margin > tol:
            violations.append("ic-identity")
        if profile.f_mode is not None:
            transcript = check_transcript_bound(profile, rho_mode)
            stats["transcript_margin"] = transcript.margin
            if main.margin >= 0.0 and transcript.margin < -tol:
                violations.append("transcript")
        deficit = max(0.0, -main.margin)
        if bound.margin < -deficit - tol:
            violations.append("ic-bound")
    elif suite == "multiparty":
        multi = check_multiparty(profile, "transcript-only", rho_mode)
        row.margin_main = multi.margin
        row.ic = profile["IC"]
        if multi.margin < -tol:
            violations.append("multiparty")
        if profile.f_mode is not None:
            with_f = check_multiparty(profile, "with-f", rho_mode)
            stats["with_f_margin"] = with_f.margin
            if with_f.margin < -tol:
                violations.append("multiparty-with-f")
    else:
        raise InvalidInputError(f"unknown suite {suite!r}")

    if violations:
        row.status = "violation:" + "+".join(violations)
    return row, violations, stats


def run_suite_row(config: SuiteConfig, seed: int) -> tuple[ReportRow, list[str], dict, tuple]:
    """Run one seeded instance; returns (row, violation tags, gap stats, and
    the instance as (protocol, function, distribution))."""
    start = time.monotonic()
    instance = _random_instance(config, seed)
    protocol, function, dist = instance
    profile = build_profile(dist, protocol, target=function, f_mode="function")
    row, violations, stats = check_profile(profile, config.suite, config.rho_mode, config.tol)
    row.seed = seed
    row.runtime_ms = (time.monotonic() - start) * 1000.0
    return row, violations, stats, instance


def batch_experiment(config: SuiteConfig) -> BatchResult:
    """Deterministic seeded sweep; rows come back sorted by seed."""
    result = BatchResult()
    for seed in sorted(config.seeds):
        try:
            row, violations, stats, instance = run_suite_row(config, seed)
        except GenerationFailureError as exc:
            result.generation_failures += 1
            result.rows.append(
                ReportRow(
                    instance_id=f"seed-{seed}",
                    status=f"generation-failure:{exc.seed}",
                    seed=seed,
                )
            )
            continue
        result.rows.append(row)
        result.max_chain_gap = max(result.max_chain_gap, stats["chain_gap"])
        result.max_triple_gap = max(result.max_triple_gap, stats["triple_gap"])
        if "ic_gap" in stats:
            result.max_ic_gap = max(result.max_ic_gap, stats["ic_gap"])
        if row.margin_main is not None:
            result.min_margin_main = _min_opt(result.min_margin_main, row.margin_main)
            if row.margin_main >= 0.0 and "transcript_margin" in stats:
                result.min_transcript_margin_given_main_ok = _min_opt(
                    result.min_transcript_margin_given_main_ok,
                    stats["transcript_margin"],
                )
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
    multiparty checks otherwise."""
    start = time.monotonic()
    protocol = bundle.protocol
    dist = bundle.distribution or JointDistribution.uniform(protocol.shape)
    if bundle.function is not None:
        target, f_mode = bundle.function, "function"
    else:
        target, f_mode = bundle.relation, "box-color"
    profile = build_profile(dist, protocol, target=target, f_mode=f_mode)
    suite = "main" if profile.arity == 2 else "multiparty"
    row, violations, _ = check_profile(profile, suite, rho_mode, tol)
    row.runtime_ms = (time.monotonic() - start) * 1000.0
    return row, violations
