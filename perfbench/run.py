"""commlab benchmark: seeded verify sweeps and the cover-bound ladder.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-main --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):

* verify-main   main suite, random-bounded covers, max_bits 4 (per-call regime)
* verify-tree   tree suite: tree partitions, no rejection sampling, max_bits 4 (entropy-bound)
* verify-large  main suite at max_bits 8, grids up to 256x256 (per-cell regime)
* bounds-ladder bound_summary over xor(4), eq(3) and random functions, plus
                an eq(4) budget probe in a child process

With ``--trace 0`` the run reports the end-to-end metrics; their times, apart
from setup_s, are scaled to a reference host speed measured as the run goes
(hostspeed.py), and the unscaled wall-clock figures are printed after them.
With ``--trace 1``
it makes an untraced and a traced pass over the same fixed inputs and reports
per-layer metrics. Either way a correctness gate runs after the timed phase
and its findings count into ``failed``. Human-readable lines come first; the
last line of standard output is the JSON result. Per-run records and span
files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from itertools import count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(HERE, "out")

# -- sweep workloads -----------------------------------------------------------

SWEEPS = {
    # fixed=None: the seed range starts at --seed * SEED_STRIDE and the sweep
    # runs for --seconds; fixed=N: always the pinned seeds 0..N-1.
    # The tail is p95, not p99: over the ~2,000 seed-chosen instances of a
    # 20-s run, p99 moves by 6-8% (interquartile range over medians) with
    # the draw of instances alone, p95 by 2-4%.
    "verify-main": {"suite": "main", "max_bits": 4, "tail_pct": 95, "fixed": None},
    "verify-tree": {"suite": "tree", "max_bits": 4, "tail_pct": 95, "fixed": None},
    # Per-instance cost at max_bits 8 is heavy-tailed (coefficient of
    # variation about 3; one seed in 800 takes 7 s), so a seed-chosen range
    # small enough for one run moves throughput by +-35% from seed to seed.
    # Its tail is the mean of the slowest 5% (10 of 200): one 0.4-2 s
    # instance's time varies by 10-30% (coefficient of variation) from run
    # to run with the host, scaled or not, and so does any single order
    # statistic of them.
    "verify-large": {"suite": "main", "max_bits": 8, "tail_pct": 95, "fixed": 200,
                     "tail_mean": True},
}
SEED_STRIDE = 1_000_000
CHUNK = 8  # seeds per batch_experiment call
DIGEST_SEEDS = 200  # leading rows hashed for the output digest; always swept
TRACE_SEEDS = 400  # seeds of a traced pass over a seeded sweep
ORACLE_STRIDE = 10  # every 10th digest row is recomputed by the oracles

# -- ladder --------------------------------------------------------------------

SOLVE_BUDGET_S = 30.0  # generous budget of the cases that must solve exactly
SHORT_BUDGET_S = 1.0  # fixed budget of the 12x12 cases, which time out today
PROBE_BUDGET_S = 1.0  # --timeout-s given to the eq(4) probe
PROBE_KILL_S = 3.0  # the probe is killed this long after it starts
OVERRUN_SLACK_S = 0.5  # elapsed - budget above this is a budget overrun
KNOWN_COVERS = {"xor(4)": 256, "eq(3)": 13}
# Short cases run once per round and report their median run; the runs of
# long cases are dealt out over the rounds, between the short ones, so the
# runs of a case spread over the whole ladder instead of a few seconds of
# host noise. On a shared 2-vCPU VM, speed drifted by +-20% over 5-20 s, so
# eq(3), whose time is the ladder's tail, reports the median of EQ3_RUNS runs
# in separate rounds.
LADDER_ROUNDS = 5
EQ3_RUNS = 3
# (side, colors, seeds, budget, must solve, runs) of the random functions.
# The timed ladder is seed-free: solve times of random functions of one family
# range over two orders of magnitude (10x10 3-colour: 0.02 s to 6 s), so
# seed-chosen functions would make the ladder's wall time a draw. The
# workload seed picks the functions of the ladder's correctness gate instead.
RANDOM_FAMILIES = (
    (9, 2, (1, 2, 3, 4), SOLVE_BUDGET_S, True, LADDER_ROUNDS),
    (10, 3, (1, 2), SOLVE_BUDGET_S, True, LADDER_ROUNDS),
    (12, 2, (1, 2, 3, 4, 5, 6), SHORT_BUDGET_S, False, 1),
)
# (side, colors) of the seed-chosen functions whose catalogs the gate checks
# against brute-force enumeration, and of the one it must solve exactly
GATE_CATALOGS = ((6, 2), (5, 3))
GATE_SOLVE = (9, 2)
GATE_LARGE_SEEDS = 3  # seed-chosen instances verify-large checks off the clock

SETUP_REPEATS = 7

EXTRA_UNITS = {"wall_s": "s", "cover_gap": "boxes", "budget_overrun_s": "s", "failed_frac": "ratio"}


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "commlab", "__init__.py")):
    _refuse(f"no commlab sources under {SRC}; run from the root of a full checkout")
if not os.path.isfile(os.path.join(TESTS, "naive.py")):
    _refuse(f"no oracle module at {os.path.join(TESTS, 'naive.py')}")
if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
    _refuse(f"no BENCHMARK.json in {ROOT}")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    _spec = json.load(fh)
# unit of every reported metric, as BENCHMARK.json declares it
UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}
sys.path[:0] = [SRC, TESTS, HERE]

# Calls into commlab go through module attributes so the tracer sees them.
from commlab import bounds, functions, reports, verify  # noqa: E402
from commlab.core import DomainShape  # noqa: E402

import gate  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402


class Tally:
    """Attempted and failed operations, with a note per failure. A failure
    that is not a wrong output (a timeout, a budget overrun) leaves the run
    `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes: list[str] = []

    def op(self, ok: bool, note: str, wrong_output: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += int(wrong_output)
            self.notes.append(note)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _cli(args) -> list[str]:
    return [sys.executable, "-m", "commlab.cli", *args]


def _percentile(values, pct: float) -> float:
    """Nearest rank: the smallest value with pct% of the values at or below."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _tail_mean(values, pct: float) -> float:
    """Mean of the values above the pct-th percentile (nearest rank)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return statistics.fmean(ordered[int(rank):] or ordered[-1:])


def measure_setup(cli_args, tally: Tally) -> float:
    """Median wall time of a fresh `commlab` process doing one instance or
    case: interpreter start, imports and one unit of work. It is not scaled
    to the reference host: process start and imports are not the kernel's
    kind of work, and scaling them made the median spread more, not less."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code = subprocess.run(
            _cli(cli_args), cwd=ROOT, env=_env(), timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        times.append(time.perf_counter() - start)
        tally.op(code == 0, f"setup `commlab {' '.join(cli_args)}` exited {code}")
    return statistics.median(times)


# -- sweeps --------------------------------------------------------------------


def sweep_config(workload: str) -> verify.SuiteConfig:
    spec = SWEEPS[workload]
    return verify.SuiteConfig(suite=spec["suite"], max_bits=spec["max_bits"])


def first_seed(workload: str, seed: int) -> int:
    return 0 if SWEEPS[workload]["fixed"] else seed * SEED_STRIDE


def _timed(tracer, work):
    """work() and its wall seconds; with a tracer, a second traced call
    follows whose time goes to tracer.wall_ns and whose result is dropped.
    `work` must look commlab functions up when called, so the traced call
    reaches the wrappers."""
    start = time.perf_counter_ns()
    result = work()
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        with tracer:
            start = time.perf_counter_ns()
            sid = tracer.open("bench.op")  # the root span of this operation
            try:
                work()
            finally:
                tracer.close(sid)
            tracer.wall_ns += time.perf_counter_ns() - start
    return result, elapsed / 1e9


@dataclass
class Sweep:
    """What a sweep keeps: the first DIGEST_SEEDS rows and their CSV lines
    (for the digest and the gate), and every row's runtime_ms. Later rows
    are dropped once emitted, so peak memory does not grow with the number
    of instances a run gets through."""

    rows: list = field(default_factory=list)
    csv_lines: list = field(default_factory=list)
    runtimes_ms: list = field(default_factory=list)
    n_rows: int = 0
    wall_s: float = 0.0


def run_sweep(config: verify.SuiteConfig, start_seed: int, n_seeds: int | None,
              tally: Tally, seconds: float = 0.0, tracer=None, speed=None) -> Sweep:
    """Sweep consecutive seeds in CHUNK-sized batch_experiment calls and emit
    each chunk's CSV rows. With n_seeds None the sweep stops at the first
    chunk boundary after `seconds`, once DIGEST_SEEDS seeds are done. With a
    tracer every call also runs traced, right after its untraced run. With a
    HostSpeed the reference kernel runs between chunks, off the clock."""
    sweep = Sweep()
    gaps = dict.fromkeys(("max_chain_gap", "max_triple_gap", "max_ic_gap"), 0.0)
    for lo in count(start_seed, CHUNK):
        done = lo - start_seed
        if n_seeds is not None and done >= n_seeds:
            break
        if n_seeds is None and done >= DIGEST_SEEDS and sweep.wall_s >= seconds:
            break
        hi = lo + CHUNK if n_seeds is None else min(lo + CHUNK, start_seed + n_seeds)
        chunk = replace(config, seeds=tuple(range(lo, hi)))
        if speed is not None:
            speed.due()
        try:
            result, elapsed = _timed(tracer, lambda: verify.batch_experiment(chunk))
            text, emitted = _timed(tracer, lambda: reports.emit_report(result.rows, None, "csv"))
        except Exception:  # an error raised by the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            for seed in chunk.seeds:
                tally.op(False, f"seed {seed}: error")
            continue
        sweep.wall_s += elapsed + emitted
        sweep.n_rows += len(result.rows)
        for row in result.rows:
            tally.op(not row.status.startswith("violation"), f"seed {row.seed}: {row.status}")
            if row.runtime_ms is not None:
                sweep.runtimes_ms.append(row.runtime_ms)
        keep = DIGEST_SEEDS - len(sweep.rows)
        if keep > 0:
            lines = text.splitlines()
            sweep.csv_lines += lines[: 1 + keep] if not sweep.csv_lines else lines[1 : 1 + keep]
            sweep.rows += result.rows[:keep]
        for name in gaps:
            gaps[name] = max(gaps[name], getattr(result, name))
    for name, gap in gaps.items():
        tally.op(gap <= config.tol, f"{name}={gap!r} above tol {config.tol}")
    if speed is not None:
        speed.due()
    return sweep


def csv_digest(lines) -> str:
    """sha256 of CSV lines (header first) without runtime_ms, the last
    column."""
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return hashlib.sha256(stripped.encode()).hexdigest()


def gate_sweep(workload: str, seed: int, rows, tally: Tally) -> int:
    """Recompute every ORACLE_STRIDE-th digest row with the oracles. A
    workload with pinned seeds also sweeps and checks a few seed-chosen
    instances here, off the clock. Returns the number of rows checked."""
    config = sweep_config(workload)
    sample = rows[::ORACLE_STRIDE]
    if SWEEPS[workload]["fixed"]:
        sample += run_sweep(config, seed * SEED_STRIDE, GATE_LARGE_SEEDS, tally).rows
    checked = 0
    for row in sample:
        if row.status != "ok":  # generation failures carry no values
            continue
        problems = gate.check_row(config, row)
        tally.op(not problems, "; ".join(problems))
        checked += 1
    return checked


def gate_ladder(seed: int, tally: Tally) -> list[str]:
    """Seed-chosen functions: catalogs against brute force, and one exact
    cover with its witness checked. Returns the functions checked."""
    checked = []
    for side, colors in GATE_CATALOGS:
        f = functions.random_function(DomainShape((side, side)), colors, seed)
        tally.op(not (problems := gate.check_catalog(f)), "; ".join(problems))
        checked.append(f"catalog {side}x{side} c{colors} seed {seed}")
    name, make = _random_case(*GATE_SOLVE, seed)
    f = make()
    summary = bounds.bound_summary(f, timeout_s=SOLVE_BUDGET_S)
    # running out of budget is a failure, not a wrong answer
    tally.op(summary.cover_exact is not None,
             f"{name}: no exact cover within {SOLVE_BUDGET_S}s", wrong_output=False)
    problems = [f"{name}: {summary.status['internal']}"] if "internal" in summary.status else []
    if summary.cover_exact is not None:
        problems += gate.check_witness(f, summary)
    tally.op(not problems, "; ".join(problems))
    checked.append(name)
    return checked


def sweep_metrics(workload: str, sweep: Sweep, speed: HostSpeed | None = None) -> dict:
    """Throughput and per-instance percentiles; with a HostSpeed, the
    sweep's time and its rows' runtime_ms are scaled to the reference host."""
    scale = speed.scale() if speed is not None else 1.0
    wall = sweep.wall_s * scale
    runtimes = [ms * scale for ms in sweep.runtimes_ms]
    return {
        "instances_per_s": sweep.n_rows / wall,
        "instance_ms_p50": statistics.median(runtimes),
        "instance_ms_tail": (_tail_mean if SWEEPS[workload].get("tail_mean") else _percentile)(
            runtimes, SWEEPS[workload]["tail_pct"]),
    }


# -- ladder --------------------------------------------------------------------


def ladder_cases():
    """(name, function factory, budget s, must solve, runs) of the ladder."""
    cases = [
        ("xor(4)", lambda: functions.xor_function(4), SOLVE_BUDGET_S, True, LADDER_ROUNDS),
        ("eq(3)", lambda: functions.eq_function(3), SOLVE_BUDGET_S, True, EQ3_RUNS),
    ]
    for side, colors, seeds, budget, must_solve, runs in RANDOM_FAMILIES:
        for fseed in seeds:
            cases.append((*_random_case(side, colors, fseed), budget, must_solve, runs))
    return cases


def _random_case(side, colors, fseed):
    shape = DomainShape((side, side))
    return (f"random {side}x{side} c{colors} seed {fseed}",
            lambda: functions.random_function(shape, colors, fseed))


def bounds_case(name, make, budget):
    """One `bounds` call as the CLI makes it: generate the function, run
    bound_summary, emit the row."""
    f = make()
    summary = bounds.bound_summary(f, timeout_s=budget)
    row = reports.ReportRow(
        instance_id=name,
        status="timeout" if summary.cover_bounds else "ok",
        sizes="x".join(str(s) for s in f.shape.sizes),
        color_count=summary.color_count,
        cover_exact=summary.cover_exact,
        cover_greedy=summary.cover_greedy,
        fooling_best=summary.fooling_best,
        rank_rational=summary.rank_rational_max,
        rank_gf2=summary.rank_gf2_max,
    )
    reports.emit_report([row], None, "csv")
    return summary


def check_case(name, budget, must_solve, summary, times, ref_times, tally: Tally) -> dict:
    """Checks and record of one ladder case; its time is the median of its
    runs in reference-host seconds (`ref_times`), the budget checks use the
    wall seconds (`times`)."""
    tally.op("internal" not in summary.status, f"{name}: {summary.status.get('internal')}")
    if name in KNOWN_COVERS:
        want = KNOWN_COVERS[name]
        tally.op(summary.cover_exact == want, f"{name}: cover {summary.cover_exact}, want {want}")
    if must_solve:
        tally.op(summary.cover_exact is not None, f"{name}: no exact cover within {budget}s",
                 wrong_output=False)
    tally.op(max(times) - budget <= OVERRUN_SLACK_S,
             f"{name}: {max(times):.3f}s on a {budget}s budget", wrong_output=False)
    return {
        "name": name,
        "elapsed_s": statistics.median(ref_times),
        "runs_s": times,
        "ref_runs_s": ref_times,
        "budget_s": budget,
        "must_solve": must_solve,
        "cover_exact": summary.cover_exact,
        "cover_bounds": summary.cover_bounds,
    }


def run_probe(tally: Tally) -> dict:
    """`commlab bounds --fn eq --n 4` in a child process, killed PROBE_KILL_S
    after it starts, so a budget that is not honoured cannot stall the run."""
    args = ["bounds", "--fn", "eq", "--n", "4", "--timeout-s", str(PROBE_BUDGET_S)]
    start = time.perf_counter()
    proc = subprocess.Popen(_cli(args), cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killed = False
    try:
        code = proc.wait(timeout=PROBE_KILL_S)
    except subprocess.TimeoutExpired:
        killed = True
    finally:
        if proc.poll() is None:
            proc.kill()
            code = proc.wait()
    elapsed = time.perf_counter() - start
    tally.op(killed or code in (0, 3), f"eq(4) probe exited {code}")
    tally.op(elapsed - PROBE_BUDGET_S <= OVERRUN_SLACK_S,
             f"eq(4) probe: {elapsed:.3f}s on a {PROBE_BUDGET_S}s budget"
             + (", killed" if killed else ""), wrong_output=False)
    return {"name": "eq(4) probe", "elapsed_s": elapsed, "runs_s": [elapsed],
            "ref_runs_s": [elapsed],
            "budget_s": PROBE_BUDGET_S,
            "must_solve": False, "killed": killed, "exit_code": code}


def run_ladder(tally: Tally, tracer=None, speed=None):
    """LADDER_ROUNDS rounds: every short case once, then the round's share
    of the runs of long cases; the eq(4) probe takes the last long slot.
    Only the first run of a case is traced, and the probe never is (it is a
    child process). Each run builds a fresh function object. With a
    HostSpeed the reference kernel runs between runs, and the runs of cases
    that must solve are scaled to the reference host; the others run to a
    fixed budget and keep their wall time. Returns (case records, ladder
    time: the sum of the case times)."""
    specs = ladder_cases()
    times = [[] for _ in specs]
    summaries = [None] * len(specs)

    def run(i):
        name, make, budget = specs[i][:3]
        if speed is not None:
            speed.due()
        summaries[i], elapsed = _timed(None if times[i] else tracer,
                                       lambda: bounds_case(name, make, budget))
        times[i].append(elapsed)

    short = [i for i, spec in enumerate(specs) if spec[4] == LADDER_ROUNDS]
    long_slots = [i for rep in range(LADDER_ROUNDS) for i, spec in enumerate(specs)
                  if rep < spec[4] < LADDER_ROUNDS] + ["probe"]
    probe = None
    for round_ in range(LADDER_ROUNDS):
        for i in short:
            run(i)
        for slot in long_slots[round_::LADDER_ROUNDS]:
            if slot == "probe":
                probe = run_probe(tally)
            else:
                run(slot)
    ref_times = times
    if speed is not None:
        speed.due()
        ref_times = [[t * speed.scale() for t in runs] if spec[3] else runs
                     for spec, runs in zip(specs, times)]
    cases = [
        check_case(name, budget, must_solve, summary, runs, ref_runs, tally)
        for (name, _, budget, must_solve, _), summary, runs, ref_runs
        in zip(specs, summaries, times, ref_times)
    ]
    cases.append(probe)
    return cases, sum(c["elapsed_s"] for c in cases)


def ladder_metrics(cases, runs: str = "ref_runs_s") -> dict:
    """Cases per second of ladder time and per-case percentiles, from the
    median of each case's `runs` (reference-host or wall seconds)."""
    # p50 and tail are taken over the cases that must solve exactly, so they
    # track the solver and not the fixed budgets of the cases that time out;
    # too few cases for a percentile with ten beyond it: the tail is the
    # slowest of them
    elapsed = [statistics.median(c[runs]) for c in cases]
    wall = sum(elapsed)
    solved_ms = [s * 1000.0 for s, c in zip(elapsed, cases) if c["must_solve"]]
    return {
        "instances_per_s": len(cases) / wall,
        "instance_ms_p50": statistics.median(solved_ms),
        "instance_ms_tail": max(solved_ms),
    }


def ladder_extras(cases, wall: float) -> dict:
    return {
        "wall_s": wall,
        "cover_gap": sum(c["cover_bounds"][1] - c["cover_bounds"][0]
                         for c in cases if c.get("cover_bounds")),
        "budget_overrun_s": max(max(max(c["runs_s"]) - c["budget_s"], 0.0) for c in cases),
    }


# -- traced runs ---------------------------------------------------------------


def layer_metrics(tracer: Tracer, wall: float, ops: int, cover_gap: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass over `ops` instances or cases:
    the JSON metrics, with layer self times per operation, and the same self
    times as shares of the traced pass's wall time. A layer the workload
    never enters reads 0."""
    selfs = tracer.self_times_ns()
    layers = tracer.layer_self_ns()
    counts = tracer.counts
    times_ns = {
        "functions.gen": layers["functions"],
        "core.tables": layers["core"],
        "core.selector": tracer.total_ns("core.selector_labels"),
        "info.profile": layers["info"],
        "verify.checks": layers["verify"],
        "reports.emit": layers["reports"],
    }
    bounds_ns = {f"bounds.{part}": selfs.get(f"bounds.{part}", 0)
                 for part in ("catalog", "greedy", "exact", "fooling", "rank")}
    metrics = {
        **{f"{name}_ms": ns / 1e6 / ops for name, ns in times_ns.items()},
        **{f"{name}_s": ns / 1e9 / ops for name, ns in bounds_ns.items()},
        "functions.box_draws_per_box": (
            counts["accepted_draws"] / counts["accepted_boxes"] if counts["accepted_boxes"] else 0.0
        ),
        "core.indicator_calls": tracer.span_count("core.indicator") / ops,
        "info.engines_per_instance": counts["engines"] / ops,
        "info.entropy_calls": counts["entropy_calls"] / ops,
        "info.entropy_miss_ratio": (
            counts["entropy_misses"] / counts["entropy_calls"] if counts["entropy_calls"] else 0.0
        ),
        "bounds.catalog_boxes": counts["catalog_boxes"],
        "bounds.search_nodes": counts["solved_search_nodes"],
        "bounds.cover_gap": cover_gap,
    }
    shares = {f"{name}_frac": ns / 1e9 / wall for name, ns in {**times_ns, **bounds_ns}.items()}
    return metrics, shares


def traced_pass(workload: str, seed: int, tally: Tally):
    """Fixed inputs, each operation run untraced and then traced. Returns
    (outputs of the untraced runs, tracer, untraced wall of the traced
    operations, traced operations, cover gap)."""
    tracer = Tracer()
    if workload in SWEEPS:
        n = SWEEPS[workload]["fixed"] or TRACE_SEEDS
        plain = run_sweep(sweep_config(workload), first_seed(workload, seed), n, tally,
                          tracer=tracer)
        return plain, tracer, plain.wall_s, plain.n_rows, 0
    plain = run_ladder(tally, tracer)
    in_process = [c for c in plain[0] if c["name"] != "eq(4) probe"]
    wall = sum(c["runs_s"][0] for c in in_process)  # the runs that were traced
    return plain, tracer, wall, len(in_process), ladder_extras(*plain)["cover_gap"]


# -- main ----------------------------------------------------------------------


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:30s} {value!r:>24} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SWEEPS, "bounds-ladder"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload, seed = args.workload, args.seed
    sweep = workload in SWEEPS
    os.makedirs(OUT, exist_ok=True)
    tally = Tally()
    record = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace}

    if sweep:
        config = sweep_config(workload)
        base = first_seed(workload, seed)
        setup_args = ["verify", config.suite, "--seeds", str(base), "--max-bits", str(config.max_bits)]
    else:
        setup_args = ["bounds", "--fn", "xor", "--n", "2"]
    record["setup_s"] = measure_setup(setup_args, tally)
    # the same unit of work in process, so lazy imports and first calls are
    # paid before anything is timed
    if sweep:
        verify.batch_experiment(replace(config, seeds=(base,)))
    else:
        bounds.bound_summary(functions.xor_function(2))

    if args.trace:
        plain, tracer, wall_plain, ops, gap = traced_pass(workload, seed, tally)
        wall_traced = tracer.wall_ns / 1e9
        metrics, record["layer_shares"] = layer_metrics(tracer, wall_traced, ops, gap)
        metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
        record["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}"))
    else:
        # times are scaled to the reference host (hostspeed.py); the
        # unscaled figures are printed and saved as wall_clock
        speed = HostSpeed()
        if sweep:
            fixed = SWEEPS[workload]["fixed"]
            plain = run_sweep(config, base, fixed, tally, args.seconds, speed=speed)
            metrics = sweep_metrics(workload, plain, speed)
            record["wall_clock"] = sweep_metrics(workload, plain)
            record["wall_s"] = plain.wall_s
        else:
            plain = run_ladder(tally, speed=speed)
            metrics = ladder_metrics(plain[0])
            record["wall_clock"] = ladder_metrics(plain[0], runs="runs_s")
            record.update(ladder_extras(*plain))
        metrics["setup_s"] = record["setup_s"]
        record["host_speed"] = speed.summary()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if sweep:
        record["instances"] = plain.n_rows
        record["oracle_checked"] = gate_sweep(workload, seed, plain.rows, tally)
        record["digest"] = csv_digest(plain.csv_lines)
        print(f"digest {workload} seeds {base}..{base + DIGEST_SEEDS - 1}: {record['digest']}")
    else:
        record["cases"] = plain[0]
        record["gate_checked"] = gate_ladder(seed, tally)
    record["failed_frac"] = tally.failed / tally.attempted
    record["failures"] = tally.notes
    record["metrics"] = metrics

    _print_table(f"{workload} seed {seed} trace {args.trace}", metrics, UNITS)
    _print_table("also", {k: record[k] for k in EXTRA_UNITS if k in record}, EXTRA_UNITS)
    if "wall_clock" in record:
        _print_table("unscaled wall-clock times", record["wall_clock"], UNITS)
        _print_table("reference kernel", record["host_speed"], {})
    if args.trace:
        _print_table("layer shares of traced wall time", record["layer_shares"], {})
    for note in tally.notes:
        print(f"  failure: {note}")
    path = os.path.join(OUT, f"run-{workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
