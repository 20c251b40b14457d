"""Command-line experiment runner.

Subcommands: gen (write instance files), verify (inequality suites), cover
(monochromatic cover number), bounds (full bound summary), am (AM analysis).
Exit codes: 0 success, 1 inequality violation found, 2 invalid input,
3 solver timeout.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .core import MAX_BITS, MAX_CELLS, SELECTOR_SEED_MAX, DomainShape, Protocol, TranscriptSelector
from .errors import CommlabError, InvalidInputError
from .functions import (
    approx_xor_relation,
    gen_cover,
    gen_function,
    parity_tightness_protocol,
    trivial_merlin_am,
)
from .reports import ReportRow, emit_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_TIMEOUT = 3


def parse_seeds(text: str) -> tuple[int, ...]:
    """"0..99" (inclusive), "3,7,9", or a single integer: one or more seeds >= 0."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = tuple(range(int(lo), int(hi) + 1))
    else:
        seeds = tuple(int(t) for t in text.split(",") if t.strip())
    if not seeds or any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError(f"need one or more seeds >= 0, got {text!r}")
    return seeds


def parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.lower().split("x"))


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer >= low, and <= high if high is given."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_positive_int = _int_in(1)
_bits = _int_in(1, MAX_BITS)
# am --fn: the trivial Merlin protocol's output tables hold 2**n x 4**n
# int64 entries each, 134 MB apiece at n = 8 and 8.6 GB at n = 10
AM_MAX_BITS = 8
CELL_BITS = MAX_CELLS.bit_length() - 1  # verify --arity x --max-bits: at most 2**24 cells


def parse_rho_max(text: str) -> tuple[int, ...]:
    """"2,4,8": comma-separated thickness caps, each at least 1."""
    return tuple(_positive_int(t) for t in text.split(","))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _fill_options(args, rules) -> None:
    """Options that apply to some choices only. Each rule is (name, applies,
    needs, default): an option given where it does not apply is refused, and
    one not given takes its default where it applies, else None."""
    for name, applies, needs, default in rules:
        if getattr(args, name) is None:
            setattr(args, name, default if applies else None)
        elif not applies:
            raise InvalidInputError(f"--{name.replace('_', '-')} needs {needs}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="rectangle-cover communication lab: generators, "
        "inequality suites, and classical lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)  # where a command writes its rows
    report.add_argument("--out")
    report.add_argument("--format", choices=["csv", "json"], default="csv")
    target = argparse.ArgumentParser(add_help=False)  # the function cover and bounds take
    source = target.add_mutually_exclusive_group()
    source.add_argument("--fn", choices=["xor", "eq", "constant", "random"])
    source.add_argument("--instance")
    target.add_argument("--n", type=_bits)
    target.add_argument("--sizes", type=parse_sizes)
    target.add_argument("--colors", type=int)
    target.add_argument("--seed", type=_int_in(0))
    target.add_argument("--timeout-s", type=_finite_float, default=60.0)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--out", required=True)
    gen.add_argument("--preset", choices=["parity-tightness"])
    gen.add_argument("--fn", choices=["xor", "eq", "matvec", "constant", "random"])
    gen.add_argument("--relation", choices=["approx-xor"])
    gen.add_argument(
        "--cover",
        choices=["trivial-merlin", "windmill", "random-tree", "random-bounded"],
    )
    gen.add_argument("--sizes", type=parse_sizes)
    gen.add_argument("--n", type=_bits)
    gen.add_argument("--arity", type=int)
    gen.add_argument("--colors", type=int)
    gen.add_argument("--delta", type=float)
    gen.add_argument("--rho-max", type=int)
    gen.add_argument("--extra", type=int)
    gen.add_argument("--selector", choices=["min-index", "seeded-random"])
    gen.add_argument("--selector-seed", type=_int_in(0, SELECTOR_SEED_MAX))
    gen.add_argument("--dist", choices=["uniform", "random"])
    gen.add_argument("--seed", type=_int_in(0))

    verify = sub.add_parser("verify", parents=[report], help="run an inequality suite")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("suite", choices=["main", "tree", "multiparty"])
    inputs = verify.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--seeds", type=parse_seeds)
    inputs.add_argument("--instance")
    verify.add_argument("--arity", type=_int_in(2))
    verify.add_argument("--max-bits", type=_bits)
    verify.add_argument("--rho-max", type=parse_rho_max)
    verify.add_argument("--extra", type=int)
    verify.add_argument(
        "--rho-mode", choices=["global", "expected"], default="global",
        help="the log2(rho) term: global, the largest cell thickness; "
        "expected, the expected log2 thickness of the selected box",
    )
    verify.add_argument("--tol", type=_tolerance, default=1e-9)
    verify.add_argument("--plot")

    cover = sub.add_parser("cover", parents=[target, report], help="monochromatic cover number")
    cover.set_defaults(run=_cmd_cover)
    mode = cover.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--greedy", dest="exact", action="store_false")

    bounds = sub.add_parser("bounds", parents=[target, report], help="full bound summary")
    bounds.set_defaults(run=_cmd_bounds)

    am = sub.add_parser("am", parents=[report], help="analyze an AM protocol")
    am.set_defaults(run=_cmd_am)
    am_source = am.add_mutually_exclusive_group()
    am_source.add_argument("--instance")
    am_source.add_argument("--fn", choices=["xor", "eq"])
    am.add_argument("--n", type=_int_in(1, AM_MAX_BITS))
    am.add_argument("--correctness", choices=["per-input", "uniform"], default="uniform")
    return parser


def _cli_function(args):
    if args.fn in ("constant", "random") and args.sizes is None:
        raise InvalidInputError(f"--fn {args.fn} needs --sizes")
    return gen_function(
        args.fn,
        n=args.n,
        arity=getattr(args, "arity", None),
        shape=None if args.sizes is None else DomainShape(args.sizes),
        num_colors=args.colors,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    from .info import JointDistribution
    from .serialize import InstanceBundle, save_instance

    drawn = args.cover in ("random-tree", "random-bounded") or "random" in (args.fn, args.dist)
    _fill_options(args, (
        ("rho_max", args.cover == "random-bounded", "--cover random-bounded", 2),
        ("extra", args.cover == "random-bounded", "--cover random-bounded", 2),
        ("selector_seed", args.selector == "seeded-random", "--selector seeded-random", 0),
        ("delta", args.relation == "approx-xor", "--relation approx-xor", 0.0),
        ("seed", drawn, "--cover random-tree|random-bounded, --fn random or --dist random", 0),
        ("colors", args.fn == "random", "--fn random", 2),
        ("arity", args.fn == "matvec", "--fn matvec", 3),
        ("n", args.fn in ("xor", "eq", "matvec") or args.relation or args.preset,
         "--fn xor|eq|matvec, --relation or --preset", 1),
    ))
    if args.preset == "parity-tightness":
        for name in ("fn", "relation", "cover", "sizes", "selector", "dist"):
            if getattr(args, name) is not None:
                raise InvalidInputError(f"--preset {args.preset} takes no --{name}")
        protocol = parity_tightness_protocol(args.n)
        save_instance(InstanceBundle(protocol=protocol), args.out)
        print(f"wrote {args.out}")
        return EXIT_OK
    function = _cli_function(args) if args.fn else None
    relation = approx_xor_relation(args.n, args.delta) if args.relation else None
    target = function if function is not None else relation
    if args.sizes is not None:
        shape = DomainShape(args.sizes)
    elif target is not None:
        shape = target.shape
    elif args.cover == "windmill":
        shape = DomainShape((4, 4))
    else:
        raise InvalidInputError("need --sizes, --fn, or --relation to fix the domain")
    if target is not None and target.shape.sizes != shape.sizes:
        raise InvalidInputError("--sizes conflicts with the target's domain")

    kind = args.cover or "trivial-merlin"
    cover = gen_cover(kind, shape=shape, rho_max=args.rho_max, extra=args.extra, seed=args.seed)
    if cover.shape.sizes != shape.sizes:
        sizes = "x".join(str(n) for n in cover.shape.sizes)
        raise InvalidInputError(f"--cover {kind} is {sizes}; adjust --sizes")
    if args.selector == "seeded-random":
        selector = TranscriptSelector.seeded(args.selector_seed)
    else:
        selector = TranscriptSelector.min_index()
    protocol = Protocol(cover, selector)
    dist = None
    if args.dist == "uniform":
        dist = JointDistribution.uniform(shape)
    elif args.dist == "random":
        dist = JointDistribution.random_integer_weights(shape, seed=args.seed)
    save_instance(
        InstanceBundle(
            protocol=protocol, function=function, relation=relation, distribution=dist
        ),
        args.out,
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _emit(rows, args) -> None:
    plot = getattr(args, "plot", None)
    text = emit_report(rows, args.out, args.format, plot)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}" + (f" and {plot}" if plot else ""))


def _cmd_verify(args) -> int:
    from .verify import SuiteConfig, analyze_instance, batch_experiment

    # the generation options are for --seeds only, and None takes SuiteConfig's
    # default; the tree suite is the main suite at cap 1 with no extra boxes
    drawn = args.seeds is not None
    capped = drawn and args.suite != "tree"
    _fill_options(args, (
        ("arity", drawn, "--seeds", 3 if args.suite == "multiparty" else 2),
        ("max_bits", drawn, "--seeds", None),
        ("rho_max", capped, "--seeds and suite main or multiparty", None),
        ("extra", capped, "--seeds and suite main or multiparty", None),
    ))
    if args.instance:
        from .serialize import load_instance

        bundle = load_instance(args.instance)
        row, violations = analyze_instance(bundle, rho_mode=args.rho_mode, tol=args.tol)
        _emit([row], args)
        print(f"rows=1 violations={1 if violations else 0}")
        return EXIT_VIOLATION if violations else EXIT_OK
    names = ("arity", "max_bits", "rho_max", "extra")
    generation = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if args.suite != "multiparty" and args.arity != 2:
        raise InvalidInputError(
            f"verify {args.suite} is two-party; --arity {args.arity} needs multiparty"
        )
    out_dir = None
    if args.out:
        import os

        out_dir = os.path.dirname(os.path.abspath(args.out)) or None
    config = SuiteConfig(
        suite=args.suite,
        seeds=args.seeds,
        rho_mode=args.rho_mode,
        tol=args.tol,
        out_dir=out_dir,
        **generation,
    )
    if args.arity * config.max_bits > CELL_BITS:  # the largest shape the suite can draw
        raise InvalidInputError(
            f"--arity {args.arity} x --max-bits {config.max_bits} can draw "
            f"2**{args.arity * config.max_bits} cells; the cap is 2**{CELL_BITS}"
        )
    result = batch_experiment(config)
    _emit(result.rows, args)
    print(
        f"rows={len(result.rows)} violations={result.violations} "
        f"generation_failures={result.generation_failures}"
    )
    for path in result.reproducers:
        print(f"reproducer: {path}")
    return EXIT_VIOLATION if result.violations else EXIT_OK


def _cover_target(args):
    if args.fn is None and args.instance is None:
        raise InvalidInputError("need --fn or --instance")
    _fill_options(args, (
        ("n", args.fn in ("xor", "eq"), "--fn xor|eq", 1),
        ("sizes", args.fn in ("constant", "random"), "--fn constant|random", None),
        ("colors", args.fn == "random", "--fn random", 2),
        ("seed", args.fn == "random", "--fn random", 0),
    ))
    if args.instance:
        from .serialize import load_instance

        bundle = load_instance(args.instance)
        if bundle.function is None:
            raise InvalidInputError("instance file carries no function")
        return bundle.function
    return _cli_function(args)


def _fn_row(f, **fields) -> ReportRow:
    """The report row of a cover or bounds run on f, before its results."""
    sizes = "x".join(str(s) for s in f.shape.sizes)
    return ReportRow(instance_id=f"fn-{sizes}", sizes=sizes, color_count=f.num_colors, **fields)


def _cmd_cover(args) -> int:
    """Greedy (or with --exact, minimum) cover; --timeout-s bounds the
    fooling sets behind a timeout's lower bound, catalog enumeration and the
    cover together."""
    from .bounds import fooling_sizes, solve_cover

    f = _cover_target(args)
    start = time.monotonic()
    deadline = start + args.timeout_s
    fooling_sum = sum(fooling_sizes(f).values())
    row = _fn_row(f)
    row.cover_greedy, row.cover_exact, _, bounds = solve_cover(f, deadline, fooling_sum, args.exact)
    if bounds is not None:
        row.status = f"timeout:lower={bounds[0]},upper={bounds[1]}"
        print(f"timeout: bounds=[{bounds[0]}, {bounds[1]}]")
    elif args.exact:
        print(f"cover_exact={row.cover_exact}")
    else:
        print(f"cover_greedy={row.cover_greedy}")
    row.runtime_ms = (time.monotonic() - start) * 1000.0
    _emit([row], args)
    return EXIT_OK if bounds is None else EXIT_TIMEOUT


def _cmd_bounds(args) -> int:
    from .bounds import bound_summary

    f = _cover_target(args)
    start = time.monotonic()
    summary = bound_summary(f, timeout_s=args.timeout_s)
    row = _fn_row(
        f,
        status="timeout" if summary.cover_bounds else "ok",
        cover_exact=summary.cover_exact,
        cover_greedy=summary.cover_greedy,
        fooling_best=summary.fooling_best,
        rank_rational=summary.rank_rational_max,
        rank_gf2=summary.rank_gf2_max,
        runtime_ms=(time.monotonic() - start) * 1000.0,
    )
    if "internal" in summary.status:
        row.status = summary.status["internal"]
    _emit([row], args)
    print(
        f"color_count={summary.color_count} cover_exact={summary.cover_exact} "
        f"cover_greedy={summary.cover_greedy} fooling_best={summary.fooling_best}"
    )
    if summary.cover_bounds:
        lower, upper = summary.cover_bounds
        print(f"timeout: bounds=[{lower}, {upper}]")
    if "internal" in summary.status:
        return EXIT_VIOLATION
    return EXIT_TIMEOUT if summary.cover_bounds else EXIT_OK


def _cmd_am(args) -> int:
    from .serialize import load_am
    from .verify import am_analyze

    if args.fn is None and args.instance is None:
        raise InvalidInputError("need --fn or --instance")
    _fill_options(args, (("n", args.fn is not None, "--fn", 2),))
    if args.instance:
        bundle = load_am(args.instance)
        if bundle.target is None:
            raise InvalidInputError("AM file carries no function or relation target")
        am, target = bundle.am, bundle.target
    else:
        target = gen_function(args.fn, n=args.n)
        am = trivial_merlin_am(target)
    start = time.monotonic()
    report = am_analyze(am, target, correctness_mode=args.correctness)
    print(
        f"branches={len(report.branch_errors)} r0={report.r0} "
        f"cost={format(report.cost, '.17g')} error={format(report.overall_error, '.17g')} "
        f"estimated_lower_bound={format(report.estimated_lower_bound, '.17g')} "
        f"restricted_margin={format(report.restricted_margin, '.17g')}"
    )
    row = ReportRow(
        instance_id=report.instance_id,
        sizes="x".join(str(s) for s in am.shape.sizes),
        margin_main=report.restricted_margin,
        runtime_ms=(time.monotonic() - start) * 1000.0,
    )
    _emit([row], args)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CommlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
