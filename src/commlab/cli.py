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

from .core import DomainShape, Protocol, TranscriptSelector
from .errors import CommlabError, InvalidInputError, SolverTimeoutError
from .functions import (
    eq_function,
    gen_cover,
    gen_function,
    gen_relation,
    parity_tightness_protocol,
    random_tree,
    trivial_merlin_am,
    xor_function,
)
from .reports import ReportRow, emit_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_TIMEOUT = 3


def parse_seeds(text: str) -> tuple[int, ...]:
    """"0..99" (inclusive), "3,7,9", or a single integer."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    if "," in text:
        return tuple(int(t) for t in text.split(",") if t.strip())
    if not text:
        return ()
    return (int(text),)


def parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.lower().split("x"))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_rho_max(text: str) -> tuple[int, ...]:
    """"2,4,8": comma-separated thickness caps, each at least 1."""
    return tuple(_positive_int(t) for t in text.split(","))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="rectangle-cover communication lab: generators, "
        "inequality suites, and classical lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--preset", choices=["parity-tightness"])
    gen.add_argument("--fn", choices=["xor", "eq", "matvec", "constant", "random"])
    gen.add_argument("--relation", choices=["approx-xor"])
    gen.add_argument(
        "--cover",
        choices=["trivial-merlin", "windmill", "random-tree", "random-bounded"],
    )
    gen.add_argument("--sizes", type=parse_sizes)
    gen.add_argument("--n", type=int, default=1)
    gen.add_argument("--arity", type=int, default=2)
    gen.add_argument("--colors", type=int, default=2)
    gen.add_argument("--delta", type=float, default=0.0)
    gen.add_argument("--rho-max", type=int, default=2)
    gen.add_argument("--extra", type=int, default=2)
    gen.add_argument("--selector", choices=["min-index", "seeded-random"], default="min-index")
    gen.add_argument("--selector-seed", type=int, default=0)
    gen.add_argument("--dist", choices=["uniform", "random"])
    gen.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="run an inequality suite")
    verify.add_argument("suite", choices=["main", "tree", "multiparty"])
    verify.add_argument("--gen", choices=["random-bounded", "random-tree"],
                        default="random-bounded")
    verify.add_argument("--seeds", type=parse_seeds, default=())
    verify.add_argument("--instance")
    verify.add_argument("--arity", type=int, default=None)
    verify.add_argument("--max-bits", type=_positive_int, default=4)
    verify.add_argument("--rho-max", type=parse_rho_max, default=(2, 4, 8))
    verify.add_argument("--extra", type=int, default=4)
    verify.add_argument(
        "--rho-mode", choices=["global", "expected"], default="global",
        help="the log2(rho) term: global, the largest cell thickness; "
        "expected, the expected log2 thickness of the selected box",
    )
    verify.add_argument("--tol", type=_finite_float, default=1e-9)
    verify.add_argument("--out")
    verify.add_argument("--format", choices=["csv", "json"], default="csv")
    verify.add_argument("--plot")

    cover = sub.add_parser("cover", help="monochromatic cover number")
    mode = cover.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--greedy", dest="exact", action="store_false")
    cover.add_argument("--fn", choices=["xor", "eq", "constant", "random"])
    cover.add_argument("--n", type=int, default=1)
    cover.add_argument("--sizes", type=parse_sizes)
    cover.add_argument("--colors", type=int, default=2)
    cover.add_argument("--seed", type=int, default=0)
    cover.add_argument("--instance")
    cover.add_argument("--timeout-s", type=_finite_float, default=60.0)
    cover.add_argument("--out")
    cover.add_argument("--format", choices=["csv", "json"], default="csv")

    bounds = sub.add_parser("bounds", help="full bound summary")
    bounds.add_argument("--fn", choices=["xor", "eq", "constant", "random"])
    bounds.add_argument("--n", type=int, default=1)
    bounds.add_argument("--sizes", type=parse_sizes)
    bounds.add_argument("--colors", type=int, default=2)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--instance")
    bounds.add_argument("--timeout-s", type=_finite_float, default=60.0)
    bounds.add_argument("--out")
    bounds.add_argument("--format", choices=["csv", "json"], default="csv")

    am = sub.add_parser("am", help="analyze an AM protocol")
    am.add_argument("--instance")
    am.add_argument("--fn", choices=["xor", "eq"])
    am.add_argument("--n", type=int, default=2)
    am.add_argument("--correctness", choices=["per-input", "uniform"], default="uniform")
    am.add_argument("--out")
    am.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _cli_function(args):
    shape = None
    if args.fn in ("constant", "random"):
        if args.sizes is None:
            raise InvalidInputError(f"--fn {args.fn} needs --sizes")
        shape = DomainShape(args.sizes)
    return gen_function(
        args.fn,
        n=args.n,
        arity=getattr(args, "arity", 2),
        shape=shape,
        num_colors=args.colors,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    from .info import JointDistribution
    from .serialize import InstanceBundle, save_instance

    if args.preset == "parity-tightness":
        protocol = parity_tightness_protocol(args.n)
        save_instance(InstanceBundle(protocol=protocol), args.out)
        print(f"wrote {args.out}")
        return EXIT_OK
    function = _cli_function(args) if args.fn else None
    relation = (
        gen_relation("approx-xor", n=args.n, delta=args.delta) if args.relation else None
    )
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
    if kind == "random-tree":
        cover = gen_cover("from-tree", tree=random_tree(shape, seed=args.seed))
    else:
        cover = gen_cover(
            kind, shape=shape, rho_max=args.rho_max, extra=args.extra, seed=args.seed
        )
    if cover.shape.sizes != shape.sizes:
        sizes = "x".join(str(n) for n in cover.shape.sizes)
        raise InvalidInputError(f"--cover {kind} is {sizes}; adjust --sizes")
    if args.selector == "min-index":
        selector = TranscriptSelector.min_index()
    else:
        selector = TranscriptSelector.seeded(args.selector_seed)
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

    if args.instance:
        from .serialize import load_instance

        bundle = load_instance(args.instance)
        row, violations = analyze_instance(bundle, rho_mode=args.rho_mode, tol=args.tol)
        _emit([row], args)
        print(f"rows=1 violations={1 if violations else 0}")
        return EXIT_VIOLATION if violations else EXIT_OK
    arity = args.arity if args.arity is not None else (3 if args.suite == "multiparty" else 2)
    out_dir = None
    if args.out:
        import os

        out_dir = os.path.dirname(os.path.abspath(args.out)) or None
    config = SuiteConfig(
        suite=args.suite,
        seeds=args.seeds,
        generator=args.gen,
        arity=arity,
        max_bits=args.max_bits,
        rho_max=args.rho_max,
        extra=args.extra,
        rho_mode=args.rho_mode,
        tol=args.tol,
        out_dir=out_dir,
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
    if args.instance:
        from .serialize import load_instance

        bundle = load_instance(args.instance)
        if bundle.function is None:
            raise InvalidInputError("instance file carries no function")
        return bundle.function
    if args.fn is None:
        raise InvalidInputError("need --fn or --instance")
    return _cli_function(args)


def _cmd_cover(args) -> int:
    """Greedy (or with --exact, minimum) cover; --timeout-s bounds the
    fooling sets behind a timeout's lower bound, catalog enumeration and the
    cover together."""
    from .bounds import fooling_sizes, solve_cover

    f = _cover_target(args)
    start = time.monotonic()
    deadline = start + args.timeout_s
    fooling_sum = sum(fooling_sizes(f).values())
    row = ReportRow(
        instance_id="fn-" + "x".join(str(s) for s in f.shape.sizes),
        status="ok",
        sizes="x".join(str(s) for s in f.shape.sizes),
        color_count=f.num_colors,
    )
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
    row = ReportRow(
        instance_id="fn-" + "x".join(str(s) for s in f.shape.sizes),
        status="timeout" if summary.cover_bounds else "ok",
        sizes="x".join(str(s) for s in f.shape.sizes),
        color_count=summary.color_count,
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
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_am(args) -> int:
    from .serialize import load_am
    from .verify import am_analyze

    if args.instance:
        bundle = load_am(args.instance)
        if bundle.target is None:
            raise InvalidInputError("AM file carries no function or relation target")
        am, target = bundle.am, bundle.target
    else:
        if args.fn is None:
            raise InvalidInputError("need --fn or --instance")
        target = xor_function(args.n) if args.fn == "xor" else eq_function(args.n)
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
        instance_id=report.fingerprint[:12],
        status="ok",
        sizes="x".join(str(s) for s in am.shape.sizes),
        margin_main=report.restricted_margin,
        runtime_ms=(time.monotonic() - start) * 1000.0,
    )
    _emit([row], args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "cover": _cmd_cover,
        "bounds": _cmd_bounds,
        "am": _cmd_am,
    }
    try:
        return handlers[args.command](args)
    except SolverTimeoutError as exc:
        print(f"timeout: {exc} bounds=[{exc.lower}, {exc.upper}]", file=sys.stderr)
        return EXIT_TIMEOUT
    except CommlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
