"""CLI surface: command grammar, exit codes, report formats, determinism."""

import ast
import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from commlab.cli import main, parse_seeds, parse_sizes
from commlab.reports import REPORT_COLUMNS, ReportRow, emit_report, margin_histogram_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    idx = REPORT_COLUMNS.index("runtime_ms")
    return "\n".join(",".join(line.split(",")[:idx]) for line in lines)


def test_parse_helpers():
    assert parse_seeds("0..3") == (0, 1, 2, 3)
    assert parse_seeds("5,7") == (5, 7)
    assert parse_seeds("9") == (9,)
    assert parse_sizes("4x4x2") == (4, 4, 2)


def test_gen_writes_instance(tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    code, _, _ = run(capsys, "gen", "--out", out, "--cover", "windmill")
    assert code == 0 and os.path.exists(out)
    obj = json.loads(open(out).read())
    assert obj["schema"] == "commlab-instance-v1"
    assert len(obj["rectangles"]) == 5


def test_gen_parity_preset_and_verify_tightness(tmp_path, capsys):
    out = str(tmp_path / "parity.json")
    code, _, _ = run(capsys, "gen", "--out", out, "--preset", "parity-tightness", "--n", "1")
    assert code == 0
    report = str(tmp_path / "row.csv")
    code, _, _ = run(capsys, "verify", "main", "--instance", out, "--out", report)
    assert code == 0
    header, row = open(report).read().strip().split("\n")
    assert header == ",".join(REPORT_COLUMNS)
    values = dict(zip(REPORT_COLUMNS, row.split(",")))
    assert abs(float(values["margin_main"])) <= 1e-9
    assert values["rho_global"] == "2"


def test_verify_suite_exit_zero_and_determinism(tmp_path, capsys):
    out1 = str(tmp_path / "r1.csv")
    out2 = str(tmp_path / "r2.csv")
    args = ["verify", "main", "--seeds", "0..14", "--out"]
    code1, _, _ = run(capsys, *args, out1)
    code2, _, _ = run(capsys, *args, out2)
    assert code1 == 0 and code2 == 0
    assert strip_runtime(open(out1).read()) == strip_runtime(open(out2).read())


def test_verify_violation_exit_and_reproducer(tmp_path, capsys):
    # a zero tolerance turns the floating-point noise of the identity gaps
    # into "violations", exercising the reproducer path with real machinery
    out = str(tmp_path / "v.csv")
    code, stdout, _ = run(
        capsys, "verify", "tree", "--seeds", "0..4", "--tol", "0", "--out", out
    )
    assert code == 1
    assert "violations=" in stdout
    reproducers = [p for p in os.listdir(tmp_path) if p.startswith("reproducer-")]
    assert reproducers


def test_verify_instance_rejects_f_not_a_function_of_t(tmp_path, capsys):
    # box colours do not fix xor(2) on this random cover, so the file's F is
    # not a function of T and the suite's identity gaps do not apply
    out = str(tmp_path / "fn.json")
    code, _, _ = run(
        capsys, "gen", "--out", out, "--fn", "xor", "--n", "2", "--cover", "random-bounded",
        "--rho-max", "3", "--extra", "3", "--seed", "4", "--dist", "random",
    )
    assert code == 0
    code, _, err = run(capsys, "verify", "main", "--instance", out)
    assert code == 2
    assert "not a function of the transcript" in err and "Traceback" not in err


# sha256 of the runtime-stripped CSVs of `verify main|tree --seeds 0..199`;
# a refactor that changes any reported byte changes these
GOLDEN_CSV_SHA256 = {
    "main": "945907b5e9782738d9656096586751fe92ee4257c15256f4cbb68e3e33032d15",
    "tree": "93646bc76d77dd3d5406d1ace983212b000446c353273ad6388184c403e985f8",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_CSV_SHA256))
def test_verify_csv_golden_digest(suite, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code, _, _ = run(capsys, "verify", suite, "--seeds", "0..199", "--out", out)
    assert code == 0
    digest = hashlib.sha256(strip_runtime(open(out).read()).encode()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[suite]


def test_tree_suite_is_the_main_suite_at_cap_one(capsys):
    # the tree suite draws a main-suite instance at thickness cap 1 with no
    # extra boxes: the same cover, selector, function and distribution
    rows = []
    for argv in (["tree"], ["main", "--rho-max", "1", "--extra", "0"]):
        code, out, _ = run(capsys, "verify", *argv, "--seeds", "0..199", "--format", "csv")
        assert code == 0
        rows.append(strip_runtime(out))
    assert rows[0] == rows[1] and rows[0].count("\n") >= 200


# the same for `verify main --max-bits 8 --seeds 0..59`: grids up to 256x256,
# where entropy keys reach 2**16 and the radix sort takes its high pass, which
# the max_bits 4 runs above never reach
GOLDEN_LARGE_CSV_SHA256 = "b2217334350b7ea5a0eeb0cecc13ed0163b312996a5d37d37090dc73c63239cb"


def test_verify_large_grid_csv_golden_digest(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code, _, _ = run(capsys, "verify", "main", "--max-bits", "8", "--seeds", "0..59", "--out", out)
    assert code == 0
    digest = hashlib.sha256(strip_runtime(open(out).read()).encode()).hexdigest()
    assert digest == GOLDEN_LARGE_CSV_SHA256


# the same for the paths behind the multiparty checker and the expected rho mode
GOLDEN_OPTION_CSV_SHA256 = {
    "multiparty --arity 3 --seeds 0..99": (
        "da0a24387abf808ecf6f052b9e878c56f8cfa7061288400bca8cac999d9fcb4c"
    ),
    "main --rho-mode expected --seeds 0..199": (
        "3d1ad367a3136c32bd5608e92b302c69a74a9002cfebb84bbac5e623d0d8c51f"
    ),
}


@pytest.mark.parametrize("options", sorted(GOLDEN_OPTION_CSV_SHA256))
def test_verify_option_csv_golden_digest(options, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code, _, _ = run(capsys, "verify", *options.split(), "--out", out)
    assert code == 0
    digest = hashlib.sha256(strip_runtime(open(out).read()).encode()).hexdigest()
    assert digest == GOLDEN_OPTION_CSV_SHA256[options]


# sha256 of the instance files that `gen --cover` writes for the seeded covers
GOLDEN_GEN_SHA256 = {
    "random-tree --sizes 8x4 --seed 3 --dist random": (
        "d660d0e97d90422f491edd40c97e47f4f979aebc97d5143db04d194b5898c0e9"
    ),
    "random-bounded --sizes 8x8 --seed 5 --dist random --rho-max 3 --extra 4": (
        "ce6e5c2d3fe5d30c09e602cf328392805f6bea18dc5c0e47b8cd0c889869c4c7"
    ),
}


@pytest.mark.parametrize("options", sorted(GOLDEN_GEN_SHA256))
def test_gen_cover_file_golden_digest(options, tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    code, _, _ = run(capsys, "gen", "--out", out, "--cover", *options.split())
    assert code == 0
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == GOLDEN_GEN_SHA256[options]


@pytest.mark.parametrize(
    "options, colorless, row",
    [
        (
            "--seed 3 --rho-max 3 --extra 6 --selector-seed 9 --dist random",
            3,
            "c155b39f956b,,4x4,3,3,2.019035274338866,0.57014997290449276,0,2.1551124736256488,"
            "1.448885301434373,2.1551124736256488,,,,,,,ok",
        ),
        (
            "--seed 1 --rho-max 2 --extra 3 --selector-seed 4",
            1,
            "f631f6b84522,,4x4,2,2,1,0,0,1,1,1,,,,,,,ok",
        ),
    ],
)
def test_verify_relation_instance_with_colorless_boxes_golden_row(
    options, colorless, row, tmp_path, capsys
):
    # some selected boxes admit no common color, and the colorless label,
    # one past the largest box color, is below the relation's 4 colors; the
    # row, instance_id included, is the one these files have always given
    from commlab import box_color_labels, load_instance

    path = str(tmp_path / "rel.json")
    gen = "--relation approx-xor --n 2 --delta 0.5 --cover random-bounded --sizes 4x4"
    gen += " --selector seeded-random " + options
    assert run(capsys, "gen", "--out", path, *gen.split())[0] == 0
    bundle = load_instance(path)
    labels, got = box_color_labels(bundle.protocol, bundle.relation)
    assert got == colorless < bundle.relation.num_colors and (labels == colorless).any()
    out = str(tmp_path / "row.csv")
    assert run(capsys, "verify", "main", "--instance", path, "--out", out)[0] == 0
    assert strip_runtime(open(out).read()).split("\n")[1] == row


def test_verify_instance_with_a_named_approx_xor_relation_golden_row(tmp_path, capsys):
    # the first file above with its relation written as the named spec that
    # the instance loader builds through approx_xor_relation: the same row
    path = str(tmp_path / "rel.json")
    gen = "--relation approx-xor --n 2 --delta 0.5 --cover random-bounded --sizes 4x4"
    gen += " --selector seeded-random --seed 3 --rho-max 3 --extra 6 --selector-seed 9"
    assert run(capsys, "gen", "--out", path, *gen.split(), "--dist", "random")[0] == 0
    obj = json.loads(open(path).read())
    obj["relation"] = {"kind": "approx-xor", "n": 2, "delta": 0.5}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    out = str(tmp_path / "row.csv")
    assert run(capsys, "verify", "main", "--instance", path, "--out", out)[0] == 0
    assert strip_runtime(open(out).read()).split("\n")[1] == (
        "c155b39f956b,,4x4,3,3,2.019035274338866,0.57014997290449276,0,2.1551124736256488,"
        "1.448885301434373,2.1551124736256488,,,,,,,ok"
    )


@pytest.mark.parametrize(
    "bad",
    [
        ["verify", "main", "--seeds", "0..2", "--rho-max", "a,b"],
        ["verify", "main", "--seeds", "0..2", "--rho-max", ""],
        ["verify", "main", "--seeds", "0..2", "--max-bits", "0"],
        ["verify", "main", "--seeds", "0..2", "--tol", "nan"],
        # a nan budget would never expire: monotonic() >= nan is always False
        ["cover", "--fn", "eq", "--n", "2", "--timeout-s", "nan"],
        ["bounds", "--fn", "eq", "--n", "2", "--timeout-s", "nan"],
        # max-box would be the global mode under a second name, so it is not a mode
        ["verify", "main", "--seeds", "0..2", "--rho-mode", "max-box"],
        # nothing to run would pass with an empty report
        ["verify", "main", "--seeds", "5..3"],
        ["verify", "main"],
        # a negative tolerance would tag every row a violation
        ["verify", "main", "--seeds", "0..2", "--tol", "-1"],
        # 7 x 4 bits can draw 2**28 cells, past the 2**24 cap; 9 x 4 ran for minutes
        ["verify", "multiparty", "--arity", "7", "--seeds", "0..5"],
        ["verify", "multiparty", "--arity", "9", "--seeds", "0..2"],
        ["verify", "multiparty", "--max-bits", "12", "--seeds", "0"],  # the default arity, 3
        # main and tree are two-party suites
        ["verify", "main", "--arity", "3", "--seeds", "0..2"],
        ["verify", "tree", "--arity", "4", "--max-bits", "2", "--seeds", "0..2"],
        # generation options mean nothing for an instance file
        ["verify", "main", "--instance", "{inst}", "--max-bits", "12"],
        ["verify", "main", "--instance", "{inst}", "--arity", "2"],
        ["verify", "multiparty", "--instance", "{inst}", "--arity", "3"],
        ["verify", "main", "--instance", "{inst}", "--rho-max", "9"],
        ["verify", "tree", "--instance", "{inst}", "--extra", "7"],
        # the tree suite is the main suite at cap 1 with no extra boxes
        ["verify", "tree", "--seeds", "0..2", "--rho-max", "3", "--extra", "9"],
        ["verify", "tree", "--seeds", "0..2", "--extra", "0"],
    ],
)
def test_verify_bad_option_exits_two(bad, tmp_path, capsys, monkeypatch):
    # argparse exits 2 on a bad value, and main returns 2 on a bad
    # combination; either way before any seed or instance runs, with one
    # error line
    import commlab.verify

    inst = str(tmp_path / "inst.json")
    if "{inst}" in bad:
        gen = ["gen", "--out", inst, "--cover", "random-bounded", "--sizes", "4x4"]
        assert main([*gen, "--dist", "uniform"]) == 0
        assert main(["verify", bad[1], "--instance", inst]) == 0  # the file alone is valid
        capsys.readouterr()
    monkeypatch.setattr(commlab.verify, "_random_instance", lambda *a: pytest.fail("a seed ran"))
    monkeypatch.setattr(commlab.verify, "analyze_instance", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        sys.exit(main([arg.format(inst=inst) for arg in bad]))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "bad",
    [
        ["verify", "main", "--seeds", "-1"],
        ["verify", "main", "--arity", "-1", "--seeds", "0"],
        # 2**70; any --max-bits above log2(MAX_DIM_SIZE) = 12 can only draw past the cap
        ["verify", "main", "--max-bits", "1180591620717411303424", "--seeds", "0"],
        ["gen", "--out", "{out}", "--cover", "random-tree", "--sizes", "4x4", "--seed", "-1"],
        ["cover", "--fn", "random", "--sizes", "4x4", "--seed", "-1"],
        ["gen", "--out", "{out}", "--fn", "xor", "--n", "1", "--dist", "random", "--seed", "-2"],
        # 2**20000 has more digits than int-to-str conversion allows
        ["cover", "--fn", "eq", "--n", "20000"],
    ],
)
def test_bad_integer_exits_two(bad, tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=out) for arg in bad])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["cover", "bounds"])
def test_function_from_both_fn_and_instance_exits_two(command, tmp_path, capsys):
    # the instance is the 2x2 XOR; --fn eq --n 3 is 8x8, and neither may win silently
    inst = str(tmp_path / "xor2.json")
    assert main(["gen", "--out", inst, "--fn", "xor", "--n", "1"]) == 0
    assert main([command, "--instance", inst]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--fn", "eq", "--n", "3", "--instance", inst])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with" in err and "Traceback" not in err
    code, _, err = run(capsys, command, "--n", "3")
    assert code == 2
    assert err == "error: need --fn or --instance\n"


@pytest.mark.parametrize("command", ["gen", "cover", "bounds"])
def test_random_function_past_int64_colors_exits_two(command, tmp_path, capsys):
    out = ["--out", str(tmp_path / "inst.json")] if command == "gen" else []
    argv = [command, *out, "--fn", "random", "--sizes", "4x4", "--colors", str(10**20)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: need 1 <= colors <=") and err.count("\n") == 1


def test_verify_empty_seed_list(tmp_path, capsys):
    # an empty list runs nothing, so it is refused rather than reported clean
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--seeds", ""])
    assert exc.value.code == 2
    assert "need one or more seeds" in capsys.readouterr().err


def test_cover_exact_xor2(capsys):
    code, stdout, _ = run(capsys, "cover", "--exact", "--fn", "xor", "--n", "2")
    assert code == 0
    assert "cover_exact=16" in stdout
    row = stdout.strip().split("\n")[-1]
    values = dict(zip(REPORT_COLUMNS, row.split(",")))
    assert values["cover_exact"] == "16"


def test_cover_timeout_exit_three(capsys):
    code, stdout, _ = run(
        capsys, "cover", "--exact", "--fn", "eq", "--n", "2", "--timeout-s", "0"
    )
    assert code == 3
    assert "timeout" in stdout


@pytest.mark.parametrize("command", ["bounds", "cover"])
def test_catalog_timeout_reports_bounds(command, capsys):
    # EQ(4) has 2^16 - 2 maximal color-0 boxes: enumeration alone outlasts
    # the budget, and the command still exits 3 with bounds around 22
    code, stdout, _ = run(capsys, command, "--fn", "eq", "--n", "4", "--timeout-s", "0.3")
    assert code == 3
    line = next(l for l in stdout.split("\n") if l.startswith("timeout: bounds="))
    lower, upper = (int(v) for v in line.split("=[")[1].rstrip("]").split(", "))
    assert 18 <= lower <= 22 <= upper


@pytest.mark.parametrize("command", ["bounds", "cover"])
def test_partial_catalog_exits_three_with_bounds(command, capsys, monkeypatch):
    # a catalog past its cap (10**6 boxes, reached by random 100x100
    # functions) ends the command as a spent budget does; a cap of 3 boxes
    # stands in for it here
    import functools

    from commlab import bounds

    capped = functools.partial(bounds.enumerate_maximal_monochromatic, cap=3)
    monkeypatch.setattr(bounds, "enumerate_maximal_monochromatic", capped)
    code, stdout, err = run(capsys, command, "--fn", "eq", "--n", "2")
    assert code == 3 and err == ""
    # fooling sets 3 + 4 below, one strip per (row, color) above
    assert "timeout: bounds=[7, 8]" in stdout.split("\n")


def test_cover_and_bounds_agree_on_a_zero_budget(capsys):
    for command in ("cover", "bounds"):
        code, stdout, _ = run(capsys, command, "--fn", "eq", "--n", "4", "--timeout-s", "0")
        assert code == 3
        assert "timeout: bounds=[18, 32]" in stdout.split("\n")


@pytest.mark.parametrize(
    "fn",
    [
        ["--fn", "xor", "--n", "4"],
        ["--fn", "eq", "--n", "3"],
        ["--fn", "random", "--sizes", "10x10", "--colors", "2", "--seed", "1"],
    ],
)
def test_cover_reports_the_counts_of_bounds(fn, tmp_path, capsys):
    rows = {}
    commands = {"bounds": ["bounds"], "exact": ["cover"], "greedy": ["cover", "--greedy"]}
    for name, command in commands.items():
        out = str(tmp_path / f"{name}.csv")
        code, _, _ = run(capsys, *command, *fn, "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows[name] = next(csv.DictReader(fh))
    assert rows["exact"]["cover_exact"] == rows["bounds"]["cover_exact"] != ""
    assert rows["greedy"]["cover_exact"] == ""
    for name in ("exact", "greedy"):
        assert rows[name]["cover_greedy"] == rows["bounds"]["cover_greedy"] != ""


def test_cover_budget_includes_fooling_sets(capsys):
    # the fooling sets behind the timeout's lower bound come out of the budget
    code, stdout, _ = run(
        capsys, "cover", "--fn", "random", "--sizes", "100x100", "--colors", "2",
        "--seed", "1", "--timeout-s", "1",
    )
    assert code == 3
    row = next(l for l in stdout.split("\n") if l.startswith("fn-100x100"))
    # runtime_ms is the last column; the timeout status holds a comma itself
    assert REPORT_COLUMNS[-1] == "runtime_ms"
    assert float(row.rsplit(",", 1)[1]) <= 1500


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--seeds", "0..9"],
        ["verify", "multiparty", "--seeds", "0..3"],
        # a timeout status holds a comma: timeout:lower=...,upper=...
        ["cover", "--fn", "random", "--sizes", "100x100", "--colors", "2", "--seed", "1",
         "--timeout-s", "1"],
        ["bounds", "--fn", "eq", "--n", "2"],
        ["bounds", "--fn", "eq", "--n", "4", "--timeout-s", "0.3"],
    ],
)
def test_csv_rows_keep_every_column(argv, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    run(capsys, *argv, "--out", out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) > 1 and all(len(row) == len(REPORT_COLUMNS) for row in rows)


def test_bounds_loads_no_entropy_or_instance_modules():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        "from commlab.cli import main\n"
        "main(['bounds', '--fn', 'xor', '--n', '2'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('commlab')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.strip().splitlines()[-1]))
    assert "commlab.bounds" in loaded
    assert not loaded & {"commlab.verify", "commlab.info", "commlab.serialize"}


def test_bounds_eq2(capsys):
    code, stdout, _ = run(capsys, "bounds", "--fn", "eq", "--n", "2")
    assert code == 0
    assert "color_count=2" in stdout


def test_am_trivial_xor(capsys):
    code, stdout, _ = run(capsys, "am", "--fn", "xor", "--n", "2")
    assert code == 0
    assert "cost=4" in stdout
    assert "error=0" in stdout
    assert "estimated_lower_bound=4" in stdout


def test_am_instance_file(tmp_path, capsys):
    from commlab import save_am, trivial_merlin_am, xor_function
    from commlab.serialize import AMBundle

    f = xor_function(1)
    path = str(tmp_path / "am.json")
    save_am(AMBundle(am=trivial_merlin_am(f), function=f), path)
    code, stdout, _ = run(capsys, "am", "--instance", path)
    assert code == 0
    assert "cost=2" in stdout


def test_am_instance_file_with_a_relation_target(tmp_path, capsys):
    # on GOOD cells both parties' outputs agree and are admissible, and that
    # output is the F the restricted bound is evaluated on
    from commlab import approx_xor_relation, save_am, trivial_merlin_am
    from commlab.serialize import AMBundle

    rel = approx_xor_relation(2, 0.5)
    path = str(tmp_path / "am.json")
    save_am(AMBundle(am=trivial_merlin_am(rel), relation=rel), path)
    code, stdout, _ = run(capsys, "am", "--instance", path)
    assert code == 0
    assert stdout.split("\n")[0] == (
        "branches=1 r0=0 cost=4 error=0 "
        "estimated_lower_bound=1.6225562489182659 restricted_margin=0"
    )


def test_am_n_is_capped_in_the_parser():
    # the trivial Merlin protocol's output tables hold 2**n x 4**n entries
    # each, 8.6 GB apiece at n = 10; parsing alone builds none of them
    from commlab.cli import _build_parser

    parser = _build_parser()
    assert parser.parse_args(["am", "--fn", "xor", "--n", "8"]).n == 8
    for n in ("9", "10"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["am", "--fn", "eq", "--n", n])
        assert exc.value.code == 2


def test_invalid_input_exit_two(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{}")
    code, _, err = run(capsys, "verify", "main", "--instance", bad)
    assert code == 2
    assert "error" in err.lower()
    code, _, _ = run(capsys, "cover")
    assert code == 2
    # a NaN probability fails every comparison, so it needs its own check
    nan_dist = str(tmp_path / "nan.json")
    assert run(capsys, "gen", "--out", nan_dist, "--cover", "windmill", "--dist", "uniform")[0] == 0
    obj = json.loads(open(nan_dist).read())
    obj["distribution"]["p"][0] = float("nan")
    with open(nan_dist, "w") as fh:
        json.dump(obj, fh)
    code, _, err = run(capsys, "verify", "main", "--instance", nan_dist)
    assert code == 2
    assert "finite" in err


def test_uncovered_cell_of_a_large_instance_exits_two(tmp_path, capsys):
    # one 1x1 box on 4096x4096 leaves 2**24 - 1 cells uncovered; the first,
    # (0, 1), is named without a list of the rest being built
    path = str(tmp_path / "one-box.json")
    obj = {"schema": "commlab-instance-v1", "arity": 2, "sizes": [4096, 4096],
           "rectangles": [[[0], [0]]], "selector": {"kind": "min-index"}}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    code, _, err = run(capsys, "verify", "main", "--instance", path)
    assert code == 2
    assert err == f"error: {path}: cell (0, 1) is covered by no box\n"


@pytest.mark.parametrize(
    "options, refused",
    [
        ("--cover windmill --rho-max 9 --extra 7", "--rho-max"),
        ("--cover windmill --extra 7", "--extra"),
        ("--cover random-tree --sizes 4x4 --rho-max 1", "--rho-max"),
        ("--cover windmill --selector-seed 99 --delta 0.7", "--selector-seed"),
        ("--cover windmill --delta 0.7", "--delta"),
        ("--fn xor --n 2 --delta 0", "--delta"),
        ("--preset parity-tightness --extra 2", "--extra"),
        ("--cover windmill --seed 9 --colors 5 --arity 4", "--seed"),
        ("--fn constant --sizes 2x2 --seed 1", "--seed"),
        ("--cover windmill --colors 5", "--colors"),
        ("--fn xor --n 1 --colors 3", "--colors"),
        ("--cover windmill --arity 4", "--arity"),
        ("--fn xor --n 2 --arity 3", "--arity"),
        ("--fn random --sizes 3x3 --n 5", "--n"),
        ("--cover windmill --n 2", "--n"),
    ],
)
def test_gen_refuses_options_it_would_ignore(options, refused, tmp_path, capsys):
    # each option applies to one choice only, and with any other it would
    # leave the file unchanged
    out = str(tmp_path / "inst.json")
    code, _, err = run(capsys, "gen", "--out", out, *options.split())
    assert code == 2
    assert err.startswith(f"error: {refused} needs --") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "options, refused",
    [
        ("--n 1 --cover windmill --fn eq --dist uniform", "--fn"),
        ("--relation approx-xor", "--relation"),
        ("--cover windmill", "--cover"),
        ("--sizes 2x2", "--sizes"),
        ("--selector min-index", "--selector"),
        ("--dist uniform", "--dist"),
    ],
)
def test_gen_preset_refuses_target_cover_selector_and_distribution_options(
    options, refused, tmp_path, capsys
):
    out = str(tmp_path / "inst.json")
    argv = ["gen", "--out", out, "--preset", "parity-tightness", *options.split()]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: --preset parity-tightness takes no {refused}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "options, defaults",
    [
        ("--fn random --sizes 3x3", "--colors 2 --seed 0"),
        ("--fn matvec --arity 3", "--n 1"),
        ("--fn matvec", "--arity 3 --n 1"),
        ("--fn xor --cover random-bounded", "--n 1 --seed 0 --rho-max 2 --extra 2"),
        ("--relation approx-xor --selector seeded-random", "--n 1 --delta 0 --selector-seed 0"),
        ("--cover windmill --dist random", "--seed 0"),
        ("--preset parity-tightness", "--n 1"),
    ],
)
def test_gen_fills_in_defaults_where_options_apply(options, defaults, tmp_path, capsys):
    # an option that applies takes its default when not given
    texts = []
    for extra in ("", defaults):
        out = str(tmp_path / f"inst{len(texts)}.json")
        code, _, err = run(capsys, "gen", "--out", out, *options.split(), *extra.split())
        assert code == 0, err
        texts.append(open(out, "rb").read())
    assert texts[0] == texts[1]


def _run_to_exit(capsys, argv):
    """main's exit code, argparse's included, and what it wrote to stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TARGET_REFUSALS = [
    ("--fn xor --n 2 --colors 7", "error: --colors needs --fn random"),
    ("--fn eq --n 2 --seed 5", "error: --seed needs --fn random"),
    ("--fn xor --n 2 --sizes 3x3", "error: --sizes needs --fn constant|random"),
    ("--fn constant --sizes 3x3 --n 2", "error: --n needs --fn xor|eq"),
    ("--fn constant --sizes 2x2 --colors 3", "error: --colors needs --fn random"),
    ("--fn constant --sizes 2x2 --seed 1", "error: --seed needs --fn random"),
    ("--fn random --sizes 3x3 --n 7", "error: --n needs --fn xor|eq"),
    ("--instance {inst} --n 2", "error: --n needs --fn xor|eq"),
    ("--instance {inst} --sizes 2x2", "error: --sizes needs --fn constant|random"),
    ("--instance {inst} --colors 3", "error: --colors needs --fn random"),
    ("--instance {inst} --seed 1", "error: --seed needs --fn random"),
]


@pytest.mark.parametrize(
    "argv, refused",
    [
        ("am --instance {am} --fn eq --n 3", "not allowed with argument"),
        ("am --instance {am} --n 3", "error: --n needs --fn"),
    ]
    + [(f"{command} {options}", refused) for command in ("cover", "bounds")
       for options, refused in _TARGET_REFUSALS],
)
def test_commands_refuse_options_they_would_ignore(argv, refused, tmp_path, capsys, monkeypatch):
    # each option would leave the command's output unchanged; it is refused
    # with one error line before any file is loaded or function solved
    import commlab.serialize

    for loader in ("load_instance", "load_am"):
        monkeypatch.setattr(commlab.serialize, loader, lambda *a: pytest.fail("a file loaded"))
    argv = argv.format(inst=tmp_path / "inst.json", am=tmp_path / "am.json").split()
    code, out, err = _run_to_exit(capsys, argv)
    assert code == 2 and out == ""
    assert refused in err and sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, defaults",
    [
        ("cover --fn xor", "--n 1"),
        ("bounds --fn eq", "--n 1"),
        ("cover --fn random --sizes 3x3", "--colors 2 --seed 0"),
        ("bounds --fn random --sizes 3x3", "--colors 2 --seed 0"),
        ("am --fn xor", "--n 2"),
    ],
)
def test_commands_fill_in_defaults_where_options_apply(argv, defaults, capsys):
    outputs = []
    for extra in ("", defaults):
        code, out, err = run(capsys, *argv.split(), *extra.split())
        assert code == 0, err
        outputs.append(strip_runtime(out))
    assert outputs[0] == outputs[1]


def test_bounds_row_carries_an_internal_error(monkeypatch, capsys):
    # a solver result that breaks a relation between the bounds is reported
    # in the row's status and fails the run, ahead of a timeout
    import commlab.bounds as bounds

    monkeypatch.setattr(bounds, "solve_cover", lambda *args: (1, None, None, None))
    code, out, _ = run(capsys, "bounds", "--fn", "xor", "--n", "1")
    assert code == 1
    row = dict(zip(REPORT_COLUMNS, out.split("\n")[1].split(",")))
    assert row["status"] == "internal-error: color_count > cover_greedy"
    monkeypatch.setattr(bounds, "solve_cover", lambda *args: (None, None, None, (5, 3)))
    code, out, _ = run(capsys, "bounds", "--fn", "xor", "--n", "1")
    assert code == 1 and "timeout: bounds=[5, 3]" in out
    row = dict(zip(REPORT_COLUMNS, out.split("\n")[1].split(",")))
    assert row["status"] == "internal-error: cover lower bound > upper bound"


def test_gen_takes_delta_with_a_relation(tmp_path, capsys):
    out = str(tmp_path / "rel.json")
    # radius floor(0.5 * 2) = 1 around x ^ y = 0: the ids within one bit of 0
    code, _, _ = run(capsys, "gen", "--out", out, "--relation", "approx-xor", "--n", "2", "--delta", "0.5")
    assert code == 0
    assert json.loads(open(out).read())["relation"]["admissible"][0] == [0, 1, 2]


@pytest.mark.parametrize("command", ["bounds", "cover"])
def test_over_cap_grid_exits_two_before_bound_work(command, capsys, monkeypatch):
    # 300x300 is 90,000 cells: no fooling set may be searched on it
    from commlab import bounds

    def no_fooling_set(*args):
        raise AssertionError("fooling set searched past the enumeration cap")

    monkeypatch.setattr(bounds, "fooling_set", no_fooling_set)
    code, _, err = run(capsys, command, "--fn", "random", "--sizes", "300x300", "--colors", "2")
    assert code == 2
    assert "enumeration cap is 65536" in err


def test_emit_report_csv_json():
    rows = [
        ReportRow(instance_id="a", status="ok", margin_main=0.0),
        ReportRow(instance_id="b", status="ok", margin_main=1.0),
        ReportRow(instance_id="c", status="ok", margin_main=0.0),
    ]
    csv_text = emit_report(rows, None, "csv")
    lines = csv_text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == ",".join(REPORT_COLUMNS)
    # missing analyses are empty fields, never zeros
    assert ",,," in csv_text
    json_text = emit_report(rows, None, "json")
    assert len(json.loads(json_text)) == 3


def test_svg_histogram_two_nonzero_bins(tmp_path):
    svg = margin_histogram_svg([0.0, 1.0, 0.0])
    assert svg.count('class="bar"') == 2
    rows = [ReportRow(instance_id="x", status="ok", margin_main=m) for m in (0.0, 1.0, 0.0)]
    plot = str(tmp_path / "h.svg")
    emit_report(rows, str(tmp_path / "r.csv"), "csv", plot)
    assert open(plot).read().count('class="bar"') == 2


def test_svg_histogram_degenerate_single_value():
    svg = margin_histogram_svg([0.5, 0.5])
    assert svg.count('class="bar"') == 1
    assert margin_histogram_svg([]).count('class="bar"') == 0
