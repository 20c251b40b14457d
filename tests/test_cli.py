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
    # negative tolerance turns tight instances into "violations", exercising
    # the reproducer path with real machinery
    out = str(tmp_path / "v.csv")
    code, stdout, _ = run(
        capsys, "verify", "tree", "--seeds", "0..4", "--tol", "-0.5", "--out", out
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
    ],
)
def test_verify_bad_option_exits_two(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_verify_empty_seed_list(tmp_path, capsys):
    code, stdout, _ = run(capsys, "verify", "main", "--seeds", "")
    assert code == 0
    assert "rows=0" in stdout


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


@pytest.mark.parametrize("command", ["bounds", "cover"])
def test_over_cap_grid_exits_two_before_bound_work(command, capsys, monkeypatch):
    # 300x300 is 90,000 cells; its fooling graphs alone would take about 4 GB
    from commlab import bounds

    def no_fooling_graph(*args):
        raise AssertionError("fooling graph built past the enumeration cap")

    monkeypatch.setattr(bounds, "_fooling_graph", no_fooling_graph)
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
