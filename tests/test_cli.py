"""CLI surface: command grammar, exit codes, report formats, determinism."""

import hashlib
import json
import os

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


@pytest.mark.parametrize(
    "bad", [["--rho-max", "a,b"], ["--rho-max", ""], ["--max-bits", "0"], ["--tol", "nan"]]
)
def test_verify_bad_option_exits_two(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "--seeds", "0..2", *bad])
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
