"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_run.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = [line.rsplit(" ", 1)[1] for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digests


def test_same_seed_gives_same_sweep_digest():
    for workload in ("verify-main", "verify-tree"):
        args = ("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
        first, first_digest = _result(_run(*args))
        second, second_digest = _result(_run(*args))
        assert len(first_digest) == 1 and first_digest == second_digest
        assert first["correct"] and first["failed"] == 0
        assert set(first) == {"correct", "attempted", "failed", "metrics"}
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        assert set(first["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_counts_repeat_exactly():
    args = ("--workload", "verify-tree", "--seed", "3", "--seconds", "0", "--trace", "1")
    first, _ = _result(_run(*args))
    second, _ = _result(_run(*args))
    for name in ("core.indicator_calls", "info.engines_per_instance", "info.entropy_calls",
                 "info.entropy_miss_ratio"):
        assert first["metrics"][name] == second["metrics"][name], name
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-main", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)



def test_host_speed_scale_is_reference_over_trimmed_mean_kernel_time():
    sys.path.insert(0, HERE)
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # a host at half the reference speed, with one kernel run held up and
    # one run fast; the trimmed mean drops both
    speed.took = [2 * REFERENCE_S] * 8 + [9 * REFERENCE_S, REFERENCE_S]
    assert speed.scale() == 0.5
    speed.due()  # the first call always probes
    assert len(speed.took) == 11 and speed.took[-1] > 0
    speed.due()  # a probe less than a period ago: no new one
    assert len(speed.took) == 11
