"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The expensive randomized sweeps (criteria 4, 5, 8) are shared module fixtures;
criteria 6 and 7 read their aggregate gap/margin statistics.
"""

import math
import time

import numpy as np
import pytest

from commlab import (
    DomainShape,
    JointDistribution,
    Protocol,
    SuiteConfig,
    TranscriptSelector,
    am_analyze,
    batch_experiment,
    binary_entropy,
    build_profile,
    check_main_inequality,
    check_multiparty,
    check_transcript_bound,
    cover_number,
    enumerate_maximal_monochromatic,
    parity_tightness_protocol,
    random_function,
    trivial_merlin_am,
    trivial_merlin_cover,
    xor_function,
)
from commlab.cli import main
from commlab.info import InfoEngine
from commlab.reports import REPORT_COLUMNS

from naive import brute_force_cover_number

TOL = 1e-9


def _report(num: int, desc: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[{verdict}] criterion {num}: {desc}")
            return False

    return _Ctx()


@pytest.fixture(scope="module")
def tree_batch():
    config = SuiteConfig(suite="tree", seeds=tuple(range(10_000)), max_bits=4)
    start = time.monotonic()
    result = batch_experiment(config)
    result.elapsed_s = time.monotonic() - start
    return result


@pytest.fixture(scope="module")
def bounded_batch():
    config = SuiteConfig(
        suite="main",
        seeds=tuple(range(10_200)),
        rho_max=(2, 4, 8),
        max_bits=4,
        rho_mode="global",
    )
    result = batch_experiment(config)
    return result


@pytest.fixture(scope="module")
def multiparty_batch():
    config = SuiteConfig(
        suite="multiparty", seeds=tuple(range(1_050)), arity=3, max_bits=3
    )
    return batch_experiment(config)


def test_criterion_01_xor_cover_numbers(tmp_path):
    with _report(1, "exact cover number is 4 for xor(1) and 16 for xor(2), each < 10 s"):
        for n, expected in ((1, 4), (2, 16)):
            out = str(tmp_path / f"cover{n}.csv")
            start = time.monotonic()
            code = main(["cover", "--exact", "--fn", "xor", "--n", str(n), "--out", out])
            elapsed = time.monotonic() - start
            assert code == 0
            header, row = open(out).read().strip().split("\n")
            values = dict(zip(REPORT_COLUMNS, row.split(",")))
            assert int(values["cover_exact"]) == expected
            assert elapsed < 10.0


def test_criterion_02_xor_singleton_structure():
    with _report(2, "maximal monochromatic boxes of xor(n), n <= 3, are all 1x1"):
        start = time.monotonic()
        for n in (1, 2, 3):
            catalog = enumerate_maximal_monochromatic(xor_function(n))
            assert not catalog.partial
            size = 1 << n
            for color in range(size):
                boxes = catalog.boxes_by_color[color]
                assert len(boxes) == size
                assert all([m.bit_count() for m in b.masks] == [1, 1] for b in boxes)
        assert time.monotonic() - start < 60.0


def test_criterion_03_main_inequality_tightness():
    with _report(3, "double-full-box parity instance: margin_main = 0, I(X:Y:T) = -1"):
        protocol = parity_tightness_protocol(1)
        profile = build_profile(JointDistribution.uniform(protocol.shape), protocol)
        assert abs(check_main_inequality(profile, rho_mode="global")) <= TOL
        assert abs(profile["I(X0:X1:T)"] + 1.0) <= TOL


def test_criterion_04_partition_nonnegativity(tree_batch):
    with _report(4, ">= 10,000 random tree partitions: margin >= -1e-9, < 5 min"):
        ok_rows = [r for r in tree_batch.rows if not r.status.startswith("generation")]
        assert len(ok_rows) >= 10_000
        assert tree_batch.violations == 0
        assert tree_batch.min_margin_main >= -TOL
        assert tree_batch.elapsed_s < 300.0


def test_criterion_05_bounded_thickness_suite(bounded_batch):
    with _report(5, ">= 10,000 bounded-thickness covers: global-rho margin >= -1e-9"):
        ok_rows = [r for r in bounded_batch.rows if not r.status.startswith("generation")]
        assert len(ok_rows) >= 10_000
        assert bounded_batch.violations == 0
        assert bounded_batch.min_margin_main >= -TOL


def test_criterion_06_exact_identities(tree_batch, bounded_batch, multiparty_batch):
    with _report(6, "chain rule, triple-information formulas, IC identity gaps <= 1e-9"):
        for batch in (tree_batch, bounded_batch, multiparty_batch):
            assert batch.max_chain_gap <= TOL
            assert batch.max_triple_gap <= TOL
        assert tree_batch.max_ic_gap <= TOL
        assert bounded_batch.max_ic_gap <= TOL


def test_criterion_07_transcript_bound_consistency(
    tree_batch, bounded_batch, multiparty_batch
):
    with _report(7, "transcript and with-f margins within 1e-9 of the bound; xor(1) tight"):
        # F is a function of T, so each equals the suite's bound
        for batch in (tree_batch, bounded_batch, multiparty_batch):
            assert batch.max_transcript_gap <= TOL
        f = xor_function(1)
        protocol = Protocol(trivial_merlin_cover(f.shape), TranscriptSelector.min_index())
        profile = build_profile(JointDistribution.uniform(f.shape), protocol, f.flat())
        assert abs(check_transcript_bound(profile)) <= TOL


def test_criterion_08_multiparty(multiparty_batch):
    with _report(8, "3-party singleton partition tight; 1,000 random margins >= -1e-9"):
        shape = DomainShape((2, 2, 2))
        protocol = Protocol(trivial_merlin_cover(shape), TranscriptSelector.min_index())
        profile = build_profile(JointDistribution.uniform(shape), protocol)
        assert abs(check_multiparty(profile, "transcript-only")) <= TOL
        ok_rows = [
            r for r in multiparty_batch.rows if not r.status.startswith("generation")
        ]
        assert len(ok_rows) >= 1_000
        assert multiparty_batch.violations == 0
        assert multiparty_batch.min_margin_main >= -TOL


def test_criterion_09_am_analysis():
    with _report(9, "AM on trivial-merlin xor(n), n in {2,3}: cost 2n, error 0, bound 2n"):
        for n in (2, 3):
            f = xor_function(n)
            report = am_analyze(trivial_merlin_am(f), f)
            assert report.cost == pytest.approx(2.0 * n, abs=TOL)
            assert report.overall_error == 0.0
            assert report.estimated_lower_bound == pytest.approx(2.0 * n, abs=TOL)
            assert report.cost >= report.estimated_lower_bound - TOL


def test_criterion_10_oracle_equivalence():
    with _report(10, "cover vs brute force (>=200 fns); entropy vs naive (>=1000); h values"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 200:
            shape = DomainShape(
                (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            )
            f = random_function(
                shape, int(rng.integers(2, 5)), seed=int(rng.integers(1 << 24))
            )
            catalog = enumerate_maximal_monochromatic(f)
            if catalog.num_boxes > 20:
                continue
            exact, _ = cover_number(f, "exact", catalog=catalog)
            boxes = [b.factors() for group in catalog.boxes_by_color.values() for b in group]
            assert exact == brute_force_cover_number(*f.shape.sizes, boxes)
            checked += 1

        for k in range(1_000):
            if k == 0:
                sizes = (256, 256)  # 2^16 outcomes
            elif k == 1:
                sizes = (1, 65536 >> 4)
            else:
                a = int(rng.integers(1, 6))
                b = int(rng.integers(1, 6))
                sizes = (1 << a, 1 << b)
            shape = DomainShape(sizes)
            dist = JointDistribution.random_integer_weights(shape, rng=rng)
            coords = dict(zip(("X0", "X1"), shape.coordinate_labels()))
            engine = InfoEngine(dist, coords)
            naive = -float(np.sum([p * math.log2(p) for p in dist.p if p > 0.0]))
            assert abs(engine.entropy(("X0", "X1")) - naive) <= TOL

        assert abs(binary_entropy(0.25) - 0.811278) <= 1e-4
        assert abs(binary_entropy(0.5) - 1.0) <= 1e-12


def test_criterion_11_determinism(tmp_path):
    with _report(11, "identical seeds give byte-identical CSV (runtime column excluded)"):
        idx = REPORT_COLUMNS.index("runtime_ms")

        def strip_runtime(path):
            lines = open(path).read().strip().split("\n")
            return "\n".join(",".join(ln.split(",")[:idx]) for ln in lines)

        for suite in ("main", "tree"):
            out1 = str(tmp_path / f"{suite}1.csv")
            out2 = str(tmp_path / f"{suite}2.csv")
            assert main(["verify", suite, "--seeds", "0..19", "--out", out1]) == 0
            assert main(["verify", suite, "--seeds", "0..19", "--out", out2]) == 0
            assert strip_runtime(out1) == strip_runtime(out2)
