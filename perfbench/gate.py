"""Correctness gate: check program outputs against the independent oracles
in tests/naive.py (imported read-only) and against plain numpy checks.

The oracles share no code with commlab: they project a {cell: probability}
dict, or enumerate every rectangle of a small grid, with plain loops. For
sweep rows the transcript of sampled cells is also read through
``select_transcript``, the package's per-cell path, and compared with the
table the entropy engine used.
"""

from __future__ import annotations

import numpy as np

from commlab.bounds import enumerate_maximal_monochromatic
from commlab.core import select_transcript, selector_labels
from commlab.verify import _random_instance

import naive

ORACLE_TOL = 1e-9
CELLS_CHECKED = 64


def oracle_row_values(protocol, dist) -> dict[str, float]:
    """H(T), I(X0:X1), I(X0:X1|T) and IC of a two-party instance, by oracle."""
    shape = protocol.shape
    t = selector_labels(protocol)
    p_by_cell = {}
    for lin, p in enumerate(dist.p.tolist()):
        if p > 0.0:
            p_by_cell[shape.cell_of_linear(lin) + (int(t[lin]),)] = p

    def x0(c):
        return c[0]

    def x1(c):
        return c[1]

    def tr(c):
        return c[2]

    return {
        "H_T": naive.naive_joint_entropy(p_by_cell, tr),
        "I_XY": naive.naive_mutual_information(p_by_cell, x0, x1),
        "I_XY_given_T": naive.naive_conditional_mi(p_by_cell, x0, x1, tr),
        "ic": naive.naive_conditional_mi(p_by_cell, x0, tr, x1)
        + naive.naive_conditional_mi(p_by_cell, x1, tr, x0),
    }


def check_row(config, row) -> list[str]:
    """Problems found when the oracles recompute one reported ok row."""
    protocol, _, dist = _random_instance(config, row.seed)
    problems = []
    for key, want in oracle_row_values(protocol, dist).items():
        got = getattr(row, key)
        if got is None or abs(got - want) > ORACLE_TOL:
            problems.append(f"seed {row.seed}: {key}={got!r}, oracle {want!r}")
    labels = selector_labels(protocol)
    n = protocol.shape.num_cells
    for lin in np.linspace(0, n - 1, min(n, CELLS_CHECKED)).astype(int).tolist():
        cell = protocol.shape.cell_of_linear(lin)
        if select_transcript(protocol, cell) != int(labels[lin]):
            problems.append(f"seed {row.seed}: selector table disagrees at {cell}")
            break
    return problems


def check_catalog(f) -> list[str]:
    """The maximal monochromatic boxes of f against brute-force enumeration."""
    catalog = enumerate_maximal_monochromatic(f)
    got = {
        color: sorted(b.factors() for b in boxes)
        for color, boxes in catalog.boxes_by_color.items()
    }
    want = naive.brute_maximal_monochromatic(f.colors.tolist())
    if catalog.partial or got != want:
        return [f"{f.shape.sizes} catalog differs from brute-force enumeration"]
    return []


def check_witness(f, summary) -> list[str]:
    """An exact cover's witness: as many boxes as claimed, each
    monochromatic, together covering every cell."""
    witness = summary.cover_witness or ()
    covered = np.zeros(f.shape.sizes, dtype=bool)
    problems = []
    if len(witness) != summary.cover_exact:
        problems.append(f"witness has {len(witness)} boxes, cover_exact {summary.cover_exact}")
    for b in witness:
        rows, cols = (list(ix) for ix in b.factors())
        if np.unique(f.colors[np.ix_(rows, cols)]).size != 1:
            problems.append(f"witness box {b.masks} is not monochromatic")
        covered[np.ix_(rows, cols)] = True
    if not covered.all():
        problems.append("witness leaves cells uncovered")
    return problems
