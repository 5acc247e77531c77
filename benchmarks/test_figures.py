"""The per-figure benchmark suite: one parametrized test over the registry.

Each case regenerates one figure (or ablation) of the paper via
:mod:`repro.bench`, prints the reproduced table and asserts the paper's
qualitative claims.  ``pytest benchmarks/test_figures.py --benchmark-only``
runs them all (``-k fig12`` picks one); the printed tables are the
reproduction artifacts.

Some figures run with reduced parameters here so the whole suite stays in
the minutes range; run ``python -m repro.bench`` for the (larger) defaults
and see EXPERIMENTS.md for the paper-scale mapping.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.figures import ALL_FIGURES

CATALOG = {**ALL_FIGURES, **ALL_ABLATIONS}

#: reduced parameters per registry id (absent = the function's defaults)
REDUCED_KWARGS = {
    "fig02": {"nbodies": 600, "nprocs": 4},  # paper: P=4, 4,000 bodies
    "fig03": {"scale": 10, "nprocs": 8},  # paper: R-MAT 2^16/2^20, 32 nodes
    "fig07": {"z": 10_000},
    "fig12": {"nbodies": 1000, "nprocs": 8},
    "fig13": {"nbodies": 1000, "nprocs": 8},
    # paper: 1.5K bodies/PE, P=16..128
    "fig14": {"bodies_per_pe": 150, "procs": [2, 4, 8]},
}


@pytest.mark.parametrize("name", CATALOG)
def test_figure(benchmark, capsys, name):
    kwargs = REDUCED_KWARGS.get(name, {})
    fig = benchmark.pedantic(
        lambda: CATALOG[name](**kwargs), iterations=1, rounds=1
    )
    with capsys.disabled():
        print("\n" + fig.render() + "\n")
    failed = [claim for claim, ok in fig.claims if not ok]
    assert not failed, f"paper claims not reproduced: {failed}"
