"""Every get-stream producer against a capture of a plain run.

The apps and the micro-benchmark compute their get streams from the
problem, without running a world.  Each must equal, per rank and element
by element, what :func:`repro.trace.stream.capture` records from the
``rma.get`` / ``rma.get_batch`` events of the same program run on plain
windows.
"""

from __future__ import annotations

import pytest

from repro.apps import BarnesHutApp, LCCApp
from repro.apps.cachespec import CacheSpec
from repro.bench import make_micro_workload, run_micro
from repro.trace import capture


def captured(nprocs, run):
    with capture(nprocs) as streams:
        run()
    assert sum(map(len, streams)) > 0
    return streams


@pytest.mark.parametrize(
    "scale, nprocs, batch",
    [(8, 4, False), (9, 8, False), (8, 4, True)],
    ids=["scale8-p4", "scale9-p8", "scale8-p4-batch"],
)
def test_lcc_stream_is_the_plain_run(scale, nprocs, batch):
    app = LCCApp(scale=scale, edge_factor=16, seed=5)
    assert app.stream(nprocs) == captured(nprocs, lambda: app.run(nprocs, batch=batch))


@pytest.mark.parametrize("nbodies", [96, 400])
@pytest.mark.parametrize("theta", [0.5, 0.8])
def test_bh_stream_is_the_plain_run(nbodies, theta):
    app = BarnesHutApp(nbodies=nbodies, seed=11, theta=theta)
    assert app.stream(4) == captured(4, lambda: app.run(4))


def test_micro_stream_is_the_plain_run():
    wl = make_micro_workload(n_distinct=100, z=800, seed=3)
    assert wl.stream() == captured(2, lambda: run_micro(wl, CacheSpec.fompi()))
