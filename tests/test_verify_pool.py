"""The oracle matrix fans its cells out over the caller's CPUs.

:func:`repro.verify.run_matrix` runs every non-reference cell in a forked
worker, one per CPU of the caller's affinity mask, and keeps the checks and
the virtual-time ledger in the parent.  There is no switch: narrowing this
test's own affinity to one CPU is what forces the in-process path the
pooled reports are compared against.
"""

import multiprocessing
import os

import pytest

from repro import obs
from repro.core import policy as pol
from repro.verify import MatrixConfig, generate, run_matrix

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork, os.sched_setaffinity and at least 2 CPUs",
)


@pytest.fixture(scope="module")
def spec():
    # the benchmark's fuzz shape; its default matrix has crash cells and
    # its stale probe makes the buggy-stale impl fail
    return generate(1, nprocs=4, n_phases=3, ops_per_rank=(6, 6))


@pytest.fixture
def allowed():
    """The test thread's mask, put back whatever the test does to it."""
    mask = os.sched_getaffinity(0)
    yield mask
    os.sched_setaffinity(0, mask)


@pytest.fixture
def ledger(monkeypatch):
    """The global virtual-time ledger, restored after the test."""
    for name in ("total", "last", "runs"):
        monkeypatch.setattr(obs.virtual_time, name, getattr(obs.virtual_time, name))
    return obs.virtual_time


def on_one_cpu(allowed, fn):
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, allowed)


def from_zero(ledger, spec, config):
    """``run_matrix`` on a zeroed ledger: the report and the ledger after."""
    ledger.total, ledger.last, ledger.runs = 0.0, 0.0, 0
    report = run_matrix(spec, config)
    return report, (ledger.total, ledger.last, ledger.runs)


@pytest.mark.parametrize(
    "config",
    [MatrixConfig(), MatrixConfig(extra_impls=("buggy-stale",))],
    ids=["default", "buggy-stale"],
)
def test_pooled_report_and_ledger_equal_the_serial_ones(spec, config, allowed, ledger):
    pooled, pooled_ledger = from_zero(ledger, spec, config)
    serial, serial_ledger = on_one_cpu(allowed, lambda: from_zero(ledger, spec, config))
    assert pooled.workers == len(allowed)
    assert serial.workers == 1
    assert pooled.findings == serial.findings
    assert pooled.cells_run == serial.cells_run
    assert repr(pooled.reference) == repr(serial.reference)
    assert pooled_ledger == serial_ledger
    assert serial_ledger[2] == serial.cells_run  # every cell noted once
    assert pooled == serial  # ``workers`` is not part of equality
    if config.extra_impls:
        assert pooled.findings


def test_an_enabled_bus_keeps_the_matrix_in_process(spec, allowed):
    def count_gets():
        gets = []
        with obs.capture(obs.CallbackSink(gets.append, kinds=(obs.RMA_GET,))):
            report = run_matrix(spec)
        return report, len(gets)

    captured, n = count_gets()
    serial, n_serial = on_one_cpu(allowed, count_gets)
    assert captured.workers == serial.workers == 1
    assert n == n_serial > 0


def test_no_more_cells_than_cpus_stays_in_process(spec):
    one_cell = MatrixConfig(policies=(), include_block=False, fault_kinds=("none",))
    report = run_matrix(spec, one_cell)
    assert report.cells_run == 2
    assert report.workers == 1


def test_the_callers_mask_is_kept_and_no_worker_survives(spec, allowed):
    assert run_matrix(spec).workers > 1
    assert os.sched_getaffinity(0) == allowed
    assert multiprocessing.active_children() == []


def test_the_fuzz_summary_says_how_many_workers_ran(tmp_path, capsys, allowed):
    from repro.verify.__main__ import main

    assert main(["fuzz", "--cases", "1", "--out", str(tmp_path / "repro.json")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f", {len(allowed)} workers)")


def test_a_policy_registered_at_run_time_reaches_the_workers(spec):
    name = "test-pool-lru"
    # a lambda cannot be pickled: the workers see it only through fork
    pol.register(name, lambda seed=0: pol.LRUPolicy(seed), replace=True)
    try:
        report = run_matrix(spec, MatrixConfig(policies=(name,)))
    finally:
        del pol._REGISTRY[name]
    assert report.workers > 1
    assert report.ok, report.describe()
