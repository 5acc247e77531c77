"""Faulted-path obs-parity goldens (ISSUE 13 satellite).

``test_obs_parity.py`` pins the fault-free event stream; this file pins
the resilience path — retry/backoff, data and sync fault injection,
jitter stalls, dead-target fail-fast, cache crash recovery — the same way:
LCC runs under seeded fault plans, and the canonicalised event stream,
per-rank phase times, makespan and stats snapshots must match
``tests/fixtures/obs_parity_faulted_golden.json`` byte for byte.  The
golden was captured from the pre-rewrite interceptor onion, so the
straight-line handlers of :mod:`repro.mpi.ops` are held to the
onion's exact statement order.

Regenerate (event-schema changes only!) with::

    PYTHONPATH=src:tests python -c \
        "import test_obs_parity_faulted as t; t.write_golden()"
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from test_obs_parity import _canon_stats, _stream_summary

from repro import obs
from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.util import KiB

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "obs_parity_faulted_golden.json"

NPROCS = 4
RETRY = RetryPolicy(max_attempts=8)


def _app() -> LCCApp:
    return LCCApp(scale=7, edge_factor=8, seed=3)


def _run_transient():
    """5 % of all gets fail transiently and are retried."""
    spec = CacheSpec.clampi_fixed(256, 256 * KiB)
    plan = FaultPlan.transient_gets(0.05, seed=20260806)
    return _app().run(NPROCS, spec, faults=plan, retry=RETRY)


def _run_mixed():
    """Lost gets, flush timeouts and jitter that can exceed the op timeout."""
    spec = CacheSpec.clampi_fixed(256, 256 * KiB)
    plan = FaultPlan.of(
        FaultRule("get", probability=0.03),
        FaultRule("flush", probability=0.02),
        FaultRule("jitter", probability=0.10, stall=2e-6, stall_factor=0.5),
        seed=20260806,
    )
    return _app().run(NPROCS, spec, faults=plan, retry=RETRY.with_timeout(4e-6))


def _run_crash(spec: CacheSpec):
    """Rank 2 dies mid-traversal; the survivors finish without it."""
    clean = _app().run(NPROCS, spec)
    t_crash = (clean.makespan - clean.elapsed) + 0.45 * clean.elapsed
    plan = FaultPlan.of(
        FaultRule("crash", ranks=(2,), t_start=t_crash), seed=20260806
    )
    return _app().run(NPROCS, spec, faults=plan)


SCENARIOS = {
    "transient": _run_transient,
    "mixed": _run_mixed,
    # cached window: dead-target gets are served from pinned entries or
    # refused by the cache's crash check
    "crash": lambda: _run_crash(
        CacheSpec.clampi_fixed(256, 256 * KiB, recovery="serve-stale")
    ),
    # plain window: dead-target gets hit the rma layer's fail-fast check
    "crash_plain": lambda: _run_crash(CacheSpec.fompi()),
}


def run_scenario(name: str) -> dict:
    buf = io.StringIO()
    with obs.capture(obs.JSONLSink(buf)):
        run = SCENARIOS[name]()
    lcc = np.ascontiguousarray(run.lcc)
    return {
        "result_sha256": hashlib.sha256(lcc.tobytes()).hexdigest(),
        "rank_times": [repr(t) for t in run.rank_times],
        "makespan": repr(run.makespan),
        "stats": _canon_stats(run),
        "stream": _stream_summary(buf.getvalue().splitlines()),
    }


def write_golden() -> None:
    golden = {name: run_scenario(name) for name in SCENARIOS}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_faulted_run_matches_pre_rewrite_golden(name, golden):
    snap = run_scenario(name)
    want = golden[name]
    # Guard the fixture itself: each scenario must exercise its fault path.
    kinds = snap["stream"]["kinds"]
    if name.startswith("crash"):
        assert len(snap["rank_times"]) == NPROCS - 1
        assert kinds.get("rank.crashed", 0) == 1
    else:
        assert kinds.get("fault.injected", 0) > 0
        assert kinds.get("fault.retry", 0) > 0
    for key in ("result_sha256", "rank_times", "makespan", "stats", "stream"):
        assert snap[key] == want[key], key
