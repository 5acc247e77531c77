"""Virtual-time golden: "did the science move?" as a tier-1 gate.

Every figure this repo reproduces is a function of the *virtual* clock
and the access counters, so a change that is not meant to move simulated
results (a host-time optimisation, a refactor, a deletion) must leave
them bit-identical.  This file pins a small, fast cross-section of runs
in ``tests/fixtures/virtual_time_golden.json``:

* plain-get latency across the Fig. 1 distance classes;
* LCC at reduced scale — uncached and traced, under a too-small fixed
  cache (capacity *and* conflict evictions), and under the five Fig. 15
  configurations (fixed and adaptive);
* the serial vs ``get_batch`` LCC pair;
* the default policy on the three tight-cache workloads of ablation A6.

Floats are compared as ``repr()`` strings — no tolerance — and every value
belongs to one run (its rank times, its makespan, its merged counters),
never a difference of the process-global ``obs.virtual_time`` ledger, so
the result does not depend on what ran earlier in the process.

Regenerate with::

    PYTHONPATH=src:tests python -c \
        "import test_virtual_time_golden as t; t.write_golden()"

but ONLY when a change is meant to move simulated results (a cost-model
constant, a policy's score, an app's access pattern) — and say so in
CHANGES.md.  Anything else that makes this file fail is a bug.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.bench.figures import DISTANCE_CLASSES, fig15_configs, plain_get_latency
from repro.bench.policies import policy_workloads
from repro.core.policy import DEFAULT_POLICY

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "virtual_time_golden.json"


def _pin(run) -> dict:
    """One LCC run: per-rank phase times (``elapsed`` is their max), the
    absolute makespan and the merged counters ({} when uncached)."""
    return {
        "rank_times": [repr(t) for t in run.rank_times],
        "makespan": repr(run.makespan),
        "stats": run.merged_stats(),
    }


def _latency() -> dict:
    return {
        name: {str(n): repr(plain_get_latency(topo, n)) for n in (8, 4096, 65536)}
        for name, topo in DISTANCE_CLASSES
    }


def _lcc() -> dict:
    app = LCCApp(scale=8, edge_factor=16, seed=5)
    plain = app.run(4, CacheSpec.fompi(), trace=True)
    out = {
        "plain traced": {
            **_pin(plain),
            "trace_records": sum(len(t.records) for t in plain.traces),
        },
        # index and storage both too small: every miss type occurs
        "fixed too small": _pin(
            app.run(4, CacheSpec.clampi_fixed(32, app.csr.nedges * 8 // 4))
        ),
    }
    for label, spec in fig15_configs(app):
        out[label] = _pin(app.run(4, spec))
    return out


def _lcc_pair() -> dict:
    app = LCCApp(scale=9, edge_factor=8, seed=5)
    spec = CacheSpec.clampi_fixed(2 * app.nvertices, app.csr.nedges * 8)
    return {
        "serial": _pin(app.run(8, spec)),
        "batched": _pin(app.run(8, spec, batch=True)),
    }


def _default_policy() -> dict:
    out = {}
    for workload, run in policy_workloads(nbodies=96, lcc_scale=6).items():
        stats, makespan = run(DEFAULT_POLICY)
        out[workload] = {"makespan": repr(makespan), "stats": stats}
    return out


SECTIONS = {
    "plain_get_latency": _latency,
    "lcc": _lcc,
    "lcc_pair": _lcc_pair,
    "default_policy": _default_policy,
}


def write_golden() -> None:
    """Regenerate the committed golden (intended result changes only!)."""
    golden = {name: measure() for name, measure in SECTIONS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("section", SECTIONS)
def test_bit_identical_to_golden(section, golden):
    assert SECTIONS[section]() == golden[section]


def test_golden_covers_the_paths_it_claims(golden):
    """Asserted on the pinned values, so re-scaling a run above cannot
    silently lose an eviction kind, the controller, batching or tracing."""
    lcc = golden["lcc"]
    small = lcc["fixed too small"]["stats"]
    assert small["capacity_evictions"] > 0
    assert small["conflict_evictions"] > 0
    for access in ("hit_full", "direct", "conflicting", "capacity", "failing"):
        assert small[access] > 0, access
    assert len(lcc) == 2 + 5  # plain, too small, the five Fig. 15 configs
    assert any(
        run["stats"].get("adjustments", 0) >= 1
        for label, run in lcc.items()
        if label.startswith("adaptive")
    )
    assert lcc["plain traced"]["trace_records"] > 0
    assert lcc["plain traced"]["stats"] == {}
    serial, batched = golden["lcc_pair"]["serial"], golden["lcc_pair"]["batched"]
    assert batched["stats"]["gets"] == serial["stats"]["gets"]
    assert float(batched["makespan"]) < float(serial["makespan"])
    assert set(golden["default_policy"]) == {"fig02-reuse", "lcc", "bh"}
    # the replay pins a raw (unmerged) snapshot, which names its policy
    assert golden["default_policy"]["fig02-reuse"]["stats"]["policy"] == DEFAULT_POLICY
