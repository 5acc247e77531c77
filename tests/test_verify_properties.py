"""Property tests: every registered policy on fuzzed workloads.

Two sweeps share the same fuzzed workload corpus:

* **transparent sweep** — each policy runs 50 short workloads in
  TRANSPARENT mode and every rank's schema-v4 snapshot must satisfy
  :func:`repro.core.stats.conservation_violations`, with the global
  ``cache.evict`` / ``cache.admit`` event stream reconciling exactly
  against the summed snapshot counters;
* **pressure sweep** — the same workloads stripped to their read-only
  ops run in USER_DEFINED mode (``cached-ud:``), where entries survive
  epoch closure, against a three-entry index.  That actually exercises
  the eviction/admission machinery (TRANSPARENT-mode entries die at
  every completion point, so capacity evictions cannot fire there), and
  the same two ledger properties must keep holding under churn.

The workloads are shared across policies (module-scoped fixtures), so a
policy that diverges fails against the exact same programs the others
passed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policy import available_policies
from repro.core.stats import conservation_violations
from repro.obs.events import CACHE_ADMIT, CACHE_EVICT
from repro.verify.oracle import _reconcile_events
from repro.verify.runner import Cell, _init_pattern, _payload, run_cell
from repro.verify.workload import Phase, WorkloadSpec, generate, validate

N_WORKLOADS = 50
POLICIES = sorted(available_policies())


def _read_only(spec: WorkloadSpec) -> WorkloadSpec:
    """Drop every write op; reads and flushes keep their order."""
    phases = []
    for phase in spec.phases:
        ops = tuple(
            tuple(op for op in rank_ops if op.kind not in ("put", "accumulate"))
            for rank_ops in phase.ops
        )
        if any(ops):
            phases.append(Phase(phase.epoch, ops, phase.lock_targets))
    return replace(spec, phases=tuple(phases))


def _check_ledgers(result, cell, spec) -> None:
    assert result.error is None, f"seed {spec.seed}: {result.error}"
    assert result.violations == [], f"seed {spec.seed}: {result.violations}"
    for r, snap in enumerate(result.stats):
        assert snap is not None, f"seed {spec.seed} rank {r}"
        broken = conservation_violations(snap)
        assert not broken, f"seed {spec.seed} rank {r}: {broken}"
    findings = _reconcile_events(result, cell)
    assert not findings, (
        f"seed {spec.seed}: " + "; ".join(f.describe() for f in findings)
    )


@pytest.fixture(scope="module")
def workloads():
    """50 short valid fuzzed workloads."""
    specs = []
    for seed in range(N_WORKLOADS):
        spec = generate(
            seed, nprocs=3, n_phases=2, ops_per_rank=(6, 12), stale_probe=False
        )
        assert validate(spec) == []
        specs.append(spec)
    return specs


@pytest.fixture(scope="module")
def pressured_workloads(workloads):
    """The same workloads, read-only, squeezed into a 3-entry index."""
    specs = []
    for spec in workloads:
        squeezed = replace(
            _read_only(spec), index_entries=3, storage_bytes=1 << 16
        )
        assert validate(squeezed) == []
        specs.append(squeezed)
    return specs


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_conserves_stats_transparent(policy, workloads):
    for spec in workloads:
        cell = Cell(f"cached:{policy}", "deterministic", 0, "none")
        _check_ledgers(run_cell(spec, cell), cell, spec)


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_ledgers_hold_under_eviction_pressure(
    policy, pressured_workloads
):
    pressured = 0
    for spec in pressured_workloads:
        cell = Cell(f"cached-ud:{policy}", "deterministic", 0, "none")
        result = run_cell(spec, cell)
        _check_ledgers(result, cell, spec)
        evict = result.event_counts.get(CACHE_EVICT, 0)
        admit = result.event_counts.get(CACHE_ADMIT, 0)
        if evict or admit:
            pressured += 1
    # the tiny index must actually create churn somewhere, or the
    # reconciliation above trivially compared zeros the whole way
    assert pressured > 0, f"policy {policy} never evicted or rejected"


def test_every_generated_sum_accumulate_is_observable():
    """A dropped or doubled accumulate must change what the oracle compares.

    Window bytes decode to huge or non-finite doubles about half of the
    time, where ``x + 5.0`` is bit-identical to ``x``; generated
    accumulates therefore use integer dtypes only, whose sums wrap and so
    change the bytes for *any* target content and any non-zero addend.
    """
    seen = 0
    for seed in range(120):
        spec = generate(seed)
        for pi, phase in enumerate(spec.phases):
            for rank, ops in enumerate(phase.ops):
                for oi, op in enumerate(ops):
                    if op.kind != "accumulate" or op.acc_op != "sum":
                        continue
                    payload = _payload(spec, pi, rank, oi, op)
                    if not payload.any():
                        continue
                    seen += 1
                    where = f"seed {seed} phase {pi} rank {rank} op {oi}"
                    assert np.issubdtype(payload.dtype, np.integer), where
                    disp = op.slot * spec.slot_bytes
                    before = _init_pattern(spec, op.target)[
                        disp : disp + op.nbytes
                    ].view(payload.dtype)
                    after = before + payload
                    assert after.tobytes() != before.tobytes(), where
    assert seen >= 100  # the grammar really does generate sum accumulates
