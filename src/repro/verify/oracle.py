"""The oracle matrix: differential comparison of cell runs.

For one :class:`~repro.verify.workload.WorkloadSpec` the oracle runs

``impl ∈ {plain, block, cached:<every registered policy>[, buggy-stale]}``
``× faults ∈ {none, transient, crash}``
``× schedule ∈ {deterministic, random × seeds}``

and asserts, per cell family:

* **result transparency** — for no-fault and transient cells, every
  rank's digest equals the plain/deterministic/no-fault reference run
  (transient faults are retried underneath, so results must stay
  bit-identical; the block baseline is driven with explicit
  invalidations, so it must agree too);
* **schedule independence** — the ``random`` run of a cell must match
  its own ``deterministic`` run bit-for-bit: digests, *virtual clocks*,
  crashed set, and error disposition.  Crash cells are compared only
  here (a crash at virtual time *t* hits different program points in
  different implementations, so cross-impl digests are incomparable by
  design — each impl must still be self-consistent across schedules);
* **stats conservation** — every schema-v4 snapshot of a cached impl
  satisfies :func:`repro.core.stats.conservation_violations`;
* **event reconciliation** — global ``cache.evict`` / ``cache.admit``
  event counts equal the summed ``evictions`` (split by reason) and
  ``admission_rejects`` counters of the per-rank snapshots;
* **sanitizer cleanliness** — a report-mode
  :class:`~repro.analysis.Sanitizer` attached to the run found nothing
  (for fault-free cells; faulty cells keep their findings attached to
  the report but only fail the oracle when ``sanitize_faulty`` is on).

Any broken assertion becomes a :class:`Finding`; the shrinker minimises
the spec against a reduced matrix that replays just the failing family
(:func:`config_for_finding`).

Cells other than the reference run in forked workers, one per allowed
CPU (:func:`_run_cells`); checks and the virtual-time ledger stay in the
parent, in serial order (docs/performance.md, invariant 9).
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro.core.policy import available_policies
from repro.core.stats import conservation_violations
from repro.obs import get_bus, virtual_time
from repro.obs.events import CACHE_ADMIT, CACHE_EVICT
from repro.verify.runner import Cell, RunResult, is_cached_impl, run_cell
from repro.verify.workload import WorkloadSpec

#: the reference coordinate every comparable cell is measured against
REFERENCE_CELL = Cell("plain", "deterministic", 0, "none")


@dataclass(frozen=True)
class Finding:
    """One broken oracle assertion (the fuzzer's unit of failure)."""

    kind: str          #: run-error | result-mismatch | schedule-dependence |
                       #: stats-conservation | event-reconciliation | sanitizer
    cell: Cell
    message: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.cell.label}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "cell": self.cell.to_dict(),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Finding":
        return cls(d["kind"], Cell.from_dict(d["cell"]), d["message"])


@dataclass(frozen=True)
class MatrixConfig:
    """Which slice of the full oracle matrix to run."""

    policies: tuple[str, ...] | None = None   #: None = every registered policy
    include_plain: bool = True
    include_block: bool = True
    extra_impls: tuple[str, ...] = ()         #: e.g. ("buggy-stale",)
    fault_kinds: tuple[str, ...] = ("none", "transient", "crash")
    random_seeds: tuple[int, ...] = (1,)
    fault_seed: int = 1
    crash_frac: float = 0.45                  #: death time vs reference makespan
    sanitize_faulty: bool = False             #: gate sanitizer findings on
                                              #: transient/crash cells

    def impls(self) -> list[str]:
        out: list[str] = []
        if self.include_plain:
            out.append("plain")
        if self.include_block:
            out.append("block")
        pols = (
            self.policies if self.policies is not None
            else tuple(available_policies())
        )
        out.extend(f"cached:{p}" for p in pols)
        out.extend(self.extra_impls)
        return out


@dataclass
class MatrixReport:
    """Outcome of one spec × matrix evaluation."""

    spec: WorkloadSpec
    findings: list[Finding] = field(default_factory=list)
    cells_run: int = 0
    reference: RunResult | None = None
    _workers: int = field(default=1, repr=False, compare=False)

    @property
    def workers(self) -> int:
        """Processes that ran the non-reference cells (1 = in-process)."""
        return self._workers

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        if self.ok:
            return f"ok ({self.cells_run} cells)"
        lines = [f"{len(self.findings)} finding(s) over {self.cells_run} cells"]
        lines.extend("  " + f.describe() for f in self.findings)
        return "\n".join(lines)


def run_matrix(
    spec: WorkloadSpec, config: MatrixConfig = MatrixConfig()
) -> MatrixReport:
    """Evaluate every cell of ``config``'s matrix slice over ``spec``."""
    report = MatrixReport(spec=spec)
    reference = run_cell(spec, REFERENCE_CELL)
    report.reference = reference
    report.cells_run += 1
    if reference.error is not None:
        report.findings.append(
            Finding("run-error", REFERENCE_CELL,
                    f"reference run failed: {reference.error}")
        )
        return report
    report.findings.extend(
        _check_self(reference, REFERENCE_CELL, config)
    )
    crash_rank = spec.nprocs - 1
    crash_time = max(reference.makespan * config.crash_frac, 1e-9)

    families: list[tuple[Cell, list[Cell]]] = []
    cells: list[Cell] = []
    for impl in config.impls():
        for faults in config.fault_kinds:
            if faults == "crash" and impl == "block":
                # the baseline has no recovery story (docs/baselines.md);
                # crash transparency is CLaMPI's own claim, not the strawman's
                continue
            det_cell = Cell(
                impl,
                "deterministic",
                0,
                faults,
                fault_seed=config.fault_seed,
                crash_rank=crash_rank if faults == "crash" else None,
                crash_time=crash_time if faults == "crash" else None,
            )
            rnd_cells = [
                replace(det_cell, schedule="random", schedule_seed=seed)
                for seed in config.random_seeds
            ]
            families.append((det_cell, rnd_cells))
            if det_cell != REFERENCE_CELL:  # already run and self-checked
                cells.append(det_cell)
            cells.extend(rnd_cells)

    results, report._workers = _run_cells(spec, cells)
    report.cells_run += len(cells)
    ran = iter(results)
    for det_cell, rnd_cells in families:
        if det_cell == REFERENCE_CELL:
            det = reference
        else:
            det = next(ran)
            report.findings.extend(_check_self(det, det_cell, config))
        if (det.error is None and det_cell.faults != "crash"
                and det_cell.impl != "buggy-stale"):
            report.findings.extend(_compare_results(det, reference, det_cell))
        for rnd_cell in rnd_cells:
            report.findings.extend(_compare_schedules(det, next(ran), rnd_cell))
    return report


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------
def _run_cells(
    spec: WorkloadSpec, cells: list[Cell]
) -> tuple[list[RunResult], int]:
    """Run ``cells`` over ``spec``: results in cell order, and worker count.

    One forked worker per CPU of the caller's mask, or in-process when a
    pool cannot pay (< 2 CPUs, no more cells than CPUs, no ``fork``) or
    would change what is seen (an enabled bus must get every cell's
    events; live threads must not be forked).  The parent replays each
    world's makespan into the ledger in cell order: the serial float sum.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    serial = (len(cpus) < 2 or len(cells) <= len(cpus)
              or get_bus().enabled or threading.active_count() > 1)
    if not serial:
        # imported here: ~1.4 MiB of modules an in-process matrix never uses
        import multiprocessing

        serial = "fork" not in multiprocessing.get_all_start_methods()
    if serial:
        return [run_cell(spec, cell) for cell in cells], 1
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    with ctx.Pool(len(cpus), _pin_worker, (cpus, counter)) as pool:
        noted = pool.map(functools.partial(_run_noted, spec), cells, chunksize=1)
        pool.close()
        pool.join()
    for _, makespan in noted:
        if makespan is not None:
            virtual_time.note_run(makespan)
    return [result for result, _ in noted], len(cpus)


def _pin_worker(cpus: list[int], counter: Any) -> None:
    """Pool initializer: worker *k* runs on the *k*-th CPU of ``cpus``."""
    with counter.get_lock():
        k = counter.value
        counter.value += 1
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def _run_noted(spec: WorkloadSpec, cell: Cell) -> tuple[RunResult, float | None]:
    """Worker task: ``run_cell`` plus the makespan its world noted, if any."""
    runs = virtual_time.runs
    result = run_cell(spec, cell)
    return result, virtual_time.last if virtual_time.runs > runs else None


# ---------------------------------------------------------------------------
# per-cell checks
# ---------------------------------------------------------------------------
def _check_self(
    result: RunResult, cell: Cell, config: MatrixConfig
) -> list[Finding]:
    out: list[Finding] = []
    if result.error is not None:
        out.append(Finding("run-error", cell, result.error))
        return out
    if result.violations and (cell.faults == "none" or config.sanitize_faulty):
        kinds = sorted({v.get("kind", "?") for v in result.violations})
        out.append(
            Finding(
                "sanitizer",
                cell,
                f"{len(result.violations)} violation(s): {', '.join(kinds)}",
            )
        )
    if is_cached_impl(cell.impl):
        for r, snap in enumerate(result.stats):
            if snap is None:
                continue
            broken = conservation_violations(snap)
            if broken:
                out.append(
                    Finding(
                        "stats-conservation",
                        cell,
                        f"rank {r}: " + "; ".join(broken),
                    )
                )
        if cell.faults != "crash":
            # a crashed rank's evict/admit events reached the global bus
            # before it died, but its snapshot died with it — the tallies
            # are irreconcilable by construction in crash cells
            out.extend(_reconcile_events(result, cell))
    return out


def _reconcile_events(result: RunResult, cell: Cell) -> list[Finding]:
    """Global cache.evict/admit event counts vs summed snapshot counters."""
    snaps = [s for s in result.stats if s is not None]
    counters = {
        CACHE_EVICT: sum(int(s.get("evictions", 0)) for s in snaps),
        f"{CACHE_EVICT}.capacity": sum(
            int(s.get("capacity_evictions", 0)) for s in snaps
        ),
        f"{CACHE_EVICT}.conflict": sum(
            int(s.get("conflict_evictions", 0)) for s in snaps
        ),
        CACHE_ADMIT: sum(int(s.get("admission_rejects", 0)) for s in snaps),
    }
    out: list[Finding] = []
    for key, expect in counters.items():
        seen = result.event_counts.get(key, 0)
        if seen != expect:
            out.append(
                Finding(
                    "event-reconciliation",
                    cell,
                    f"{key}: {seen} events vs {expect} in stats snapshots",
                )
            )
    return out


def _compare_results(
    det: RunResult, reference: RunResult, cell: Cell
) -> list[Finding]:
    out: list[Finding] = []
    for r, (got, want) in enumerate(zip(det.digests, reference.digests)):
        if got != want:
            out.append(
                Finding(
                    "result-mismatch",
                    cell,
                    f"rank {r} digest {got} != reference {want}",
                )
            )
    return out


def _compare_schedules(
    det: RunResult, rnd: RunResult, cell: Cell
) -> list[Finding]:
    out: list[Finding] = []
    if (det.error is None) != (rnd.error is None):
        out.append(
            Finding(
                "schedule-dependence",
                cell,
                f"error disposition differs: {det.error!r} vs {rnd.error!r}",
            )
        )
        return out
    if det.error is not None:
        return out  # both failed; run-error was already reported for det
    if rnd.error is not None:
        out.append(Finding("run-error", cell, rnd.error))
        return out
    if det.crashed != rnd.crashed:
        out.append(
            Finding(
                "schedule-dependence",
                cell,
                f"crashed set differs: {sorted(det.crashed)} vs "
                f"{sorted(rnd.crashed)}",
            )
        )
    for r, (a, b) in enumerate(zip(det.digests, rnd.digests)):
        if a != b:
            out.append(
                Finding(
                    "schedule-dependence",
                    cell,
                    f"rank {r} digest differs across schedules",
                )
            )
    if det.clocks != rnd.clocks:
        out.append(
            Finding(
                "schedule-dependence",
                cell,
                f"virtual clocks differ: {det.clocks} vs {rnd.clocks}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# reduced matrices (shrinker + repro replay)
# ---------------------------------------------------------------------------
def config_for_finding(
    finding: Finding, base: MatrixConfig = MatrixConfig()
) -> MatrixConfig:
    """The smallest matrix slice that can reproduce ``finding``."""
    cell = finding.cell
    policies: tuple[str, ...] = ()
    include_plain = cell.impl == "plain"
    include_block = cell.impl == "block"
    extra: tuple[str, ...] = ()
    if cell.impl.startswith("cached:"):
        policies = (cell.impl.split(":", 1)[1],)
    elif cell.impl not in ("plain", "block"):
        extra = (cell.impl,)
    return replace(
        base,
        policies=policies,
        include_plain=include_plain or not (policies or extra or include_block),
        include_block=include_block,
        extra_impls=extra,
        fault_kinds=(cell.faults,),
        random_seeds=(cell.schedule_seed,) if cell.schedule == "random"
        else base.random_seeds[:1],
    )


def matches_finding(findings: Iterable[Finding], finding: Finding) -> bool:
    """Does any of ``findings`` reproduce ``finding``'s failure family?

    Matching is deliberately loose — same kind, same impl, same fault
    kind — so the shrinker keeps candidates that move the failure to a
    sibling cell (e.g. a different random seed) instead of discarding
    them.
    """
    return any(
        f.kind == finding.kind
        and f.cell.impl == finding.cell.impl
        and f.cell.faults == finding.cell.faults
        for f in findings
    )
