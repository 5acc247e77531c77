"""Self-tests of the benchmark harness (``pytest benchmarks/perf``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): they test the
measuring instrument, not the library.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import ladder  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=170)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_contract_file_is_valid():
    doc = summary.contract()
    assert summary.validate_contract(doc) == []
    assert len(json.dumps(doc)) < 64 * 1024
    assert doc["command"][-1] == "benchmarks/perf/run.py" and doc["paths"] == ["benchmarks/perf"]
    # run-time budget of the driver: 4 + 22 x workloads runs within 3420 s
    assert (4 + 22 * len(doc["workloads"])) * 25 <= 3420


@pytest.mark.parametrize("damage, message", [
    (lambda d: d["end_to_end"][0].update(bound=0.3), "bad end_to_end entry"),
    (lambda d: d["per_layer"][0].update(name="has space"), "bad name"),
    (lambda d: d["per_layer"].append(dict(d["per_layer"][0])), "used twice"),
    (lambda d: d["end_to_end"].pop(3), "setup_s"),
    (lambda d: d.update(extra=1), "keys"),
    (lambda d: d["workloads"][0].update(why="x" * 201), "bad workload entry"),
])
def test_contract_validation_rejects(damage, message):
    doc = copy.deepcopy(summary.contract())
    damage(doc)
    assert any(message in e for e in summary.validate_contract(doc))


def test_every_contract_workload_can_be_built():
    for w in summary.contract()["workloads"]:
        assert workloads.make(w["name"], seed=1, quick=True).name == w["name"]


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_quick_run_reports_every_metric_and_no_failure():
    t0 = time.perf_counter()
    proc = run("--quick", "--seed", "4")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert time.perf_counter() - t0 < 30
    doc = json.loads((HERE / "results" / "summary.json").read_text())
    contract = summary.contract()
    names = [w["name"] for w in contract["workloads"]]
    assert sorted(doc["end_to_end"]) == sorted(names)
    for w in names:
        e2e = doc["end_to_end"][w]
        assert e2e["failed_share"] == 0 and e2e["checked"] > 0
        assert all(e2e[m["name"]] > 0 for m in contract["end_to_end"])
        got = {**doc["ladder"], **doc["per_layer"][w]}
        assert set(got) == {m["name"] for m in contract["per_layer"]}
        shares = [v for k, v in got.items() if k.startswith("attr.")]
        assert sum(shares) == pytest.approx(1.0)
        assert f"reconcile {w}" in proc.stdout
    units = summary.per_layer_units(doc["ladder"])
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == units
    # the separation the workloads promise
    layer = doc["per_layer"]
    assert layer["lcc_plain"]["core.gets"] == 0
    assert layer["lcc_hit"]["core.evictions"] == 0
    assert layer["lcc_evict"]["core.evictions"] > 0.3 * layer["lcc_evict"]["core.gets"]
    per_op = {w: layer[w]["runtime.switches"] / doc["end_to_end"][w]["ops"] for w in names}
    assert per_op["epoch_churn"] >= 10 * per_op["bh_user"]
    assert [w for w in names if layer[w]["rma.staged_ops"]] == ["fuzz_matrix"]
    # every raw record carries what is needed to re-derive the table
    for path in (HERE / "results" / "raw").glob("pass-*.json"):
        rec = json.loads(path.read_text())
        assert {"workload", "round", "seed", "sizes", "samples", "commit", "host"} <= set(rec)
        assert {"nproc", "cpu", "python", "numpy"} <= set(rec["host"])


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_run_prints_the_contract_line(trace, group):
    proc = run("--workload", "lcc_hit", "--seed", "3", "--seconds", "0.3", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in summary.contract()[group]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_self_test_corrupts_an_output_and_fails():
    proc = run("--workload", "epoch_churn", "--seed", "3", "--seconds", "0.3", "--quick", "--self-test")
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_command_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the command must not succeed."""
    import shutil

    shutil.copy(summary.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "lcc_hit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# seed discipline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [w["name"] for w in summary.contract()["workloads"]])
def test_seed_decides_the_inputs_and_nothing_else(name):
    def outcome(seed: int):
        wl = workloads.make(name, seed, quick=True)
        first = wl.run_pass()
        wl.oracle()
        assert wl.check(first)[1] == 0
        return wl.ops, first.virtual_s, first.stats

    assert outcome(5) == outcome(5)
    assert outcome(5) != outcome(6)


def test_fuzz_specs_come_from_the_seed_and_the_frozen_skip_list_only():
    bad = min(workloads.FUZZ_KNOWN_BAD)
    landing = next(s for s in range(workloads.FUZZ_POOL) if s * 1009 % workloads.FUZZ_POOL == bad)
    assert workloads.fuzz_spec_seeds(landing, 2)[0] == bad + 1
    for seed in range(200):
        chosen = workloads.fuzz_spec_seeds(seed, 2)
        assert len(set(chosen)) == 2 and not set(chosen) & workloads.FUZZ_KNOWN_BAD
        assert all(0 <= s < workloads.FUZZ_POOL for s in chosen)
    # no run-time choice: a cell with a finding is a failed output, whatever the spec
    wl = workloads.make("fuzz_matrix", seed=1, quick=True)
    result = wl.run_pass()
    assert wl.check(result) == (wl.ops, 0)
    wl.corrupt(result)
    assert wl.check(result) == (wl.ops, 1)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_on_cpu_duration_minus_children():
    # pass [0, 100]; rank 0 dispatched [0, 40) and [70, 100), rank 1 [40, 70)
    switches = [(0, 0), (40, 1), (70, 0)]
    tree = [
        ["pass", -1, 0, 100, -1],
        ["rank_program", 0, 0, 100, 0],
        ["rank_program", 1, 0, 100, 0],
        ["get", 0, 10, 20, 1],        # all on-CPU
        ["fence", 0, 30, 80, 1],      # on-CPU 30..40 and 70..80; waits 30
        ["get", 1, 45, 60, 2],
    ]
    assert spans.on_cpu(tree, switches) == [100, 70, 30, 10, 20, 15]
    assert spans.self_times(tree) == [-100, 40, 85, 10, 50, 15]            # wall durations
    assert spans.self_times(tree, spans.on_cpu(tree, switches)) == [0, 40, 15, 10, 20, 15]
    s = spans.summarise(tree, switches)
    assert s["apps.self_s"] == pytest.approx(55e-9)
    assert s["window.get_s"] == pytest.approx(25e-9)
    assert s["window.sync_busy_s"] == pytest.approx(20e-9)
    assert s["window.sync_wait_s"] == pytest.approx(30e-9)
    # every on-CPU nanosecond of the pass lands in exactly one bucket
    assert sum(s[k] for k in summary.ON_CPU) == pytest.approx(s["pass_s"])


def test_span_window_records_calls_and_scoped_epochs():
    calls = []

    class Inner:
        mode = "x"

        def get(self, *a):
            calls.append("get")
            return 7

        def lock_all_epoch(self):
            from contextlib import contextmanager

            @contextmanager
            def cm():
                calls.append("enter")
                yield self
                calls.append("exit")
            return cm()

    trace = spans.Trace()
    trace.open("pass")
    win = trace.window(Inner(), rank=3)
    with win.lock_all_epoch() as w:
        assert w is win and w.get(None, 1, 0) == 7
    assert win.mode == "x" and not hasattr(win, "invalidate")
    assert calls == ["enter", "get", "exit"]
    names = [s[spans.NAME] for s in trace.spans]
    assert names == ["pass", "rank_program", "lock_all", "get", "unlock_all"]
    assert all(s[spans.RANK] == 3 and s[spans.PARENT] == 1 for s in trace.spans[2:])


# ----------------------------------------------------------------------
# ladder
# ----------------------------------------------------------------------
def test_rma_rungs_take_the_path_they_name():
    assert ladder.rma_rung("fused", 64, 1)[1] is True
    assert ladder.rma_rung("staged", 64, 1)[1] is False
    assert ladder.rma_rung("retry", 64, 1)[1] is False
