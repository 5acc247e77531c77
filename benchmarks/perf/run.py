#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py --seed N            # the whole benchmark
    python3 benchmarks/perf/run.py --workload lcc_hit --seed N --seconds 10 --trace 0|1
    python3 benchmarks/perf/run.py --aa                # whole benchmark twice, compared
    python3 benchmarks/perf/run.py --spread 10         # ten seeds per workload: IQR/median vs bound

This process only orchestrates: it runs one worker subprocess at a time
(``worker.py``), each of which writes one raw JSON record under
``results/raw/``, and derives every printed number from those records
(``summary.py``).  With ``--workload`` it is the single run the contract in
BENCHMARK.json describes, ending in one JSON line; without, it runs
``ROUNDS`` interleaved rounds of all workloads, one traced round and the
full micro-ladder.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import summary

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
RESULTS = HERE / "results"
#: the contract gives a single run 180 s; its workers share this budget
RUN_TIMEOUT_S = 170
#: ladder size of a contract run; the full ladder alone outlasts its time cap
CONTRACT_LADDER_SCALE = 0.2
QUICK_LADDER_SCALE = 0.02
#: interleaved rounds of the whole benchmark; the A/A differences in
#: README.md were measured at this value
ROUNDS = 5


class WorkerFailed(RuntimeError):
    pass


def spawn(kind: str, out: Path, *, workload: str | None = None, seed: int = 1,
          seconds: float = 0.0, round_: int = 0, quick: bool = False, corrupt: bool = False,
          ladder_scale: float = 1.0, deadline: float | None = None) -> dict:
    """Run one worker to completion and return the record it wrote.

    ``deadline`` (``time.monotonic()``) caps the worker's run time; without
    one it gets the whole budget of a single run.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--kind", kind, "--seed", str(seed),
           "--seconds", str(seconds), "--round", str(round_), "--out", str(out),
           "--ladder-scale", str(ladder_scale)]
    if workload:
        cmd += ["--workload", workload]
    if quick:
        cmd.append("--quick")
    if corrupt:
        cmd.append("--corrupt")
    cmd += ["--t0", repr(time.perf_counter())]
    timeout = RUN_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        # subprocess.run kills and reaps the worker on timeout
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{kind} worker for {workload} ran out of time") from exc
    if proc.returncode or not out.exists():
        raise WorkerFailed(f"{kind} worker for {workload} exited with {proc.returncode}")
    return json.loads(out.read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in summary.contract()["workloads"]]


def record_path(raw: Path, kind: str, workload: str | None, seed: int, round_: int) -> Path:
    return raw / f"{kind}-{workload or 'all'}-s{seed}-r{round_}.json"


def contract_run(raw: Path, workload: str, seed: int, seconds: float, **worker: Any) -> dict:
    """End-to-end metrics of one contract run: a measuring worker, and two
    more fresh processes so that ``setup_s`` is the median of three set-ups."""
    recs = [spawn("pass", record_path(raw, "pass", workload, seed, 0), workload=workload,
                  seed=seed, seconds=seconds, **worker)]
    worker.pop("corrupt", None)
    recs += [spawn("setup", record_path(raw, "setup", workload, seed, r), workload=workload,
                   seed=seed, round_=r, **worker) for r in (1, 2)]
    return summary.end_to_end(recs)


# ----------------------------------------------------------------------
# the contract's single run
# ----------------------------------------------------------------------
def single(args: argparse.Namespace) -> int:
    doc = summary.contract()
    raw = RESULTS / "raw"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        rec = spawn("traced", record_path(raw, "traced", args.workload, args.seed, 0),
                    workload=args.workload, seed=args.seed, quick=args.quick,
                    corrupt=args.self_test, deadline=deadline)
        ladder = spawn("ladder", record_path(raw, "ladder", None, args.seed, 0), deadline=deadline,
                       ladder_scale=QUICK_LADDER_SCALE if args.quick else CONTRACT_LADDER_SCALE)
        values: dict = {}
        if "traced" in rec:  # absent when the untraced pass already failed
            values = summary.per_layer(rec, ladder["ladder"])
            print(summary.reconciliation(args.workload, rec, values))
        wanted = doc["per_layer"]
        checked, failed, errors = rec["checked"], rec["failed"], rec["errors"]
    else:
        values = contract_run(raw, args.workload, args.seed, args.seconds, quick=args.quick,
                              corrupt=args.self_test, deadline=deadline)
        wanted = doc["end_to_end"]
        checked, failed, errors = values["checked"], values["failed"], values["errors"]
    for message in errors:
        print(f"note: {message}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    print(summary.table([[m["name"], values[m["name"]], m["unit"]] for m in wanted],
                        ["metric", "value", "unit"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": checked, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# the whole benchmark
# ----------------------------------------------------------------------
def full(args: argparse.Namespace, out_dir: Path) -> tuple[dict, bool]:
    """All rounds into ``out_dir``; returns ``(summary document, ok)``."""
    raw = out_dir / "raw"
    shutil.rmtree(raw, ignore_errors=True)
    names = workload_names()
    rounds = 1 if args.quick else ROUNDS
    t_start = time.perf_counter()
    for r in range(rounds):
        # rotate the order so slow host drift hits every workload alike
        for w in names[r % len(names):] + names[:r % len(names)]:
            print(f"[round {r + 1}/{rounds}] {w}", file=sys.stderr)
            spawn("pass", record_path(raw, "pass", w, args.seed, r), workload=w, seed=args.seed,
                  seconds=args.seconds, round_=r, quick=args.quick, corrupt=args.self_test)
    for w in names:
        print(f"[traced round] {w}", file=sys.stderr)
        spawn("traced", record_path(raw, "traced", w, args.seed, 0), workload=w, seed=args.seed,
              quick=args.quick)
    print("[ladder]", file=sys.stderr)
    spawn("ladder", record_path(raw, "ladder", None, args.seed, 0),
          ladder_scale=QUICK_LADDER_SCALE if args.quick else 1.0)

    records = summary.load(raw)
    ladder = next(r for r in records if r["kind"] == "ladder")["ladder"]
    doc: dict = {"seed": args.seed, "rounds": rounds, "quick": args.quick,
                 "host": records[0]["host"], "commit": records[0]["commit"],
                 "total_s": time.perf_counter() - t_start, "ladder": ladder,
                 "end_to_end": {}, "per_layer": {}, "reconciliation": {}}
    for w in names:
        mine = [r for r in records if r["workload"] == w]
        e2e = summary.end_to_end(r for r in mine if r["kind"] == "pass")
        traced = next(r for r in mine if r["kind"] == "traced")
        e2e["failed"] += traced["failed"]
        e2e["checked"] += traced["checked"]
        e2e["errors"] += traced["errors"]
        e2e["failed_share"] = e2e["failed"] / e2e["checked"]
        doc["end_to_end"][w] = e2e
        if "traced" in traced:
            layer = summary.per_layer(traced, ladder, e2e.get("wall_s"))
            doc["per_layer"][w] = {k: v for k, v in layer.items() if k not in ladder}
            doc["reconciliation"][w] = summary.reconciliation(w, traced, layer)
    (out_dir / "summary.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return doc, all(e["failed"] == 0 for e in doc["end_to_end"].values())


E2E_ROWS = (
    ("wall_s", "s"), ("wall_q1_s", "s"), ("wall_q3_s", "s"), ("wall_n", "count"),
    ("wall_best_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("virtual_s", "virt_s"), ("hit_ratio", "ratio"), ("failed_share", "ratio"),
    ("ops", "count"), ("oracle_s", "s"),
)


def render(doc: dict) -> str:
    names = list(doc["end_to_end"])
    units = summary.per_layer_units(doc["ladder"])
    parts = [
        f"seed {doc['seed']}, {doc['rounds']} round(s), {doc['total_s']:.0f} s, "
        f"commit {doc['commit']}, host {doc['host']['nproc']} x {doc['host']['cpu']}",
        "\nEnd to end (untraced rounds; host clock unless the unit says virt_s)",
        summary.table([[k, u] + [doc["end_to_end"][w].get(k) for w in names] for k, u in E2E_ROWS],
                      ["metric", "unit"] + names),
        "\nPer layer, traced round",
        summary.table([[k, units[k]] + [doc["per_layer"].get(w, {}).get(k) for w in names]
                       for k in summary.TRACED_UNITS], ["metric", "unit"] + names),
        "\nPer layer, micro-ladder (one public call in isolation)",
        summary.table([[k, units[k], v] for k, v in doc["ladder"].items()],
                      ["metric", "unit", "value"]),
        "",
    ]
    parts += [doc["reconciliation"][w] for w in names if w in doc["reconciliation"]]
    for w in names:
        parts += [f"note [{w}]: {e}" for e in doc["end_to_end"][w]["errors"]]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# A/A and spread
# ----------------------------------------------------------------------
def aa(args: argparse.Namespace) -> int:
    """The whole benchmark twice on the same checkout, compared."""
    bounds = {m["name"]: m for m in summary.contract()["end_to_end"]}
    docs = []
    for side in "ab":
        doc, ok = full(args, RESULTS / f"aa-{side}")
        print(render(doc))
        if not ok:
            return 1
        docs.append(doc)
    a, b = docs
    rows, bad = [], 0
    for w in a["end_to_end"]:
        ea, eb = a["end_to_end"][w], b["end_to_end"][w]
        for name, m in bounds.items():
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (eb[name] - ea[name]) / ea[name]
            verdict = "ok" if abs(worse) <= m["bound"] else "OUTSIDE BOUND"
            bad += verdict != "ok"
            rows.append([w, name, ea[name], eb[name], f"{worse:+.1%}", f"{m['bound']:.0%}", verdict])
        exact = {k: (ea[k], eb[k]) for k in summary.EXACT}
        exact.update({k: (a["per_layer"][w][k], b["per_layer"][w][k]) for k in summary.EXACT_TRACED})
        for name, (va, vb) in exact.items():
            if va != vb:
                bad += 1
                rows.append([w, name, va, vb, "differs", "exact", "NOT EXACT"])
    print("\nA/A: second run against first (+ = worse)")
    print(summary.table(rows, ["workload", "metric", "A", "B", "B worse by", "bound", "verdict"]))
    print(f"exact metrics compared per workload: {len(summary.EXACT) + len(summary.EXACT_TRACED)}; "
          f"{bad} row(s) outside their bound")
    return 1 if bad else 0


def spread(args: argparse.Namespace) -> int:
    """The contract's acceptance test: N seeds per workload, IQR/median vs bound.

    Fails when a spread exceeds its bound or an output is wrong.  ``setup_s``
    is printed but cannot fail: the contract holds only its median to the bound.
    """
    doc = summary.contract()
    names = [args.workload] if args.workload else workload_names()
    raw = RESULTS / "spread"
    rows, values, bad = [], {}, 0
    for w in names:
        runs = []
        for seed in range(args.seed, args.seed + args.spread):
            print(f"[spread] {w} seed {seed}", file=sys.stderr)
            runs.append(contract_run(raw, w, seed, args.seconds))
        for m in doc["end_to_end"]:
            series = [r[m["name"]] for r in runs]
            s = summary.spread(series)
            values[f"{w}.{m['name']}"] = series
            verdict = "ok" if s <= m["bound"] / 3 else "ok (> bound/3)" if s <= m["bound"] else "TOO WIDE"
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            else:
                bad += verdict == "TOO WIDE"
            rows.append([w, m["name"], summary.quartiles(series)[1], f"{s:.1%}", f"{m['bound']:.0%}", verdict])
        failed = sum(r["failed"] for r in runs)
        bad += failed > 0
        rows.append([w, "failed", failed, "", "", ""])
    (RESULTS / "spread.json").write_text(json.dumps(values, indent=1))
    print(summary.table(rows, ["workload", "metric", "median", "IQR/median", "bound", "verdict"]))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run this one workload as the contract's single run")
    ap.add_argument("--seed", type=int, default=1, help="feeds the input generators only")
    ap.add_argument("--seconds", type=float, help="timed seconds per worker "
                    "(default: run_seconds of BENCHMARK.json for a single run, 4 otherwise)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="single run: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--quick", action="store_true", help="one round, reduced sizes (< 30 s smoke)")
    ap.add_argument("--self-test", action="store_true",
                    help="corrupt one checked output per workload: the command must fail")
    ap.add_argument("--aa", action="store_true", help="run the whole benchmark twice and compare")
    ap.add_argument("--spread", type=int, metavar="N",
                    help="N single runs per workload on seeds seed..seed+N-1: IQR/median vs bound")
    args = ap.parse_args(argv)
    single_run = bool(args.workload) and not args.spread
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else (
            summary.contract()["run_seconds"] if single_run or args.spread else 4.0)
    try:
        if args.spread:
            return spread(args)
        if single_run:
            return single(args)
        if args.aa:
            return aa(args)
        doc, ok = full(args, RESULTS)
        print(render(doc))
        return 0 if ok else 1
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
