"""``python -m repro.verify`` — the transparency fuzzer CLI.

Subcommands
-----------
``fuzz``
    Generate seeded workloads and push each through the oracle matrix.
    On the first failing case the spec is auto-shrunk and written as a
    JSON repro file; exit code 2 signals a transparency violation.
    ``--inject stale-read`` is the self-test mode: it adds the
    deliberately broken ``buggy-stale`` implementation to the matrix
    and *expects* the oracle to catch and shrink it (exit 1 if missed).
``replay``
    Re-run a repro file (failure repro or corpus regression) and check
    its recorded expectation.
``corpus``
    Replay every ``*.json`` under a corpus directory (default:
    ``tests/fixtures/verify_corpus``).
``chaos``
    Run the chaos harness (:mod:`repro.verify.chaos`): each workload
    clean vs under a fault plan (``--scenario transparent``, the default)
    or with one rank crashing (``--scenario crash``).

Exit codes: 0 = expectation met / no violations, 1 = usage or self-test
miss or a failed chaos suite, 2 = transparency violation found (fuzz) or
expectation broken (replay/corpus).  See ``docs/testing.md`` for the
triage workflow.

The wall-clock budget (``--budget``) lives here in the CLI, outside the
virtual-time hot paths the ANL001 lint rule patrols.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs
from repro.verify import chaos
from repro.verify.oracle import MatrixConfig, run_matrix, config_for_finding
from repro.verify.reprofile import Repro, load_repro, replay, save_repro
from repro.verify.shrink import shrink
from repro.verify.workload import generate

DEFAULT_CORPUS = Path("tests/fixtures/verify_corpus")


def _parse_budget(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("s"):
        t = t[:-1]
    return float(t)


def _matrix_config(args: argparse.Namespace) -> MatrixConfig:
    extra = ()
    if getattr(args, "inject", None) == "stale-read":
        extra = ("buggy-stale",)
    policies = None
    if getattr(args, "policies", None):
        policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    return MatrixConfig(
        policies=policies,
        extra_impls=extra,
        random_seeds=tuple(range(1, args.random_seeds + 1)),
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    config = _matrix_config(args)
    budget = _parse_budget(args.budget) if args.budget else None
    t0 = time.monotonic()
    cases = cells = 0
    workers = 1  # the most processes any case's matrix ran on
    out = Path(args.out)
    for i in range(args.cases):
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed > budget and cases > 0:
            print(f"budget exhausted after {cases} cases ({elapsed:.1f}s)")
            break
        seed = args.seed + i
        spec = generate(seed)
        report = run_matrix(spec, config)
        cases += 1
        cells += report.cells_run
        workers = max(workers, report.workers)
        if not report.ok:
            finding = report.findings[0]
            print(f"case seed={seed}: {report.describe()}")
            print(f"shrinking against: {finding.describe()}")
            reduced = config_for_finding(finding, config)

            def fails(candidate) -> bool:
                rep = run_matrix(candidate, reduced)
                from repro.verify.oracle import matches_finding

                return matches_finding(rep.findings, finding)

            result = shrink(spec, fails, max_evals=args.shrink_evals)
            repro = Repro(
                spec=result.spec,
                expect="fail",
                finding=finding,
                matrix=reduced,
                note=(
                    f"fuzz seed {seed}; shrunk from {spec.op_count()} to "
                    f"{result.spec.op_count()} ops in {result.evals} evals"
                ),
            )
            save_repro(out, repro)
            ok, _ = replay(repro)
            print(
                f"shrunk to {result.spec.op_count()} ops "
                f"({result.evals} evals); repro written to {out} "
                f"(replay {'reproduces' if ok else 'DOES NOT reproduce'})"
            )
            if args.inject == "stale-read":
                # self-test: the seeded bug must be caught, shrunk small,
                # and deterministically replayable
                small = result.spec.op_count() <= args.max_shrunk_ops
                caught = finding.cell.impl == "buggy-stale"
                if caught and ok and small:
                    print(
                        "self-test OK: seeded stale-read bug caught, "
                        f"shrunk to {result.spec.op_count()} ops, replays"
                    )
                    return 0
                print(
                    "self-test FAILED: "
                    + ("finding not on buggy impl; " if not caught else "")
                    + ("" if ok else "repro does not replay; ")
                    + ("" if small else f"repro larger than {args.max_shrunk_ops} ops")
                )
                return 1
            return 2
    elapsed = time.monotonic() - t0
    rate = cases / elapsed if elapsed > 0 else float("inf")
    print(
        f"fuzz: {cases} cases, {cells} cells, 0 violations "
        f"({elapsed:.1f}s, {rate:.2f} cases/s, {workers} workers)"
    )
    if args.inject == "stale-read":
        print("self-test FAILED: seeded stale-read bug was never caught")
        return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    repro = load_repro(args.file)
    ok, report = replay(repro)
    expected = "failure reproduces" if repro.expect == "fail" else "oracle clean"
    print(f"{args.file}: expect={repro.expect} ({expected})")
    if repro.note:
        print(f"  note: {repro.note}")
    print(f"  {report.describe()}")
    print("  expectation MET" if ok else "  expectation BROKEN")
    return 0 if ok else 2


def cmd_corpus(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    files = sorted(root.glob("*.json"))
    if not files:
        print(f"no repro files under {root}", file=sys.stderr)
        return 1
    broken = 0
    for f in files:
        repro = load_repro(f)
        ok, report = replay(repro)
        status = "ok" if ok else "BROKEN"
        print(f"{f.name}: {status} ({report.cells_run} cells)")
        if not ok:
            broken += 1
            print("  " + report.describe().replace("\n", "\n  "))
    print(f"corpus: {len(files) - broken}/{len(files)} cases hold")
    return 0 if broken == 0 else 2


def cmd_chaos(args: argparse.Namespace) -> int:
    sink = None
    if args.obs is not None:
        sink = obs.get_bus().attach(obs.JSONLSink(args.obs))
    try:
        if args.scenario == "crash":
            outcomes = chaos.run_crash_suite(seed=args.seed)
            rendered = chaos.render_crash(outcomes)
        else:
            outcomes = chaos.run_suite(seed=args.seed)
            rendered = chaos.render(outcomes)
    finally:
        if sink is not None:
            obs.get_bus().detach(sink)
            sink.close()

    print(f"chaos suite (scenario={args.scenario}, seed={args.seed})")
    print(rendered)
    if all(o.ok for o in outcomes):
        print("chaos suite PASSED")
        return 0
    print("chaos suite FAILED", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="CLaMPI transparency fuzzer (see docs/testing.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="fuzz random workloads through the oracle")
    fuzz.add_argument("--cases", type=int, default=40)
    fuzz.add_argument("--budget", default=None, help='wall-clock cap, e.g. "120s"')
    fuzz.add_argument("--seed", type=int, default=0, help="base workload seed")
    fuzz.add_argument(
        "--policies", default=None,
        help="comma-separated policy subset (default: all registered)",
    )
    fuzz.add_argument("--random-seeds", type=int, default=1, dest="random_seeds")
    fuzz.add_argument("--out", default="verify-repro.json")
    fuzz.add_argument("--shrink-evals", type=int, default=250)
    fuzz.add_argument(
        "--inject", choices=("stale-read",), default=None,
        help="self-test: seed a known bug and require the oracle to catch it",
    )
    fuzz.add_argument(
        "--max-shrunk-ops", type=int, default=12,
        help="self-test bound on the shrunk repro size",
    )
    fuzz.set_defaults(fn=cmd_fuzz)

    rep = sub.add_parser("replay", help="re-run a repro file")
    rep.add_argument("file")
    rep.set_defaults(fn=cmd_replay)

    corp = sub.add_parser("corpus", help="replay a corpus directory")
    corp.add_argument("dir", nargs="?", default=str(DEFAULT_CORPUS))
    corp.set_defaults(fn=cmd_corpus)

    ch = sub.add_parser(
        "chaos", help="fault-injected runs must stay bit-identical"
    )
    ch.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    ch.add_argument(
        "--scenario",
        choices=("transparent", "crash"),
        default="transparent",
        help="'transparent' = fault-transparency suite (default); "
        "'crash' = permanent rank failure + survivor recovery",
    )
    ch.add_argument(
        "--obs",
        metavar="PATH",
        default=None,
        help="stream all telemetry events of the runs to a JSONL file",
    )
    ch.set_defaults(fn=cmd_chaos)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
