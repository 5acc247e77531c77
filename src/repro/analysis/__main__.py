"""Analysis CLI: lint, typestate verify, capture replay, app smoke.

Subcommands::

    python -m repro.analysis lint src/            # static repo-invariant lint
    python -m repro.analysis verify src/ examples/  # epoch/flush typestate
    python -m repro.analysis rules --check        # docs/analysis.md drift
    python -m repro.analysis report capture.jsonl # replay capture, report
    python -m repro.analysis smoke --strict       # LCC + Barnes-Hut sanitized

``lint`` and ``verify`` print their findings as text and exit 1 when any
error survives the inline ``# analysis: allow(...)`` suppressions; ``report``
and ``smoke`` exit 1 when the sanitizer records a violation, so all of
them wire directly into CI.  ``smoke --report PATH`` writes the violations
as JSONL (one :meth:`repro.analysis.Violation.to_dict` object per line)
for upload as a build artifact.
"""

from __future__ import annotations

import argparse
import json
import sys


def _run_static(kind: str, args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import RULES, SEV_ERROR, render_text
    from repro.analysis.lint import run_lint
    from repro.analysis.typestate import run_verify

    runner = run_lint if kind == "lint" else run_verify
    diags = runner(args.paths)
    print(render_text(diags), end="")

    errors = [d for d in diags if d.severity == SEV_ERROR]
    if diags:
        rules = sorted({d.rule for d in diags})
        print(
            f"\n{len(diags)} finding(s): "
            + "; ".join(f"{r} ({RULES[r]})" for r in rules),
            file=sys.stderr,
        )
    else:
        print(f"{kind} clean ({', '.join(str(p) for p in args.paths)})")
    return 1 if errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _run_static("lint", args)


def _cmd_verify(args: argparse.Namespace) -> int:
    return _run_static("verify", args)


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import (
        docs_in_sync,
        rules_markdown,
        update_docs,
    )

    if args.check:
        if docs_in_sync(args.docs):
            print(f"{args.docs} rule table is in sync with the registry")
            return 0
        print(
            f"{args.docs} rule table has drifted from the RULES registry; "
            "run `python -m repro.analysis rules --write-docs`",
            file=sys.stderr,
        )
        return 1
    if args.write_docs:
        changed = update_docs(args.docs)
        print(
            f"{args.docs}: {'updated' if changed else 'already in sync'}"
        )
        return 0
    print(rules_markdown(), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import Sanitizer
    from repro.obs.report import load_events

    try:
        events = load_events(args.capture)
    except OSError as exc:
        print(f"cannot read capture: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"malformed capture {args.capture}: {exc}", file=sys.stderr)
        return 2

    san = Sanitizer(strict=False)
    for event in events:
        san.handle(event)
    san.finish()
    print(san.render_report(), end="")
    return 1 if san.violations else 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.analysis import sanitize
    from repro.apps.barnes_hut import BarnesHutApp
    from repro.apps.cachespec import CacheSpec
    from repro.apps.lcc import LCCApp
    from repro.mpi.errors import MPIError
    from repro.runtime.scheduler import RankFailedError

    spec = CacheSpec.clampi_fixed(256, 64 * 1024)
    violations = []
    status = 0
    for name, run in (
        (
            "lcc",
            lambda: LCCApp(scale=args.scale, edge_factor=8, seed=2).run(
                nprocs=args.nprocs, spec=spec
            ),
        ),
        (
            "barnes-hut",
            lambda: BarnesHutApp(nbodies=args.nbodies, seed=3).run(
                nprocs=args.nprocs, spec=spec
            ),
        ),
    ):
        try:
            with sanitize(strict=args.strict) as san:
                result = run()
        except RankFailedError as exc:
            status = 1
            origin = exc.original if isinstance(exc.original, MPIError) else exc
            print(f"{name}: FAILED in strict mode: {origin}", file=sys.stderr)
        else:
            ok = not san.violations
            tally = (
                "clean"
                if ok
                else ", ".join(f"{k}={n}" for k, n in san.counts().items())
            )
            print(f"{name}: {tally} (nprocs={args.nprocs})")
            if not ok:
                status = 1
            del result
        violations.extend(san.violations)

    if status == 0:
        print("smoke clean: no violations in LCC or Barnes-Hut")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            for v in violations:
                fh.write(json.dumps(v.to_dict()) + "\n")
        print(f"wrote {len(violations)} violation(s) to {args.report}")
    return status


def _add_static_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "paths", nargs="+", help="files or directories to analyse (e.g. src/)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the static repo-invariant linter")
    _add_static_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="flow-sensitive epoch/flush typestate verification (ANL009-012)",
    )
    _add_static_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    rules = sub.add_parser(
        "rules", help="print or sync the generated ANL rule reference table"
    )
    rules.add_argument(
        "--docs", default="docs/analysis.md", help="docs file with rule markers"
    )
    rules.add_argument(
        "--write-docs",
        action="store_true",
        help="regenerate the rule table between the markers in --docs",
    )
    rules.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the docs rule table drifted from the registry",
    )
    rules.set_defaults(func=_cmd_rules)

    rep = sub.add_parser(
        "report", help="replay a JSONL capture through the sanitizer"
    )
    rep.add_argument("capture", help="path to the JSONL capture file")
    rep.set_defaults(func=_cmd_report)

    smoke = sub.add_parser(
        "smoke", help="run LCC and Barnes-Hut under the sanitizer"
    )
    smoke.add_argument(
        "--strict", action="store_true", help="raise at the first violation"
    )
    smoke.add_argument(
        "--report", default=None, help="write violations as JSONL to this path"
    )
    smoke.add_argument("--nprocs", type=int, default=4)
    smoke.add_argument("--scale", type=int, default=7, help="LCC graph scale")
    smoke.add_argument(
        "--nbodies", type=int, default=192, help="Barnes-Hut body count"
    )
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
