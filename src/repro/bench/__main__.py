"""Regenerate every paper figure: ``python -m repro.bench [figNN|aN_* ...]``.

With no arguments all paper figures run in order and the rendered tables
are printed; pass figure ids (e.g. ``fig07 fig12``) or ablation ids (e.g.
``a1_cuckoo_hashes``) to run a subset, or ``ablations`` for all ablations.
Use ``--markdown`` to emit the EXPERIMENTS.md-style blocks instead.

This CLI regenerates figures and checks their claims; it does not measure
host speed.  That is ``benchmarks/perf`` (``python3 benchmarks/perf/run.py``,
contract in ``BENCHMARK.json``; see ``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.figures import ALL_FIGURES
from repro.util import format_time

_ALL = {**ALL_FIGURES, **ALL_ABLATIONS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "figures", nargs="*", help="figure/ablation ids, e.g. fig07 a3_weak_caching"
    )
    parser.add_argument("--markdown", action="store_true", help="markdown output")
    parser.add_argument(
        "--chart", action="store_true", help="also render terminal charts"
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        help="also write one <fig>.json artifact per figure into this directory",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run figures at the paper's original sizes (hours of wall time)",
    )
    args = parser.parse_args(argv)

    selected = args.figures or list(ALL_FIGURES)
    if selected == ["ablations"]:
        selected = list(ALL_ABLATIONS)
    unknown = [f for f in selected if f not in _ALL]
    if unknown:
        parser.error(f"unknown figures: {unknown}; available: {list(_ALL)}")

    failed = []
    for name in selected:
        kwargs = {}
        if args.paper_scale:
            from repro.bench.figures import PAPER_SCALE_KWARGS

            kwargs = PAPER_SCALE_KWARGS.get(name, {})
        # Wall time is how long *this host* took; virtual time is how much
        # simulated time the runs covered (from the obs ledger, which the
        # runtime notes after every completed SimWorld run).  They answer
        # different questions, so both are reported, labelled.
        v0 = obs.virtual_time.total
        t0 = time.time()
        fig = _ALL[name](**kwargs)
        wall = time.time() - t0
        virt = obs.virtual_time.total - v0
        print(fig.markdown() if args.markdown else fig.render())
        if args.chart:
            print()
            print(fig.chart())
        if args.json_dir:
            import pathlib

            out = pathlib.Path(args.json_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.json").write_text(fig.to_json())
        print(
            f"(generated in {wall:.1f}s wall time; simulated "
            f"{format_time(virt)} of virtual time)\n",
            file=sys.stderr,
        )
        if not fig.all_claims_hold:
            failed.append(name)
    if failed:
        print(f"claims failed in: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
