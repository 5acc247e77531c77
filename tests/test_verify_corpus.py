"""Regression corpus: shrunk fuzzer cases replayed through the oracle.

Every JSON file under ``tests/fixtures/verify_corpus/`` is a minimal
workload that once witnessed (or pins against) a historical bug class —
stale cache hits across epoch closure, flush-segment leaks, the
crash/barrier-atomicity scheduler deadlock, and the dying rank that
re-entered its own half-mutated cache.  Each must keep replaying
with its recorded expectation; ``python -m repro.verify replay <file>``
runs the same check interactively (see docs/testing.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.reprofile import load_repro, replay

CORPUS = Path(__file__).parent / "fixtures" / "verify_corpus"
CASES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_populated():
    assert len(CASES) >= 8, "the committed verify corpus shrank"
    classes = {f.name.rsplit("_", 1)[0] for f in CASES}
    assert {"stale_hit", "epoch_leak", "crash_pin", "crash_self"} <= classes


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_corpus_case_holds(path):
    repro = load_repro(path)
    assert repro.note, f"{path.name}: corpus cases must explain themselves"
    ok, report = replay(repro)
    assert ok, f"{path.name}: expectation broken\n{report.describe()}"


def test_corpus_specs_are_minimal():
    """Shrunk pins stay small — a bloated pin is a shrinker regression."""
    for path in CASES:
        repro = load_repro(path)
        assert repro.spec.op_count() <= 12, (
            f"{path.name}: {repro.spec.op_count()} ops"
        )


def test_cli_corpus_exit_code():
    from repro.verify.__main__ import main

    assert main(["corpus", str(CORPUS)]) == 0
