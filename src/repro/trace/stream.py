"""The get stream: the one format every locality analysis reads.

The paper sizes the cache from the get stream alone, the triples
``(trg, dsp, size)`` in issue order.  A :class:`GetStream` holds one
rank's stream as three aligned arrays; a run's stream is a list of them,
one per rank.

Producers compute the stream from the problem, without running a world:
``LCCApp.stream``, ``BarnesHutApp.stream`` and ``MicroWorkload.stream``.
For any other program, :func:`capture` collects it from the ``rma.get``
and ``rma.get_batch`` events a plain window emits.  Capture on a plain
window: a cached one forwards only its misses.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from repro import obs


class GetStream:
    """One rank's gets in issue order: aligned ``target`` (int32),
    ``disp`` (int64, the window displacement) and ``nbytes`` (int64)."""

    __slots__ = ("target", "disp", "nbytes")

    def __init__(self, target, disp, nbytes):
        self.target = np.asarray(target, dtype=np.int32)
        self.disp = np.asarray(disp, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.int64)
        if self.target.ndim != 1 or not (
            self.target.shape == self.disp.shape == self.nbytes.shape
        ):
            raise ValueError("target, disp and nbytes must be aligned 1-D arrays")

    def __len__(self) -> int:
        return self.target.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GetStream):
            return NotImplemented
        return (
            np.array_equal(self.target, other.target)
            and np.array_equal(self.disp, other.disp)
            and np.array_equal(self.nbytes, other.nbytes)
        )

    def __repr__(self) -> str:
        return f"GetStream({len(self)} gets)"


def concat(streams: Iterable[GetStream]) -> GetStream:
    """The streams back to back (a run's ranks in rank order, say)."""
    streams = list(streams)
    return GetStream(
        *(
            np.concatenate([getattr(s, name) for s in streams] or [[]])
            for name in GetStream.__slots__
        )
    )


def per_rank(nprocs: int, rank, target, disp, nbytes) -> list[GetStream]:
    """One run's gets, ordered by issuing ``rank``, as ``nprocs`` streams."""
    cuts = np.searchsorted(rank, np.arange(1, nprocs))
    return [GetStream(*gets) for gets in zip(*(np.split(a, cuts) for a in (target, disp, nbytes)))]


@contextmanager
def capture(nprocs: int) -> Iterator[list[GetStream]]:
    """Record the gets posted inside the block, one stream per rank.

    Yields a list that holds the ``nprocs`` streams once the block exits::

        with capture(4) as streams:
            program_run_on_4_ranks()
    """
    gets: list[list[tuple[int, int, int]]] = [[] for _ in range(nprocs)]

    def record(event: obs.Event) -> None:
        ops = event.attrs["ops"] if event.kind == obs.RMA_GET_BATCH else (event.attrs,)
        gets[event.rank].extend((op["target"], op["disp"], op["nbytes"]) for op in ops)

    streams: list[GetStream] = []
    with obs.capture(obs.CallbackSink(record, kinds=(obs.RMA_GET, obs.RMA_GET_BATCH))):
        yield streams
    streams.extend(
        GetStream(*np.array(g, dtype=np.int64).reshape(-1, 3).T) for g in gets
    )
