"""MPI datatype library with flattening (paper Sec. II-B).

CLaMPI "uses the MPI Datatype Library [Ross et al.] in order to support
arbitrary datatypes.  It allows us to flatten the datatype d to a list of
data blocks d_i = (s_i, o_i) where s_i is the size of the data block and o_i
is its offset".  This module provides exactly that: predefined types mapping
to NumPy scalars, derived types (:class:`Contiguous`, :class:`Vector`,
:class:`Indexed`) and a normalising :meth:`Datatype.flatten` that coalesces
adjacent blocks.

``size`` of a datatype is the number of *payload* bytes per element;
``extent`` is the span it covers in the buffer (>= size for strided types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.mpi.errors import DatatypeError, WindowError

#: A flattened block: (offset_in_bytes, size_in_bytes).
Block = tuple[int, int]


def _coalesce(blocks: Iterable[Block]) -> list[Block]:
    """Merge adjacent/contiguous blocks; blocks must be offset-sorted."""
    out: list[Block] = []
    for off, size in blocks:
        if size < 0 or off < 0:
            raise DatatypeError(f"invalid block ({off}, {size})")
        if size == 0:
            continue
        if out and out[-1][0] + out[-1][1] == off:
            out[-1] = (out[-1][0], out[-1][1] + size)
        else:
            out.append((off, size))
    return out


class Datatype:
    """Abstract datatype: a layout of payload bytes within an extent."""

    @cached_property
    def _footprints(self) -> dict[int, tuple[int, list[Block]]]:
        """:meth:`footprint`'s memo: an instance attribute once read, not a
        field, so it is out of every datatype's eq, hash and repr."""
        return {}

    @property
    def size(self) -> int:
        """Payload bytes per element."""
        raise NotImplementedError

    @property
    def extent(self) -> int:
        """Bytes spanned by one element (stride between consecutive ones)."""
        raise NotImplementedError

    def blocks(self) -> list[Block]:
        """Flattened ``(offset, size)`` blocks of a single element."""
        raise NotImplementedError

    def flatten(self, count: int = 1) -> list[Block]:
        """Flattened blocks of ``count`` consecutive elements, coalesced.

        >>> Contiguous(4, BYTE).flatten(2)
        [(0, 8)]
        """
        if count < 0:
            raise DatatypeError(f"negative count: {count}")
        base = self.blocks()
        ext = self.extent
        if len(base) == 1 and base[0] == (0, ext):
            # Contiguous fast path: one block regardless of count.
            return [(0, ext * count)] if count and ext else []
        all_blocks = (
            (i * ext + off, size) for i in range(count) for off, size in base
        )
        return _coalesce(sorted(all_blocks))

    def footprint(self, count: int) -> tuple[int, list[Block]]:
        """``(span, blocks)`` of ``count`` elements: :meth:`flatten` and the
        extent its last block reaches.

        A pure function of the datatype and ``count``, memoized on the
        datatype by ``count`` — applications issue millions of gets over
        a handful of shapes, and an int key hashes in C where a datatype's
        dataclass ``__hash__`` is a Python call.  The shared block list is
        read-only by contract.  The memo is bounded: cleared wholesale if
        an adversarial stream of counts fills it.
        """
        memo = self._footprints
        fp = memo.get(count)
        if fp is None:
            if len(memo) >= 512:
                memo.clear()
            blocks = self.flatten(count)
            span = blocks[-1][0] + blocks[-1][1] if blocks else 0
            fp = memo[count] = (span, blocks)
        return fp

    def transfer_size(self, count: int) -> int:
        """Total payload bytes of ``count`` elements (``size(x)`` in the paper)."""
        if count < 0:
            raise DatatypeError(f"negative count: {count}")
        return self.size * count

    def is_contiguous(self) -> bool:
        """True when one element is a single block filling the extent."""
        blk = self.blocks()
        return len(blk) == 1 and blk[0] == (0, self.extent)


@dataclass(frozen=True)
class Predefined(Datatype):
    """Leaf datatype wrapping a NumPy scalar dtype."""

    name: str
    np_dtype: np.dtype
    # Stored, not properties: every get reads them.  The class-level
    # defaults replace the base-class properties, which would otherwise
    # take precedence over the instance values; out of eq/hash/repr.
    size: int = field(default=0, init=False, compare=False, repr=False)
    extent: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        itemsize = int(self.np_dtype.itemsize)
        object.__setattr__(self, "size", itemsize)
        object.__setattr__(self, "extent", itemsize)

    def blocks(self) -> list[Block]:
        return [(0, self.size)]

    def __repr__(self) -> str:
        return f"MPI.{self.name}"


BYTE = Predefined("BYTE", np.dtype(np.uint8))
INT32 = Predefined("INT32", np.dtype(np.int32))
INT64 = Predefined("INT64", np.dtype(np.int64))
FLOAT32 = Predefined("FLOAT32", np.dtype(np.float32))
FLOAT64 = Predefined("FLOAT64", np.dtype(np.float64))


@dataclass(frozen=True)
class Contiguous(Datatype):
    """``count`` consecutive elements of ``base`` as one element."""

    count: int
    base: Datatype

    def __post_init__(self) -> None:
        if self.count < 0:
            raise DatatypeError(f"negative count: {self.count}")

    @property
    def size(self) -> int:
        return self.count * self.base.size

    @property
    def extent(self) -> int:
        return self.count * self.base.extent

    def blocks(self) -> list[Block]:
        return self.base.flatten(self.count)


@dataclass(frozen=True)
class Vector(Datatype):
    """``count`` blocks of ``blocklength`` base elements, ``stride`` apart.

    ``stride`` is expressed in base-element extents (as in MPI_Type_vector).
    """

    count: int
    blocklength: int
    stride: int
    base: Datatype

    def __post_init__(self) -> None:
        if self.count < 0 or self.blocklength < 0:
            raise DatatypeError("negative count/blocklength")
        if self.count > 1 and self.stride < self.blocklength:
            raise DatatypeError("overlapping vector blocks (stride < blocklength)")

    @property
    def size(self) -> int:
        return self.count * self.blocklength * self.base.size

    @property
    def extent(self) -> int:
        if self.count == 0:
            return 0
        span = (self.count - 1) * self.stride + self.blocklength
        return span * self.base.extent

    def blocks(self) -> list[Block]:
        ext = self.base.extent
        blk: list[Block] = []
        for i in range(self.count):
            start = i * self.stride * ext
            blk.extend(
                (start + off, size)
                for off, size in self.base.flatten(self.blocklength)
            )
        return _coalesce(sorted(blk))


@dataclass(frozen=True)
class Indexed(Datatype):
    """Irregular blocks: ``blocklengths[i]`` base elements at ``displacements[i]``.

    Displacements are in base-element extents (as in MPI_Type_indexed).
    """

    blocklengths: tuple[int, ...]
    displacements: tuple[int, ...]
    base: Datatype

    def __post_init__(self) -> None:
        if len(self.blocklengths) != len(self.displacements):
            raise DatatypeError("blocklengths/displacements length mismatch")
        if any(b < 0 for b in self.blocklengths):
            raise DatatypeError("negative blocklength")
        if any(d < 0 for d in self.displacements):
            raise DatatypeError("negative displacement")

    @property
    def size(self) -> int:
        return sum(self.blocklengths) * self.base.size

    @property
    def extent(self) -> int:
        if not self.blocklengths:
            return 0
        end = max(
            d + b for d, b in zip(self.displacements, self.blocklengths)
        )
        return end * self.base.extent

    def blocks(self) -> list[Block]:
        ext = self.base.extent
        blk: list[Block] = []
        for disp, blen in zip(self.displacements, self.blocklengths):
            start = disp * ext
            blk.extend(
                (start + off, size) for off, size in self.base.flatten(blen)
            )
        ordered = sorted(blk)
        for (o1, s1), (o2, _s2) in zip(ordered, ordered[1:]):
            if o1 + s1 > o2:
                raise DatatypeError("overlapping indexed blocks")
        return _coalesce(ordered)


def from_numpy(dtype: np.dtype | type) -> Predefined:
    """Map a NumPy scalar dtype to the matching predefined datatype."""
    nd = np.dtype(dtype)
    for pre in (BYTE, INT32, INT64, FLOAT32, FLOAT64):
        if pre.np_dtype == nd:
            return pre
    return Predefined(nd.name.upper(), nd)


#: dtype kinds (bool, int, uint, float, complex) of the origins a get's
#: payload may reach through ``memoryview(origin).cast("B")``: for these,
#: when C-contiguous, writeable, at least 1-d and big enough, the bytes land
#: exactly where :func:`origin_bytes`' view puts them.  Any other origin
#: takes ``origin_bytes``, which raises what it always raised (a memoryview
#: would fill an object array's pointers or a 0-d array, cannot export
#: datetime64, and raises TypeError on read-only memory).
COPY_KINDS = "biufc"


def origin_bytes(origin: np.ndarray, nbytes: int = 0) -> np.ndarray:
    """Flat ``uint8`` view of an origin buffer, which must be C-contiguous
    and hold at least ``nbytes`` bytes."""
    if not origin.flags["C_CONTIGUOUS"]:
        raise WindowError("origin buffer must be C-contiguous")
    obuf = origin.view(np.uint8).reshape(-1)
    if obuf.nbytes < nbytes:
        raise WindowError(f"origin buffer too small: {obuf.nbytes} < {nbytes}")
    return obuf
