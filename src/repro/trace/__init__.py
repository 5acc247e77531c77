"""Get streams and locality analysis.

The paper motivates RMA caching with two locality studies:

* Fig. 2 — how often the *same* get is repeated in a Barnes-Hut run
  (up to 3,500 times);
* Fig. 3 — the distribution of get sizes in an LCC run (variable sizes
  ⇒ block caches fragment internally).

Both read the get stream, one :class:`~repro.trace.stream.GetStream` of
``(target, disp, nbytes)`` arrays per rank: computed by the apps'
``stream`` methods, or recorded from a plain-window run by
:func:`~repro.trace.stream.capture`.  The analysis helpers compute the
reuse histogram, the size distribution and Denning working sets
(``W(t, tau)``, Sec. III-E); the advisor sizes ``|I_w|`` / ``|S_w|``
from them.
"""

from repro.trace.advisor import Recommendation, recommend_parameters
from repro.trace.analysis import (
    reuse_fraction,
    reuse_histogram,
    size_distribution,
    working_set_bytes,
    working_set_sizes,
)
from repro.trace.stream import GetStream, capture, concat, per_rank

__all__ = [
    "GetStream",
    "Recommendation",
    "capture",
    "concat",
    "per_rank",
    "recommend_parameters",
    "reuse_fraction",
    "reuse_histogram",
    "size_distribution",
    "working_set_bytes",
    "working_set_sizes",
]
