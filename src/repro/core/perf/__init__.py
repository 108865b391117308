"""Solver performance layer: shared-work caching and parallel fan-out.

The exact pipeline (Algorithm 2's BFS over mixin sets, Algorithm 3's
DTRS enumeration, and the matching-based chain-reaction analysis) is
exponential by Theorem 3.1 — but the *seed* implementation also paid
for the same sub-results thousands of times over.  This package holds
the machinery that removes the redundancy without changing a single
answer:

* :class:`WorldSet` (:mod:`~repro.core.perf.worlds`) — token-RS
  combinations of a ring set in an interned, bitmask-indexed form.
  Enumerated once, extended per candidate, and queried for DTRSs via
  big-integer mask intersections instead of repeated world scans.
* :class:`SolverCache` (:mod:`~repro.core.perf.cache`) — per-instance
  memoization keyed by ring-set fingerprints: connected components of
  the token-overlap graph give O(tokens) related-ring closures, and the
  base worlds / base matchings of each distinct related set are shared
  by every BFS candidate that touches it.
* :class:`IncrementalMatcher` (:mod:`~repro.core.perf.matching`) — one
  maximum bipartite matching per ring set; every "can ring r consume
  token t?" query is answered with a single augmenting-path repair
  instead of a full Kuhn run.
* :mod:`~repro.core.perf.parallel` — opt-in multiprocessing fan-out for
  the BFS candidate stream and the per-ring chain-reaction sweep, with
  a deterministic first-feasible-in-lexicographic-order winner so the
  parallel results are identical to serial.
* :mod:`~repro.core.perf.kernels` — columnar batch kernels: whole
  strata of candidates are resolved against one cached base world set
  via factorized slice masks (bulk extension, batched HT filtering, a
  size-0/1/2 DTRS pre-sweep) on big-integer world masks.
* :mod:`~repro.core.perf.reference` — the seed (pre-optimization)
  algorithms, kept verbatim so equivalence tests and the
  ``BENCH_bfs.json`` benchmark can prove the fast path returns the same
  output and measure how much faster it is.
"""

from .cache import SolverCache
from .kernels import KernelState, batching, prefilter_chunk
from .matching import IncrementalMatcher
from .parallel import parallel_map_rings, resolve_workers
from .worlds import WorldSet

__all__ = [
    "SolverCache",
    "IncrementalMatcher",
    "WorldSet",
    "KernelState",
    "batching",
    "prefilter_chunk",
    "parallel_map_rings",
    "resolve_workers",
]
