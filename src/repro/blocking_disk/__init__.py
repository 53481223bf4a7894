"""Disk-backed, SQL-pushdown blocking for larger-than-memory corpora.

Persists blocking keys, MinHash signatures, and LSH band buckets into
indexed SQLite tables and generates candidate pairs with SQL self-joins
and window functions, streamed back in bounded chunks — candidate sets
are identical to the in-memory blockers of
:mod:`repro.matching.blocking` / :mod:`repro.matching.lsh`.

Memory stays bounded only when the caller works piecewise: spill a
corpus slice by slice with :func:`spill_records`, then consume
:func:`stream_candidates` chunk by chunk without building the set.
This package is a library, not a mode of
:class:`~repro.matching.pipeline.MatchingPipeline` or of streaming
sessions, which always block in memory.
"""

from repro.blocking_disk.blockers import (
    DiskBlockingPlan,
    lsh_plan,
    sorted_neighborhood_plan,
    spill_records,
    standard_plan,
    stream_candidates,
    token_plan,
)
from repro.blocking_disk.store import (
    BLOCKING_SCHEMA,
    DEFAULT_CHUNK_SIZE,
    DiskBlockingStore,
)

__all__ = [
    "BLOCKING_SCHEMA",
    "DEFAULT_CHUNK_SIZE",
    "DiskBlockingPlan",
    "DiskBlockingStore",
    "lsh_plan",
    "sorted_neighborhood_plan",
    "spill_records",
    "standard_plan",
    "stream_candidates",
    "token_plan",
]
